// Model selection utilities: stratified k-fold cross-validation and an
// alpha-grid search for SRDA.
//
// Figure 5 of the paper studies SRDA's sensitivity to the regularization
// parameter and concludes selection "is not a very crucial problem"; this
// module provides the tooling to verify that on any dataset and to pick
// alpha automatically when it does matter.

#ifndef SRDA_SELECT_MODEL_SELECTION_H_
#define SRDA_SELECT_MODEL_SELECTION_H_

#include <vector>

#include "common/rng.h"
#include "dataset/dataset.h"
#include "dataset/split.h"

namespace srda {

// Partitions samples into `num_folds` stratified folds. Every fold receives
// floor or ceil of class_size / num_folds samples of each class; each class
// must have at least `num_folds` samples.
std::vector<std::vector<int>> StratifiedFolds(const std::vector<int>& labels,
                                              int num_classes, int num_folds,
                                              Rng* rng);

struct AlphaSearchResult {
  // Mean validation error (fraction in [0, 1]) per candidate.
  std::vector<double> errors;
  // Index of the best candidate (smallest error, ties to the smaller alpha).
  int best_index = 0;
  double best_alpha = 0.0;
};

// Grid-searches SRDA's ridge parameter by k-fold cross-validation with a
// nearest-centroid classifier in the embedded space. Each training fold
// binds one RidgeSolver, so a k-fold x g-alpha grid pays k Gram and
// response builds and one Cholesky refactorization per grid point.
AlphaSearchResult SelectSrdaAlpha(const DenseDataset& dataset,
                                  const std::vector<double>& alphas,
                                  int num_folds, uint64_t seed);

}  // namespace srda

#endif  // SRDA_SELECT_MODEL_SELECTION_H_
