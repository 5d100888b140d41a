#include "select/model_selection.h"

#include <algorithm>

#include "classify/classifiers.h"
#include "common/check.h"
#include "core/responses.h"
#include "core/srda.h"
#include "solver/ridge_solver.h"

namespace srda {

std::vector<std::vector<int>> StratifiedFolds(const std::vector<int>& labels,
                                              int num_classes, int num_folds,
                                              Rng* rng) {
  SRDA_CHECK(rng != nullptr);
  SRDA_CHECK_GT(num_folds, 1) << "need at least two folds";
  const std::vector<int> counts = ClassCounts(labels, num_classes);
  for (int k = 0; k < num_classes; ++k) {
    SRDA_CHECK_GE(counts[static_cast<size_t>(k)], num_folds)
        << "class " << k << " has fewer samples than folds";
  }

  std::vector<std::vector<int>> by_class(static_cast<size_t>(num_classes));
  for (int i = 0; i < static_cast<int>(labels.size()); ++i) {
    by_class[static_cast<size_t>(labels[static_cast<size_t>(i)])].push_back(i);
  }
  for (auto& indices : by_class) rng->Shuffle(&indices);

  std::vector<std::vector<int>> folds(static_cast<size_t>(num_folds));
  for (const auto& indices : by_class) {
    for (size_t position = 0; position < indices.size(); ++position) {
      folds[position % static_cast<size_t>(num_folds)].push_back(
          indices[position]);
    }
  }
  for (auto& fold : folds) std::sort(fold.begin(), fold.end());
  return folds;
}

AlphaSearchResult SelectSrdaAlpha(const DenseDataset& dataset,
                                  const std::vector<double>& alphas,
                                  int num_folds, uint64_t seed) {
  SRDA_CHECK(!alphas.empty()) << "no alpha candidates";
  AlphaSearchResult result;
  result.errors.assign(alphas.size(), 0.0);

  // One draw of the folds serves every candidate (paired comparison).
  // Per-fold Gram cache: one solver is bound to each training fold, so a
  // fold builds its centered data, Gram and responses once and pays one
  // Cholesky refactorization per alpha (a rank-k downdate of the full-data
  // factor measured slower than this; DESIGN.md §4e). The loop runs
  // fold-outer / alpha-inner, so only one fold's data and solver are alive
  // at a time; each alpha's error sum still adds the folds in ascending
  // order, and each solver still sees the alphas in grid order.
  Rng rng(seed);
  const std::vector<std::vector<int>> folds =
      StratifiedFolds(dataset.labels, dataset.num_classes, num_folds, &rng);
  for (int f = 0; f < num_folds; ++f) {
    std::vector<int> train_indices;
    for (int other = 0; other < num_folds; ++other) {
      if (other == f) continue;
      train_indices.insert(train_indices.end(),
                           folds[static_cast<size_t>(other)].begin(),
                           folds[static_cast<size_t>(other)].end());
    }
    std::sort(train_indices.begin(), train_indices.end());
    const DenseDataset train = Subset(dataset, train_indices);
    const DenseDataset validation =
        Subset(dataset, folds[static_cast<size_t>(f)]);
    RidgeSolver solver(&train.features);
    const Matrix responses =
        GenerateSrdaResponses(train.labels, train.num_classes);
    for (size_t a = 0; a < alphas.size(); ++a) {
      SrdaOptions options;
      options.alpha = alphas[a];
      const SrdaModel model = FitSrda(&solver, responses, options);
      SRDA_CHECK(model.converged) << "SRDA failed during CV";
      CentroidClassifier classifier;
      classifier.Fit(model.embedding.Transform(train.features), train.labels,
                     train.num_classes);
      result.errors[a] += ErrorRate(
          classifier.Predict(model.embedding.Transform(validation.features)),
          validation.labels);
    }
  }
  for (double& error : result.errors) error /= num_folds;
  result.best_index = static_cast<int>(
      std::min_element(result.errors.begin(), result.errors.end()) -
      result.errors.begin());
  result.best_alpha = alphas[static_cast<size_t>(result.best_index)];
  return result;
}

}  // namespace srda
