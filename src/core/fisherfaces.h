// The classical two-stage PCA+LDA pipeline ("Fisherfaces", Belhumeur et al.
// 1997, the paper's reference [5]).
//
// Section II-A of the paper derives why this works: the SVD/PCA stage maps
// the data into the span where the total scatter is nonsingular, after which
// ordinary LDA applies. This module composes the two embeddings into one
// affine map so the result is directly comparable with the other trainers.

#ifndef SRDA_CORE_FISHERFACES_H_
#define SRDA_CORE_FISHERFACES_H_

#include <vector>

#include "core/embedding.h"
#include "matrix/matrix.h"

namespace srda {

struct FisherfacesOptions {
  // PCA components kept before LDA (0 = m - c, the classical choice that
  // makes the reduced within-class scatter nonsingular).
  int pca_components = 0;
};

struct FisherfacesModel {
  LinearEmbedding embedding;  // composed PCA -> LDA map
  int pca_components_used = 0;
  int num_directions = 0;
  bool converged = false;
};

// Trains PCA+LDA on dense data (rows are samples).
FisherfacesModel FitFisherfaces(const Matrix& x,
                                const std::vector<int>& labels,
                                int num_classes,
                                const FisherfacesOptions& options = {});

}  // namespace srda

#endif  // SRDA_CORE_FISHERFACES_H_
