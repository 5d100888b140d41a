// Principal Component Analysis via the cross-product thin SVD.
//
// Section II-A of the paper notes that the SVD of the centered data matrix
// "is exactly the same as the PCA", and uses this to justify the classical
// two-stage PCA+LDA pipeline (Belhumeur et al.'s Fisherfaces); see
// fisherfaces.h for that pipeline built on top of this module.

#ifndef SRDA_CORE_PCA_H_
#define SRDA_CORE_PCA_H_

#include "core/embedding.h"
#include "matrix/matrix.h"

namespace srda {

struct PcaOptions {
  // Keep at most this many components (0 = keep all up to the numerical
  // rank).
  int max_components = 0;
  // Keep the smallest number of components explaining at least this fraction
  // of the total variance (applied after max_components; 1.0 disables).
  double variance_to_keep = 1.0;
};

struct PcaModel {
  LinearEmbedding embedding;
  // Per-component explained variance (descending), length = output_dim.
  Vector explained_variance;
  // Fraction of total variance captured by the kept components.
  double captured_variance_ratio = 0.0;
  bool converged = false;
};

// Fits PCA on dense data (rows are samples). The embedding maps x to the
// centered principal coordinates: y = V^T (x - mean).
PcaModel FitPca(const Matrix& x, const PcaOptions& options = {});

}  // namespace srda

#endif  // SRDA_CORE_PCA_H_
