#include "core/pca.h"

#include "common/check.h"
#include "linalg/svd.h"
#include "matrix/blas.h"

namespace srda {

PcaModel FitPca(const Matrix& x, const PcaOptions& options) {
  SRDA_CHECK_GT(x.rows(), 1) << "PCA needs at least two samples";
  SRDA_CHECK_GE(options.max_components, 0);
  SRDA_CHECK(options.variance_to_keep > 0.0 &&
             options.variance_to_keep <= 1.0)
      << "variance_to_keep must be in (0, 1]";

  PcaModel model;
  const Vector mean = ColumnMeans(x);
  Matrix centered = x;
  SubtractRowVector(mean, &centered);

  // ThinSvd's default relative singular-value truncation threshold.
  const SvdResult svd = ThinSvd(centered);
  if (!svd.converged) return model;

  // Explained variance of component k is sigma_k^2 / (m - 1).
  const double inv_dof = 1.0 / (x.rows() - 1);
  double total_variance = 0.0;
  for (int k = 0; k < svd.rank; ++k) {
    total_variance +=
        svd.singular_values[k] * svd.singular_values[k] * inv_dof;
  }

  int keep = svd.rank;
  if (options.max_components > 0) {
    keep = std::min(keep, options.max_components);
  }
  if (options.variance_to_keep < 1.0 && total_variance > 0.0) {
    double cumulative = 0.0;
    int needed = 0;
    while (needed < keep) {
      cumulative += svd.singular_values[needed] *
                    svd.singular_values[needed] * inv_dof;
      ++needed;
      if (cumulative >= options.variance_to_keep * total_variance) break;
    }
    keep = needed;
  }

  Matrix projection(x.cols(), keep);
  model.explained_variance = Vector(keep);
  double captured = 0.0;
  for (int k = 0; k < keep; ++k) {
    for (int j = 0; j < x.cols(); ++j) projection(j, k) = svd.v(j, k);
    const double variance =
        svd.singular_values[k] * svd.singular_values[k] * inv_dof;
    model.explained_variance[k] = variance;
    captured += variance;
  }
  model.captured_variance_ratio =
      total_variance > 0.0 ? captured / total_variance : 0.0;

  Vector bias(keep);
  const Vector mean_projected = MultiplyTransposed(projection, mean);
  for (int k = 0; k < keep; ++k) bias[k] = -mean_projected[k];
  model.embedding = LinearEmbedding(std::move(projection), std::move(bias));
  model.converged = true;
  return model;
}

}  // namespace srda
