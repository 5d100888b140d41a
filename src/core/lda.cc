#include "core/lda.h"

#include <cmath>

#include "common/check.h"
#include "dataset/dataset.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/blas.h"

namespace srda {
namespace {

// Relative truncation threshold for the data SVD (numerical rank of the
// centered data matrix). The cross-product SVD resolves singular values
// only down to ~sqrt(eps) * sigma_max ~ 1e-8, so this keeps a safe margin
// above that floor; anything tighter lets pure round-off directions into
// the basis, which the 1/sigma weighting then amplifies catastrophically.
constexpr double kSvdRankTolerance = 1e-6;
// Between-class eigenvalues at or below this are treated as zero; LDA
// yields at most c-1 directions.
constexpr double kEigenTolerance = 1e-9;

}  // namespace

LdaModel FitLda(const Matrix& x, const std::vector<int>& labels,
                int num_classes) {
  SRDA_CHECK_GT(num_classes, 1) << "need at least two classes";
  const int m = x.rows();
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), m) << "label count mismatch";
  const std::vector<int> counts = ClassCounts(labels, num_classes);
  for (int k = 0; k < num_classes; ++k) {
    SRDA_CHECK_GT(counts[static_cast<size_t>(k)], 0)
        << "class " << k << " has no samples";
  }

  LdaModel model;

  // Center the data; the SVD of the centered matrix is the PCA step that
  // resolves the singularity of S_t (Section II-A of the paper).
  const Vector mean = ColumnMeans(x);
  Matrix centered = x;
  SubtractRowVector(mean, &centered);

  const SvdResult svd = ThinSvd(centered, kSvdRankTolerance);
  model.data_rank = svd.rank;
  if (!svd.converged || svd.rank == 0) {
    model.converged = false;
    return model;
  }
  const int r = svd.rank;

  // In the SVD basis the total scatter is the identity, and the between-class
  // scatter becomes M = H^T H where row k of H (c x r) is the scaled sum of
  // the class-k rows of U: h_k = (1/sqrt(m_k)) sum_{i in k} U_i. Following
  // the paper's trick we eigendecompose the small side G = H H^T (c x c) and
  // recover the r-dimensional eigenvectors b = H^T q / sqrt(lambda).
  Matrix h(num_classes, r);
  for (int i = 0; i < m; ++i) {
    const double* u_row = svd.u.RowPtr(i);
    double* h_row = h.RowPtr(labels[static_cast<size_t>(i)]);
    for (int j = 0; j < r; ++j) h_row[j] += u_row[j];
  }
  for (int k = 0; k < num_classes; ++k) {
    const double inv_sqrt = 1.0 / std::sqrt(
        static_cast<double>(counts[static_cast<size_t>(k)]));
    double* h_row = h.RowPtr(k);
    for (int j = 0; j < r; ++j) h_row[j] *= inv_sqrt;
  }

  const Matrix g = OuterGram(h);  // c x c
  const SymmetricEigenResult eigen = SymmetricEigen(g);
  if (!eigen.converged) {
    model.converged = false;
    return model;
  }

  // Keep eigenvalues above tolerance, at most c-1 of them, largest first.
  int num_directions = 0;
  for (int j = num_classes - 1; j >= 0; --j) {
    if (eigen.eigenvalues[j] <= kEigenTolerance) break;
    if (num_directions == num_classes - 1) break;
    ++num_directions;
  }
  model.num_directions = num_directions;

  // b_j = H^T q_j (so that ||b_j|| = sqrt(lambda_j)); a_j = V Sigma^{-1} b_j.
  // The sqrt(lambda) length makes the embedding metrically equivalent to the
  // optimal-scoring / spectral-regression form (each whitened direction is
  // weighted by its discriminative strength), which is what lets SRDA and
  // the eigen-based solvers agree in nearest-centroid accuracy.
  Matrix b(r, num_directions);
  for (int d = 0; d < num_directions; ++d) {
    const int src = num_classes - 1 - d;
    for (int k = 0; k < num_classes; ++k) {
      const double weight = eigen.eigenvectors(k, src);
      if (weight == 0.0) continue;
      const double* h_row = h.RowPtr(k);
      for (int j = 0; j < r; ++j) b(j, d) += weight * h_row[j];
    }
  }
  // Scale rows of b by 1/sigma, then map through V.
  for (int j = 0; j < r; ++j) {
    const double inv_sigma = 1.0 / svd.singular_values[j];
    for (int d = 0; d < num_directions; ++d) b(j, d) *= inv_sigma;
  }
  Matrix projection = Multiply(svd.v, b);  // n x d

  // Bias recenters embeddings: y = P^T (x - mean).
  Vector bias(num_directions);
  const Vector mean_projected = MultiplyTransposed(projection, mean);
  for (int d = 0; d < num_directions; ++d) bias[d] = -mean_projected[d];

  model.embedding = LinearEmbedding(std::move(projection), std::move(bias));
  model.converged = true;
  return model;
}

}  // namespace srda
