#include "core/idr_qr.h"

#include <cmath>

#include "common/check.h"
#include "dataset/dataset.h"
#include "linalg/cholesky.h"
#include "linalg/qr.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/blas.h"

namespace srda {
namespace {

// Ridge added to the reduced within-class scatter before inversion.
constexpr double kRegularization = 1e-8;
// Eigenvalues at or below this are treated as zero.
constexpr double kEigenTolerance = 1e-12;

}  // namespace

IdrQrModel FitIdrQr(const Matrix& x, const std::vector<int>& labels,
                    int num_classes) {
  SRDA_CHECK_GT(num_classes, 1) << "need at least two classes";
  const int m = x.rows();
  const int n = x.cols();
  SRDA_CHECK_GE(n, num_classes) << "IDR/QR needs at least c features";
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), m) << "label count mismatch";
  const std::vector<int> counts = ClassCounts(labels, num_classes);
  for (int k = 0; k < num_classes; ++k) {
    SRDA_CHECK_GT(counts[static_cast<size_t>(k)], 0)
        << "class " << k << " has no samples";
  }

  IdrQrModel model;

  // Class centroids (c x n) and global mean.
  Matrix centroids(num_classes, n);
  for (int i = 0; i < m; ++i) {
    const double* row = x.RowPtr(i);
    double* centroid = centroids.RowPtr(labels[static_cast<size_t>(i)]);
    for (int j = 0; j < n; ++j) centroid[j] += row[j];
  }
  for (int k = 0; k < num_classes; ++k) {
    const double inv = 1.0 / counts[static_cast<size_t>(k)];
    double* centroid = centroids.RowPtr(k);
    for (int j = 0; j < n; ++j) centroid[j] *= inv;
  }
  const Vector mean = ColumnMeans(x);

  // Stage 1: orthonormal basis Q (n x c) of the centroid span via QR.
  const QrResult qr = ThinQr(centroids.Transposed());
  const Matrix& q = qr.q;

  // Stage 2: project the centered data into the reduced space (m x c).
  Matrix centered = x;
  SubtractRowVector(mean, &centered);
  const Matrix z = Multiply(centered, q);

  // Reduced scatters: S_t' = Z^T Z; S_b' from the projected centroid
  // deviations; S_w' = S_t' - S_b'.
  const Matrix st_reduced = Gram(z);
  const Vector mean_reduced = MultiplyTransposed(q, mean);
  Matrix hb(num_classes, num_classes);  // sqrt(m_k) * (nu_k - nu)
  for (int k = 0; k < num_classes; ++k) {
    const Vector centroid_reduced = MultiplyTransposed(q, centroids.Row(k));
    const double scale = std::sqrt(
        static_cast<double>(counts[static_cast<size_t>(k)]));
    for (int j = 0; j < num_classes; ++j) {
      hb(k, j) = scale * (centroid_reduced[j] - mean_reduced[j]);
    }
  }
  const Matrix sb_reduced = Gram(hb);
  Matrix sw_reduced = st_reduced;
  for (int i = 0; i < num_classes; ++i) {
    for (int j = 0; j < num_classes; ++j) sw_reduced(i, j) -= sb_reduced(i, j);
  }

  // Stage 3: generalized eigenproblem S_b' v = lambda (S_w' + eps I) v via
  // Cholesky reduction to a standard symmetric problem.
  const double shift =
      kRegularization + 1e-12 * (1.0 + std::fabs(sw_reduced(0, 0)));
  Cholesky chol;
  if (!chol.Factor(sw_reduced, shift)) {
    model.converged = false;
    return model;
  }
  // K = L^{-1} S_b' L^{-T}: one forward sweep gives L^{-1} S_b', and a
  // second on its transpose gives (L^{-1} (L^{-1} S_b')^T)^T = K by
  // symmetry.
  const int c = num_classes;
  const Matrix& l = chol.factor();
  const Matrix k_matrix =
      ForwardSubstituteMatrix(l, ForwardSubstituteMatrix(l, sb_reduced)
                                     .Transposed());
  const SymmetricEigenResult eigen = SymmetricEigen(k_matrix);
  if (!eigen.converged) {
    model.converged = false;
    return model;
  }

  int num_directions = 0;
  for (int j = c - 1; j >= 0; --j) {
    if (eigen.eigenvalues[j] <= kEigenTolerance) break;
    if (num_directions == c - 1) break;
    ++num_directions;
  }
  model.num_directions = num_directions;

  // v = L^{-T} q_small for the top eigenvectors in one backward sweep;
  // final direction = Q v.
  Matrix top(c, num_directions);
  for (int d = 0; d < num_directions; ++d) {
    top.SetCol(d, eigen.eigenvectors.Col(c - 1 - d));
  }
  Matrix v_small = BackSubstituteTransposedMatrix(l, top);
  for (int d = 0; d < num_directions; ++d) {
    // sqrt(lambda) scaling, consistent with the other eigen-based trainers.
    const double scale = std::sqrt(eigen.eigenvalues[c - 1 - d]);
    for (int j = 0; j < c; ++j) v_small(j, d) *= scale;
  }
  Matrix projection = Multiply(q, v_small);  // n x d

  Vector bias(num_directions);
  const Vector mean_projected = MultiplyTransposed(projection, mean);
  for (int d = 0; d < num_directions; ++d) bias[d] = -mean_projected[d];

  model.embedding = LinearEmbedding(std::move(projection), std::move(bias));
  model.converged = true;
  return model;
}

}  // namespace srda
