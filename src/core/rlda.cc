#include "core/rlda.h"

#include <cmath>

#include "common/check.h"
#include "dataset/dataset.h"
#include "linalg/cholesky.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/blas.h"
#include "solver/ridge_solver.h"

namespace srda {
namespace {

// Eigenvalues at or below this are treated as zero.
constexpr double kEigenTolerance = 1e-9;

// Class-sum matrix Hd (c x n, S_b = Hd^T Hd) from the centered data.
Matrix BuildClassSums(const Matrix& centered, const std::vector<int>& labels,
                      int num_classes, const std::vector<int>& counts) {
  const int m = centered.rows();
  const int n = centered.cols();
  Matrix hd(num_classes, n);
  for (int i = 0; i < m; ++i) {
    const double* row = centered.RowPtr(i);
    double* h_row = hd.RowPtr(labels[static_cast<size_t>(i)]);
    for (int j = 0; j < n; ++j) h_row[j] += row[j];
  }
  for (int k = 0; k < num_classes; ++k) {
    const double inv_sqrt = 1.0 / std::sqrt(
        static_cast<double>(counts[static_cast<size_t>(k)]));
    double* h_row = hd.RowPtr(k);
    for (int j = 0; j < n; ++j) h_row[j] *= inv_sqrt;
  }
  return hd;
}

// Extracts the top eigenpairs (descending) above tolerance, at most c-1.
int CountDirections(const SymmetricEigenResult& eigen, int num_classes) {
  const int size = eigen.eigenvalues.size();
  int num_directions = 0;
  for (int j = size - 1; j >= 0; --j) {
    if (eigen.eigenvalues[j] <= kEigenTolerance) break;
    if (num_directions == num_classes - 1) break;
    ++num_directions;
  }
  return num_directions;
}

}  // namespace

RldaModel FitRlda(const Matrix& x, const std::vector<int>& labels,
                  int num_classes, const RldaOptions& options) {
  SRDA_CHECK_GT(num_classes, 1) << "need at least two classes";
  SRDA_CHECK_GE(options.alpha, 0.0) << "alpha must be non-negative";
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), x.rows())
      << "label count mismatch";

  RldaModel model;
  const int n = x.cols();

  const std::vector<int> counts = ClassCounts(labels, num_classes);
  for (int k = 0; k < num_classes; ++k) {
    SRDA_CHECK_GT(counts[static_cast<size_t>(k)], 0)
        << "class " << k << " has no samples";
  }

  // RLDA needs the n x n scatter factor itself (for the whitening
  // substitutions below), so the solver is pinned to the primal Gram even
  // when n > m. Factorization failure means alpha == 0 on rank-deficient
  // data, reported as converged == false like every other trainer.
  RidgeSolver solver(&x, GramSide::kPrimal);
  const Matrix hd = BuildClassSums(solver.centered(), labels, num_classes,
                                   counts);
  const Cholesky* chol = solver.FactorAt(options.alpha);
  if (chol == nullptr) {
    model.converged = false;
    return model;
  }
  const Matrix& l = chol->factor();

  Matrix projection;
  if (options.exploit_low_rank) {
    // Y = (S_t + alpha I)^{-1} Hd^T (n x c); C = Hd Y (c x c). Eigenvectors
    // q of C give generalized eigenvectors a = Y q; like LDA, directions are
    // left with sqrt(lambda) length (optimal-scoring-equivalent metric).
    const Matrix y = chol->SolveMatrix(hd.Transposed());
    const Matrix c_small = Multiply(hd, y);
    const SymmetricEigenResult eigen = SymmetricEigen(c_small);
    if (!eigen.converged) {
      model.converged = false;
      return model;
    }
    const int num_directions = CountDirections(eigen, num_classes);
    model.num_directions = num_directions;
    projection = Matrix(n, num_directions);
    for (int d = 0; d < num_directions; ++d) {
      const int src = num_classes - 1 - d;
      for (int k = 0; k < num_classes; ++k) {
        const double weight = eigen.eigenvectors(k, src);
        if (weight == 0.0) continue;
        for (int j = 0; j < n; ++j) projection(j, d) += weight * y(j, k);
      }
    }
  } else {
    // Faithful full-size path: K = L^{-1} S_b L^{-T} (n x n), standard
    // symmetric eigendecomposition, a = L^{-T} q. This is the O(n^3) dense
    // eigensolve the paper's RLDA timings reflect.
    // Form G = Hd L^{-T} (c x n): one forward sweep over the c columns of
    // Hd^T.
    const Matrix g = ForwardSubstituteMatrix(l, hd.Transposed()).Transposed();
    const Matrix k_matrix = Gram(g);  // n x n = G^T G = L^-1 Sb L^-T
    const SymmetricEigenResult eigen = SymmetricEigen(k_matrix);
    if (!eigen.converged) {
      model.converged = false;
      return model;
    }
    const int num_directions = CountDirections(eigen, num_classes);
    model.num_directions = num_directions;
    // Top eigenvectors q, descending, then a = L^{-T} q for all of them in
    // one backward sweep.
    Matrix top(n, num_directions);
    for (int d = 0; d < num_directions; ++d) {
      top.SetCol(d, eigen.eigenvectors.Col(n - 1 - d));
    }
    projection = BackSubstituteTransposedMatrix(l, top);
    for (int d = 0; d < num_directions; ++d) {
      const double scale = std::sqrt(eigen.eigenvalues[n - 1 - d]);
      for (int j = 0; j < n; ++j) projection(j, d) *= scale;
    }
  }

  Vector bias(model.num_directions);
  const Vector mean_projected = MultiplyTransposed(projection, solver.mean());
  for (int d = 0; d < model.num_directions; ++d) {
    bias[d] = -mean_projected[d];
  }
  model.embedding = LinearEmbedding(std::move(projection), std::move(bias));
  model.converged = true;
  return model;
}

}  // namespace srda
