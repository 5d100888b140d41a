#include "core/kda.h"

#include <cmath>

#include "common/check.h"
#include "core/responses.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/blas.h"
#include "solver/ridge_solver.h"

namespace srda {
namespace {

// Small absolute ridge eps keeping the right-hand side positive definite.
constexpr double kEpsilon = 1e-8;

}  // namespace

Matrix KdaModel::Transform(const Matrix& queries) const {
  SRDA_CHECK(converged_) << "Transform on an untrained KDA model";
  SRDA_CHECK_EQ(queries.cols(), train_points_.cols())
      << "query dimension mismatch";
  const Matrix cross = KernelCrossMatrix(*kernel_, queries, train_points_);
  return Multiply(cross, coefficients_);
}

KdaModel FitKda(const Matrix& x, const std::vector<int>& labels,
                int num_classes, std::shared_ptr<const Kernel> kernel,
                const KdaOptions& options) {
  SRDA_CHECK(kernel != nullptr) << "null kernel";
  SRDA_CHECK_GT(options.alpha, 0.0) << "KDA requires alpha > 0";
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), x.rows())
      << "label count mismatch";

  KdaModel model;
  const int m = x.rows();
  const Matrix responses = GenerateSrdaResponses(labels, num_classes);
  const int d = responses.cols();

  const Matrix k = KernelMatrix(*kernel, x);

  // Right-hand side N = K K + alpha K + eps I (SPD). Forming K K is the
  // O(m^3) step that makes exact KDA expensive. The epsilon shift and the
  // factorization go through the shared engine (base = K K + alpha K,
  // diagonal shift = epsilon).
  Matrix n_matrix = Multiply(k, k);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) n_matrix(i, j) += options.alpha * k(i, j);
  }
  RidgeSolver solver = RidgeSolver::FromGram(std::move(n_matrix));

  // Numerator is (K Ybar)(K Ybar)^T with rank d = c-1: collapse to d x d.
  const Matrix m_block = Multiply(k, responses);  // m x d
  RidgeSolution ridge = solver.Solve(m_block, kEpsilon);
  if (!ridge.ok) return model;
  const Matrix& solved = ridge.coefficients;  // N^{-1} (K Ybar)
  const Matrix small = MultiplyTransposedA(m_block, solved);  // d x d
  const SymmetricEigenResult eigen = SymmetricEigen(small);
  if (!eigen.converged) return model;

  // c_j = N^{-1} (K Ybar) q_j. Its N-norm is already sqrt(lambda_j), the
  // optimal-scoring-equivalent convention the other eigen trainers use.
  Matrix coefficients(m, d);
  for (int out = 0; out < d; ++out) {
    const int src = d - 1 - out;
    if (eigen.eigenvalues[src] <= 0.0) continue;
    for (int q_index = 0; q_index < d; ++q_index) {
      const double weight = eigen.eigenvectors(q_index, src);
      if (weight == 0.0) continue;
      for (int i = 0; i < m; ++i) {
        coefficients(i, out) += weight * solved(i, q_index);
      }
    }
  }

  model.coefficients_ = std::move(coefficients);
  model.train_points_ = x;
  model.kernel_ = std::move(kernel);
  model.converged_ = true;
  return model;
}

}  // namespace srda
