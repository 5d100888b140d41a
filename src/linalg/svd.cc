#include "linalg/svd.h"

#include <cmath>

#include "common/check.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/blas.h"

namespace srda {

SvdResult ThinSvd(const Matrix& a, double rank_tolerance) {
  SRDA_CHECK(a.rows() > 0 && a.cols() > 0) << "ThinSvd of an empty matrix";
  SRDA_CHECK(rank_tolerance >= 0.0);
  const int m = a.rows();
  const int n = a.cols();
  const bool tall = m >= n;

  // Eigendecompose the smaller Gram matrix. Its eigenvalues are the squared
  // singular values; its eigenvectors are the corresponding singular vectors
  // of that side.
  const Matrix gram = tall ? Gram(a) : OuterGram(a);
  SymmetricEigenResult eigen = SymmetricEigen(gram);

  SvdResult result;
  result.converged = eigen.converged;
  const int t = gram.rows();

  // Eigenvalues come back ascending; walk them from the top.
  const double max_eigenvalue = std::max(eigen.eigenvalues[t - 1], 0.0);
  const double sigma_max = std::sqrt(max_eigenvalue);
  const double threshold = sigma_max * rank_tolerance;

  int rank = 0;
  for (int j = t - 1; j >= 0; --j) {
    const double lambda = eigen.eigenvalues[j];
    if (lambda <= 0.0) break;
    if (std::sqrt(lambda) <= threshold) break;
    ++rank;
  }
  result.rank = rank;
  result.singular_values = Vector(rank);
  // Gather the top-rank eigenvectors in descending order, row by row.
  Matrix small_side(t, rank);
  for (int k = 0; k < rank; ++k) {
    result.singular_values[k] = std::sqrt(eigen.eigenvalues[t - 1 - k]);
  }
  for (int i = 0; i < t; ++i) {
    const double* src = eigen.eigenvectors.RowPtr(i);
    double* dst = small_side.RowPtr(i);
    for (int k = 0; k < rank; ++k) dst[k] = src[t - 1 - k];
  }

  // Recover the other factor: the paper's "recover U from V" step, each
  // column k scaled by 1/sigma_k.
  Vector inv_sigma(rank);
  for (int k = 0; k < rank; ++k) {
    inv_sigma[k] = 1.0 / result.singular_values[k];
  }
  Matrix* other;
  if (tall) {
    result.v = std::move(small_side);
    result.u = Multiply(a, result.v);  // m x r
    other = &result.u;
  } else {
    result.u = std::move(small_side);
    result.v = MultiplyTransposedA(a, result.u);  // n x r
    other = &result.v;
  }
  for (int i = 0; i < other->rows(); ++i) {
    double* row = other->RowPtr(i);
    for (int k = 0; k < rank; ++k) row[k] *= inv_sigma[k];
  }
  return result;
}

}  // namespace srda
