#include "tests/naive_kernels.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/flops.h"

namespace srda {
namespace naive {

Matrix Multiply(const Matrix& a, const Matrix& b) {
  SRDA_CHECK_EQ(a.cols(), b.rows()) << "A*B shape mismatch";
  AddFlops(2.0 * a.rows() * a.cols() * b.cols());
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* crow = c.RowPtr(i);
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (int j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix MultiplyTransposedA(const Matrix& a, const Matrix& b) {
  SRDA_CHECK_EQ(a.rows(), b.rows()) << "A^T*B shape mismatch";
  AddFlops(2.0 * a.rows() * a.cols() * b.cols());
  Matrix c(a.cols(), b.cols());
  for (int i = 0; i < a.cols(); ++i) {
    double* crow = c.RowPtr(i);
    for (int k = 0; k < a.rows(); ++k) {
      const double aki = a.RowPtr(k)[i];
      if (aki == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (int j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix MultiplyTransposedB(const Matrix& a, const Matrix& b) {
  SRDA_CHECK_EQ(a.cols(), b.cols()) << "A*B^T shape mismatch";
  AddFlops(2.0 * a.rows() * a.cols() * b.rows());
  Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* crow = c.RowPtr(i);
    for (int j = 0; j < b.rows(); ++j) {
      const double* brow = b.RowPtr(j);
      double sum = 0.0;
      for (int k = 0; k < a.cols(); ++k) sum += arow[k] * brow[k];
      crow[j] = sum;
    }
  }
  return c;
}

Matrix Gram(const Matrix& a) {
  const int n = a.cols();
  AddFlops(static_cast<double>(a.rows()) * n * (n + 1));
  Matrix c(n, n);
  for (int i = 0; i < n; ++i) {
    double* crow = c.RowPtr(i);
    for (int k = 0; k < a.rows(); ++k) {
      const double* arow = a.RowPtr(k);
      const double aki = arow[i];
      if (aki == 0.0) continue;
      for (int j = i; j < n; ++j) crow[j] += aki * arow[j];
    }
  }
  for (int j = 1; j < n; ++j) {
    double* crow = c.RowPtr(j);
    for (int i = 0; i < j; ++i) crow[i] = c.RowPtr(i)[j];
  }
  return c;
}

Matrix OuterGram(const Matrix& a) {
  const int m = a.rows();
  AddFlops(static_cast<double>(a.cols()) * m * (m + 1));
  Matrix c(m, m);
  for (int i = 0; i < m; ++i) {
    const double* rowi = a.RowPtr(i);
    double* crow = c.RowPtr(i);
    for (int j = i; j < m; ++j) {
      const double* rowj = a.RowPtr(j);
      double sum = 0.0;
      for (int k = 0; k < a.cols(); ++k) sum += rowi[k] * rowj[k];
      crow[j] = sum;
    }
  }
  for (int j = 1; j < m; ++j) {
    double* crow = c.RowPtr(j);
    for (int i = 0; i < j; ++i) crow[i] = c.RowPtr(i)[j];
  }
  return c;
}

bool CholeskyFactor(const Matrix& a, Matrix* l) {
  SRDA_CHECK(l != nullptr);
  SRDA_CHECK_EQ(a.rows(), a.cols()) << "Cholesky needs a square matrix";
  const int n = a.rows();
  *l = Matrix(n, n);
  double max_diag = 0.0;
  for (int j = 0; j < n; ++j) {
    if (!std::isfinite(a(j, j))) return false;
    max_diag = std::max(max_diag, std::fabs(a(j, j)));
  }
  const double pivot_floor = 1e-14 * max_diag;
  AddFlops(static_cast<double>(n) * n * n / 3.0);
  for (int j = 0; j < n; ++j) {
    double diag = a(j, j);
    const double* lrow_j = l->RowPtr(j);
    for (int k = 0; k < j; ++k) diag -= lrow_j[k] * lrow_j[k];
    if (diag <= pivot_floor || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    (*l)(j, j) = ljj;
    const double inv = 1.0 / ljj;
    for (int i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      const double* lrow_i = l->RowPtr(i);
      for (int k = 0; k < j; ++k) sum -= lrow_i[k] * lrow_j[k];
      (*l)(i, j) = sum * inv;
    }
  }
  return true;
}

}  // namespace naive
}  // namespace srda
