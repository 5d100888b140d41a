#include "linalg/linear_operator.h"

#include "common/check.h"

namespace srda {

SparseOperator::SparseOperator(const SparseMatrix* matrix) : matrix_(matrix) {
  SRDA_CHECK(matrix != nullptr);
}

int SparseOperator::rows() const { return matrix_->rows(); }
int SparseOperator::cols() const { return matrix_->cols(); }

Matrix SparseOperator::ApplyMulti(const Matrix& x) const {
  return matrix_->MultiplyDense(x);
}

Matrix SparseOperator::ApplyTransposedMulti(const Matrix& x) const {
  return matrix_->MultiplyTransposedDense(x);
}

CenterColumnsOperator::CenterColumnsOperator(const LinearOperator* base,
                                             const Vector* mean)
    : base_(base), mean_(mean) {
  SRDA_CHECK(base != nullptr);
  SRDA_CHECK(mean != nullptr);
  SRDA_CHECK_EQ(mean->size(), base->cols())
      << "column-mean size mismatch";
}

int CenterColumnsOperator::rows() const { return base_->rows(); }
int CenterColumnsOperator::cols() const { return base_->cols(); }

Matrix CenterColumnsOperator::ApplyMulti(const Matrix& x) const {
  SRDA_CHECK_EQ(x.rows(), cols()) << "(A - 1 mean^T)*X shape mismatch";
  Matrix y = base_->ApplyMulti(x);
  const int d = x.cols();
  // Per-column shifts accumulate over features in ascending order, one
  // chain per column.
  Vector shifts(d);
  double* ps = shifts.data();
  const double* pm = mean_->data();
  for (int f = 0; f < x.rows(); ++f) {
    const double* xrow = x.RowPtr(f);
    for (int j = 0; j < d; ++j) ps[j] += pm[f] * xrow[j];
  }
  for (int i = 0; i < y.rows(); ++i) {
    double* yrow = y.RowPtr(i);
    for (int j = 0; j < d; ++j) yrow[j] -= ps[j];
  }
  return y;
}

Matrix CenterColumnsOperator::ApplyTransposedMulti(const Matrix& x) const {
  SRDA_CHECK_EQ(x.rows(), rows()) << "(A - 1 mean^T)^T*X shape mismatch";
  Matrix y = base_->ApplyTransposedMulti(x);
  const int d = x.cols();
  Vector ones_dot(d);
  double* po = ones_dot.data();
  for (int i = 0; i < x.rows(); ++i) {
    const double* xrow = x.RowPtr(i);
    for (int j = 0; j < d; ++j) po[j] += xrow[j];
  }
  const double* pm = mean_->data();
  for (int f = 0; f < y.rows(); ++f) {
    double* yrow = y.RowPtr(f);
    for (int j = 0; j < d; ++j) yrow[j] -= po[j] * pm[f];
  }
  return y;
}

}  // namespace srda
