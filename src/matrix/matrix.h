// Dense row-major double-precision matrix.

#ifndef SRDA_MATRIX_MATRIX_H_
#define SRDA_MATRIX_MATRIX_H_

#include <initializer_list>
#include <vector>

#include "common/check.h"
#include "matrix/vector.h"

namespace srda {

// A dense matrix of doubles stored row-major in one contiguous buffer.
//
// Rows are the natural sample axis in this library: datasets store one
// sample per row (m x n, samples x features), matching the paper's X^T
// layout for cache-friendly per-sample access.
//
// Copyable and movable; copying copies the buffer.
class Matrix {
 public:
  Matrix() = default;

  // A rows x cols matrix of zeros.
  Matrix(int rows, int cols);

  // A rows x cols matrix filled with `fill`.
  Matrix(int rows, int cols, double fill);

  // Takes ownership of `values`, rows * cols doubles in row-major order.
  // Checks the size.
  Matrix(int rows, int cols, std::vector<double> values);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  // The n x n identity.
  static Matrix Identity(int n);

  // Builds a matrix from a brace list of rows; all rows must have the same
  // length. Intended for tests and small examples.
  static Matrix FromRows(
      std::initializer_list<std::initializer_list<double>> rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int i, int j) {
    SRDA_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_)
        << "matrix index (" << i << ", " << j << ") out of " << rows_ << " x "
        << cols_;
    return values_[static_cast<size_t>(i) * cols_ + j];
  }
  double operator()(int i, int j) const {
    SRDA_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_)
        << "matrix index (" << i << ", " << j << ") out of " << rows_ << " x "
        << cols_;
    return values_[static_cast<size_t>(i) * cols_ + j];
  }

  // Unchecked pointer to the start of row `i`; valid for cols() doubles.
  double* RowPtr(int i) {
    return values_.data() + static_cast<size_t>(i) * cols_;
  }
  const double* RowPtr(int i) const {
    return values_.data() + static_cast<size_t>(i) * cols_;
  }

  double* data() { return values_.data(); }
  const double* data() const { return values_.data(); }

  // Sets every element to `value`.
  void Fill(double value);

  // Returns the transpose as a new matrix.
  Matrix Transposed() const;

  // Copies row `i` into a Vector.
  Vector Row(int i) const;

  // Copies column `j` into a Vector.
  Vector Col(int j) const;

  // Overwrites row `i` with `v` (v.size() must equal cols()).
  void SetRow(int i, const Vector& v);

  // Overwrites column `j` with `v` (v.size() must equal rows()).
  void SetCol(int j, const Vector& v);

  // Returns the sub-matrix of rows [row, row+num_rows) and columns
  // [col, col+num_cols).
  Matrix Block(int row, int col, int num_rows, int num_cols) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> values_;
};

}  // namespace srda

#endif  // SRDA_MATRIX_MATRIX_H_
