#include "matrix/matrix.h"

#include <utility>

namespace srda {

Matrix::Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
  SRDA_CHECK(rows >= 0 && cols >= 0)
      << "negative matrix shape " << rows << " x " << cols;
  values_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0);
}

Matrix::Matrix(int rows, int cols, double fill) : Matrix(rows, cols) {
  Fill(fill);
}

Matrix::Matrix(int rows, int cols, std::vector<double> values)
    : rows_(rows), cols_(cols), values_(std::move(values)) {
  SRDA_CHECK(rows >= 0 && cols >= 0)
      << "negative matrix shape " << rows << " x " << cols;
  SRDA_CHECK_EQ(values_.size(),
                static_cast<size_t>(rows) * static_cast<size_t>(cols))
      << "matrix values must hold rows * cols entries";
}

Matrix Matrix::Identity(int n) {
  Matrix eye(n, n);
  for (int i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

Matrix Matrix::FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  const int num_rows = static_cast<int>(rows.size());
  SRDA_CHECK(num_rows > 0) << "FromRows needs at least one row";
  const int num_cols = static_cast<int>(rows.begin()->size());
  Matrix result(num_rows, num_cols);
  int i = 0;
  for (const auto& row : rows) {
    SRDA_CHECK_EQ(static_cast<int>(row.size()), num_cols)
        << "ragged rows in FromRows";
    int j = 0;
    for (double value : row) result(i, j++) = value;
    ++i;
  }
  return result;
}

void Matrix::Fill(double value) {
  for (double& x : values_) x = value;
}

Matrix Matrix::Transposed() const {
  Matrix result(cols_, rows_);
  for (int i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    for (int j = 0; j < cols_; ++j) result(j, i) = row[j];
  }
  return result;
}

Vector Matrix::Row(int i) const {
  SRDA_CHECK(i >= 0 && i < rows_) << "row " << i << " out of " << rows_;
  Vector v(cols_);
  const double* row = RowPtr(i);
  for (int j = 0; j < cols_; ++j) v[j] = row[j];
  return v;
}

Vector Matrix::Col(int j) const {
  SRDA_CHECK(j >= 0 && j < cols_) << "col " << j << " out of " << cols_;
  Vector v(rows_);
  for (int i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
  return v;
}

void Matrix::SetRow(int i, const Vector& v) {
  SRDA_CHECK(i >= 0 && i < rows_) << "row " << i << " out of " << rows_;
  SRDA_CHECK_EQ(v.size(), cols_) << "SetRow length mismatch";
  double* row = RowPtr(i);
  for (int j = 0; j < cols_; ++j) row[j] = v[j];
}

void Matrix::SetCol(int j, const Vector& v) {
  SRDA_CHECK(j >= 0 && j < cols_) << "col " << j << " out of " << cols_;
  SRDA_CHECK_EQ(v.size(), rows_) << "SetCol length mismatch";
  for (int i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

Matrix Matrix::Block(int row, int col, int num_rows, int num_cols) const {
  SRDA_CHECK(row >= 0 && col >= 0 && num_rows >= 0 && num_cols >= 0);
  SRDA_CHECK(row + num_rows <= rows_ && col + num_cols <= cols_)
      << "block (" << row << "+" << num_rows << ", " << col << "+" << num_cols
      << ") out of " << rows_ << " x " << cols_;
  Matrix result(num_rows, num_cols);
  for (int i = 0; i < num_rows; ++i) {
    const double* src = RowPtr(row + i) + col;
    double* dst = result.RowPtr(i);
    for (int j = 0; j < num_cols; ++j) dst[j] = src[j];
  }
  return result;
}

}  // namespace srda
