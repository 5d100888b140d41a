#include "linalg/gram_schmidt.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"

namespace srda {
namespace {

// Ascending-index dot product of two contiguous columns.
double ColumnDot(const double* a, const double* b, int rows) {
  double sum = 0.0;
  for (int i = 0; i < rows; ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace

int ModifiedGramSchmidt(Matrix* basis, double tolerance) {
  SRDA_CHECK(basis != nullptr);
  SRDA_CHECK(tolerance >= 0.0);
  const int rows = basis->rows();
  const int cols = basis->cols();
  // Orthonormalize the rows of the transpose: each column of the row-major
  // basis becomes one contiguous row instead of a walk striding `cols`
  // doubles per element. Every element sees the same operations in the
  // same order as the column walk, so the result is bitwise unchanged.
  Matrix t = basis->Transposed();

  std::vector<int> kept;
  for (int j = 0; j < cols; ++j) {
    double* column = t.RowPtr(j);
    const double original_norm = std::sqrt(ColumnDot(column, column, rows));
    // Two orthogonalization passes against the columns kept so far; the
    // second pass removes the round-off reintroduced by the first.
    for (int pass = 0; pass < 2; ++pass) {
      for (int kept_col : kept) {
        const double* q = t.RowPtr(kept_col);
        const double proj = ColumnDot(q, column, rows);
        for (int i = 0; i < rows; ++i) column[i] -= proj * q[i];
      }
    }
    const double residual_norm = std::sqrt(ColumnDot(column, column, rows));
    if (original_norm == 0.0 || residual_norm <= tolerance * original_norm) {
      continue;  // Linearly dependent on the kept columns; drop.
    }
    const double inv = 1.0 / residual_norm;
    for (int i = 0; i < rows; ++i) column[i] *= inv;
    kept.push_back(j);
  }

  // Compact surviving columns to the left.
  Matrix compacted(rows, static_cast<int>(kept.size()));
  for (size_t out = 0; out < kept.size(); ++out) {
    const double* column = t.RowPtr(kept[out]);
    for (int i = 0; i < rows; ++i) {
      compacted(i, static_cast<int>(out)) = column[i];
    }
  }
  *basis = std::move(compacted);
  return basis->cols();
}

}  // namespace srda
