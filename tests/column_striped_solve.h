// The column-striped Cholesky::SolveMatrix that the blocked triangular
// sweep replaced, kept verbatim (zero-skip included) in one place: the
// bitwise oracle of blocking_test and the reference side of the "solve"
// row in bench_table1_complexity's kernel sweep. Each thread owns a stripe
// of right-hand-side columns and runs the per-row forward loop, then the
// scatter-form backward loop, over it, streaming the whole factor twice.

#ifndef SRDA_TESTS_COLUMN_STRIPED_SOLVE_H_
#define SRDA_TESTS_COLUMN_STRIPED_SOLVE_H_

#include "common/parallel.h"
#include "matrix/matrix.h"

namespace srda {

// Solves L L^T X = B for the lower-triangular factor `l`.
inline Matrix ColumnStripedSolveMatrix(const Matrix& l, const Matrix& b) {
  const int n = l.rows();
  Matrix x = b;
  ParallelFor(0, b.cols(), [&](int col_begin, int col_end) {
    const int cb = col_begin;
    const int width = col_end - col_begin;
    for (int i = 0; i < n; ++i) {
      const double* lrow = l.RowPtr(i);
      double* xrow_i = x.RowPtr(i) + cb;
      for (int k = 0; k < i; ++k) {
        const double lik = lrow[k];
        if (lik == 0.0) continue;
        const double* xrow_k = x.RowPtr(k) + cb;
        for (int j = 0; j < width; ++j) xrow_i[j] -= lik * xrow_k[j];
      }
      const double inv = 1.0 / lrow[i];
      for (int j = 0; j < width; ++j) xrow_i[j] *= inv;
    }
    for (int i = n - 1; i >= 0; --i) {
      const double* lrow = l.RowPtr(i);
      double* xrow_i = x.RowPtr(i) + cb;
      const double inv = 1.0 / lrow[i];
      for (int j = 0; j < width; ++j) xrow_i[j] *= inv;
      for (int k = 0; k < i; ++k) {
        const double lik = lrow[k];
        if (lik == 0.0) continue;
        double* xrow_k = x.RowPtr(k) + cb;
        for (int j = 0; j < width; ++j) xrow_k[j] -= lik * xrow_i[j];
      }
    }
  });
  return x;
}

}  // namespace srda

#endif  // SRDA_TESTS_COLUMN_STRIPED_SOLVE_H_
