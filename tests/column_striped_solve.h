// The column-striped Cholesky::SolveMatrix that the blocked triangular
// sweep replaced, kept verbatim (zero-skip included) in one place and split
// into its forward and backward halves: the serial per-row oracle of
// blocking_test for ForwardSubstituteMatrix, BackSubstituteTransposedMatrix
// and SolveMatrix, and the reference side of the "solve" row in
// bench_table1_complexity's kernel sweep. Each thread owns a stripe of
// right-hand-side columns and runs the per-row loop over it, streaming the
// whole factor once per half.

#ifndef SRDA_TESTS_COLUMN_STRIPED_SOLVE_H_
#define SRDA_TESTS_COLUMN_STRIPED_SOLVE_H_

#include "common/parallel.h"
#include "matrix/matrix.h"

namespace srda {

// Solves L Y = B in place (x holds B on entry) for lower-triangular `l`:
// row i subtracts l_ik·y_k for k = 0..i-1 ascending, then multiplies by
// 1/l_ii.
inline void ColumnStripedForward(const Matrix& l, Matrix* x) {
  const int n = l.rows();
  ParallelFor(0, x->cols(), [&](int col_begin, int col_end) {
    const int cb = col_begin;
    const int width = col_end - col_begin;
    for (int i = 0; i < n; ++i) {
      const double* lrow = l.RowPtr(i);
      double* xrow_i = x->RowPtr(i) + cb;
      for (int k = 0; k < i; ++k) {
        const double lik = lrow[k];
        if (lik == 0.0) continue;
        const double* xrow_k = x->RowPtr(k) + cb;
        for (int j = 0; j < width; ++j) xrow_i[j] -= lik * xrow_k[j];
      }
      const double inv = 1.0 / lrow[i];
      for (int j = 0; j < width; ++j) xrow_i[j] *= inv;
    }
  });
}

// Solves L^T X = Y in place, scatter form: once row i is finished
// (multiplied by 1/l_ii) it is subtracted from every earlier row, so row
// c's chain runs over i = n-1 down to c+1.
inline void ColumnStripedBackward(const Matrix& l, Matrix* x) {
  const int n = l.rows();
  ParallelFor(0, x->cols(), [&](int col_begin, int col_end) {
    const int cb = col_begin;
    const int width = col_end - col_begin;
    for (int i = n - 1; i >= 0; --i) {
      const double* lrow = l.RowPtr(i);
      double* xrow_i = x->RowPtr(i) + cb;
      const double inv = 1.0 / lrow[i];
      for (int j = 0; j < width; ++j) xrow_i[j] *= inv;
      for (int k = 0; k < i; ++k) {
        const double lik = lrow[k];
        if (lik == 0.0) continue;
        double* xrow_k = x->RowPtr(k) + cb;
        for (int j = 0; j < width; ++j) xrow_k[j] -= lik * xrow_i[j];
      }
    }
  });
}

// Solves L L^T X = B for the lower-triangular factor `l`.
inline Matrix ColumnStripedSolveMatrix(const Matrix& l, const Matrix& b) {
  Matrix x = b;
  ColumnStripedForward(l, &x);
  ColumnStripedBackward(l, &x);
  return x;
}

}  // namespace srda

#endif  // SRDA_TESTS_COLUMN_STRIPED_SOLVE_H_
