// The operator view the library takes of an in-RAM dense matrix: a
// ShardedOperator over one whole-matrix DenseMatrixShardSource, which hands
// out the matrix itself (no copy). RidgeSolver(const Matrix*) binds its
// rows the same way, so tests that need a dense LinearOperator use this.

#ifndef SRDA_TESTS_DENSE_ROWS_H_
#define SRDA_TESTS_DENSE_ROWS_H_

#include <algorithm>

#include "linalg/sharded_operator.h"
#include "matrix/matrix.h"

namespace srda {

// Not copyable or movable: `op` points at `source`. The matrix is not
// owned and must outlive this object.
struct DenseRows {
  explicit DenseRows(const Matrix* a)
      : source(a, std::max(a->rows(), 1)), op(&source) {}
  DenseRows(const DenseRows&) = delete;
  DenseRows& operator=(const DenseRows&) = delete;

  DenseMatrixShardSource source;
  ShardedOperator op;
};

}  // namespace srda

#endif  // SRDA_TESTS_DENSE_ROWS_H_
