// Abstract matrix-free linear operator.
//
// LSQR (and any other iterative solver) only needs the two products A*X and
// A^T*Y. Expressing that as an interface lets the same solver run on row
// shard streams (linalg/sharded_operator.h, in RAM or out of core), CSR
// matrices, and implicitly centered data without ever materializing a
// centered matrix.

#ifndef SRDA_LINALG_LINEAR_OPERATOR_H_
#define SRDA_LINALG_LINEAR_OPERATOR_H_

#include "matrix/matrix.h"
#include "matrix/vector.h"
#include "sparse/sparse_matrix.h"

namespace srda {

// Interface for an m x n linear map, applied to blocks of k columns at
// once so batched solvers (LsqrBatch) make one pass over the underlying
// data for all right-hand sides. Implementations must be thread-compatible
// (const methods only read).
//
// Column-independence contract: column j of a product depends only on
// column j of the input — its bits must not change with k, with which other
// columns ride along, or with the thread count. LsqrBatch relies on this:
// converged columns drop out of the packed pass, so a column's result must
// equal a one-column call on that column alone.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  virtual int rows() const = 0;
  virtual int cols() const = 0;

  // Y = A * X; X is cols() x k, result is rows() x k.
  virtual Matrix ApplyMulti(const Matrix& x) const = 0;

  // Y = A^T * X; X is rows() x k, result is cols() x k.
  virtual Matrix ApplyTransposedMulti(const Matrix& x) const = 0;
};

// Wraps a CSR matrix (not owned; must outlive the operator).
class SparseOperator final : public LinearOperator {
 public:
  explicit SparseOperator(const SparseMatrix* matrix);

  int rows() const override;
  int cols() const override;
  Matrix ApplyMulti(const Matrix& x) const override;
  Matrix ApplyTransposedMulti(const Matrix& x) const override;

 private:
  const SparseMatrix* matrix_;
};

// Implicitly centers the columns of a base operator: (A - 1 mean^T) without
// materializing the dense rank-1 correction, so sparse data stays sparse.
// The SRDA LSQR path solves against this so ridge damping penalizes only
// the projection — the paper's objective (Eq. 15) leaves the bias
// unregularized — and recovers the bias as b = -mean^T a afterwards,
// exactly like the normal-equations path. Neither pointer is owned; both
// must outlive the operator, and mean->size() must equal base->cols().
class CenterColumnsOperator final : public LinearOperator {
 public:
  CenterColumnsOperator(const LinearOperator* base, const Vector* mean);

  int rows() const override;
  int cols() const override;
  Matrix ApplyMulti(const Matrix& x) const override;
  Matrix ApplyTransposedMulti(const Matrix& x) const override;

 private:
  const LinearOperator* base_;
  const Vector* mean_;
};

}  // namespace srda

#endif  // SRDA_LINALG_LINEAR_OPERATOR_H_
