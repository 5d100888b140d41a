// Cholesky factorization and triangular solves.
//
// SRDA's normal-equations path factors the symmetric positive-definite
// matrix X^T X + alpha*I once and back-solves for each of the c-1 responses
// (Section III-C1 of the paper).
//
// The factorization is blocked and right-looking (POTRF-style): each
// panel's diagonal block is factored serially, then the panel below it is
// solved (TRSM) and the trailing matrix updated (SYRK) on the thread pool,
// with the panel width taken from matrix/blocking.h (SRDA_BLOCK_NB).
// Every element's update chain runs over the reduction index in one fixed
// ascending order regardless of the ParallelFor partition, so — like the
// rest of the library — 1-thread and N-thread factors are bitwise
// identical. The multi-right-hand-side triangular solves sweep the same
// panels: a serial diagonal block, then a row-parallel GEMM update of the
// rows not yet solved.

#ifndef SRDA_LINALG_CHOLESKY_H_
#define SRDA_LINALG_CHOLESKY_H_

#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

// Lower-triangular Cholesky factor of a symmetric positive-definite matrix:
// A = L L^T.
//
// Example:
//   Cholesky chol;
//   SRDA_CHECK(chol.Factor(gram)) << "matrix not positive definite";
//   Vector x = chol.Solve(rhs);
class Cholesky {
 public:
  Cholesky() = default;

  // Factors `a` (square, symmetric; only the lower triangle is read).
  // Returns false if a non-positive pivot is met, i.e. `a` is not numerically
  // positive definite; the object is then unusable until the next Factor().
  bool Factor(const Matrix& a);

  // Solves A x = b using the stored factor. Requires a successful Factor().
  Vector Solve(const Vector& b) const;

  // Solves A X = B for all k columns of B at once (B is n x k). Both
  // substitution sweeps are blocked and right-looking over panels of
  // BlockConfig::nb rows: a serial per-row loop inside each panel's
  // diagonal block, then a row-parallel GEMM update (simd gemm_tile) of
  // every remaining row, so the factor streams through cache once per
  // sweep. Each element keeps the per-row loop's subtraction chain (forward
  // ascending, backward descending) and is finished by the reciprocal of
  // its pivot, so the result is bitwise identical at any thread count,
  // panel width, and SIMD level.
  Matrix SolveMatrix(const Matrix& b) const;

  // The lower-triangular factor L. Requires a successful Factor().
  const Matrix& factor() const;

  // Adopts `l` as the factor, as if Factor() had produced it. The lower
  // triangle is trusted as-is (square, positive diagonal); used by the
  // rank-k update engine (linalg/cholesky_update.h) to install a
  // downdated factor without paying a refactorization.
  void SetFactor(Matrix l);

  bool ok() const { return ok_; }

 private:
  Matrix l_;
  bool ok_ = false;
};

// Rank-1 update of a lower-triangular Cholesky factor, in place:
// given L with A = L L^T, computes L' with L' L'^T = A + v v^T.
// O(n^2) — the building block of incremental SRDA training.
void CholeskyRank1Update(Matrix* l, Vector v);

// Solves L x = b for lower-triangular L (forward substitution).
Vector ForwardSubstitute(const Matrix& l, const Vector& b);

// Solves L^T x = b for lower-triangular L (back substitution on the
// transpose).
Vector BackSubstituteTransposed(const Matrix& l, const Vector& b);

// Solves R x = b for upper-triangular R (back substitution). Used by the QR
// based IDR/QR baseline.
Vector BackSubstitute(const Matrix& r, const Vector& b);

// Batched forms of ForwardSubstitute / BackSubstituteTransposed: solve
// L X = B (resp. L^T X = B) for all k columns of B (n x k) at once, through
// the same blocked sweep as Cholesky::SolveMatrix. Each column's arithmetic
// is EXACTLY the single-vector routine's (same subtraction chain, per-row
// division), so column j of the result is bitwise identical to
// ForwardSubstitute(l, B.Col(j)) at any thread count.
// The preconditioned LSQR path leans on that contract to keep each batched
// column bitwise equal to a one-column solve.
Matrix ForwardSubstituteMatrix(const Matrix& l, const Matrix& b);
Matrix BackSubstituteTransposedMatrix(const Matrix& l, const Matrix& b);

// Reference implementation: the serial column-by-column factorization the
// blocked Cholesky replaced. Writes the lower-triangular factor into `l`
// and returns false on a non-positive pivot, like Cholesky::Factor. Kept
// for agreement tests and the blocked-vs-naive bench sweep; not for
// production call sites.
namespace naive {
bool CholeskyFactor(const Matrix& a, Matrix* l);
}  // namespace naive

}  // namespace srda

#endif  // SRDA_LINALG_CHOLESKY_H_
