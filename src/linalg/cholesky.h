// Cholesky factorization and triangular solves.
//
// SRDA's normal-equations path factors the symmetric positive-definite
// matrix X^T X + alpha*I once and back-solves for each of the c-1 responses
// (Section III-C1 of the paper).
//
// The factorization is blocked and right-looking (POTRF-style): each
// panel's diagonal block is factored serially, then the panel below it is
// solved (TRSM) and the trailing matrix updated (SYRK) on the thread pool,
// with the panel width taken from matrix/blocking.h (BlockConfig::nb).
// The TRSM also packs the finished panel columns transposed, and the SYRK
// step is a simd gemm_tile of the panel rows against that pack into a
// zero-seeded mc x nc tile, subtracted from the trailing lower triangle
// once. Every element's update chain runs over the reduction index in one
// fixed ascending order regardless of the ParallelFor partition or tile
// shape, so — like the rest of the library — 1-thread and N-thread
// factors are bitwise identical. The multi-right-hand-side triangular
// solves sweep the same panels: a serial diagonal block, then a
// row-parallel GEMM update of the rows not yet solved.

#ifndef SRDA_LINALG_CHOLESKY_H_
#define SRDA_LINALG_CHOLESKY_H_

#include "matrix/matrix.h"

namespace srda {

// Lower-triangular Cholesky factor of a symmetric positive-definite matrix:
// A = L L^T.
//
// Example:
//   Cholesky chol;
//   SRDA_CHECK(chol.Factor(gram)) << "matrix not positive definite";
//   Matrix x = chol.SolveMatrix(rhs);  // rhs is n x k
class Cholesky {
 public:
  Cholesky() = default;

  // Factors `a + shift * I` (`a` square, symmetric; only its lower
  // triangle is read). The shift is added to each diagonal element as the
  // triangle is copied into the factor's storage, one add per element, so
  // the factor is bitwise that of a copy of `a` shifted by AddDiagonal.
  // The storage is reused when the order is unchanged. Returns false if a
  // non-positive pivot is met, i.e. the shifted matrix is not numerically
  // positive definite; the object is then unusable until the next Factor().
  bool Factor(const Matrix& a, double shift = 0.0);

  // Solves A X = B for all k columns of B at once (B is n x k); a single
  // right-hand side is a one-column B. Requires a successful Factor(). Both
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

  bool ok() const { return ok_; }

 private:
  Matrix l_;
  bool ok_ = false;
};

// Solve L X = B (resp. L^T X = B) for lower-triangular L and all k
// columns of B (n x k) at once, through the same blocked sweep and the same
// per-row finish (multiply by the pivot's reciprocal) as
// Cholesky::SolveMatrix, which is these two in sequence. Column j's
// arithmetic depends on no other column, so it is bitwise identical to the
// sweep of column j alone at any thread count, panel width, and SIMD level.
// A one-column B is the single-vector solve.
Matrix ForwardSubstituteMatrix(const Matrix& l, const Matrix& b);
Matrix BackSubstituteTransposedMatrix(const Matrix& l, const Matrix& b);

}  // namespace srda

#endif  // SRDA_LINALG_CHOLESKY_H_
