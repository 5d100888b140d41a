// Rank-k symmetric update/downdate of a Cholesky factor.
//
// Given the lower-triangular factor L of an SPD matrix G, these routines
// compute the factor of G + VᵀV (update) or G − VᵀV (downdate) in O(n²k)
// instead of the O(mn² + n³) rebuild-and-refactor, where the k rows of V
// are the vectors being added or removed. Internally the factor is scaled
// to LDLᵀ form and swept with "fast" (scaled) plane rotations — method C1
// of Gill, Golub, Murray & Saunders — two fused multiply-adds per
// element·vector, the hyperbolic variant falling out of the same
// recurrence with a negative running sigma. This is the engine behind RidgeSolver::ExcludeRows: a
// cross-validation fold's Gram X̄_trᵀX̄_tr + αI is exactly the full-data
// factor downdated by the fold's centered rows plus one mean-correction
// vector, so k-fold CV can factor once and derive every fold (DESIGN.md
// §4e).
//
// The rank-k sweep is panel-blocked: for each panel of factor columns the
// k rotation coefficients per column are formed once (serial, triangular
// head), then the whole panel's coefficient table is applied to every row
// below it in one cache-resident pass, eight rows interleaved to hide the
// rotation recurrence's latency. The rows are partitioned over the thread
// pool; every element's rotation chain runs in a fixed (column-ascending,
// vector-ascending) order independent of the partition and the row
// grouping, so — like the rest of the library — results are bitwise
// identical at any thread count.
//
// Downdates can be ill-posed: when G − VᵀV approaches singularity a
// downdating rotation's norm amplification 1/ρ blows up and the computed
// factor loses all accuracy. CholeskyRankKDowndate monitors the pivot
// shrink ratio d̄_j/d_j (the rotation's ρ²) at every step and returns
// false (condition fallback) instead of producing a garbage factor;
// callers are expected to refactor from scratch in that case (RidgeSolver
// does).

#ifndef SRDA_LINALG_CHOLESKY_UPDATE_H_
#define SRDA_LINALG_CHOLESKY_UPDATE_H_

#include <vector>

#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

// Rank-1 update by Givens rotations, in place, of the diagonal block of L
// that starts at row/column `begin` and spans v.size() rows: given that
// block B with A_b = BBᵀ, computes B' with B'B'ᵀ = A_b + vvᵀ in
// O(v.size()²). Nothing outside the block is read or written. With
// begin = 0 and v.size() = n it updates the whole factor (incremental
// SRDA's AddSample); CholeskyDeleteRowsCols repairs the trailing block
// after each splice with it.
void CholeskyRank1Update(Matrix* l, Vector v, int begin = 0);

// Rank-k update, in place: given L with G = LLᵀ, computes L' with
// L'L'ᵀ = G + VᵀV. `v` is k x n; each row is one update vector.
// Equivalent to k successive CholeskyRank1Update sweeps (up to rounding —
// the scaled-rotation form evaluates the same chain with different
// intermediate scalings), at one pass over the factor.
void CholeskyRankKUpdate(Matrix* l, const Matrix& v);

// Rank-k downdate, in place: computes L' with L'L'ᵀ = G − VᵀV. Returns
// false — leaving *l in an unspecified state — when a rotation approaches
// singularity (ρ² at or below an internal floor) or meets a non-finite
// value, i.e. G − VᵀV is not safely positive definite at working
// precision. Emits the `cholesky.downdate` trace span.
bool CholeskyRankKDowndate(Matrix* l, const Matrix& v);

// Factor of the principal submatrix: given L with G = LLᵀ, returns the
// factor of G with the rows AND columns in `indices` removed (indices
// sorted ascending, unique, in range). Each deletion splices the factor
// and repairs the trailing block with one CholeskyRank1Update
// ("choldelete"); O(Σ (n − i)²) total. This is the dual-side half of the
// fold API: deleting a fold's rows from the factor of X̄X̄ᵀ + αI yields the
// factor of the held-in rows' outer Gram, still shifted by α.
Matrix CholeskyDeleteRowsCols(const Matrix& l,
                              const std::vector<int>& indices);

}  // namespace srda

#endif  // SRDA_LINALG_CHOLESKY_UPDATE_H_
