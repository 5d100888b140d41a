// Rank-k symmetric update/downdate of a Cholesky factor.
//
// Given the lower-triangular factor L of an SPD matrix G, these routines
// compute the factor of G + VᵀV (update) or G − VᵀV (downdate) in O(n²k)
// instead of the O(mn² + n³) rebuild-and-refactor, where the k rows of V
// are the vectors being added or removed. Internally the factor is scaled
// to LDLᵀ form and swept with "fast" (scaled) plane rotations — method C1
// of Gill, Golub, Murray & Saunders — two fused multiply-adds per
// element·vector, the hyperbolic variant falling out of the same
// recurrence with a negative running sigma. Incremental SRDA's AddShard
// folds a block of new samples in with the rank-k update.
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
// callers are expected to refactor from scratch in that case.

#ifndef SRDA_LINALG_CHOLESKY_UPDATE_H_
#define SRDA_LINALG_CHOLESKY_UPDATE_H_

#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

// Rank-1 update by Givens rotations, in place: given L with G = LLᵀ,
// computes L' with L'L'ᵀ = G + vvᵀ in O(n²) (incremental SRDA's
// AddSample).
void CholeskyRank1Update(Matrix* l, Vector v);

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

}  // namespace srda

#endif  // SRDA_LINALG_CHOLESKY_UPDATE_H_
