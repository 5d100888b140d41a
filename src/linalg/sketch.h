// Randomized row sketches: compress an m x n design matrix to an s x n
// sketch S*X in one data pass, with E[(SX)^T(SX)] = X^T X.
//
// The sketched Gram (SX)^T(SX) + alpha I, factored by the existing blocked
// Cholesky, is the right preconditioner the LSQR path uses on
// ill-conditioned runs ("Randomized Iterative Algorithms for Fisher
// Discriminant Analysis", Chowdhury/Yang/Drineas): LSQR on the
// preconditioned operator [A; sqrt(alpha) I] L^{-T} converges in a handful
// of iterations because the preconditioned Gram is close to the identity.
// The sketch is a preconditioner only: solutions are always LSQR's on the
// exact problem (solver/ridge_solver.h, SketchMode::kPrecondition).
//
// The sketch is a count-sketch: each input row i is added, with a
// pseudo-random sign, to one pseudo-random sketch row h(i) — one pass,
// O(nnz) work.
//
// Determinism contract: the bucket/sign draws are a pure function of
// (options.seed, global row index) — never of thread count, shard size, or
// traversal order. Every kernel accumulates each output element over input
// rows in ascending order (threads partition output COLUMNS), so for a
// fixed seed the sketch is bitwise identical at any thread count, and
// streaming row blocks top-to-bottom through SketchAccumulate reproduces
// the one-shot sketch bit for bit — the out-of-core path sketches while
// streaming and matches the in-RAM sketch exactly.

#ifndef SRDA_LINALG_SKETCH_H_
#define SRDA_LINALG_SKETCH_H_

#include <cstdint>

#include "linalg/cholesky.h"
#include "linalg/sharded_operator.h"
#include "matrix/matrix.h"
#include "matrix/vector.h"
#include "sparse/sparse_matrix.h"

namespace srda {

struct SketchOptions {
  // Sketch rows s (the compressed sample count). Must be positive. Larger s
  // gives a better subspace embedding; s in [2n, 4n] is the usual
  // preconditioning regime (beyond s >= m the sketch stops compressing).
  int sketch_rows = 0;
  // Seed of the per-row hash/sign draws. Same seed => same sketch
  // operator, bitwise, at any thread count and shard size.
  uint64_t seed = 0x5eedc0deULL;
};

// Adds the contribution of the rows of `x` — which occupy global rows
// [row_offset, row_offset + x.rows()) of the full design — to `sketch`
// (pre-sized sketch_rows x x.cols()). Streaming consecutive row blocks in
// ascending order through this is bitwise identical to one SketchRows call
// on the concatenated matrix.
void SketchAccumulate(const Matrix& x, int row_offset,
                      const SketchOptions& options, Matrix* sketch);
void SketchAccumulate(const SparseMatrix& x, int row_offset,
                      const SketchOptions& options, Matrix* sketch);

// One-shot sketches S*X of an in-RAM matrix (emits a `sketch.build` span).
Matrix SketchRows(const Matrix& x, const SketchOptions& options);
Matrix SketchRows(const SparseMatrix& x, const SketchOptions& options);

// Sketches an out-of-core shard stream in ONE streaming pass (Reset + drain;
// the source's cursor is exclusively owned for the duration). Bitwise
// identical to SketchRows on the concatenated matrix.
Matrix SketchShards(RowShardSource* source, const SketchOptions& options);

// S * 1 (the sketch of the all-ones column). Lets callers sketch implicitly
// centered or ones-augmented operators without touching the data again:
//   sketch(A - 1 mean^T) = sketch(A) - (S 1) mean^T
//   sketch([A 1])        = [sketch(A), S 1]
Vector SketchOnes(int rows, const SketchOptions& options);

// Factors the sketched ridge Gram (sketch^T sketch + alpha I) with the
// blocked Cholesky (emits a `sketch.factor` span). Returns false when the
// shifted Gram is not numerically positive definite — possible only at
// alpha == 0 with a rank-deficient sketch; callers then fall back to the
// unpreconditioned path.
bool FactorSketchedGram(const Matrix& sketch, double alpha, Cholesky* chol);

}  // namespace srda

#endif  // SRDA_LINALG_SKETCH_H_
