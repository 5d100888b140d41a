// LSQR iterative solver for sparse least squares (Paige & Saunders, 1982).
//
// Solves min_x ||A x - b||^2 + damp^2 ||x||^2 using only the block products
// A*X and A^T*Y, which is what gives SRDA its linear-time sparse path (Section
// III-C2 of the paper: each iteration costs 2*nnz + O(m + n) flam, and 15-20
// iterations suffice in the paper's experiments).

#ifndef SRDA_LINALG_LSQR_H_
#define SRDA_LINALG_LSQR_H_

#include <vector>

#include "linalg/linear_operator.h"
#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

struct LsqrOptions {
  // Hard iteration cap. The paper fixes 15-20 iterations for SRDA.
  int max_iterations = 20;
  // Tikhonov damping: solves the ridge problem with penalty damp^2.
  double damp = 0.0;
  // Relative tolerances for the Paige-Saunders stopping rules; iteration
  // also stops early when the estimated residual is compatible with these.
  double atol = 1e-10;
  double btol = 1e-10;
};

// Why the iteration stopped. kIterationLimit is the only non-converged
// outcome; everything else means the iterate satisfies a stopping rule.
enum class LsqrStop {
  kIterationLimit,     // hit max_iterations without meeting a tolerance
  kRhsZero,            // b == 0, so x == 0 is exact
  kNormalZero,         // A^T b == 0, x == 0 solves the normal equations
  kResidualTol,        // Paige-Saunders rule 1: residual below btol/atol mix
  kNormalResidualTol,  // Paige-Saunders rule 2: normal residual below atol
  kBreakdown,          // alpha == 0 mid-iteration: exact solution reached
};

// Stable short name ("residual_tol", "iteration_limit", ...) for reports.
const char* LsqrStopName(LsqrStop stop);

struct LsqrResult {
  Vector x;
  int iterations = 0;
  // Estimated ||[A; damp*I] x - [b; 0]||.
  double residual_norm = 0.0;
  // Estimated ||A^T r - damp^2 x|| (normal-equations residual).
  double normal_residual_norm = 0.0;
  // True if a stopping rule fired before the iteration cap.
  bool converged = false;
  // Which rule ended the iteration (kIterationLimit when none fired).
  LsqrStop stop = LsqrStop::kIterationLimit;
};

// Batched multi-RHS LSQR, the repo's only LSQR: solves the damped problem
// independently for every column of b (a.rows() x d; a single right-hand
// side is a one-column b), sharing the operator passes — one ApplyMulti and
// one ApplyTransposedMulti per iteration cover all still-active columns, so
// sparse data is traversed once per iteration instead of once per RHS. The
// per-column scalar recurrences run on the thread pool; results[j].x has
// a.cols() entries. Columns that hit a stopping rule are frozen and dropped
// from later passes, so this relies on the operator's column-independence
// contract (linalg/linear_operator.h): column j's result is bitwise the
// same whichever other columns share the batch, and at any thread count.
std::vector<LsqrResult> LsqrBatch(const LinearOperator& a, const Matrix& b,
                                  const LsqrOptions& options = {});

}  // namespace srda

#endif  // SRDA_LINALG_LSQR_H_
