// Shared ridge-regression engine behind every discriminant trainer.
//
// Theorem 1 of the paper reduces each discriminant variant to "spectral
// responses + regularized least squares"; this layer owns that second step so
// the trainers stop carrying private Gram/Cholesky/LSQR loops. A RidgeSolver
// binds to one description of the data — rows (a shard stream, of which an
// in-RAM matrix is the one-shard case), a matrix-free LinearOperator, or a
// precomputed SPD Gram — and solves
//
//   min_A ||X A - Y||^2 + alpha ||A||^2        (all responses at once)
//
// for any number of alphas. The expensive, alpha-independent work (column
// means, the Gram product X̄ᵀX̄ or X̄X̄ᵀ, and X̄ᵀY for the last responses) is
// computed once and cached inside the solver, so an alpha sweep pays only
// one Cholesky refactorization and one triangular solve per grid point (the
// paper's §III-C / Fig. 5 amortization).
//
// Determinism contract: every path reuses the repo's bitwise-deterministic
// kernels, and the batched LSQR path gives each response exactly the bits
// of a one-column solve, so results are bitwise identical to the
// pre-refactor per-trainer solves at any thread count.

#ifndef SRDA_SOLVER_RIDGE_SOLVER_H_
#define SRDA_SOLVER_RIDGE_SOLVER_H_

#include <memory>
#include <vector>

#include "linalg/cholesky.h"
#include "linalg/linear_operator.h"
#include "linalg/lsqr.h"
#include "linalg/sharded_operator.h"
#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

// How the solver treats the affine bias of the regression y ~ A a + b.
enum class RidgeBias {
  // Solve on the implicitly centered data (A - 1 meanᵀ) and recover
  // b = -meanᵀ a. This keeps the bias out of the ridge penalty — the
  // paper's Eq. 15 convention — and is the one objective every binding
  // solves.
  kImplicitCentering,
};

// Which solve algorithm Solve() runs.
enum class RidgeMethod {
  // Normal equations for dense rows and Gram-bound solvers, LSQR for
  // sparse rows and operator-bound ones.
  kAuto,
  kNormalEquations,
  kLsqr,
};

// Which Gram product a Matrix-bound solver caches for the normal equations.
enum class GramSide {
  kAuto,    // primal n x n when n <= m, else the dual m x m (Eqn. 21)
  kPrimal,  // force X̄ᵀX̄ (RLDA needs the n x n scatter factor itself)
};

struct RidgeSolveOptions {
  RidgeMethod method = RidgeMethod::kAuto;
  // LSQR iteration cap and early-stopping tolerances (LSQR path only).
  int lsqr_iterations = 20;
  double lsqr_atol = 1e-10;
  double lsqr_btol = 1e-10;
};

// Convergence record for one LSQR right-hand side, surfaced so trainers
// can report why each response stopped instead of discarding the solver's
// diagnostics.
struct RidgeRhsDiagnostics {
  int iterations = 0;
  double residual_norm = 0.0;
  double normal_residual_norm = 0.0;
  bool converged = false;
  LsqrStop stop = LsqrStop::kIterationLimit;
};

struct RidgeSolution {
  // False only when the Cholesky factorization failed (alpha == 0 on
  // rank-deficient data); the other fields are then empty.
  bool ok = false;
  // n x k ridge coefficients, one column per response.
  Matrix coefficients;
  // k bias entries; empty for Gram-bound solvers.
  Vector bias;
  // Total LSQR iterations across all responses (0 on the direct paths).
  int total_lsqr_iterations = 0;
  // Per-response convergence diagnostics (empty on the direct paths).
  std::vector<RidgeRhsDiagnostics> lsqr;
};

// One instance per training-data binding. Solve() may be called repeatedly
// with different alphas and responses; the Gram, the last right-hand sides
// X̄ᵀY and the last Cholesky factor are cached across calls. Movable but not
// copyable; not thread-safe (the caches mutate). The bound
// matrix/operator/source is not owned and must outlive the solver.
class RidgeSolver {
 public:
  // Binds dense data (rows are samples) with implicit centering: the rows
  // binding over one whole-matrix shard of *x, so in-RAM data takes the
  // streamed path below with no copy. Normal equations by default;
  // RidgeMethod::kLsqr runs the matrix-free path on the same rows. The
  // dual m x m Gram (GramSide::kAuto with n > m) is the one in-RAM special
  // case: it cannot stream row-wise, so it is built from X̄ = centered().
  explicit RidgeSolver(const Matrix* x, GramSide side = GramSide::kAuto);

  // Binds a matrix-free operator; Solve() always runs batched LSQR on the
  // implicitly centered operator. `bias` has the one value above.
  explicit RidgeSolver(const LinearOperator* data,
                       RidgeBias bias = RidgeBias::kImplicitCentering);

  // Binds a shard stream (the rows binding). Dense shard sources solve by
  // streamed normal equations: the column mean, the primal Gram X̄ᵀX̄, and
  // the right-hand sides X̄ᵀY accumulate shard by shard through the
  // chain-continuing blas kernels, so the bits do not depend on the shard
  // size. Sparse shard sources solve by batched LSQR over a ShardedOperator,
  // one streaming pass over the shards per iteration. RidgeMethod::kLsqr
  // forces the streaming LSQR path for dense sources too. The source is not
  // owned, must outlive the solver, and is exclusively cursored by it
  // during Solve/FactorAt/mean.
  explicit RidgeSolver(RowShardSource* source);

  // Binds a precomputed SPD base matrix G; Solve() returns
  // (G + alpha I)^{-1} Y with G cached across alphas. Used by the kernel
  // trainers (KSRDA: G = K; KDA: G = K K + alpha K, shifted by epsilon).
  static RidgeSolver FromGram(Matrix gram);

  RidgeSolver(RidgeSolver&&) = default;
  RidgeSolver& operator=(RidgeSolver&&) = default;
  RidgeSolver(const RidgeSolver&) = delete;
  RidgeSolver& operator=(const RidgeSolver&) = delete;

  // Returns a solver bound to an owned copy of this Matrix-bound solver's
  // data with the given rows (sorted ascending, unique, a strict subset)
  // held out, with GramSide::kAuto: exactly RidgeSolver(&kept_rows), so its
  // results are bitwise those of a fresh solver on that submatrix.
  RidgeSolver ExcludeRows(const std::vector<int>& rows);

  // Solves the ridge problem for every column of `responses` at `alpha`.
  RidgeSolution Solve(const Matrix& responses, double alpha,
                      const RidgeSolveOptions& options = {});

  // Cholesky factor of (base + alpha I) where base is the cached Gram.
  // Returns nullptr if the factorization fails; the factor is cached, so
  // repeated calls at the same alpha are free. Dense-row and Gram-bound
  // solvers only. The pointer is invalidated by the next FactorAt/Solve
  // with a different alpha.
  const Cholesky* FactorAt(double alpha);

  // Column means of the bound data, cached: one ascending-row pass over
  // dense shards, A^T 1 / m through the operator for sparse shards and
  // operator-bound solvers. Row-level bindings only. The LSQR path centers
  // with this same vector.
  const Vector& mean();

  // The centered copy X̄ = X - 1 meanᵀ (Matrix-bound solvers only). RLDA
  // builds its class-sum matrix from this.
  const Matrix& centered();

 private:
  enum class Binding { kRows, kOperator, kGram };

  RidgeSolver() = default;

  void BindRows(RowShardSource* source);
  // FactorAt; a primal Gram built on the way also gets the sides X̄ᵀY for
  // `responses` (when not null) in the same pass over the rows.
  const Cholesky* Factor(double alpha, const Matrix* responses);
  const Matrix& GramBase(const Matrix* responses);
  void StreamPrimal(bool gram, const Matrix* responses);
  // X̄ᵀY for `responses`, cached until the responses' bytes change.
  const Matrix& CenteredRhs(const Matrix& responses);
  RidgeSolution SolveNormalEquations(const Matrix& responses, double alpha);
  RidgeSolution SolveLsqr(const Matrix& responses, double alpha,
                          const RidgeSolveOptions& options);
  // The operator view of the bound rows the LSQR path runs on.
  const LinearOperator* RowsOperator() const;

  Binding binding_ = Binding::kGram;
  const LinearOperator* operator_ = nullptr;
  // Rows binding: the shard stream and its operator view (owned).
  RowShardSource* source_ = nullptr;
  std::unique_ptr<ShardedOperator> sharded_operator_;
  // Matrix-bound solvers: the caller's rows, for the dual Gram and
  // centered(), and the whole-matrix source source_ points at (kept in a
  // unique_ptr so moves don't invalidate the pointer).
  const Matrix* x_ = nullptr;
  std::unique_ptr<DenseMatrixShardSource> owned_source_;
  // ExcludeRows: the owned copy of the kept rows that x_ points at.
  std::unique_ptr<Matrix> owned_x_;
  bool use_primal_ = true;

  // Column means (every row-level binding) and the centered copy X̄,
  // built on first use.
  bool mean_ready_ = false;
  Vector mean_;
  bool centered_ready_ = false;
  Matrix centered_;

  // The alpha-independent Gram base (X̄ᵀX̄, X̄X̄ᵀ, or the user's G).
  bool gram_ready_ = false;
  Matrix gram_;

  // The alpha-independent right-hand sides X̄ᵀY of the primal normal
  // equations, and a copy of the responses Y they were built from.
  bool rhs_ready_ = false;
  Matrix rhs_responses_;
  Matrix rhs_;

  // Last Cholesky factor of (gram_ + alpha I).
  bool factor_ready_ = false;
  double factor_alpha_ = 0.0;
  bool factor_ok_ = false;
  Cholesky chol_;
};

}  // namespace srda

#endif  // SRDA_SOLVER_RIDGE_SOLVER_H_
