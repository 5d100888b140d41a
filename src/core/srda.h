// Spectral Regression Discriminant Analysis — the paper's contribution.
//
// SRDA replaces LDA's dense eigendecomposition with (1) closed-form spectral
// responses of the class graph matrix and (2) one ridge regression per
// response (Section III). Two solvers are provided, matching Section III-C:
//
//  * Normal equations (dense data): factor X^T X + alpha I once by Cholesky
//    (or the exact m x m dual X X^T + alpha I when n > m) and back-solve for
//    each of the c-1 responses. O(m n t) time — up to 9x cheaper than LDA.
//  * LSQR (dense or sparse data): matrix-free damped least squares. Each
//    iteration costs two matrix-vector products, so sparse data trains in
//    O(k c m s) — linear in everything, the paper's headline result.
//
// The regression bias is kept out of the ridge penalty (Eq. 15 regularizes
// only the projection): the LSQR path solves against an implicitly centered
// operator (A - 1 mean^T, a matrix-free rank-1 correction) and recovers
// b = -mean^T a, so sparse inputs are never explicitly centered or
// densified. The c-1 independent regressions and the underlying kernels run
// on the parallel execution layer (common/parallel.h) with results bitwise
// independent of the thread count.
//
// Both solves are delegated to the shared RidgeSolver engine
// (solver/ridge_solver.h). The solver-taking overload below exposes the
// engine's Gram cache: bind one solver to the training data and sweep the
// alpha grid at factor-only cost per point (model selection, Figure 5).

#ifndef SRDA_CORE_SRDA_H_
#define SRDA_CORE_SRDA_H_

#include <vector>

#include "core/embedding.h"
#include "matrix/matrix.h"
#include "solver/ridge_solver.h"
#include "sparse/sparse_matrix.h"

namespace srda {

enum class SrdaSolver {
  kNormalEquations,
  kLsqr,
};

struct SrdaOptions {
  // Ridge penalty; the paper sets 1 by default and studies sensitivity in
  // its Figure 5. Must be > 0 for a unique solution when n > m.
  double alpha = 1.0;
  // Solver for the regularized least-squares problems (dense data only;
  // sparse data always uses LSQR).
  SrdaSolver solver = SrdaSolver::kNormalEquations;
  // LSQR iteration cap; the paper uses 15-20.
  int lsqr_iterations = 20;
  // LSQR early-stopping tolerances.
  double lsqr_atol = 1e-10;
  double lsqr_btol = 1e-10;
};

struct SrdaModel {
  LinearEmbedding embedding;
  // Number of responses regressed (= c-1).
  int num_responses = 0;
  // Total LSQR iterations across all responses (0 for normal equations).
  int total_lsqr_iterations = 0;
  // Per-response LSQR convergence record (iterations, final residual, stop
  // reason); empty on the normal-equations path.
  std::vector<RidgeRhsDiagnostics> lsqr_diagnostics;
  bool converged = false;
};

// Trains SRDA on dense data (rows are samples).
SrdaModel FitSrda(const Matrix& x, const std::vector<int>& labels,
                  int num_classes, const SrdaOptions& options = {});

// Trains SRDA on sparse data with LSQR through the rows binding over one
// whole-matrix shard of x (no copy); the data matrix is only touched
// through A*X / A^T*X block products.
SrdaModel FitSrda(const SparseMatrix& x, const std::vector<int>& labels,
                  int num_classes, const SrdaOptions& options = {});

// Trains SRDA through a caller-provided RidgeSolver already bound to the
// training data. Consecutive calls with different alphas reuse the solver's
// cached Gram and right-hand sides, so an alpha sweep pays only one
// Cholesky refactorization and triangular solve per grid point. The solver
// must be bound to the same samples the labels describe.
SrdaModel FitSrda(RidgeSolver* solver, const std::vector<int>& labels,
                  int num_classes, const SrdaOptions& options = {});

// Same, with the spectral responses already built by
// GenerateSrdaResponses for the solver's samples, so an alpha sweep builds
// them once instead of once per grid point. The solver checks that there
// is one response row per sample; that the rows are this solver's samples'
// responses, in order, is the caller's contract.
SrdaModel FitSrda(RidgeSolver* solver, const Matrix& responses,
                  const SrdaOptions& options = {});

}  // namespace srda

#endif  // SRDA_CORE_SRDA_H_
