#include "core/srda.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/responses.h"
#include "linalg/sharded_operator.h"
#include "solver/ridge_solver.h"

namespace srda {
namespace {

void ValidateOptions(const SrdaOptions& options) {
  SRDA_CHECK_GE(options.alpha, 0.0) << "alpha must be non-negative";
  SRDA_CHECK_GT(options.lsqr_iterations, 0);
}

}  // namespace

SrdaModel FitSrda(RidgeSolver* solver, const std::vector<int>& labels,
                  int num_classes, const SrdaOptions& options) {
  return FitSrda(solver, GenerateSrdaResponses(labels, num_classes), options);
}

SrdaModel FitSrda(RidgeSolver* solver, const Matrix& responses,
                  const SrdaOptions& options) {
  ValidateOptions(options);
  SRDA_CHECK(solver != nullptr);

  SrdaModel model;
  model.num_responses = responses.cols();

  RidgeSolveOptions solve_options;
  solve_options.method = options.solver == SrdaSolver::kLsqr
                             ? RidgeMethod::kLsqr
                             : RidgeMethod::kNormalEquations;
  solve_options.lsqr_iterations = options.lsqr_iterations;
  solve_options.lsqr_atol = options.lsqr_atol;
  solve_options.lsqr_btol = options.lsqr_btol;

  RidgeSolution solution =
      solver->Solve(responses, options.alpha, solve_options);
  if (!solution.ok) {
    model.converged = false;
    return model;
  }
  model.total_lsqr_iterations = solution.total_lsqr_iterations;
  model.lsqr_diagnostics = std::move(solution.lsqr);
  model.embedding = LinearEmbedding(std::move(solution.coefficients),
                                    std::move(solution.bias));
  model.converged = true;
  return model;
}

SrdaModel FitSrda(const Matrix& x, const std::vector<int>& labels,
                  int num_classes, const SrdaOptions& options) {
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), x.rows())
      << "label count mismatch";
  RidgeSolver solver(&x);
  return FitSrda(&solver, labels, num_classes, options);
}

SrdaModel FitSrda(const SparseMatrix& x, const std::vector<int>& labels,
                  int num_classes, const SrdaOptions& options) {
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), x.rows())
      << "label count mismatch";
  // One whole-matrix shard: the rows binding without a copy of x.
  SparseMatrixShardSource source(&x, std::max(x.rows(), 1));
  RidgeSolver solver(&source);
  // Sparse data always trains matrix-free, whatever options.solver says.
  SrdaOptions adjusted = options;
  adjusted.solver = SrdaSolver::kLsqr;
  return FitSrda(&solver, labels, num_classes, adjusted);
}

}  // namespace srda
