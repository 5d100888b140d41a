#include "solver/ridge_solver.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "linalg/lsqr.h"
#include "matrix/blas.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace srda {
namespace {

// Cache effectiveness of the alpha-sweep amortization, recorded while
// tracing: Gram (re)builds and Cholesky (re)factorizations vs. reuse.
struct RidgeInstruments {
  Counter* gram_hits;
  Counter* gram_misses;
  Counter* factor_hits;
  Counter* factor_misses;
};

const RidgeInstruments& RidgeMetrics() {
  static const RidgeInstruments instruments = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return RidgeInstruments{registry.counter("ridge.gram_cache_hits"),
                            registry.counter("ridge.gram_cache_misses"),
                            registry.counter("ridge.factor_cache_hits"),
                            registry.counter("ridge.factor_cache_misses")};
  }();
  return instruments;
}

// X̄ rows of one dense shard: the shard minus the column mean.
Matrix CenteredShard(const RowShard& shard, const Vector& mean) {
  Matrix centered = *shard.dense;
  SubtractRowVector(mean, &centered);
  return centered;
}

}  // namespace

RidgeSolver::RidgeSolver(const Matrix* x, GramSide side) {
  SRDA_CHECK(x != nullptr);
  x_ = x;
  owned_source_ =
      std::make_unique<DenseMatrixShardSource>(x, std::max(x->rows(), 1));
  BindRows(owned_source_.get());
  use_primal_ = side == GramSide::kPrimal || x->cols() <= x->rows();
}

RidgeSolver::RidgeSolver(const LinearOperator* data, RidgeBias /*bias*/) {
  SRDA_CHECK(data != nullptr);
  binding_ = Binding::kOperator;
  operator_ = data;
}

RidgeSolver::RidgeSolver(RowShardSource* source) {
  SRDA_CHECK(source != nullptr);
  // The dual m x m Gram needs all rows at once, so streamed solvers are
  // primal-only; sparse shard streams additionally skip the Gram entirely
  // (Solve auto-routes them to LSQR).
  BindRows(source);
}

void RidgeSolver::BindRows(RowShardSource* source) {
  binding_ = Binding::kRows;
  source_ = source;
  sharded_operator_ = std::make_unique<ShardedOperator>(source);
}

RidgeSolver RidgeSolver::FromGram(Matrix gram) {
  SRDA_CHECK_EQ(gram.rows(), gram.cols()) << "Gram base must be square";
  RidgeSolver solver;
  solver.binding_ = Binding::kGram;
  solver.gram_ = std::move(gram);
  solver.gram_ready_ = true;
  return solver;
}

const Matrix& RidgeSolver::GramBase(const Matrix* responses) {
  if (gram_ready_) {
    if (TraceEnabled()) RidgeMetrics().gram_hits->Increment();
    return gram_;
  }
  TraceSpan span("ridge.gram_build");
  if (span.recording()) RidgeMetrics().gram_misses->Increment();
  if (use_primal_) {
    StreamPrimal(/*gram=*/true, responses);
  } else {
    gram_ = OuterGram(centered());
    gram_ready_ = true;
  }
  return gram_;
}

// One streamed pass that builds the primal Gram X̄ᵀX̄ (when `gram`) and the
// sides X̄ᵀY for `responses` (when not null), centering each shard once for
// both. GramAccumulateUpper and MultiplyTransposedAAccumulate continue each
// output element's ascending-row chain from the values already summed, so
// the sums over shards are Gram(X̄) and MultiplyTransposedA(X̄, Y) bit for
// bit at any shard size.
void RidgeSolver::StreamPrimal(bool gram, const Matrix* responses) {
  SRDA_CHECK(!source_->sparse())
      << "normal equations need dense rows; sparse shard streams solve via "
         "RidgeMethod::kLsqr";
  const Vector& column_mean = mean();
  const int n = source_->cols();
  if (gram) gram_ = Matrix(n, n);
  if (responses != nullptr) rhs_ = Matrix(n, responses->cols());
  ForEachShard(source_, [&](const RowShard& shard) {
    const Matrix centered = CenteredShard(shard, column_mean);
    if (gram) GramAccumulateUpper(centered, &gram_);
    if (responses != nullptr) {
      MultiplyTransposedAAccumulate(
          centered,
          responses->Block(shard.first_row, 0, shard.rows(),
                           responses->cols()),
          &rhs_);
    }
  });
  if (gram) {
    SymmetrizeFromUpper(&gram_);
    gram_ready_ = true;
  }
  if (responses != nullptr) {
    rhs_responses_ = *responses;
    rhs_ready_ = true;
  }
}

// The sides are keyed on the responses' bytes, so an alpha sweep over one Y
// streams the rows for them once (with the Gram, on the first solve) and a
// changed Y, even one edited in place, is never served stale sides.
const Matrix& RidgeSolver::CenteredRhs(const Matrix& responses) {
  const size_t bytes = sizeof(double) * static_cast<size_t>(responses.rows()) *
                       static_cast<size_t>(responses.cols());
  if (!rhs_ready_ || rhs_responses_.rows() != responses.rows() ||
      rhs_responses_.cols() != responses.cols() ||
      (bytes > 0 &&
       std::memcmp(rhs_responses_.data(), responses.data(), bytes) != 0)) {
    TraceSpan span("ridge.rhs_build");
    StreamPrimal(/*gram=*/false, &responses);
  }
  return rhs_;
}

const Cholesky* RidgeSolver::FactorAt(double alpha) {
  return Factor(alpha, nullptr);
}

const Cholesky* RidgeSolver::Factor(double alpha, const Matrix* responses) {
  SRDA_CHECK(binding_ != Binding::kOperator)
      << "FactorAt needs a row- or Gram-bound solver";
  SRDA_CHECK_GE(alpha, 0.0) << "alpha must be non-negative";
  if (factor_ready_ && factor_alpha_ == alpha) {
    if (TraceEnabled()) RidgeMetrics().factor_hits->Increment();
    return factor_ok_ ? &chol_ : nullptr;
  }
  TraceSpan span("ridge.factor");
  if (span.recording()) {
    span.AddArg("alpha", alpha);
    RidgeMetrics().factor_misses->Increment();
  }
  Matrix shifted = GramBase(responses);
  AddDiagonal(alpha, &shifted);
  factor_ok_ = chol_.Factor(shifted);
  factor_alpha_ = alpha;
  factor_ready_ = true;
  return factor_ok_ ? &chol_ : nullptr;
}

RidgeSolver RidgeSolver::ExcludeRows(const std::vector<int>& rows) {
  SRDA_CHECK(x_ != nullptr) << "ExcludeRows needs a Matrix-bound parent";
  const int m = x_->rows();
  const int n = x_->cols();
  const int k = static_cast<int>(rows.size());
  SRDA_CHECK_GT(k, 0) << "no rows to exclude";
  SRDA_CHECK_LT(k, m) << "cannot exclude every row";
  for (int j = 0; j < k; ++j) {
    SRDA_CHECK_GE(rows[static_cast<size_t>(j)], 0) << "row index out of range";
    SRDA_CHECK_LT(rows[static_cast<size_t>(j)], m) << "row index out of range";
    if (j > 0) {
      SRDA_CHECK_GT(rows[static_cast<size_t>(j)],
                    rows[static_cast<size_t>(j - 1)])
          << "excluded rows must be sorted ascending and unique";
    }
  }
  auto kept = std::make_unique<Matrix>(m - k, n);
  int next = 0;
  int out = 0;
  for (int i = 0; i < m; ++i) {
    if (next < k && rows[static_cast<size_t>(next)] == i) {
      ++next;
      continue;
    }
    const double* src = x_->RowPtr(i);
    std::copy(src, src + n, kept->RowPtr(out));
    ++out;
  }
  RidgeSolver child(kept.get());
  child.owned_x_ = std::move(kept);
  return child;
}

const LinearOperator* RidgeSolver::RowsOperator() const {
  SRDA_CHECK(binding_ != Binding::kGram)
      << "no operator view of a Gram-bound solver";
  return binding_ == Binding::kOperator ? operator_ : sharded_operator_.get();
}

// Dense rows sum through the serial ascending-row chain of
// ColumnSumsAccumulate, the chain ColumnMeans runs on a whole matrix and
// the bits A^T 1 / m through the operator gives. Only operator bindings and
// sparse shards, which offer no dense rows, sum through the operator.
const Vector& RidgeSolver::mean() {
  if (mean_ready_) return mean_;
  const LinearOperator* data = RowsOperator();
  TraceSpan span("ridge.mean");
  if (binding_ == Binding::kRows && !source_->sparse()) {
    Vector sums(source_->cols());
    ForEachShard(source_, [&](const RowShard& shard) {
      ColumnSumsAccumulate(*shard.dense, &sums);
    });
    Scale(1.0 / source_->rows(), &sums);
    mean_ = std::move(sums);
  } else {
    mean_ = data->ApplyTransposedMulti(Matrix(data->rows(), 1, 1.0)).Col(0);
    Scale(1.0 / data->rows(), &mean_);
  }
  mean_ready_ = true;
  return mean_;
}

const Matrix& RidgeSolver::centered() {
  SRDA_CHECK(x_ != nullptr) << "centered() needs a Matrix-bound solver";
  if (!centered_ready_) {
    TraceSpan span("ridge.center");
    centered_ = *x_;
    SubtractRowVector(mean(), &centered_);
    centered_ready_ = true;
  }
  return centered_;
}

RidgeSolution RidgeSolver::Solve(const Matrix& responses, double alpha,
                                 const RidgeSolveOptions& options) {
  SRDA_CHECK_GE(alpha, 0.0) << "alpha must be non-negative";
  RidgeMethod method = options.method;
  if (method == RidgeMethod::kAuto) {
    const bool streaming_only =
        binding_ == Binding::kOperator ||
        (binding_ == Binding::kRows && source_->sparse());
    method = streaming_only ? RidgeMethod::kLsqr
                            : RidgeMethod::kNormalEquations;
  }
  if (method == RidgeMethod::kNormalEquations) {
    SRDA_CHECK(binding_ != Binding::kOperator)
        << "normal equations need row- or Gram-bound data";
    if (binding_ == Binding::kGram) {
      SRDA_CHECK_EQ(responses.rows(), gram_.rows())
          << "response count mismatch";
      TraceSpan span("ridge.solve_normal");
      RidgeSolution solution;
      const Cholesky* chol = FactorAt(alpha);
      if (chol == nullptr) return solution;
      solution.coefficients = chol->SolveMatrix(responses);
      solution.ok = true;
      return solution;
    }
    return SolveNormalEquations(responses, alpha);
  }
  SRDA_CHECK(binding_ != Binding::kGram)
      << "LSQR needs row- or operator-bound data";
  return SolveLsqr(responses, alpha, options);
}

// Normal-equations path (Section III-C1): primal (X̄ᵀX̄ + alpha I) A = X̄ᵀY,
// or the exact dual A = X̄ᵀ(X̄X̄ᵀ + alpha I)⁻¹Y when the solver was sided
// that way. With responses orthogonal to the ones vector, centering makes
// the optimal regression bias zero; the embedding bias folds the mean back
// in as b = -meanᵀ a.
RidgeSolution RidgeSolver::SolveNormalEquations(const Matrix& responses,
                                                double alpha) {
  TraceSpan span("ridge.solve_normal");
  if (span.recording()) {
    span.AddArg("rhs", static_cast<double>(responses.cols()));
    span.AddArg("alpha", alpha);
  }
  SRDA_CHECK_EQ(responses.rows(), source_->rows())
      << "response count mismatch";
  RidgeSolution solution;
  // A Gram built here also builds the primal sides in its pass.
  const Cholesky* chol = Factor(alpha, use_primal_ ? &responses : nullptr);
  if (chol == nullptr) return solution;
  if (use_primal_) {
    solution.coefficients = chol->SolveMatrix(CenteredRhs(responses));
  } else {
    solution.coefficients =
        MultiplyTransposedA(centered(), chol->SolveMatrix(responses));
  }

  const int d = responses.cols();
  solution.bias = Vector(d);
  const Vector mean_projected =
      MultiplyTransposed(solution.coefficients, mean());
  for (int j = 0; j < d; ++j) solution.bias[j] = -mean_projected[j];
  solution.ok = true;
  return solution;
}

// Matrix-free path (Section III-C2): batched damped LSQR with
// damp = sqrt(alpha), one operator pass per iteration for all responses.
RidgeSolution RidgeSolver::SolveLsqr(const Matrix& responses, double alpha,
                                     const RidgeSolveOptions& options) {
  TraceSpan span("ridge.solve_lsqr");
  if (span.recording()) {
    span.AddArg("rhs", static_cast<double>(responses.cols()));
    span.AddArg("alpha", alpha);
  }
  SRDA_CHECK_GT(options.lsqr_iterations, 0);
  // For the rows binding, one streaming pass over the shards per operator
  // product; no product's bits depend on the shard size, so neither do the
  // LSQR recurrence's.
  const LinearOperator* data = RowsOperator();
  SRDA_CHECK_EQ(responses.rows(), data->rows()) << "response count mismatch";

  const int n = data->cols();
  const int d = responses.cols();

  LsqrOptions lsqr_options;
  lsqr_options.max_iterations = options.lsqr_iterations;
  lsqr_options.damp = std::sqrt(alpha);
  lsqr_options.atol = options.lsqr_atol;
  lsqr_options.btol = options.lsqr_btol;

  RidgeSolution solution;
  solution.coefficients = Matrix(n, d);
  solution.bias = Vector(d);

  // The implicitly centered operator keeps the bias out of the damping
  // (Eq. 15); b = -meanᵀ a folds the mean back in.
  const Vector& column_mean = mean();
  const CenterColumnsOperator centered(data, &column_mean);
  const std::vector<LsqrResult> results =
      LsqrBatch(centered, responses, lsqr_options);
  for (int j = 0; j < d; ++j) {
    const LsqrResult& result = results[static_cast<size_t>(j)];
    for (int i = 0; i < n; ++i) solution.coefficients(i, j) = result.x[i];
    solution.bias[j] = -Dot(column_mean, result.x);
  }

  solution.lsqr.reserve(static_cast<size_t>(d));
  for (int j = 0; j < d; ++j) {
    const LsqrResult& result = results[static_cast<size_t>(j)];
    solution.total_lsqr_iterations += result.iterations;
    RidgeRhsDiagnostics diag;
    diag.iterations = result.iterations;
    diag.residual_norm = result.residual_norm;
    diag.normal_residual_norm = result.normal_residual_norm;
    diag.converged = result.converged;
    diag.stop = result.stop;
    solution.lsqr.push_back(diag);
  }
  solution.ok = true;
  return solution;
}

}  // namespace srda
