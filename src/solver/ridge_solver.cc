#include "solver/ridge_solver.h"

#include <algorithm>
#include <cmath>
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

}  // namespace

RidgeSolver::RidgeSolver(const Matrix* x, GramSide side) {
  SRDA_CHECK(x != nullptr);
  binding_ = Binding::kDense;
  x_ = x;
  side_ = side;
}

RidgeSolver::RidgeSolver(const LinearOperator* data, RidgeBias bias) {
  SRDA_CHECK(data != nullptr);
  binding_ = Binding::kOperator;
  operator_ = data;
  bias_mode_ = bias;
}

RidgeSolver::RidgeSolver(RowShardSource* source) {
  SRDA_CHECK(source != nullptr);
  binding_ = Binding::kSharded;
  source_ = source;
  sharded_operator_ = std::make_unique<ShardedOperator>(source);
  // The dual m x m Gram needs all rows at once, so sharded solvers are
  // primal-only; sparse shard streams additionally skip the Gram entirely
  // (Solve auto-routes them to LSQR).
  side_ = GramSide::kPrimal;
  use_primal_ = true;
}

RidgeSolver RidgeSolver::FromGram(Matrix gram) {
  SRDA_CHECK_EQ(gram.rows(), gram.cols()) << "Gram base must be square";
  RidgeSolver solver;
  solver.binding_ = Binding::kGram;
  solver.gram_ = std::move(gram);
  solver.gram_ready_ = true;
  return solver;
}

void RidgeSolver::PrepareDense() {
  SRDA_CHECK(binding_ == Binding::kDense)
      << "dense data accessor on a non-dense-bound solver";
  if (dense_ready_) return;
  TraceSpan span("ridge.prepare_dense");
  centered_ = *x_;
  SubtractRowVector(mean(), &centered_);
  use_primal_ = side_ == GramSide::kPrimal || x_->cols() <= x_->rows();
  dense_ready_ = true;
}

void RidgeSolver::PrepareSharded() {
  SRDA_CHECK(binding_ == Binding::kSharded)
      << "sharded data accessor on a non-sharded solver";
  SRDA_CHECK(!source_->sparse())
      << "sharded normal equations need dense shards; sparse shard streams "
         "solve via RidgeMethod::kLsqr";
  mean();
}

const Matrix& RidgeSolver::GramBase() {
  if (gram_ready_) {
    if (TraceEnabled()) RidgeMetrics().gram_hits->Increment();
    return gram_;
  }
  TraceSpan span("ridge.gram_build");
  if (span.recording()) RidgeMetrics().gram_misses->Increment();
  if (binding_ == Binding::kSharded) {
    // Primal Gram X̄ᵀX̄ accumulated shard by shard. GramAccumulateUpper
    // continues each output element's ascending-k dot-product chain from
    // the values already in gram_, so the sum over shards reproduces the
    // one-shot Gram(centered_) bit for bit at any shard size.
    PrepareSharded();
    gram_ = Matrix(source_->cols(), source_->cols());
    ForEachShard(source_, [&](const RowShard& shard) {
      Matrix centered_shard = *shard.dense;
      SubtractRowVector(mean_, &centered_shard);
      GramAccumulateUpper(centered_shard, &gram_);
    });
    SymmetrizeFromUpper(&gram_);
    gram_ready_ = true;
    return gram_;
  }
  PrepareDense();
  gram_ = use_primal_ ? Gram(centered_) : OuterGram(centered_);
  gram_ready_ = true;
  return gram_;
}

const Cholesky* RidgeSolver::FactorAt(double alpha) {
  SRDA_CHECK(binding_ != Binding::kOperator)
      << "FactorAt needs a dense-, Gram-, or sharded-bound solver";
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
  Matrix shifted = GramBase();
  AddDiagonal(alpha, &shifted);
  factor_ok_ = chol_.Factor(shifted);
  factor_alpha_ = alpha;
  factor_ready_ = true;
  return factor_ok_ ? &chol_ : nullptr;
}

RidgeSolver RidgeSolver::ExcludeRows(const std::vector<int>& rows) {
  SRDA_CHECK(binding_ == Binding::kDense)
      << "ExcludeRows needs a dense-bound parent";
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

const LinearOperator* RidgeSolver::ResolveOperator() {
  switch (binding_) {
    case Binding::kDense:
      if (dense_operator_ == nullptr) {
        dense_operator_ = std::make_unique<DenseOperator>(x_);
      }
      return dense_operator_.get();
    case Binding::kOperator:
      return operator_;
    case Binding::kSharded:
      return sharded_operator_.get();
    case Binding::kGram:
      break;
  }
  SRDA_CHECK(false) << "no operator view of a Gram-bound solver";
  return nullptr;
}

// Dense rows — in RAM or streamed as dense shards — sum through the serial
// ascending-row chain of ColumnMeans / ColumnSumsAccumulate, so the sharded
// mean is bitwise identical to the in-RAM one; those are also the bits
// A^T 1 / m through the operator gives. Only operator bindings and sparse
// shards, which offer no dense rows, sum through the operator.
const Vector& RidgeSolver::mean() {
  if (mean_ready_) return mean_;
  SRDA_CHECK(binding_ != Binding::kGram)
      << "column means need row-level data; Gram-bound solvers have no rows";
  if (binding_ == Binding::kDense) {
    mean_ = ColumnMeans(*x_);
  } else if (binding_ == Binding::kSharded && !source_->sparse()) {
    TraceSpan span("ridge.prepare_sharded");
    Vector sums(source_->cols());
    ForEachShard(source_, [&](const RowShard& shard) {
      ColumnSumsAccumulate(*shard.dense, &sums);
    });
    Scale(1.0 / source_->rows(), &sums);
    mean_ = std::move(sums);
  } else {
    const LinearOperator* data = ResolveOperator();
    mean_ = data->ApplyTransposedMulti(Matrix(data->rows(), 1, 1.0)).Col(0);
    Scale(1.0 / data->rows(), &mean_);
  }
  mean_ready_ = true;
  return mean_;
}

const Matrix& RidgeSolver::centered() {
  PrepareDense();
  return centered_;
}

RidgeSolution RidgeSolver::Solve(const Matrix& responses, double alpha,
                                 const RidgeSolveOptions& options) {
  SRDA_CHECK_GE(alpha, 0.0) << "alpha must be non-negative";
  RidgeMethod method = options.method;
  if (method == RidgeMethod::kAuto) {
    const bool streaming_only =
        binding_ == Binding::kOperator ||
        (binding_ == Binding::kSharded && source_->sparse());
    method = streaming_only ? RidgeMethod::kLsqr
                            : RidgeMethod::kNormalEquations;
  }
  if (method == RidgeMethod::kNormalEquations) {
    SRDA_CHECK(binding_ != Binding::kOperator)
        << "normal equations need dense or Gram-bound data";
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
      << "LSQR needs dense- or operator-bound data";
  return SolveLsqr(responses, alpha, options);
}

// Dense normal-equations path (Section III-C1): primal
// (X̄ᵀX̄ + alpha I) A = X̄ᵀY, or the exact dual A = X̄ᵀ(X̄X̄ᵀ + alpha I)⁻¹Y
// when the solver was sided that way. With responses orthogonal to the ones
// vector, centering makes the optimal regression bias zero; the embedding
// bias folds the mean back in as b = -meanᵀ a.
RidgeSolution RidgeSolver::SolveNormalEquations(const Matrix& responses,
                                                double alpha) {
  TraceSpan span("ridge.solve_normal");
  if (span.recording()) {
    span.AddArg("rhs", static_cast<double>(responses.cols()));
    span.AddArg("alpha", alpha);
  }
  if (binding_ == Binding::kSharded) {
    PrepareSharded();
    SRDA_CHECK_EQ(responses.rows(), source_->rows())
        << "response count mismatch";
    RidgeSolution solution;
    const Cholesky* chol = FactorAt(alpha);
    if (chol == nullptr) return solution;
    // Right-hand sides X̄ᵀY streamed shard by shard: each block product
    // continues the accumulator chains of MultiplyTransposedA on the
    // concatenated centered matrix, so rhs — and hence the solve — is
    // bitwise identical to the dense-bound path.
    Matrix rhs(source_->cols(), responses.cols());
    ForEachShard(source_, [&](const RowShard& shard) {
      Matrix centered_shard = *shard.dense;
      SubtractRowVector(mean_, &centered_shard);
      MultiplyTransposedAAccumulate(
          centered_shard,
          responses.Block(shard.first_row, 0, shard.rows(), responses.cols()),
          &rhs);
    });
    solution.coefficients = chol->SolveMatrix(rhs);
    const int d = responses.cols();
    solution.bias = Vector(d);
    const Vector mean_projected =
        MultiplyTransposed(solution.coefficients, mean_);
    for (int j = 0; j < d; ++j) solution.bias[j] = -mean_projected[j];
    solution.ok = true;
    return solution;
  }
  PrepareDense();
  SRDA_CHECK_EQ(responses.rows(), x_->rows()) << "response count mismatch";
  RidgeSolution solution;
  const Cholesky* chol = FactorAt(alpha);
  if (chol == nullptr) return solution;

  if (use_primal_) {
    solution.coefficients =
        chol->SolveMatrix(MultiplyTransposedA(centered_, responses));
  } else {
    solution.coefficients =
        MultiplyTransposedA(centered_, chol->SolveMatrix(responses));
  }

  const int d = responses.cols();
  solution.bias = Vector(d);
  const Vector mean_projected =
      MultiplyTransposed(solution.coefficients, mean_);
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
  // For the sharded binding, one streaming pass over the shards per
  // operator product; every product is bitwise identical to the in-RAM
  // operator on the concatenated matrix, so the whole LSQR recurrence
  // matches too.
  const LinearOperator* data = ResolveOperator();
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

  std::vector<LsqrResult> results;
  solution.bias = Vector(d);
  if (bias_mode_ == RidgeBias::kImplicitCentering) {
    const Vector& column_mean = mean();
    const CenterColumnsOperator centered(data, &column_mean);
    results = LsqrBatch(centered, responses, lsqr_options);
    for (int j = 0; j < d; ++j) {
      const LsqrResult& result = results[static_cast<size_t>(j)];
      for (int i = 0; i < n; ++i) solution.coefficients(i, j) = result.x[i];
      solution.bias[j] = -Dot(column_mean, result.x);
    }
  } else {
    const AppendOnesColumnOperator augmented(data);
    results = LsqrBatch(augmented, responses, lsqr_options);
    for (int j = 0; j < d; ++j) {
      const LsqrResult& result = results[static_cast<size_t>(j)];
      for (int i = 0; i < n; ++i) solution.coefficients(i, j) = result.x[i];
      solution.bias[j] = result.x[n];
    }
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
