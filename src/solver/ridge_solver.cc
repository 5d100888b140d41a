#include "solver/ridge_solver.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "linalg/cholesky_update.h"
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
  Counter* fold_downdate_hits;
  Counter* fold_downdate_fallbacks;
};

const RidgeInstruments& RidgeMetrics() {
  static const RidgeInstruments instruments = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return RidgeInstruments{registry.counter("ridge.gram_cache_hits"),
                            registry.counter("ridge.gram_cache_misses"),
                            registry.counter("ridge.factor_cache_hits"),
                            registry.counter("ridge.factor_cache_misses"),
                            registry.counter("ridge.fold_downdate_hit"),
                            registry.counter("ridge.fold_downdate_fallback")};
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
  switch (side_) {
    case GramSide::kAuto:
      use_primal_ = x_->cols() <= x_->rows();
      break;
    case GramSide::kPrimal:
      use_primal_ = true;
      break;
    case GramSide::kDual:
      use_primal_ = false;
      break;
  }
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
  if (parent_ != nullptr && TryFoldDowndate(alpha)) {
    if (TraceEnabled()) RidgeMetrics().fold_downdate_hits->Increment();
    factor_ok_ = true;
    factor_alpha_ = alpha;
    factor_ready_ = true;
    return &chol_;
  }
  TraceSpan span("ridge.factor");
  if (span.recording()) {
    span.AddArg("alpha", alpha);
    RidgeMetrics().factor_misses->Increment();
  }
  if (parent_ != nullptr) {
    // The fold/downdate shortcut declined (condition trip or unsupported
    // shape) and we are paying for a fresh factor: count it whether or not
    // a trace is recording.
    RidgeMetrics().fold_downdate_fallbacks->Increment();
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
  // Resolve the Gram side now so the child inherits the side the parent's
  // factor actually lives on; the downdate algebra must match it.
  PrepareDense();
  RidgeSolver child;
  child.binding_ = Binding::kDense;
  child.parent_ = this;
  child.fold_rows_ = rows;
  child.side_ = use_primal_ ? GramSide::kPrimal : GramSide::kDual;
  child.owned_x_ = std::make_unique<Matrix>(m - k, n);
  int next = 0;
  int out = 0;
  for (int i = 0; i < m; ++i) {
    if (next < k && rows[static_cast<size_t>(next)] == i) {
      ++next;
      continue;
    }
    const double* src = x_->RowPtr(i);
    std::copy(src, src + n, child.owned_x_->RowPtr(out));
    ++out;
  }
  child.x_ = child.owned_x_.get();
  return child;
}

// Derives this fold child's factor of (G_train + alpha I) from the
// parent's full-data factor at the same alpha.
//
// Primal (G = X̄ᵀX̄): with x̄_i the parent's centered rows, s = Σ_fold x̄_i
// and m_tr kept rows, the training Gram centered on the training mean is
//
//   X̄_trᵀX̄_tr = G_full − Σ_fold x̄_i x̄_iᵀ − s sᵀ / m_tr,
//
// a pure rank-(k+1) downdate (the trailing vector moves the centering from
// the full mean to the training mean); the +alpha I shift carries through.
//
// Dual (G = X̄X̄ᵀ): deleting the fold's rows/cols from the factor gives the
// kept rows' outer Gram still centered on the full mean (alpha shift again
// preserved on the principal submatrix). Re-centering subtracts the
// symmetric rank-2 term u𝟙ᵀ + 𝟙uᵀ − (dᵀd)𝟙𝟙ᵀ, where d = mean_tr − mean
// and u = X̄_tr d; with w = u − (dᵀd/2)𝟙 that term is
// ½(w+𝟙)(w+𝟙)ᵀ − ½(w−𝟙)(w−𝟙)ᵀ — one rank-1 update then one rank-1
// downdate.
//
// Returns false when the parent factor is unavailable or a downdate
// rotation hits the condition floor; FactorAt then rebuilds from scratch.
bool RidgeSolver::TryFoldDowndate(double alpha) {
  const Cholesky* parent_factor = parent_->FactorAt(alpha);
  if (parent_factor == nullptr) return false;
  PrepareDense();
  const Matrix& parent_centered = parent_->centered();
  const int n = parent_centered.cols();
  const int k = static_cast<int>(fold_rows_.size());
  const int m_train = x_->rows();
  TraceSpan span("ridge.fold_downdate");
  if (span.recording()) {
    span.AddArg("k", static_cast<double>(k));
    span.AddArg("alpha", alpha);
  }
  // Sum of the fold's centered rows; the training mean sits at
  // mean_full − s / m_train.
  Vector s(n);
  for (int r = 0; r < k; ++r) {
    const double* row = parent_centered.RowPtr(fold_rows_[static_cast<size_t>(r)]);
    for (int j = 0; j < n; ++j) s[j] += row[j];
  }
  if (use_primal_) {
    Matrix v(k + 1, n);
    for (int r = 0; r < k; ++r) {
      const double* src =
          parent_centered.RowPtr(fold_rows_[static_cast<size_t>(r)]);
      std::copy(src, src + n, v.RowPtr(r));
    }
    const double scale = 1.0 / std::sqrt(static_cast<double>(m_train));
    double* last = v.RowPtr(k);
    for (int j = 0; j < n; ++j) last[j] = scale * s[j];
    Matrix l = parent_factor->factor();
    if (!CholeskyRankKDowndate(&l, v)) return false;
    chol_.SetFactor(std::move(l));
    return true;
  }
  Matrix l = CholeskyDeleteRowsCols(parent_factor->factor(), fold_rows_);
  Vector d = s;
  Scale(-1.0 / m_train, &d);
  const double dd = Dot(d, d);
  Matrix update(1, m_train);
  Matrix downdate(1, m_train);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  double* up = update.RowPtr(0);
  double* down = downdate.RowPtr(0);
  const int m = parent_centered.rows();
  int next = 0;
  int out = 0;
  for (int i = 0; i < m; ++i) {
    if (next < k && fold_rows_[static_cast<size_t>(next)] == i) {
      ++next;
      continue;
    }
    const double* row = parent_centered.RowPtr(i);
    double u = 0.0;
    for (int j = 0; j < n; ++j) u += row[j] * d[j];
    const double w = u - 0.5 * dd;
    up[out] = (w - 1.0) * inv_sqrt2;
    down[out] = (w + 1.0) * inv_sqrt2;
    ++out;
  }
  CholeskyRankKUpdate(&l, update);
  if (!CholeskyRankKDowndate(&l, downdate)) return false;
  chol_.SetFactor(std::move(l));
  return true;
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
