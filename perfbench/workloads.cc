#include "workloads.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "classify/classifiers.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/embedding.h"
#include "core/lda.h"
#include "core/responses.h"
#include "core/srda.h"
#include "dataset/dataset.h"
#include "dataset/split.h"
#include "io/dataset_io.h"
#include "io/row_shard_reader.h"
#include "linalg/cholesky.h"
#include "linalg/cholesky_update.h"
#include "linalg/linear_operator.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "machine.h"
#include "matrix/blas.h"
#include "model/codec.h"
#include "model/model.h"
#include "obs/metrics.h"
#include "select/model_selection.h"
#include "serve/serving.h"
#include "solver/ridge_solver.h"

namespace perfbench {
namespace {

using srda::CentroidClassifier;
using srda::DenseDataset;
using srda::LinearEmbedding;
using srda::Matrix;
using srda::SparseDataset;
using srda::SparseMatrix;
using srda::Vector;

// Every end-to-end metric, printed on every workload with --trace 0, so
// each one names a figure every workload has. Each workload runs its
// operations in rounds: the first kHeavyRounds rounds run every operation
// once (round_s, their median), the later rounds repeat the frequent ones
// (repeat_s, their median):
//
//   workload     heavy round                          repeat round
//   faces_dense  primal + dual fit, LDA, alpha search  primal + dual fit
//   text_sparse  in-RAM fit, streamed fit              in-RAM fit
//   serve_faces  model load, single-row + block phase  the same
//
// (serve_faces has no operation of its own in the heavy rounds, so its
// round_s is the median of every round.)
//
// bulk_predict_per_s is the median over rounds of the rate at which a whole
// block of test rows is classified: Transform + CentroidClassifier::Predict
// of the SRDA test splits (faces_dense, text_sparse), the 64-row-block phase
// of the service (serve_faces).
//
// The figures of single operations (train_s, select_s, stream_train_s,
// predict_p50_us, ...) are printed as "info" lines beside them.
const std::vector<std::pair<const char*, const char*>>& EndToEndTable() {
  static const std::vector<std::pair<const char*, const char*>> table = {
      {"setup_s", "s"},
      {"round_s", "s"},
      {"repeat_s", "s"},
      {"bulk_predict_per_s", "rows/s"},
      {"peak_rss_mb", "MiB"},
  };
  return table;
}

// Every per-layer metric, printed on every workload with --trace 1. A layer
// the workload never reaches reads 0.
const std::vector<std::pair<const char*, const char*>>& PerLayerTable() {
  static const std::vector<std::pair<const char*, const char*>> table = {
      {"dataset.generate_s", "s"},
      {"io.write_libsvm_s", "s"},
      {"io.read_libsvm_s", "s"},
      {"io.scan_s", "s"},
      {"io.pass_s", "s"},
      {"io.parse_mb_per_s", "MB/s"},
      {"io.passes", "count"},
      {"io.bytes_streamed", "bytes"},
      {"io.peak_shard_bytes", "bytes"},
      {"io.bytes_per_flop", "B/flop"},
      {"sparse.apply_multi_s", "s"},
      {"sparse.apply_t_multi_s", "s"},
      {"sparse.gbytes_per_s", "GB/s"},
      {"sparse.pct_triad", "%"},
      {"sparse.bytes_per_flop", "B/flop"},
      {"matrix.gram_s", "s"},
      {"matrix.gram_gflops", "GFLOP/s"},
      {"matrix.gram_pct_peak", "%"},
      {"matrix.outer_gram_s", "s"},
      {"linalg.cholesky_s", "s"},
      {"linalg.cholesky_dual_s", "s"},
      {"linalg.cholesky_gflops", "GFLOP/s"},
      {"linalg.cholesky_pct_peak", "%"},
      {"linalg.downdate_s", "s"},
      {"linalg.lsqr_iterations", "count"},
      {"linalg.lsqr_iter_ms", "ms"},
      {"linalg.svd_s", "s"},
      {"linalg.eigen_s", "s"},
      {"solver.prepare_s", "s"},
      {"solver.factor_s", "s"},
      {"solver.refactor_s", "s"},
      {"solver.solve_s", "s"},
      {"select.search_s", "s"},
      {"select.fold_downdate_s", "s"},
      {"select.fold_rebuild_s", "s"},
      {"select.downdate_hit_ratio", "ratio"},
      {"core.fit_s", "s"},
      {"core.train_dual_s", "s"},
      {"core.lda_train_s", "s"},
      {"core.lda_ratio", "ratio"},
      {"core.lda_ratio_predicted", "ratio"},
      {"core.stream_train_s", "s"},
      {"core.transform_s", "s"},
      {"classify.score_us_per_row", "us"},
      {"classify.test_error_pct", "%"},
      {"model.load_binary_us", "us"},
      {"model.load_text_us", "us"},
      {"serve.mean_batch", "rows"},
      {"serve.batch_fill", "ratio"},
      {"serve.bulk_mean_batch", "rows"},
      {"serve.bulk_batch_fill", "ratio"},
      {"serve.queue_wait_us", "us"},
      {"common.parallel_eff", "ratio"},
      {"machine.gemm_gflops", "GFLOP/s"},
      {"machine.triad_gbps", "GB/s"},
      {"harness.round_s", "s"},
      {"harness.trace_overhead_pct", "%"},
  };
  return table;
}

Tracer g_tracer;
int64_t g_next_operation = 0;

// Starts a new operation: spans opened from here on share its id.
void NextOperation() { Tracer::SetOperation(g_next_operation++); }

// Metric values a workload measured, keyed by name.
using Values = std::map<std::string, double>;

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.rows()) *
                         static_cast<size_t>(a.cols())) == 0;
}

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.size())) == 0;
}

bool SameEmbedding(const LinearEmbedding& a, const LinearEmbedding& b) {
  return SameBits(a.projection(), b.projection()) &&
         SameBits(a.bias(), b.bias());
}

bool AllFinite(const Matrix& m) {
  const size_t n = static_cast<size_t>(m.rows()) * m.cols();
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(m.data()[i])) return false;
  }
  return true;
}

// Test-error bands span, with margin, the errors the full-size generators
// give over seeds 1-40 (faces) and 1-20 (text); outside them is a broken fit,
// not an unlucky seed. The error varies with the seed far more than any
// bound a perf gate could use, so it is a check, not an end-to-end metric.
bool InBand(double value, double lo, double hi, bool enabled) {
  return !enabled || (value >= lo && value <= hi);
}

constexpr double kPrimalBand = 0.04;  // faces at 30 per class, from 0
constexpr double kDualBand[2] = {0.01, 0.25};  // faces at 10 per class
constexpr double kLdaBand[2] = {0.02, 0.35};
constexpr double kTextBand[2] = {0.06, 0.15};

std::string WithError(const char* what, double error) {
  return std::string(what) + " (test error " + std::to_string(error) + ")";
}

// The paper's alpha/(1+alpha) grid over (0, 1).
std::vector<double> AlphaGrid(int count) {
  std::vector<double> alphas;
  for (int g = 1; g <= count; ++g) {
    const double ratio = static_cast<double>(g) / (count + 1);
    alphas.push_back(ratio / (1.0 - ratio));
  }
  return alphas;
}

uint64_t SplitSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream;
}

uint64_t DigestDense(const DenseDataset& d, uint64_t hash) {
  hash = Fnv1a(d.features.data(),
               sizeof(double) * static_cast<size_t>(d.features.rows()) *
                   d.features.cols(),
               hash);
  return Fnv1a(d.labels.data(), sizeof(int) * d.labels.size(), hash);
}

uint64_t DigestSparse(const SparseDataset& d, uint64_t hash) {
  for (int i = 0; i < d.features.rows(); ++i) {
    const size_t nnz = static_cast<size_t>(d.features.RowNonZeros(i));
    hash = Fnv1a(d.features.RowIndices(i), sizeof(int) * nnz, hash);
    hash = Fnv1a(d.features.RowValues(i), sizeof(double) * nnz, hash);
  }
  return Fnv1a(d.labels.data(), sizeof(int) * d.labels.size(), hash);
}

// ---------------------------------------------------------------------------
// Shared steps of the workloads.

struct TestResult {
  double error = 0.0;
  double predict_s = 0.0;  // Transform + Predict of the test split
  int rows = 0;            // test rows classified
};

// Fits the centroid head on the embedded training rows and classifies the
// test split, the way a user of the library scores a trained embedding.
template <typename Features>
TestResult TestError(const LinearEmbedding& embedding, const Features& train,
                     const std::vector<int>& train_labels, int num_classes,
                     const Features& test,
                     const std::vector<int>& test_labels) {
  CentroidClassifier classifier;
  Matrix embedded_train;
  {
    ScopedSpan span(&g_tracer, "core", "Transform");
    embedded_train = embedding.Transform(train);
  }
  {
    ScopedSpan span(&g_tracer, "classify", "CentroidClassifier::Fit");
    classifier.Fit(embedded_train, train_labels, num_classes);
  }
  TestResult result;
  const double start = Now();
  Matrix embedded_test;
  {
    ScopedSpan span(&g_tracer, "core", "Transform");
    embedded_test = embedding.Transform(test);
  }
  std::vector<int> predictions;
  {
    ScopedSpan span(&g_tracer, "classify", "CentroidClassifier::Predict");
    predictions = classifier.Predict(embedded_test);
  }
  result.predict_s = Now() - start;
  result.rows = embedded_test.rows();
  result.error = srda::ErrorRate(predictions, test_labels);
  return result;
}

// The first rounds of a run also run the workload's heavy operations (the
// alpha search and LDA, the streamed fit). Three of them let the round_s
// median drop one round a busy host slowed.
constexpr size_t kHeavyRounds = 3;
// Repeat rounds always run, however little of the window the heavy rounds
// left, so repeat_s is a median of several.
constexpr size_t kMinRepeatRounds = 5;

struct RoundWalls {
  std::vector<double> heavy;   // wall time of each heavy round
  std::vector<double> repeat;  // wall time of each later round
};

// Runs `round(heavy)` until the measurement window is spent: kHeavyRounds
// heavy rounds and kMinRepeatRounds repeats, then repeats while the median
// repeat still fits in the window.
template <typename RoundFn>
RoundWalls RunWindow(double seconds, RoundFn round) {
  RoundWalls walls;
  const double start = Now();
  do {
    const bool heavy = walls.heavy.size() < kHeavyRounds;
    const double round_start = Now();
    round(heavy);
    (heavy ? walls.heavy : walls.repeat).push_back(Now() - round_start);
  } while (walls.repeat.size() < kMinRepeatRounds ||
           Now() - start + Median(walls.repeat) <= seconds);
  return walls;
}

void ReportRounds(const RoundWalls& walls, Values* v) {
  (*v)["round_s"] = Median(walls.heavy);
  (*v)["repeat_s"] = Median(walls.repeat);
  std::cout << walls.heavy.size() << " heavy rounds, " << walls.repeat.size()
            << " repeat rounds\n";
}

// Prints a figure of an untraced run that is not an end-to-end metric:
// the time of one operation inside a round, an error rate, a throughput.
void Info(const char* name, double value, const char* unit) {
  std::cout << "info " << name << " = " << value << " " << unit << "\n";
}

// Fit at one thread must equal the fit at every thread bit for bit; the
// two timings give the parallel efficiency.
template <typename FitFn>
double CheckThreadDeterminism(FitFn fit, const LinearEmbedding& reference,
                              OpLedger* ops) {
  const int threads = srda::GlobalThreadCount();
  NextOperation();
  double all_s = 0.0;
  double one_s = 0.0;
  LinearEmbedding one;
  {
    ScopedSpan span(&g_tracer, "common", "fit at all threads", true);
    const double start = Now();
    const LinearEmbedding again = fit();
    all_s = Now() - start;
    ops->Check(SameEmbedding(again, reference), "repeat fit differs");
  }
  srda::SetGlobalThreadCount(1);
  {
    ScopedSpan span(&g_tracer, "common", "fit at 1 thread", true);
    const double start = Now();
    one = fit();
    one_s = Now() - start;
  }
  srda::SetGlobalThreadCount(threads);
  ops->Check(SameEmbedding(one, reference),
             "1-thread fit differs from the all-thread fit");
  return one_s / (threads * all_s);
}

// Median wall time of `reps` calls of fn, each in a replay span.
template <typename Fn>
double TimeReplay(const char* layer, const char* name, int reps, Fn fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span(&g_tracer, layer, name, true);
    const double start = Now();
    fn();
    times.push_back(Now() - start);
  }
  return Median(times);
}

Ceilings TraceCeilings(const Sizes& sizes, Values* v) {
  ScopedSpan span(&g_tracer, "machine", "ceilings", true);
  const int64_t array_bytes =
      sizes.triad_array_bytes > 0
          ? sizes.triad_array_bytes
          : std::max<int64_t>(4 * LastLevelCacheBytes(), int64_t{256} << 20);
  const Ceilings c = MeasureCeilings(sizes.gemm_n, array_bytes);
  (*v)["machine.gemm_gflops"] = c.gemm_gflops;
  (*v)["machine.triad_gbps"] = c.triad_gbps;
  std::cout << "ceilings: gemm " << c.gemm_gflops << " GFLOP/s at n="
            << c.gemm_n << "; triad " << c.triad_gbps << " GB/s with 3 arrays of "
            << c.triad_array_bytes / (1024.0 * 1024.0) << " MiB each (LLC "
            << c.llc_bytes / (1024.0 * 1024.0) << " MiB)\n";
  return c;
}

// Prints what an untraced and a traced round cost, and records the
// difference as the tracing overhead.
void AddTraceOverhead(double untraced_s, double traced_s, Values* v) {
  (*v)["harness.round_s"] = traced_s;
  (*v)["harness.trace_overhead_pct"] =
      100.0 * (traced_s - untraced_s) / untraced_s;
  std::cout << "tracing overhead: untraced round " << untraced_s
            << " s, traced round " << traced_s << " s\n";
}

// ---------------------------------------------------------------------------
// faces_dense

struct FaceData {
  DenseDataset primal_train, primal_test;  // per_class = primal_per_class
  DenseDataset dual_train, dual_test;      // per_class = dual_per_class
  uint64_t digest = 0;
};

FaceData SetupFaces(const Sizes& sizes, uint64_t seed) {
  srda::FaceGeneratorOptions options = sizes.faces;
  options.seed = seed;
  DenseDataset all;
  {
    ScopedSpan span(&g_tracer, "dataset", "GenerateFaceDataset");
    all = srda::GenerateFaceDataset(options);
  }
  FaceData data;
  ScopedSpan span(&g_tracer, "dataset", "StratifiedSplitByCount+Subset");
  srda::Rng rng(SplitSeed(seed, 1));
  const srda::TrainTestSplit primal = srda::StratifiedSplitByCount(
      all.labels, all.num_classes, sizes.primal_per_class, &rng);
  const srda::TrainTestSplit dual = srda::StratifiedSplitByCount(
      all.labels, all.num_classes, sizes.dual_per_class, &rng);
  data.primal_train = srda::Subset(all, primal.train);
  data.primal_test = srda::Subset(all, primal.test);
  data.dual_train = srda::Subset(all, dual.train);
  data.dual_test = srda::Subset(all, dual.test);
  data.digest = DigestDense(all, 0);
  data.digest = Fnv1a(primal.train.data(), sizeof(int) * primal.train.size(),
                      data.digest);
  data.digest =
      Fnv1a(dual.train.data(), sizeof(int) * dual.train.size(), data.digest);
  return data;
}

LinearEmbedding FitFaces(const DenseDataset& train, const char* name) {
  ScopedSpan span(&g_tracer, "core", name);
  return srda::FitSrda(train.features, train.labels, train.num_classes)
      .embedding;
}

struct FaceRound {
  LinearEmbedding primal, dual;
  double primal_fit_s = 0.0;
  double dual_fit_s = 0.0;
  double primal_error = 0.0;
  double dual_error = 0.0;
  double predict_per_s = 0.0;  // both SRDA test splits
  double lda_s = 0.0;
  double select_s = 0.0;
};

// One round: SRDA on the primal and dual splits, each classifying its test
// split. The first round of a run also runs the heavy operations: the
// cross-validated alpha search and the LDA baseline.
FaceRound RunFaceRound(const FaceData& d, const Sizes& sizes, uint64_t seed,
                       bool heavy,
                       const FaceRound* first, OpLedger* ops) {
  const bool bands = sizes.check_error_bands;
  FaceRound r;
  NextOperation();
  double start = Now();
  r.primal = FitFaces(d.primal_train, "FitSrda(primal)");
  r.primal_fit_s = Now() - start;
  const TestResult primal_test =
      TestError(r.primal, d.primal_train.features, d.primal_train.labels,
                d.primal_train.num_classes, d.primal_test.features,
                d.primal_test.labels);
  r.primal_error = primal_test.error;
  ops->Check(AllFinite(r.primal.projection()) &&
                 InBand(r.primal_error, 0.0, kPrimalBand, bands) &&
                 (first == nullptr || SameEmbedding(r.primal, first->primal)),
             WithError("faces primal SRDA fit", r.primal_error));

  NextOperation();
  start = Now();
  r.dual = FitFaces(d.dual_train, "FitSrda(dual)");
  r.dual_fit_s = Now() - start;
  const TestResult dual_test = TestError(
      r.dual, d.dual_train.features, d.dual_train.labels,
      d.dual_train.num_classes, d.dual_test.features, d.dual_test.labels);
  r.dual_error = dual_test.error;
  r.predict_per_s = (primal_test.rows + dual_test.rows) /
                    (primal_test.predict_s + dual_test.predict_s);
  ops->Check(AllFinite(r.dual.projection()) &&
                 InBand(r.dual_error, kDualBand[0], kDualBand[1], bands) &&
                 (first == nullptr || SameEmbedding(r.dual, first->dual)),
             WithError("faces dual SRDA fit", r.dual_error));

  if (heavy) {
    NextOperation();
    start = Now();
    srda::LdaModel lda;
    {
      ScopedSpan span(&g_tracer, "core", "FitLda");
      lda = srda::FitLda(d.dual_train.features, d.dual_train.labels,
                         d.dual_train.num_classes);
    }
    r.lda_s = Now() - start;
    const double lda_error =
        TestError(lda.embedding, d.dual_train.features, d.dual_train.labels,
                  d.dual_train.num_classes, d.dual_test.features,
                  d.dual_test.labels)
            .error;
    ops->Check(lda.converged &&
                   InBand(lda_error, kLdaBand[0], kLdaBand[1], bands),
               WithError("faces LDA fit", lda_error));

    NextOperation();
    start = Now();
    srda::AlphaSearchResult search;
    {
      ScopedSpan span(&g_tracer, "select", "SelectSrdaAlpha");
      search = srda::SelectSrdaAlpha(d.primal_train, AlphaGrid(sizes.cv_alphas),
                                     sizes.cv_folds, seed);
    }
    r.select_s = Now() - start;
    bool search_ok = search.errors.size() ==
                     static_cast<size_t>(sizes.cv_alphas);
    for (const double e : search.errors) {
      search_ok = search_ok && std::isfinite(e) && e >= 0.0 && e <= 1.0;
    }
    const double best = search.errors[static_cast<size_t>(search.best_index)];
    ops->Check(search_ok && InBand(best, 0.0, kPrimalBand, bands),
               WithError("faces alpha search", best));
  }
  return r;
}

void TraceFaceLayers(const FaceData& d, const FaceRound& traced,
                     const Sizes& sizes, uint64_t seed, double gemm_gflops,
                     Values* v) {
  const double alpha = 1.0;
  const Matrix& x = d.primal_train.features;
  const int n = x.cols();

  // solver: the four RidgeSolver steps FitSrda runs, on the primal split.
  srda::RidgeSolver solver(&x);
  (*v)["solver.prepare_s"] = TimeReplay("solver", "RidgeSolver::mean+centered",
                                        1, [&] {
                                          solver.mean();
                                          solver.centered();
                                        });
  (*v)["solver.factor_s"] = TimeReplay("solver", "RidgeSolver::FactorAt(miss)",
                                       1, [&] { solver.FactorAt(alpha); });
  (*v)["solver.refactor_s"] = TimeReplay(
      "solver", "RidgeSolver::FactorAt(hit)", 1,
      [&] { solver.FactorAt(0.5 * alpha); });
  const Matrix responses = srda::GenerateSrdaResponses(
      d.primal_train.labels, d.primal_train.num_classes);
  (*v)["solver.solve_s"] =
      TimeReplay("solver", "RidgeSolver::Solve(cached)", 3,
                 [&] { solver.Solve(responses, 0.5 * alpha); });

  // matrix and linalg: the inner calls of FactorAt and FitLda on the same
  // operands.
  const Matrix& centered = solver.centered();
  Matrix gram;
  (*v)["matrix.gram_s"] =
      TimeReplay("matrix", "Gram", 3, [&] { gram = srda::Gram(centered); });
  const double gram_flops =
      static_cast<double>(centered.rows()) * n * (n + 1.0);
  (*v)["matrix.gram_gflops"] = gram_flops / (*v)["matrix.gram_s"] * 1e-9;
  (*v)["matrix.gram_pct_peak"] =
      100.0 * (*v)["matrix.gram_gflops"] / gemm_gflops;
  srda::AddDiagonal(alpha, &gram);
  srda::Cholesky chol;
  (*v)["linalg.cholesky_s"] = TimeReplay("linalg", "Cholesky::Factor(primal)",
                                         3, [&] { chol.Factor(gram); });
  (*v)["linalg.cholesky_gflops"] =
      std::pow(static_cast<double>(n), 3) / 3.0 / (*v)["linalg.cholesky_s"] *
      1e-9;
  (*v)["linalg.cholesky_pct_peak"] =
      100.0 * (*v)["linalg.cholesky_gflops"] / gemm_gflops;

  srda::RidgeSolver dual_solver(&d.dual_train.features);
  const Matrix& dual_centered = dual_solver.centered();
  Matrix outer;
  (*v)["matrix.outer_gram_s"] = TimeReplay(
      "matrix", "OuterGram", 3, [&] { outer = srda::OuterGram(dual_centered); });
  Matrix outer_reg = outer;
  srda::AddDiagonal(alpha, &outer_reg);
  srda::Cholesky dual_chol;
  (*v)["linalg.cholesky_dual_s"] =
      TimeReplay("linalg", "Cholesky::Factor(dual)", 3,
                 [&] { dual_chol.Factor(outer_reg); });
  (*v)["linalg.svd_s"] = TimeReplay("linalg", "ThinSvd", 1, [&] {
    srda::ThinSvd(dual_centered, 1e-6);
  });
  (*v)["linalg.eigen_s"] = TimeReplay("linalg", "SymmetricEigen", 1,
                                      [&] { srda::SymmetricEigen(outer); });

  // select: one fold's factor by downdate and by rebuild, and the rank-k
  // downdate itself.
  srda::Rng rng(seed);
  const std::vector<std::vector<int>> folds = srda::StratifiedFolds(
      d.primal_train.labels, d.primal_train.num_classes, sizes.cv_folds, &rng);
  const std::vector<int>& fold = folds[0];
  Matrix fold_rows(static_cast<int>(fold.size()), n);
  for (size_t i = 0; i < fold.size(); ++i) {
    std::memcpy(fold_rows.RowPtr(static_cast<int>(i)),
                centered.RowPtr(fold[i]), sizeof(double) * n);
  }
  (*v)["linalg.downdate_s"] = TimeReplay("linalg", "CholeskyRankKDowndate", 1,
                                         [&] {
                                           Matrix l = chol.factor();
                                           srda::CholeskyRankKDowndate(
                                               &l, fold_rows);
                                         });
  srda::RidgeSolver full(&x);
  full.FactorAt(alpha);
  (*v)["select.fold_downdate_s"] =
      TimeReplay("select", "ExcludeRows+FactorAt", 1, [&] {
        srda::RidgeSolver child = full.ExcludeRows(fold);
        child.FactorAt(alpha);
      });
  std::vector<int> keep;
  for (int i = 0, f = 0; i < x.rows(); ++i) {
    if (f < static_cast<int>(fold.size()) && fold[static_cast<size_t>(f)] == i) {
      ++f;
    } else {
      keep.push_back(i);
    }
  }
  const DenseDataset fold_train = srda::Subset(d.primal_train, keep);
  (*v)["select.fold_rebuild_s"] =
      TimeReplay("select", "RidgeSolver(fold)+FactorAt", 1, [&] {
        srda::RidgeSolver fresh(&fold_train.features);
        fresh.FactorAt(alpha);
      });

  // core and classify: the test-split transform and block scoring.
  Matrix embedded;
  (*v)["core.transform_s"] =
      TimeReplay("core", "Transform(test split)", 3, [&] {
        embedded = traced.primal.Transform(d.primal_test.features);
      });
  CentroidClassifier classifier;
  classifier.Fit(traced.primal.Transform(x), d.primal_train.labels,
                 d.primal_train.num_classes);
  const int rows = std::min(sizes.block_rows, embedded.rows());
  const Matrix block = embedded.Block(0, 0, rows, embedded.cols());
  (*v)["classify.score_us_per_row"] =
      TimeReplay("classify", "ScoreBatch(block)", 51,
                 [&] { classifier.ScoreBatch(block); }) *
      1e6 / rows;

  const int m10 = d.dual_train.features.rows();
  const int c = d.dual_train.num_classes;
  (*v)["core.lda_ratio_predicted"] =
      srda::LdaCost(m10, n, c).flam / srda::SrdaNormalEquationsCost(m10, n, c).flam;
}

RunOutput RunFaces(const RunConfig& config, Values* v) {
  RunOutput out;
  const Sizes& sizes = config.sizes;
  std::vector<double> setup_s;
  FaceData data;
  const int repeats = config.trace ? 1 : sizes.setup_repeats;
  for (int r = 0; r < repeats; ++r) {
    data = FaceData{};
    const double start = Now();
    data = SetupFaces(sizes, config.seed);
    setup_s.push_back(Now() - start);
  }
  out.input_digest = data.digest;
  const auto fit_primal = [&] {
    return srda::FitSrda(data.primal_train.features, data.primal_train.labels,
                         data.primal_train.num_classes)
        .embedding;
  };

  if (!config.trace) {
    FaceRound first;
    std::vector<double> fits, dual_fits, selects, ldas, predict_rates;
    const RoundWalls walls = RunWindow(config.seconds, [&](bool heavy) {
      const bool is_first = fits.empty();
      FaceRound r = RunFaceRound(data, sizes, config.seed, heavy,
                                 is_first ? nullptr : &first, &out.ops);
      fits.push_back(r.primal_fit_s);
      dual_fits.push_back(r.dual_fit_s);
      predict_rates.push_back(r.predict_per_s);
      if (heavy) {
        selects.push_back(r.select_s);
        ldas.push_back(r.lda_s);
      }
      if (is_first) first = std::move(r);
    });
    CheckThreadDeterminism(fit_primal, first.primal, &out.ops);
    (*v)["setup_s"] = Median(setup_s);
    ReportRounds(walls, v);
    (*v)["bulk_predict_per_s"] = Median(predict_rates);
    Info("train_s", Median(fits), "s");
    Info("train_dual_s", Median(dual_fits), "s");
    Info("select_s", Median(selects), "s");
    Info("lda_train_s", Median(ldas), "s");
    Info("test_error_pct", 50.0 * (first.primal_error + first.dual_error), "%");
    return out;
  }

  g_tracer.SetEnabled(false);
  double start = Now();
  const FaceRound untraced =
      RunFaceRound(data, sizes, config.seed, true, nullptr, &out.ops);
  const double untraced_s = Now() - start;
  g_tracer.SetEnabled(true);
  srda::Counter* fallbacks =
      srda::MetricsRegistry::Global().counter("ridge.fold_downdate_fallback");
  const double fallbacks_before = fallbacks->value();
  start = Now();
  const FaceRound traced =
      RunFaceRound(data, sizes, config.seed, true, &untraced, &out.ops);
  const double traced_s = Now() - start;
  (*v)["classify.test_error_pct"] =
      50.0 * (traced.primal_error + traced.dual_error);
  const double grid = static_cast<double>(sizes.cv_folds) * sizes.cv_alphas;
  (*v)["select.downdate_hit_ratio"] =
      1.0 - (fallbacks->value() - fallbacks_before) / grid;
  AddTraceOverhead(untraced_s, traced_s, v);

  const std::vector<Span> spans = g_tracer.spans();
  const std::vector<double> self = SelfTimes(spans);
  (*v)["dataset.generate_s"] =
      LayerSelfSeconds(spans, self,"dataset", "GenerateFaceDataset");
  (*v)["core.fit_s"] = LayerSelfSeconds(spans, self,"core", "FitSrda(primal)");
  (*v)["core.train_dual_s"] = LayerSelfSeconds(spans, self,"core", "FitSrda(dual)");
  (*v)["core.lda_train_s"] = LayerSelfSeconds(spans, self,"core", "FitLda");
  (*v)["core.lda_ratio"] = (*v)["core.lda_train_s"] / (*v)["core.train_dual_s"];
  (*v)["select.search_s"] = LayerSelfSeconds(spans, self,"select", "SelectSrdaAlpha");

  const Ceilings ceilings = TraceCeilings(sizes, v);
  TraceFaceLayers(data, traced, sizes, config.seed, ceilings.gemm_gflops, v);
  (*v)["common.parallel_eff"] =
      CheckThreadDeterminism(fit_primal, traced.primal, &out.ops);
  return out;
}

// ---------------------------------------------------------------------------
// text_sparse

struct TextData {
  SparseDataset train, test;
  std::string path;  // the training split as a LibSVM file
  uint64_t digest = 0;
};

TextData SetupText(const Sizes& sizes, uint64_t seed, const std::string& dir) {
  srda::TextGeneratorOptions options = sizes.text;
  options.seed = seed;
  SparseDataset all;
  {
    ScopedSpan span(&g_tracer, "dataset", "GenerateTextDataset");
    all = srda::GenerateTextDataset(options);
  }
  TextData data;
  {
    ScopedSpan span(&g_tracer, "dataset", "StratifiedSplitByFraction+Subset");
    srda::Rng rng(SplitSeed(seed, 2));
    const srda::TrainTestSplit split = srda::StratifiedSplitByFraction(
        all.labels, all.num_classes, sizes.text_train_fraction, &rng);
    data.train = srda::Subset(all, split.train);
    data.test = srda::Subset(all, split.test);
    data.digest = DigestSparse(all, 0);
    data.digest = Fnv1a(split.train.data(), sizeof(int) * split.train.size(),
                        data.digest);
  }
  data.path = dir + "/text_train_" + std::to_string(seed) + ".libsvm";
  ScopedSpan span(&g_tracer, "io", "WriteLibSvmFile");
  srda::WriteLibSvmFile(data.train, data.path);
  return data;
}

// Writes a file's dirty pages to disk. Called after each timed set-up, so
// the write-back of the LibSVM file does not run during, and slow, the
// timings that follow.
void FlushToDisk(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

srda::SrdaOptions LsqrOptions(const Sizes& sizes) {
  srda::SrdaOptions options;
  options.solver = srda::SrdaSolver::kLsqr;
  options.lsqr_iterations = sizes.lsqr_iterations;
  return options;
}

struct TextRound {
  srda::SrdaModel model;
  double fit_s = 0.0;
  double stream_s = 0.0;
  double error = 0.0;
  double predict_per_s = 0.0;
  int64_t bytes_streamed = 0;  // the reader's scan and every product pass
  int64_t scan_bytes = 0;      // the constructor's metadata scan alone
  int64_t peak_shard_bytes = 0;
};

// One round: the in-RAM LSQR fit and the classification of the test split.
// The first round of a run also streams the same fit out of core from the
// LibSVM file, which must match the in-RAM fit bit for bit.
TextRound RunTextRound(const TextData& d, const Sizes& sizes, bool heavy,
                       const TextRound* first, OpLedger* ops) {
  const srda::SrdaOptions options = LsqrOptions(sizes);
  TextRound r;
  NextOperation();
  double start = Now();
  {
    ScopedSpan span(&g_tracer, "core", "FitSrda(sparse, LSQR)");
    r.model = srda::FitSrda(d.train.features, d.train.labels,
                            d.train.num_classes, options);
  }
  r.fit_s = Now() - start;
  const TestResult test =
      TestError(r.model.embedding, d.train.features, d.train.labels,
                d.train.num_classes, d.test.features, d.test.labels);
  r.error = test.error;
  r.predict_per_s = test.rows / test.predict_s;
  ops->Check(r.model.converged && AllFinite(r.model.embedding.projection()) &&
                 InBand(r.error, kTextBand[0], kTextBand[1],
                        sizes.check_error_bands) &&
                 (first == nullptr ||
                  SameEmbedding(r.model.embedding, first->model.embedding)),
             WithError("text in-RAM LSQR fit", r.error));
  if (!heavy) return r;

  NextOperation();
  start = Now();
  srda::SrdaModel streamed;
  {
    ScopedSpan span(&g_tracer, "core", "FitSrda(RowShardReader)");
    srda::RowShardReaderOptions reader_options;
    reader_options.shard_rows = sizes.shard_rows;
    reader_options.num_features = d.train.features.cols();
    srda::RowShardReader reader(d.path, srda::RowStreamFormat::kLibSvm,
                                reader_options);
    r.scan_bytes = reader.bytes_streamed();
    srda::RidgeSolver solver(&reader);
    streamed = srda::FitSrda(&solver, reader.labels(), reader.num_classes(),
                             options);
    r.bytes_streamed = reader.bytes_streamed();
    r.peak_shard_bytes = reader.peak_shard_bytes();
  }
  r.stream_s = Now() - start;
  ops->Check(SameEmbedding(streamed.embedding, r.model.embedding),
             "streamed fit differs from the in-RAM fit");
  return r;
}

void TraceTextLayers(const TextData& d, const TextRound& traced,
                     const Sizes& sizes, double triad_gbps, Values* v) {
  const SparseMatrix& x = d.train.features;
  const int m = x.rows();
  const int n = x.cols();
  const double nnz = static_cast<double>(x.NumNonZeros());
  const int k = d.train.num_classes - 1;

  // io: one-shot read, the reader's validating scan, and one full pass.
  (*v)["io.read_libsvm_s"] = TimeReplay("io", "ReadLibSvmFile", 1, [&] {
    srda::ReadLibSvmFile(d.path, n);
  });
  srda::RowShardReaderOptions reader_options;
  reader_options.shard_rows = sizes.shard_rows;
  reader_options.num_features = n;
  std::unique_ptr<srda::RowShardReader> reader;
  (*v)["io.scan_s"] = TimeReplay("io", "RowShardReader()", 1, [&] {
    reader = std::make_unique<srda::RowShardReader>(
        d.path, srda::RowStreamFormat::kLibSvm, reader_options);
  });
  const int64_t scan_bytes = reader->bytes_streamed();
  (*v)["io.pass_s"] = TimeReplay("io", "Reset+Next(all shards)", 3, [&] {
    srda::RowShard shard;
    reader->Reset();
    while (reader->Next(&shard)) {
    }
  });
  const double pass_bytes =
      static_cast<double>(reader->bytes_streamed() - scan_bytes) / 3.0;
  (*v)["io.parse_mb_per_s"] = pass_bytes / (*v)["io.pass_s"] * 1e-6;
  // The streamed fit's product passes, without the constructor's scan.
  const double passes =
      static_cast<double>(traced.bytes_streamed - traced.scan_bytes) /
      pass_bytes;
  (*v)["io.passes"] = passes;
  (*v)["io.bytes_streamed"] = static_cast<double>(traced.bytes_streamed);
  (*v)["io.peak_shard_bytes"] = static_cast<double>(traced.peak_shard_bytes);
  // Computed: each pass feeds one k-column product, 2 * nnz * k flops.
  (*v)["io.bytes_per_flop"] = pass_bytes / (2.0 * nnz * k);

  // sparse: the two k-column products LSQR runs per iteration.
  const srda::SparseOperator op(&x);
  srda::Rng rng(7);
  Matrix right(n, k);
  Matrix left(m, k);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) right(i, j) = rng.NextUniform(-1.0, 1.0);
  }
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) left(i, j) = rng.NextUniform(-1.0, 1.0);
  }
  (*v)["sparse.apply_multi_s"] = TimeReplay(
      "sparse", "SparseOperator::ApplyMulti", 5, [&] { op.ApplyMulti(right); });
  (*v)["sparse.apply_t_multi_s"] =
      TimeReplay("sparse", "SparseOperator::ApplyTransposedMulti", 5,
                 [&] { op.ApplyTransposedMulti(left); });
  // Computed bytes: the CSR arrays once, the dense operand and result once.
  const double csr_bytes = nnz * (sizeof(double) + sizeof(int)) +
                           (m + 1.0) * sizeof(int64_t);
  const double dense_bytes = (static_cast<double>(m) + n) * k * sizeof(double);
  const double bytes = 2.0 * (csr_bytes + dense_bytes);
  const double seconds =
      (*v)["sparse.apply_multi_s"] + (*v)["sparse.apply_t_multi_s"];
  (*v)["sparse.gbytes_per_s"] = bytes / seconds * 1e-9;
  (*v)["sparse.pct_triad"] = 100.0 * (*v)["sparse.gbytes_per_s"] / triad_gbps;
  (*v)["sparse.bytes_per_flop"] = bytes / (2.0 * 2.0 * nnz * k);

  // linalg and solver: the batched LSQR solve FitSrda runs.
  (*v)["linalg.lsqr_iterations"] = traced.model.total_lsqr_iterations;
  srda::RidgeSolver solver(&op, srda::RidgeBias::kImplicitCentering);
  const Matrix responses =
      srda::GenerateSrdaResponses(d.train.labels, d.train.num_classes);
  srda::RidgeSolveOptions solve_options;
  solve_options.method = srda::RidgeMethod::kLsqr;
  solve_options.lsqr_iterations = sizes.lsqr_iterations;
  int batch_iterations = 0;
  (*v)["solver.solve_s"] =
      TimeReplay("solver", "RidgeSolver::Solve(LSQR)", 1, [&] {
        const srda::RidgeSolution solution =
            solver.Solve(responses, 1.0, solve_options);
        for (const auto& rhs : solution.lsqr) {
          batch_iterations = std::max(batch_iterations, rhs.iterations);
        }
      });
  (*v)["linalg.lsqr_iter_ms"] =
      1e3 * (*v)["solver.solve_s"] / std::max(batch_iterations, 1);

  Matrix embedded;
  (*v)["core.transform_s"] =
      TimeReplay("core", "Transform(test split)", 3, [&] {
        embedded = traced.model.embedding.Transform(d.test.features);
      });
  CentroidClassifier classifier;
  classifier.Fit(traced.model.embedding.Transform(x), d.train.labels,
                 d.train.num_classes);
  const int rows = std::min(sizes.block_rows, embedded.rows());
  const Matrix block = embedded.Block(0, 0, rows, embedded.cols());
  (*v)["classify.score_us_per_row"] =
      TimeReplay("classify", "ScoreBatch(block)", 51,
                 [&] { classifier.ScoreBatch(block); }) *
      1e6 / rows;
}

RunOutput RunText(const RunConfig& config, Values* v) {
  RunOutput out;
  const Sizes& sizes = config.sizes;
  std::vector<double> setup_s;
  TextData data;
  const int repeats = config.trace ? 1 : sizes.setup_repeats;
  for (int r = 0; r < repeats; ++r) {
    data = TextData{};
    const double start = Now();
    data = SetupText(sizes, config.seed, config.work_dir);
    setup_s.push_back(Now() - start);
    FlushToDisk(data.path);
  }
  out.input_digest = data.digest;
  const srda::SrdaOptions options = LsqrOptions(sizes);
  const auto fit = [&] {
    return srda::FitSrda(data.train.features, data.train.labels,
                         data.train.num_classes, options)
        .embedding;
  };

  if (!config.trace) {
    TextRound first;
    std::vector<double> fits, streams, predict_rates;
    const RoundWalls walls = RunWindow(config.seconds, [&](bool heavy) {
      const bool is_first = fits.empty();
      TextRound r = RunTextRound(data, sizes, heavy,
                                 is_first ? nullptr : &first, &out.ops);
      fits.push_back(r.fit_s);
      predict_rates.push_back(r.predict_per_s);
      if (heavy) streams.push_back(r.stream_s);
      if (is_first) first = std::move(r);
    });
    CheckThreadDeterminism(fit, first.model.embedding, &out.ops);
    (*v)["setup_s"] = Median(setup_s);
    ReportRounds(walls, v);
    (*v)["bulk_predict_per_s"] = Median(predict_rates);
    Info("train_s", Median(fits), "s");
    Info("stream_train_s", Median(streams), "s");
    Info("test_error_pct", 100.0 * first.error, "%");
    std::cout << "streamed fit: " << first.bytes_streamed << " bytes\n";
    std::filesystem::remove(data.path);
    return out;
  }

  g_tracer.SetEnabled(false);
  double start = Now();
  const TextRound untraced = RunTextRound(data, sizes, true, nullptr, &out.ops);
  const double untraced_s = Now() - start;
  g_tracer.SetEnabled(true);
  start = Now();
  const TextRound traced = RunTextRound(data, sizes, true, &untraced, &out.ops);
  AddTraceOverhead(untraced_s, Now() - start, v);
  (*v)["classify.test_error_pct"] = 100.0 * traced.error;

  const std::vector<Span> spans = g_tracer.spans();
  const std::vector<double> self = SelfTimes(spans);
  (*v)["dataset.generate_s"] =
      LayerSelfSeconds(spans, self,"dataset", "GenerateTextDataset");
  (*v)["io.write_libsvm_s"] = LayerSelfSeconds(spans, self,"io", "WriteLibSvmFile");
  (*v)["core.fit_s"] = LayerSelfSeconds(spans, self,"core", "FitSrda(sparse, LSQR)");
  (*v)["core.stream_train_s"] =
      LayerSelfSeconds(spans, self,"core", "FitSrda(RowShardReader)");

  const Ceilings ceilings = TraceCeilings(sizes, v);
  TraceTextLayers(data, traced, sizes, ceilings.triad_gbps, v);
  (*v)["common.parallel_eff"] =
      CheckThreadDeterminism(fit, traced.model.embedding, &out.ops);
  std::filesystem::remove(data.path);
  return out;
}

// ---------------------------------------------------------------------------
// serve_faces

struct ServeData {
  DenseDataset train, test;
  std::string binary_path, text_path;
  std::vector<Matrix> blocks;  // the test split in fixed-size row blocks
  std::vector<int> block_begin;
  uint64_t digest = 0;
};

ServeData SetupServe(const Sizes& sizes, uint64_t seed,
                     const std::string& dir) {
  srda::FaceGeneratorOptions options = sizes.faces;
  options.seed = seed;
  DenseDataset all;
  {
    ScopedSpan span(&g_tracer, "dataset", "GenerateFaceDataset");
    all = srda::GenerateFaceDataset(options);
  }
  ServeData data;
  {
    ScopedSpan span(&g_tracer, "dataset", "StratifiedSplitByCount+Subset");
    srda::Rng rng(SplitSeed(seed, 3));
    const srda::TrainTestSplit split = srda::StratifiedSplitByCount(
        all.labels, all.num_classes, sizes.primal_per_class, &rng);
    data.train = srda::Subset(all, split.train);
    data.test = srda::Subset(all, split.test);
    data.digest = DigestDense(all, 0);
    data.digest = Fnv1a(split.train.data(), sizeof(int) * split.train.size(),
                        data.digest);
  }
  const Matrix& test = data.test.features;
  for (int begin = 0; begin < test.rows(); begin += sizes.block_rows) {
    const int rows = std::min(sizes.block_rows, test.rows() - begin);
    data.blocks.push_back(test.Block(begin, 0, rows, test.cols()));
    data.block_begin.push_back(begin);
  }
  LinearEmbedding embedding = FitFaces(data.train, "FitSrda(primal)");
  srda::model::SrdaModel model;
  {
    ScopedSpan span(&g_tracer, "model", "BuildModel");
    std::vector<int> raw_labels(static_cast<size_t>(data.train.num_classes));
    for (size_t c = 0; c < raw_labels.size(); ++c) {
      raw_labels[c] = static_cast<int>(c);
    }
    srda::model::Provenance provenance;
    provenance.trainer = "srda";
    provenance.alpha = srda::SrdaOptions{}.alpha;
    model = srda::model::BuildModel(
        embedding, embedding.Transform(data.train.features), data.train.labels,
        data.train.num_classes, std::move(raw_labels), provenance);
  }
  const std::string stem = dir + "/serve_" + std::to_string(seed);
  data.binary_path = stem + ".srdm";
  data.text_path = stem + ".model";
  ScopedSpan span(&g_tracer, "model", "Save");
  srda::model::Save(model, data.binary_path, srda::model::Codec::kBinary);
  srda::model::Save(model, data.text_path, srda::model::Codec::kText);
  return data;
}

struct ServePhase {
  std::vector<double> latencies_s;  // single-row requests
  double rows_per_s = 0.0;
  double mean_batch = 0.0;
  int64_t checked = 0;
  int64_t mismatched = 0;
};

constexpr int kClients = 2;

// Closed loop: each client sends its next request when the previous one
// returns. Single-row clients split the test rows between them; block
// clients split the fixed-size blocks.
ServePhase RunServePhase(srda::serve::PredictionService* service,
                         const Matrix& test, const std::vector<Matrix>& blocks,
                         const std::vector<int>& block_begin,
                         const std::vector<int>& expected, int repeats,
                         bool single_rows) {
  const srda::serve::ServeStats before = service->Stats();
  ScopedSpan phase(&g_tracer, "serve",
                   single_rows ? "single-row phase" : "block phase");
  std::vector<ServePhase> per_client(kClients);
  const double start = Now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServePhase& mine = per_client[static_cast<size_t>(c)];
      for (int rep = 0; rep < repeats; ++rep) {
        if (single_rows) {
          for (int i = c; i < test.rows(); i += kClients) {
            const double t0 = Now();
            int label = -1;
            {
              ScopedSpan span(&g_tracer, "serve", "Predict(1 row)", false,
                              phase.index());
              label = service->Predict(test.RowPtr(i));
            }
            mine.latencies_s.push_back(Now() - t0);
            ++mine.checked;
            mine.mismatched += label != expected[static_cast<size_t>(i)];
          }
          continue;
        }
        for (size_t b = static_cast<size_t>(c); b < blocks.size();
             b += kClients) {
          std::vector<int> labels;
          {
            ScopedSpan span(&g_tracer, "serve", "Predict(block)", false,
                            phase.index());
            labels = service->Predict(blocks[b]);
          }
          bool same = true;
          for (size_t r = 0; r < labels.size(); ++r) {
            same = same && labels[r] == expected[static_cast<size_t>(
                                            block_begin[b]) + r];
          }
          ++mine.checked;
          mine.mismatched += !same;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall = Now() - start;
  ServePhase total;
  int64_t rows = 0;
  for (const ServePhase& p : per_client) {
    total.latencies_s.insert(total.latencies_s.end(), p.latencies_s.begin(),
                             p.latencies_s.end());
    total.checked += p.checked;
    total.mismatched += p.mismatched;
  }
  rows = single_rows ? static_cast<int64_t>(total.latencies_s.size())
                     : static_cast<int64_t>(test.rows()) * repeats;
  total.rows_per_s = static_cast<double>(rows) / wall;
  const srda::serve::ServeStats after = service->Stats();
  total.mean_batch = static_cast<double>(after.requests - before.requests) /
                     static_cast<double>(after.batches - before.batches);
  return total;
}

struct ServeRound {
  ServePhase single, bulk;
  double error = 0.0;
};

ServeRound RunServeRound(const ServeData& d, const std::vector<int>& expected,
                         const Sizes& sizes,
                         const srda::serve::ServeOptions& serve_options,
                         OpLedger* ops) {
  ServeRound r;
  NextOperation();
  srda::model::SrdaModel model;
  {
    ScopedSpan span(&g_tracer, "model", "Load(SRDM)");
    model = srda::model::Load(d.binary_path);
  }
  ops->Check(model.input_dim() == d.test.features.cols() &&
                 model.num_classes() == d.train.num_classes,
             "loaded model shape");
  srda::serve::PredictionService service(&model, serve_options);
  NextOperation();
  r.single = RunServePhase(&service, d.test.features, d.blocks,
                           d.block_begin, expected, 1, true);
  NextOperation();
  r.bulk = RunServePhase(&service, d.test.features, d.blocks, d.block_begin,
                         expected, sizes.bulk_repeats, false);
  for (const ServePhase* p : {&r.single, &r.bulk}) {
    ops->CheckMany(p->checked, p->mismatched,
                   "served labels equal direct CentroidClassifier labels");
  }
  r.error = srda::ErrorRate(expected, d.test.labels);
  return r;
}

// p99 of one round's single-row latencies in microseconds. It needs ten
// samples beyond it; with fewer, the highest percentile that has ten is
// used instead.
double TailUs(const std::vector<double>& latencies_s) {
  double q = 0.99;
  const size_t n = latencies_s.size();
  if (!PercentileReportable(n, q)) {
    q = n > 10 ? 1.0 - 10.0 / static_cast<double>(n) : 1.0;
    std::cout << "note: " << n << " single-row samples in a round; p99 "
              << "not reportable, using p" << 100.0 * q << "\n";
  }
  return 1e6 * NearestRank(latencies_s, q);
}

// Labels the direct library path gives for the test split: the loaded
// model's embedding and centroids through CentroidClassifier.
std::vector<int> DirectLabels(const ServeData& d) {
  const srda::model::SrdaModel model = srda::model::Load(d.binary_path);
  CentroidClassifier classifier;
  classifier.SetCentroids(model.centroids);
  return model.ToRawLabels(
      classifier.Predict(model.embedding.Transform(d.test.features)));
}

RunOutput RunServe(const RunConfig& config, Values* v) {
  RunOutput out;
  const Sizes& sizes = config.sizes;
  std::vector<double> setup_s;
  ServeData data;
  const int repeats = config.trace ? 1 : sizes.setup_repeats;
  for (int r = 0; r < repeats; ++r) {
    data = ServeData{};
    const double start = Now();
    data = SetupServe(sizes, config.seed, config.work_dir);
    setup_s.push_back(Now() - start);
  }
  out.input_digest = data.digest;
  const std::vector<int> expected = DirectLabels(data);
  const srda::serve::ServeOptions serve_options;
  const bool bands = sizes.check_error_bands;
  const auto cleanup = [&] {
    std::filesystem::remove(data.binary_path);
    std::filesystem::remove(data.text_path);
  };

  if (!config.trace) {
    // Latency samples pool every request of the run; throughputs and the
    // tail are taken per round and reported as the median round.
    std::vector<double> latencies_s, single_rates, bulk_rates, round_p99_us;
    double error = 0.0;
    const RoundWalls walls = RunWindow(config.seconds, [&](bool) {
      const ServeRound r =
          RunServeRound(data, expected, sizes, serve_options, &out.ops);
      latencies_s.insert(latencies_s.end(), r.single.latencies_s.begin(),
                         r.single.latencies_s.end());
      single_rates.push_back(r.single.rows_per_s);
      bulk_rates.push_back(r.bulk.rows_per_s);
      round_p99_us.push_back(TailUs(r.single.latencies_s));
      error = r.error;
    });
    out.ops.Check(InBand(error, 0.0, kPrimalBand, bands),
                  WithError("served labels", error));
    (*v)["setup_s"] = Median(setup_s);
    ReportRounds(walls, v);
    // Every serving round runs every operation, so round_s takes the median
    // of all rounds, not of the first kHeavyRounds alone: a short stall of
    // the host then moves it no more than it moves repeat_s.
    std::vector<double> all_rounds = walls.heavy;
    all_rounds.insert(all_rounds.end(), walls.repeat.begin(),
                      walls.repeat.end());
    (*v)["round_s"] = Median(all_rounds);
    Info("predict_per_s", Median(single_rates), "rows/s");
    Info("predict_p50_us", 1e6 * NearestRank(latencies_s, 0.5), "us");
    Info("predict_p99_us", Median(round_p99_us), "us");
    (*v)["bulk_predict_per_s"] = Median(bulk_rates);
    Info("test_error_pct", 100.0 * error, "%");
    std::cout << "each round: " << data.test.features.rows()
              << " single-row requests and "
              << sizes.bulk_repeats << " block passes, " << kClients
              << " closed-loop clients\n";
    cleanup();
    return out;
  }

  g_tracer.SetEnabled(false);
  double start = Now();
  RunServeRound(data, expected, sizes, serve_options, &out.ops);
  const double untraced_s = Now() - start;
  g_tracer.SetEnabled(true);
  start = Now();
  const ServeRound traced =
      RunServeRound(data, expected, sizes, serve_options, &out.ops);
  AddTraceOverhead(untraced_s, Now() - start, v);
  (*v)["classify.test_error_pct"] = 100.0 * traced.error;

  const std::vector<Span> spans = g_tracer.spans();
  const std::vector<double> self = SelfTimes(spans);
  (*v)["dataset.generate_s"] =
      LayerSelfSeconds(spans, self,"dataset", "GenerateFaceDataset");
  (*v)["core.fit_s"] = LayerSelfSeconds(spans, self,"core", "FitSrda(primal)");
  (*v)["serve.mean_batch"] = traced.single.mean_batch;
  (*v)["serve.batch_fill"] = traced.single.mean_batch / serve_options.max_batch;
  (*v)["serve.bulk_mean_batch"] = traced.bulk.mean_batch;
  (*v)["serve.bulk_batch_fill"] =
      traced.bulk.mean_batch / serve_options.max_batch;

  (*v)["model.load_binary_us"] =
      1e6 * TimeReplay("model", "LoadBinary", 21, [&] {
        srda::model::LoadBinary(data.binary_path);
      });
  (*v)["model.load_text_us"] = 1e6 * TimeReplay("model", "LoadText", 21, [&] {
    srda::model::LoadText(data.text_path);
  });

  // The work one single-row batch does: transform and score at the
  // observed mean batch. What the median request spends beyond that is
  // time waiting for its batch to close.
  const srda::model::SrdaModel model = srda::model::Load(data.binary_path);
  CentroidClassifier classifier;
  classifier.SetCentroids(model.centroids);
  const int batch_rows = std::max(
      1, static_cast<int>(std::lround(traced.single.mean_batch)));
  const Matrix batch = data.test.features.Block(0, 0, batch_rows,
                                                data.test.features.cols());
  Matrix embedded;
  (*v)["core.transform_s"] = TimeReplay("core", "Transform(serving batch)", 51,
                                        [&] {
                                          embedded =
                                              model.embedding.Transform(batch);
                                        });
  const double score_s = TimeReplay("classify", "ScoreBatch(serving batch)",
                                    51, [&] { classifier.ScoreBatch(embedded); });
  (*v)["classify.score_us_per_row"] = 1e6 * score_s / batch_rows;
  std::vector<double> latencies_us;
  for (const double s : traced.single.latencies_s) latencies_us.push_back(1e6 * s);
  (*v)["serve.queue_wait_us"] =
      NearestRank(latencies_us, 0.5) -
      1e6 * ((*v)["core.transform_s"] + score_s);

  TraceCeilings(sizes, v);
  const auto fit = [&] {
    return srda::FitSrda(data.train.features, data.train.labels,
                         data.train.num_classes)
        .embedding;
  };
  const LinearEmbedding reference = fit();
  (*v)["common.parallel_eff"] = CheckThreadDeterminism(fit, reference, &out.ops);
  cleanup();
  return out;
}

}  // namespace

Sizes FullSizes() { return Sizes{}; }

Sizes SmokeSizes() {
  Sizes s;
  s.faces.num_subjects = 8;
  s.faces.images_per_subject = 40;
  s.faces.image_size = 12;
  s.primal_per_class = 20;  // m = 160 > n = 144
  s.dual_per_class = 5;     // m = 40 < n
  s.cv_folds = 3;
  s.cv_alphas = 3;
  s.text.num_topics = 4;
  s.text.docs_per_topic = 60;
  s.text.vocabulary_size = 800;
  s.text.topic_vocabulary_size = 100;
  s.shard_rows = 32;
  s.bulk_repeats = 2;
  s.setup_repeats = 2;
  s.gemm_n = 128;
  s.triad_array_bytes = 4 << 20;
  s.check_error_bands = false;
  return s;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"faces_dense", "text_sparse",
                                                 "serve_faces"};
  return names;
}

RunOutput RunWorkload(const RunConfig& config) {
  g_tracer.Clear();
  g_tracer.SetEnabled(config.trace);
  Values values;
  RunOutput out;
  if (config.workload == "faces_dense") {
    out = RunFaces(config, &values);
  } else if (config.workload == "text_sparse") {
    out = RunText(config, &values);
  } else if (config.workload == "serve_faces") {
    out = RunServe(config, &values);
  } else {
    std::cerr << "perfbench: unknown workload " << config.workload << "\n";
    std::abort();
  }
  g_tracer.SetEnabled(false);
  if (!config.trace) values["peak_rss_mb"] = PeakRssMib();

  const auto& table = config.trace ? PerLayerTable() : EndToEndTable();
  for (const auto& [name, unit] : table) {
    const auto it = values.find(name);
    if (it == values.end() && !config.trace) {
      std::cerr << "perfbench: end-to-end metric " << name << " not measured\n";
      std::abort();
    }
    const double value = it == values.end() ? 0.0 : it->second;
    out.ops.Check(std::isfinite(value),
                  std::string("metric ") + name + " is finite");
    out.report.Add(name, value, unit);
    if (it != values.end()) values.erase(it);
  }
  // Figures measured on the way that this kind of run does not report.
  for (const auto& [name, value] : values) {
    std::cout << "info " << name << " = " << value << "\n";
  }
  if (config.trace) {
    const std::string path = config.work_dir + "/spans_" + config.workload +
                             "_" + std::to_string(config.seed) + ".jsonl";
    if (g_tracer.WriteJsonLines(path)) {
      std::cout << "spans: " << g_tracer.spans().size() << " written to "
                << path << "\n";
    }
  }
  return out;
}

uint64_t InputDigest(const std::string& workload, uint64_t seed,
                     const Sizes& sizes) {
  g_tracer.SetEnabled(false);
  if (workload == "faces_dense") return SetupFaces(sizes, seed).digest;
  if (workload == "serve_faces") {
    srda::FaceGeneratorOptions options = sizes.faces;
    options.seed = seed;
    return DigestDense(srda::GenerateFaceDataset(options), 0);
  }
  srda::TextGeneratorOptions options = sizes.text;
  options.seed = seed;
  return DigestSparse(srda::GenerateTextDataset(options), 0);
}

}  // namespace perfbench
