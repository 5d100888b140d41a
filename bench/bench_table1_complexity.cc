// Reproduces Table I: the asymptotic cost comparison between LDA and SRDA.
//
// Two empirical verifications:
//  1. Square dense problems (m == n, where the paper predicts the maximum
//     normal-equations speedup of 9x): measure LDA vs SRDA wall time over a
//     grid of sizes, fit the growth exponent, and check LDA grows ~cubically
//     in min(m, n) while SRDA grows more slowly with a large constant
//     advantage.
//  2. Sparse LSQR scaling: training time must grow ~linearly in the number
//     of samples m at fixed density (the "linear time" of the title).
//
// The analytic flam model (common/flops.h) is printed next to the measured
// times so the predicted 9x ratio can be compared with the observed one.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "classify/classifiers.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/lda.h"
#include "core/srda.h"
#include "dataset/dataset.h"
#include "linalg/cholesky.h"
#include "linalg/cholesky_update.h"
#include "matrix/blas.h"
#include "matrix/blocking.h"
#include "matrix/simd/simd.h"
#include "select/model_selection.h"
#include "sparse/sparse_matrix.h"
#include "tests/column_striped_solve.h"
#include "tests/naive_kernels.h"

namespace srda {
namespace bench {
namespace {

constexpr int kNumClasses = 10;
// Right-hand sides of the solve benchmarks: the c - 1 = 67 responses of
// the 68-class faces data.
constexpr int kSolveResponses = 67;

DenseDataset RandomDense(int m, int n, Rng* rng) {
  DenseDataset dataset;
  dataset.num_classes = kNumClasses;
  dataset.features = Matrix(m, n);
  for (int i = 0; i < m; ++i) {
    const int label = i % kNumClasses;
    dataset.labels.push_back(label);
    for (int j = 0; j < n; ++j) {
      dataset.features(i, j) =
          (j % kNumClasses == label ? 1.0 : 0.0) + rng->NextGaussian();
    }
  }
  return dataset;
}

SparseDataset RandomSparse(int m, int n, int nnz_per_row, Rng* rng) {
  SparseDataset dataset;
  dataset.num_classes = kNumClasses;
  SparseMatrixBuilder builder(m, n);
  for (int i = 0; i < m; ++i) {
    const int label = i % kNumClasses;
    dataset.labels.push_back(label);
    for (int k = 0; k < nnz_per_row; ++k) {
      const int col = static_cast<int>(rng->NextUint64Bounded(n));
      builder.Add(i, col, rng->NextGaussian() + (col % kNumClasses == label));
    }
  }
  dataset.features = std::move(builder).Build();
  return dataset;
}

double MedianOfThree(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

template <typename Fn>
double TimeMedian(Fn&& fn) {
  double samples[3];
  for (double& sample : samples) {
    Stopwatch watch;
    fn();
    sample = watch.ElapsedSeconds();
  }
  return MedianOfThree(samples[0], samples[1], samples[2]);
}

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

// Best-of-reps timing with achieved GFLOP/s from the runtime flop counter.
struct KernelTiming {
  double seconds = 0.0;
  double gflops = 0.0;
};

template <typename Fn>
KernelTiming TimeKernel(Fn&& fn, int reps) {
  KernelTiming best;
  best.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const double flops_before = FlopCount();
    Stopwatch watch;
    fn();
    const double seconds = watch.ElapsedSeconds();
    const double flops = FlopCount() - flops_before;
    if (seconds < best.seconds) {
      best.seconds = seconds;
      best.gflops = seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
    }
  }
  return best;
}

// One comparison point of the kernel-blocking experiment: the reference
// loops (`naive`), the blocked kernel on the scalar/autovec table
// (`autovec`), and the blocked kernel on the best dispatch level
// (`blocked`). naive/blocked isolates blocking + SIMD together;
// autovec/blocked isolates the explicit vector kernels alone.
struct KernelRow {
  const char* kernel;
  int n;
  KernelTiming naive;
  KernelTiming autovec;
  KernelTiming blocked;
};

// Times `fn` under a forced dispatch level, restoring the previous level.
template <typename Fn>
KernelTiming TimeKernelAtLevel(simd::CpuLevel level, Fn&& fn, int reps) {
  const simd::CpuLevel previous = simd::ActiveLevel();
  simd::SetDispatchLevel(level);
  const KernelTiming timing = TimeKernel(fn, reps);
  simd::SetDispatchLevel(previous);
  return timing;
}

// Measures the blocked kernels (Gram, gemm, Cholesky, rank-8 downdate, and
// the solve of kSolveResponses right-hand sides) against their unblocked
// counterparts at one size, under whatever BlockConfig is active, at both
// the scalar and the best dispatch level.
std::vector<KernelRow> MeasureKernelRows(int n, int reps, Rng* rng) {
  const simd::CpuLevel best = simd::ActiveLevel();
  const Matrix a = RandomMatrix(n, n, rng);
  const Matrix b = RandomMatrix(n, n, rng);
  Matrix spd = naive::Gram(a);
  for (int i = 0; i < n; ++i) spd(i, i) += n;

  const auto measure = [&](const char* name, auto&& reference,
                           auto&& blocked_fn) {
    return KernelRow{name, n, TimeKernel(reference, reps),
                     TimeKernelAtLevel(simd::CpuLevel::kScalar, blocked_fn,
                                       reps),
                     TimeKernelAtLevel(best, blocked_fn, reps)};
  };

  KernelRow gram_row = measure(
      "gram", [&] { naive::Gram(a); }, [&] { Gram(a); });
  KernelRow gemm_row = measure(
      "gemm", [&] { naive::Multiply(a, b); }, [&] { Multiply(a, b); });
  KernelRow chol_row = measure(
      "cholesky",
      [&] {
        Matrix l;
        naive::CholeskyFactor(spd, &l);
      },
      [&] {
        Cholesky chol;
        chol.Factor(spd);
      });

  // Downdate sweep: rank-8 removed in one lane-interleaved pass (blocked)
  // vs one rank at a time (the unblocked per-rank sweep). Both sides pay
  // the same factor copy; the small v keeps every downdate well-posed.
  Cholesky chol;
  chol.Factor(spd);
  const Matrix l0 = chol.factor();
  Matrix v = RandomMatrix(8, n, rng);
  for (int i = 0; i < v.rows(); ++i) {
    for (int j = 0; j < v.cols(); ++j) v(i, j) *= 0.01;
  }
  KernelRow downdate_row = measure(
      "downdate",
      [&] {
        Matrix l = l0;
        for (int r = 0; r < v.rows(); ++r) {
          CholeskyRankKDowndate(&l, v.Block(r, 0, 1, n));
        }
      },
      [&] {
        Matrix l = l0;
        CholeskyRankKDowndate(&l, v);
      });

  // Both solve sides read the same factor; the reference is the
  // column-striped loop the blocked sweep replaced.
  const Matrix rhs = RandomMatrix(n, kSolveResponses, rng);
  KernelRow solve_row = measure(
      "solve",
      [&] {
        AddFlops(2.0 * n * n * kSolveResponses);
        ColumnStripedSolveMatrix(chol.factor(), rhs);
      },
      [&] { chol.SolveMatrix(rhs); });

  return {gram_row, gemm_row, chol_row, downdate_row, solve_row};
}

void AppendKernelRow(const KernelRow& row, TablePrinter* table) {
  table->AddRow({row.kernel, std::to_string(row.n),
                 FormatDouble(row.naive.seconds, 4),
                 FormatDouble(row.autovec.seconds, 4),
                 FormatDouble(row.blocked.seconds, 4),
                 FormatRatio(row.naive.seconds, row.blocked.seconds, 2),
                 FormatRatio(row.autovec.seconds, row.blocked.seconds, 2),
                 FormatGflops(row.blocked.gflops, 2)});
}

const std::vector<std::string>& KernelTableHeader() {
  static const std::vector<std::string> header{
      "kernel", "n",       "naive s",      "autovec s",
      "simd s", "speedup", "simd speedup", "simd GFLOP/s"};
  return header;
}

void WriteKernelBlockingJson(const BlockConfig& blk,
                             const std::vector<KernelRow>& kernel_rows) {
  std::ofstream json("BENCH_kernel_blocking.json");
  json << "{\n  \"experiment\": \"kernel_blocking\",\n"
       << "  \"block_config\": {\"kc\": " << blk.kc << ", \"mc\": " << blk.mc
       << ", \"nc\": " << blk.nc << ", \"nb\": " << blk.nb << "},\n"
       << "  \"simd_level\": \"" << simd::CpuLevelName(simd::ActiveLevel())
       << "\",\n"
       << "  \"num_threads\": 1,\n  \"rows\": [\n";
  for (size_t i = 0; i < kernel_rows.size(); ++i) {
    const KernelRow& row = kernel_rows[i];
    // 0 stands for "unmeasurable" so sub-resolution timings never leak
    // inf/nan into the JSON.
    const double speedup = row.blocked.seconds > 0.0
                               ? row.naive.seconds / row.blocked.seconds
                               : 0.0;
    const double simd_speedup = row.blocked.seconds > 0.0
                                    ? row.autovec.seconds / row.blocked.seconds
                                    : 0.0;
    json << "    {\"kernel\": \"" << row.kernel << "\", \"n\": " << row.n
         << ", \"naive_seconds\": " << row.naive.seconds
         << ", \"autovec_seconds\": " << row.autovec.seconds
         << ", \"blocked_seconds\": " << row.blocked.seconds
         << ", \"speedup\": " << speedup
         << ", \"simd_speedup\": " << simd_speedup
         << ", \"naive_gflops\": " << row.naive.gflops
         << ", \"blocked_gflops\": " << row.blocked.gflops << "}"
         << (i + 1 < kernel_rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_kernel_blocking.json\n";
}

// --sweep-blocks: autotunes the cache-blocking knobs on this machine.
//
// Coordinate descent over the four BlockConfig knobs: each is swept over
// a candidate ladder while the other three hold their current best values.
// The level-3 knobs (kc, mc, nc) minimise combined Gram + gemm time; nb
// only shapes the factorization panels, so it minimises blocked Cholesky
// time. One pass is enough in practice — kc/nc size the streaming panels,
// mc the output tile, and nb is independent of all three — and keeps the
// sweep to a couple of minutes at n = 1024. The winning configuration is
// printed as BlockConfig defaults to paste into matrix/blocking.h, with the
// blocked-vs-naive table re-measured under it. The sweep writes no file:
// BENCH_kernel_blocking.json has one writer, Part 4 of the complexity run
// at the default BlockConfig.
int SweepBlocks(bool smoke, bool full, Rng* rng) {
  SetGlobalThreadCount(1);
  const int n = smoke ? 64 : (full ? 1024 : 512);
  const int reps = smoke ? 1 : 2;
  std::cout << "\n== Block-size sweep (single thread, n=" << n << ") ==\n";
  const Matrix a = RandomMatrix(n, n, rng);
  const Matrix b = RandomMatrix(n, n, rng);
  Matrix spd = Gram(a);
  for (int i = 0; i < n; ++i) spd(i, i) += n;

  const auto level3_seconds = [&] {
    return TimeKernel([&] { Gram(a); }, reps).seconds +
           TimeKernel([&] { Multiply(a, b); }, reps).seconds;
  };
  const auto cholesky_seconds = [&] {
    return TimeKernel(
               [&] {
                 Cholesky chol;
                 chol.Factor(spd);
               },
               reps)
        .seconds;
  };

  struct Knob {
    const char* name;
    int BlockConfig::*field;
    bool level3;  // true: Gram+gemm objective; false: Cholesky objective.
    std::vector<int> candidates;
  };
  const std::vector<Knob> knobs = {
      {"kc", &BlockConfig::kc, true, {64, 96, 128, 192, 256}},
      {"mc", &BlockConfig::mc, true, {16, 32, 48, 64}},
      {"nc", &BlockConfig::nc, true, {128, 256, 384, 512}},
      {"nb", &BlockConfig::nb, false, {32, 48, 64, 96, 128}},
  };

  const BlockConfig initial = GetBlockConfig();
  BlockConfig best = initial;
  TablePrinter sweep_table({"knob", "objective", "value", "seconds", ""});
  for (const Knob& knob : knobs) {
    double best_seconds = std::numeric_limits<double>::infinity();
    int best_value = best.*knob.field;
    std::vector<std::pair<int, double>> measured;
    for (int candidate : knob.candidates) {
      BlockConfig trial = best;
      trial.*knob.field = candidate;
      SetBlockConfig(trial);
      const double seconds =
          knob.level3 ? level3_seconds() : cholesky_seconds();
      measured.emplace_back(candidate, seconds);
      if (seconds < best_seconds) {
        best_seconds = seconds;
        best_value = candidate;
      }
    }
    best.*knob.field = best_value;
    for (const auto& [candidate, seconds] : measured) {
      sweep_table.AddRow({knob.name, knob.level3 ? "gram+gemm" : "cholesky",
                          std::to_string(candidate),
                          FormatDouble(seconds, 4),
                          candidate == best_value ? "<- best" : ""});
    }
  }
  SetBlockConfig(best);
  sweep_table.Print(std::cout);

  std::cout << "\ninitial config: kc=" << initial.kc << " mc=" << initial.mc
            << " nc=" << initial.nc << " nb=" << initial.nb << "\n"
            << "tuned config:   kc=" << best.kc << " mc=" << best.mc
            << " nc=" << best.nc << " nb=" << best.nb << "\n"
            << "to persist, set the BlockConfig defaults in "
               "src/matrix/blocking.h:\n"
            << "  int kc = " << best.kc << ";\n"
            << "  int mc = " << best.mc << ";\n"
            << "  int nc = " << best.nc << ";\n"
            << "  int nb = " << best.nb << ";\n";

  // Re-measure blocked vs naive under the tuned shapes. Printed only:
  // BENCH_kernel_blocking.json records the default BlockConfig (Part 4 of
  // the complexity run), and a tuned nb changes the factor's bits.
  std::cout << "\n== Blocked vs naive kernels (tuned config, 1 thread) ==\n";
  TablePrinter kernel_table(KernelTableHeader());
  for (const KernelRow& row : MeasureKernelRows(n, reps, rng)) {
    AppendKernelRow(row, &kernel_table);
  }
  kernel_table.Print(std::cout);
  SetGlobalThreadCount(0);  // Restore the env/hardware default.
  return 0;
}

// --digest-out: a bitwise fingerprint of the library's deterministic
// outputs, for the ctest gate that runs this binary under
// SRDA_CPU_LEVEL=scalar and under the detected best level and compares the
// two files byte-for-byte. The digest covers a dense normal-equations fit,
// a sparse LSQR fit, a cross-validated alpha search, a rank-k downdated
// factor, a multi-panel SolveMatrix, an LDA fit (its eigen stage runs
// the QL rotation panels), thin serving-shape products (1, 2, 3 and 5
// rows against a 300 x 67 projection: the GEMM tile's leftover rows and
// column tails) and one-row centroid scoring — each at 1 and at 4
// threads — so any dispatch level or thread count changing any output bit
// changes the file.
uint64_t Fnv1a(const double* values, size_t count, uint64_t hash) {
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(values);
  for (size_t i = 0; i < count * sizeof(double); ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t HashMatrix(const Matrix& m, uint64_t hash) {
  return Fnv1a(m.data(),
               static_cast<size_t>(m.rows()) * static_cast<size_t>(m.cols()),
               hash);
}

int WriteDigest(const std::string& path, Rng* rng) {
  uint64_t hash = 1469598103934665603ULL;  // FNV offset basis
  const DenseDataset dense = RandomDense(120, 48, rng);
  const SparseDataset sparse = RandomSparse(240, 500, 20, rng);
  const std::vector<double> alphas = {0.01, 1.0, 100.0};

  Matrix spd = Gram(dense.features);
  AddDiagonal(static_cast<double>(spd.rows()), &spd);
  Matrix v = RandomMatrix(6, spd.cols(), rng);
  for (int i = 0; i < v.rows(); ++i) {
    for (int j = 0; j < v.cols(); ++j) v(i, j) *= 0.01;
  }

  // The dense fit's n = 48 factor fits in one panel; this n = 200 solve
  // with the faces workload's 67 responses runs the blocked sweep's GEMM
  // updates.
  Matrix solve_spd = Gram(RandomMatrix(203, 200, rng));
  AddDiagonal(static_cast<double>(solve_spd.rows()), &solve_spd);
  const Matrix solve_rhs = RandomMatrix(200, kSolveResponses, rng);

  const Matrix thin_b = RandomMatrix(300, kSolveResponses, rng);
  std::vector<Matrix> thin_a;
  for (int m : {1, 2, 3, 5}) thin_a.push_back(RandomMatrix(m, 300, rng));

  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    const SrdaModel dense_model =
        FitSrda(dense.features, dense.labels, kNumClasses);
    SrdaOptions lsqr_options;
    lsqr_options.solver = SrdaSolver::kLsqr;
    lsqr_options.lsqr_iterations = 10;
    const SrdaModel sparse_model = FitSrda(sparse.features, sparse.labels,
                                           kNumClasses, lsqr_options);
    const AlphaSearchResult search =
        SelectSrdaAlpha(dense, alphas, /*num_folds=*/3, /*seed=*/17);
    Cholesky chol;
    chol.Factor(spd);
    Matrix l = chol.factor();
    CholeskyRankKDowndate(&l, v);
    Cholesky solve_chol;
    solve_chol.Factor(solve_spd);
    const LdaModel lda = FitLda(dense.features, dense.labels, kNumClasses);

    hash = HashMatrix(dense_model.embedding.projection(), hash);
    hash = HashMatrix(sparse_model.embedding.projection(), hash);
    hash = Fnv1a(search.errors.data(), search.errors.size(), hash);
    hash = HashMatrix(l, hash);
    hash = HashMatrix(solve_chol.SolveMatrix(solve_rhs), hash);
    hash = HashMatrix(lda.embedding.projection(), hash);
    for (const Matrix& a : thin_a) {
      hash = HashMatrix(Multiply(a, thin_b), hash);
    }

    // One-row batches, as a serving client sends them: each row's
    // embedding and its label from the dense fit's centroid head.
    CentroidClassifier head;
    head.Fit(dense_model.embedding.Transform(dense.features), dense.labels,
             kNumClasses);
    for (int i = 0; i < 8; ++i) {
      const Matrix row = dense_model.embedding.Transform(
          dense.features.Block(i, 0, 1, dense.features.cols()));
      const double label = head.ScoreBatch(row)[0];
      hash = HashMatrix(row, hash);
      hash = Fnv1a(&label, 1, hash);
    }
  }
  SetGlobalThreadCount(0);

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << std::hex << hash << "\n";
  std::cout << "digest " << std::hex << hash << std::dec << " -> " << path
            << " (simd_level=" << simd::CpuLevelName(simd::ActiveLevel())
            << ")\n";
  return out ? 0 : 1;
}

// Least-squares slope of log(time) vs log(size).
double FitExponent(const std::vector<double>& sizes,
                   const std::vector<double>& times) {
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const int count = static_cast<int>(sizes.size());
  for (int i = 0; i < count; ++i) {
    const double x = std::log(sizes[static_cast<size_t>(i)]);
    const double y = std::log(times[static_cast<size_t>(i)]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (count * sxy - sx * sy) / (count * sxx - sx * sx);
}

int Main(int argc, char** argv) {
  BenchObservability obs(argc, argv);
  const bool full = HasFlag(argc, argv, "--full");
  const bool smoke = HasFlag(argc, argv, "--smoke");
  Rng rng(606);

  const std::string digest_path = GetFlagValue(argc, argv, "--digest-out");
  if (!digest_path.empty()) {
    // Digest mode: deterministic outputs only, no timing. Honors
    // SRDA_CPU_LEVEL via the normal one-time dispatch.
    return WriteDigest(digest_path, &rng);
  }

  if (HasFlag(argc, argv, "--sweep-blocks")) {
    // Autotune mode (scripts/autotune_blocks.sh): sweep the BlockConfig
    // knobs and print the tuned defaults, skipping the complexity
    // experiments.
    return SweepBlocks(smoke, full, &rng);
  }

  std::cout << "Experiment: Table I (complexity of LDA vs SRDA)\n"
            << "Profile: "
            << (smoke ? "smoke (tiny sizes, no checks)"
                      : (full ? "full" : "small (use --full)"))
            << "\n";

  // Part 1: dense square problems, the maximum-speedup point of Table I.
  const std::vector<int> sizes =
      smoke ? std::vector<int>{48, 64}
            : (full ? std::vector<int>{128, 256, 384, 512, 768}
                    : std::vector<int>{96, 160, 256, 384});
  std::cout << "\n== Dense square problems (m == n) ==\n";
  TablePrinter table({"m = n", "LDA s", "SRDA s", "speedup",
                      "flam-predicted speedup"});
  std::vector<double> lda_times;
  std::vector<double> srda_times;
  std::vector<double> dsizes;
  // Every size of the exponent fit is timed as the minimum of 5 runs. Noise
  // on a shared host (preemption, cache and frequency disturbance) only adds
  // time, so the minimum is the most stable estimate of the intrinsic cost.
  // A median of 3 lets one disturbed run move the few-ms LDA point at the
  // smallest size, which tilts the log-log slope by up to ~0.3.
  constexpr int kFitReps = 5;
  for (int size : sizes) {
    const DenseDataset data = RandomDense(size, size, &rng);
    const double lda_time =
        TimeKernel([&] { FitLda(data.features, data.labels, kNumClasses); },
                   kFitReps)
            .seconds;
    const double srda_time =
        TimeKernel([&] { FitSrda(data.features, data.labels, kNumClasses); },
                   kFitReps)
            .seconds;
    lda_times.push_back(lda_time);
    srda_times.push_back(srda_time);
    dsizes.push_back(size);
    const double predicted =
        LdaCost(size, size, kNumClasses).flam /
        SrdaNormalEquationsCost(size, size, kNumClasses).flam;
    table.AddRow({std::to_string(size), FormatDouble(lda_time, 4),
                  FormatDouble(srda_time, 4),
                  FormatRatio(lda_time, srda_time, 2),
                  FormatDouble(predicted, 2)});
  }
  table.Print(std::cout);

  const double lda_exponent = FitExponent(dsizes, lda_times);
  const double srda_exponent = FitExponent(dsizes, srda_times);
  std::cout << "growth exponents: LDA " << FormatDouble(lda_exponent, 2)
            << ", SRDA " << FormatDouble(srda_exponent, 2) << "\n";

  // Part 2: sparse LSQR, linear in m.
  const int vocab = smoke ? 500 : (full ? 26214 : 8000);
  std::cout << "\n== Sparse SRDA with LSQR (n = " << vocab
            << ", ~60 nnz/doc) ==\n";
  const std::vector<int> doc_counts =
      smoke ? std::vector<int>{100, 200}
            : (full ? std::vector<int>{2000, 4000, 8000, 16000}
                    : std::vector<int>{1000, 2000, 4000, 8000});
  TablePrinter sparse_table({"m", "SRDA-LSQR s", "s per 1k docs"});
  std::vector<double> sparse_sizes;
  std::vector<double> sparse_times;
  SrdaOptions lsqr_options;
  lsqr_options.solver = SrdaSolver::kLsqr;
  lsqr_options.lsqr_iterations = 15;
  for (int docs : doc_counts) {
    const SparseDataset data = RandomSparse(docs, vocab, 60, &rng);
    const double time = TimeMedian([&] {
      FitSrda(data.features, data.labels, kNumClasses, lsqr_options);
    });
    sparse_sizes.push_back(docs);
    sparse_times.push_back(time);
    sparse_table.AddRow({std::to_string(docs), FormatDouble(time, 4),
                         FormatDouble(1000.0 * time / docs, 4)});
  }
  sparse_table.Print(std::cout);
  const double sparse_exponent = FitExponent(sparse_sizes, sparse_times);
  std::cout << "growth exponent in m: " << FormatDouble(sparse_exponent, 2)
            << "\n";

  // Part 3: thread scaling of the parallel execution layer on the two hot
  // kernels (Gram for normal equations, LSQR fit for sparse data). Results
  // are bitwise identical across thread counts, so only the time moves.
  std::cout << "\n== Thread scaling (SRDA_NUM_THREADS sweep) ==\n";
  const unsigned hardware = std::thread::hardware_concurrency();
  std::cout << "hardware_concurrency: " << hardware << "\n";
  const int gram_m = smoke ? 100 : (full ? 2000 : 800);
  const int gram_n = smoke ? 50 : (full ? 800 : 400);
  const DenseDataset gram_data = RandomDense(gram_m, gram_n, &rng);
  const SparseDataset lsqr_data =
      RandomSparse(smoke ? 200 : (full ? 8000 : 2000), vocab, 60, &rng);

  struct ScalingRow {
    int num_threads;
    double gram_seconds;
    double gram_gflops;
    double fit_seconds;
  };
  std::vector<ScalingRow> scaling;
  TablePrinter thread_table({"threads", "Gram s", "sparse LSQR fit s",
                             "Gram speedup", "fit speedup"});
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  for (int threads : thread_counts) {
    SetGlobalThreadCount(threads);
    ScalingRow row;
    row.num_threads = threads;
    // Minimum of kFitReps runs, as in Part 1: one disturbed run of the
    // ~10 ms Gram must not decide the thread-scaling check below.
    row.gram_seconds =
        TimeKernel([&] { Gram(gram_data.features); }, kFitReps).seconds;
    row.gram_gflops =
        row.gram_seconds > 0.0
            ? static_cast<double>(gram_m) * gram_n * (gram_n + 1) /
                  row.gram_seconds / 1e9
            : 0.0;
    row.fit_seconds = TimeKernel(
                          [&] {
                            FitSrda(lsqr_data.features, lsqr_data.labels,
                                    kNumClasses, lsqr_options);
                          },
                          kFitReps)
                          .seconds;
    scaling.push_back(row);
    thread_table.AddRow(
        {std::to_string(threads), FormatDouble(row.gram_seconds, 4),
         FormatDouble(row.fit_seconds, 4),
         FormatRatio(scaling.front().gram_seconds, row.gram_seconds, 2),
         FormatRatio(scaling.front().fit_seconds, row.fit_seconds, 2)});
  }
  SetGlobalThreadCount(0);  // Restore the env/hardware default.
  thread_table.Print(std::cout);

  if (!smoke) {
    std::ofstream json("BENCH_thread_scaling.json");
    json << "{\n  \"experiment\": \"thread_scaling\",\n"
         << "  \"hardware_concurrency\": " << hardware << ",\n"
         << "  \"gram_shape\": [" << gram_m << ", " << gram_n << "],\n"
         << "  \"sparse_fit_docs\": " << lsqr_data.features.rows() << ",\n"
         << "  \"rows\": [\n";
    for (size_t i = 0; i < scaling.size(); ++i) {
      json << "    {\"num_threads\": " << scaling[i].num_threads
           << ", \"gram_seconds\": " << scaling[i].gram_seconds
           << ", \"gram_gflops\": " << scaling[i].gram_gflops
           << ", \"fit_seconds\": " << scaling[i].fit_seconds << "}"
           << (i + 1 < scaling.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "wrote BENCH_thread_scaling.json\n";
  }

  // Part 4: blocked vs naive kernels, single thread, so the reported
  // speedup isolates the cache-blocking layer (tile shapes from
  // matrix/blocking.h) from thread-level parallelism.
  std::cout << "\n== Blocked vs naive kernels (1 thread) ==\n";
  SetGlobalThreadCount(1);
  const BlockConfig& blk = GetBlockConfig();
  std::cout << "block config: kc=" << blk.kc << " mc=" << blk.mc
            << " nc=" << blk.nc << " nb=" << blk.nb << "\n";
  const std::vector<int> kernel_sizes =
      smoke ? std::vector<int>{64}
            : (full ? std::vector<int>{256, 512, 1024, 1536}
                    : std::vector<int>{256, 1024});
  std::vector<KernelRow> kernel_rows;
  TablePrinter kernel_table(KernelTableHeader());
  for (int n : kernel_sizes) {
    const int reps = smoke ? 1 : (n >= 1024 ? 2 : 3);
    for (const KernelRow& row : MeasureKernelRows(n, reps, &rng)) {
      kernel_rows.push_back(row);
      AppendKernelRow(row, &kernel_table);
    }
  }
  kernel_table.Print(std::cout);
  SetGlobalThreadCount(0);  // Restore the env/hardware default.

  if (!smoke) WriteKernelBlockingJson(blk, kernel_rows);

  if (smoke) {
    std::cout << "\n[SMOKE] shape checks skipped\n";
    return 0;
  }

  std::cout << "\n== Shape checks vs the paper ==\n";
  bool ok = true;
  ok &= ShapeCheck(lda_exponent > 2.2,
                   "LDA wall time grows superquadratically in min(m,n) "
                   "(Table I: cubic)");
  ok &= ShapeCheck(srda_exponent < lda_exponent,
                   "SRDA grows more slowly than LDA");
  ok &= ShapeCheck(lda_times.back() / srda_times.back() > 3.0,
                   "SRDA at least 3x faster at the largest square size "
                   "(Table I predicts up to 9x)");
  ok &= ShapeCheck(sparse_exponent < 1.3,
                   "sparse SRDA-LSQR ~linear in m (the paper's title claim)");
  // Thread-scaling checks compare the 1-thread row against the 4-thread
  // row looked up by num_threads (a positional index silently broke — and
  // never fired — whenever the sweep's thread ladder changed).
  const ScalingRow* four_threads = nullptr;
  for (const ScalingRow& row : scaling) {
    if (row.num_threads == 4) four_threads = &row;
  }
  if (hardware >= 4 && four_threads != nullptr) {
    ok &= ShapeCheck(
        scaling.front().gram_seconds / four_threads->gram_seconds > 2.0,
        "Gram speeds up >2x from 1 to 4 threads");
    ok &= ShapeCheck(
        scaling.front().fit_seconds / four_threads->fit_seconds > 1.5,
        "sparse LSQR fit speeds up >1.5x from 1 to 4 threads");
  } else {
    std::cout << "[SKIP] thread-scaling speedup checks (only " << hardware
              << " hardware thread(s) available)\n";
  }
  // Blocking must pay for itself once the working set outgrows cache
  // (n >= 1024); conservative thresholds, the measured margins are larger.
  for (const KernelRow& row : kernel_rows) {
    if (row.n < 1024 || row.n != kernel_sizes.back()) continue;
    const double speedup = row.naive.seconds / row.blocked.seconds;
    ok &= ShapeCheck(speedup > 1.1,
                     std::string("blocked ") + row.kernel + " faster than "
                         "naive at n=" + std::to_string(row.n) +
                         " (single thread)");
  }
  // The explicit vector kernels must beat the autovec table on most of the
  // hot kernels at n=1024 — the one-time dispatch is pointless otherwise.
  if (simd::ActiveLevel() != simd::CpuLevel::kScalar) {
    int fast = 0;
    int measured = 0;
    for (const KernelRow& row : kernel_rows) {
      if (row.n < 1024 || row.n != kernel_sizes.back()) continue;
      ++measured;
      if (row.blocked.seconds > 0.0 &&
          row.autovec.seconds / row.blocked.seconds >= 1.3) {
        ++fast;
      }
    }
    ok &= ShapeCheck(
        measured >= 2 && fast >= 2,
        std::string("simd (") + simd::CpuLevelName(simd::ActiveLevel()) +
            ") >=1.3x over autovec on >=2 kernels at n=" +
            std::to_string(kernel_sizes.back()));
  } else {
    std::cout << "[SKIP] simd speedup check (no vector level available)\n";
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace srda

int main(int argc, char** argv) { return srda::bench::Main(argc, argv); }
