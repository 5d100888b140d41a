// Sketch-preconditioned LSQR vs. plain LSQR on the ill-conditioned sparse
// text workload — the regime "Randomized Iterative Algorithms for Fisher
// Discriminant Analysis" targets: heavy topic overlap and contamination
// drive the term-term Gram's condition number up, so plain LSQR needs many
// iterations to reach a tight tolerance while the sketch-preconditioned
// operator is near an isometry.
//
// Two stages, both against one exact normal-equations reference:
//   plain LSQR     — generous iteration budget, tight tolerances.
//   preconditioned — same budget/tolerances at two sketch sizes (2n and 4n
//                    rows); must converge in >= 2x fewer iterations to the
//                    same solution.
// Plus a 1-vs-4-thread preconditioned pair, compared bitwise.
//
// Pass --smoke for a seconds-long run without shape checks.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "dataset/text_generator.h"
#include "linalg/linear_operator.h"
#include "matrix/blas.h"
#include "solver/ridge_solver.h"

namespace srda {
namespace bench {
namespace {

struct SolveRun {
  std::string label;
  int sketch_rows = 0;  // 0 = plain
  int iterations = 0;
  double seconds = 0.0;
  double max_diff_vs_exact = 0.0;
  bool converged = false;
};

Matrix RandomResponses(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng.NextGaussian();
  }
  return m;
}

SolveRun RunLsqr(const SparseMatrix& features, const Matrix& responses,
                 double alpha, int sketch_rows, const Matrix& exact,
                 const std::string& label) {
  const SparseOperator data(&features);
  RidgeSolver solver(&data);
  if (sketch_rows > 0) {
    SketchConfig config;
    config.mode = SketchMode::kPrecondition;
    config.sketch_rows = sketch_rows;
    solver.SetSketch(config);
  }
  RidgeSolveOptions options;
  options.method = RidgeMethod::kLsqr;
  options.lsqr_iterations = 500;
  options.lsqr_atol = 1e-8;
  options.lsqr_btol = 1e-8;
  Stopwatch watch;
  const RidgeSolution solution = solver.Solve(responses, alpha, options);
  SolveRun run;
  run.seconds = watch.ElapsedSeconds();
  SRDA_CHECK(solution.ok) << label << " solve failed";
  run.label = label;
  run.sketch_rows = sketch_rows;
  run.iterations = solution.total_lsqr_iterations;
  run.max_diff_vs_exact = MaxAbsDiff(solution.coefficients, exact);
  run.converged = true;
  for (const RidgeRhsDiagnostics& diag : solution.lsqr) {
    run.converged = run.converged && diag.converged;
  }
  return run;
}

int Main(int argc, char** argv) {
  BenchObservability obs(argc, argv);
  const bool smoke = HasFlag(argc, argv, "--smoke");

  // Ill-conditioned text corpus: small vocabulary relative to the document
  // count and heavy cross-topic contamination (the generator's default)
  // make the centered term Gram poorly conditioned at small alpha.
  TextGeneratorOptions text;
  text.num_topics = smoke ? 4 : 6;
  text.docs_per_topic = smoke ? 30 : 500;
  text.vocabulary_size = smoke ? 120 : 600;
  text.topic_vocabulary_size = smoke ? 30 : 150;
  text.mean_document_length = smoke ? 50.0 : 120.0;
  text.seed = 17;
  const SparseDataset corpus = GenerateTextDataset(text);
  const int m = corpus.features.rows();
  const int n = corpus.features.cols();
  const double alpha = 1e-3;
  const int num_rhs = smoke ? 2 : 5;
  const Matrix responses = RandomResponses(m, num_rhs, 23);

  std::cout << "Experiment: sketch-preconditioned LSQR vs. plain\n"
            << "Profile: " << (smoke ? "smoke (tiny sizes, no checks)" : "full")
            << "\n"
            << "Dataset: " << m << " docs x " << n << " terms, "
            << corpus.features.NumNonZeros() << " nnz, alpha " << alpha
            << ", " << num_rhs << " right-hand sides\n";

  // Exact reference: densify once and solve the normal equations (n is
  // small by construction; the iterative paths never densify).
  const Matrix dense = corpus.features.ToDense();
  RidgeSolver exact_solver(&dense);
  const RidgeSolution exact = exact_solver.Solve(responses, alpha);
  SRDA_CHECK(exact.ok) << "exact solve failed";

  std::vector<SolveRun> runs;
  runs.push_back(
      RunLsqr(corpus.features, responses, alpha, 0, exact.coefficients,
              "plain"));
  for (int factor : {2, 4}) {
    const int sketch_rows = std::min(m, factor * n);
    runs.push_back(RunLsqr(corpus.features, responses, alpha, sketch_rows,
                           exact.coefficients,
                           "precond s=" + std::to_string(factor) + "n"));
  }

  // Thread determinism: the preconditioned fit is bitwise identical at any
  // thread count (fixed sketch seed).
  const int saved_threads = GlobalThreadCount();
  Matrix per_thread[2];
  for (int pass = 0; pass < 2; ++pass) {
    SetGlobalThreadCount(pass == 0 ? 1 : 4);
    const SparseOperator data(&corpus.features);
    RidgeSolver solver(&data);
    SketchConfig config;
    config.mode = SketchMode::kPrecondition;
    config.sketch_rows = std::min(m, 2 * n);
    solver.SetSketch(config);
    RidgeSolveOptions options;
    options.method = RidgeMethod::kLsqr;
    options.lsqr_iterations = 500;
    options.lsqr_atol = 1e-8;
    options.lsqr_btol = 1e-8;
    const RidgeSolution solution = solver.Solve(responses, alpha, options);
    SRDA_CHECK(solution.ok);
    per_thread[pass] = solution.coefficients;
  }
  SetGlobalThreadCount(saved_threads);
  const bool thread_bitwise = MaxAbsDiff(per_thread[0], per_thread[1]) == 0.0;

  TablePrinter table({"solve", "sketch rows", "iterations", "seconds",
                      "|coeff - exact|", "converged"});
  for (const SolveRun& run : runs) {
    table.AddRow({run.label,
                  run.sketch_rows > 0 ? std::to_string(run.sketch_rows) : "-",
                  std::to_string(run.iterations), FormatDouble(run.seconds, 3),
                  FormatDouble(run.max_diff_vs_exact, 8),
                  run.converged ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "1-vs-4-thread preconditioned fits bitwise identical: "
            << (thread_bitwise ? "yes" : "NO") << "\n";

  if (smoke) {
    std::cout << "\n[SMOKE] shape checks skipped\n";
    return 0;
  }

  std::ofstream json("BENCH_sketch_precond.json");
  json << "{\n  \"experiment\": \"sketch_preconditioned_lsqr\",\n"
       << "  \"documents\": " << m << ",\n"
       << "  \"terms\": " << n << ",\n"
       << "  \"nnz\": " << corpus.features.NumNonZeros() << ",\n"
       << "  \"alpha\": " << alpha << ",\n"
       << "  \"num_rhs\": " << num_rhs << ",\n"
       << "  \"lsqr_tolerance\": 1e-8,\n"
       << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const SolveRun& run = runs[i];
    json << "    {\"solve\": \"" << run.label
         << "\", \"sketch_rows\": " << run.sketch_rows
         << ", \"iterations\": " << run.iterations
         << ", \"seconds\": " << run.seconds
         << ", \"max_diff_vs_exact\": " << run.max_diff_vs_exact
         << ", \"converged\": " << (run.converged ? "true" : "false") << "}"
         << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"thread_bitwise_identical\": "
       << (thread_bitwise ? "true" : "false") << "\n}\n";
  std::cout << "wrote BENCH_sketch_precond.json\n";

  bool ok = true;
  ok &= ShapeCheck(runs[0].converged && runs[1].converged && runs[2].converged,
                   "all LSQR runs reach the 1e-8 stopping tolerance inside "
                   "the iteration budget");
  for (size_t i = 1; i < runs.size(); ++i) {
    ok &= ShapeCheck(2 * runs[i].iterations <= runs[0].iterations,
                     runs[i].label + " needs >= 2x fewer iterations than "
                                     "plain LSQR at the same tolerance");
  }
  ok &= ShapeCheck(runs[1].max_diff_vs_exact < 1e-4 &&
                       runs[2].max_diff_vs_exact < 1e-4,
                   "preconditioned solutions match the exact normal-equations "
                   "path within 1e-4");
  ok &= ShapeCheck(thread_bitwise,
                   "preconditioned fit bitwise identical at 1 vs 4 threads");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace srda

int main(int argc, char** argv) { return srda::bench::Main(argc, argv); }
