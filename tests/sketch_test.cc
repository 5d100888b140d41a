// Tests for randomized row sketches (linalg/sketch.h) and the solver mode
// built on them: sketch-preconditioned LSQR.
//
// The determinism contract mirrors the sharded suite: the sketch operator is
// a pure function of (seed, global row), so the same seed must reproduce the
// sketch BITWISE across calls, thread counts, and shard sizes — and a
// preconditioned LsqrBatch run must be bitwise identical at any thread
// count. Accuracy (precond-vs-plain agreement) is checked on an
// ill-conditioned TextGenerator corpus and against exact normal-equation
// solves.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "dataset/text_generator.h"
#include "linalg/cholesky.h"
#include "linalg/linear_operator.h"
#include "linalg/lsqr.h"
#include "linalg/sharded_operator.h"
#include "linalg/sketch.h"
#include "matrix/blas.h"
#include "matrix/matrix.h"
#include "obs/metrics.h"
#include "solver/ridge_solver.h"
#include "sparse/sparse_matrix.h"

namespace srda {
namespace {

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng.NextGaussian();
  }
  return m;
}

// ~25% fill with a few empty rows so the sparse kernel sees rows that hash
// to a bucket but contribute nothing.
SparseMatrix RandomSparse(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  SparseMatrixBuilder builder(rows, cols);
  for (int i = 0; i < rows; ++i) {
    if (i % 11 == 3) continue;  // empty row
    for (int j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.25) builder.Add(i, j, rng.NextGaussian());
    }
  }
  return std::move(builder).Build();
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

// The small ill-conditioned sparse corpus the accuracy tests share: heavy
// topic overlap and contamination push the term-term Gram's condition
// number up, which is exactly the regime preconditioning targets.
SparseDataset SmallTextCorpus() {
  TextGeneratorOptions options;
  options.num_topics = 4;
  options.docs_per_topic = 120;
  options.vocabulary_size = 100;
  options.topic_vocabulary_size = 30;
  options.mean_document_length = 60.0;
  options.seed = 11;
  return GenerateTextDataset(options);
}

// --- Sketch operator: reproducibility and shard invariance. ---

TEST(SketchTest, SameSeedReproducesBitwiseDifferentSeedDoesNot) {
  const Matrix x = RandomMatrix(57, 9, 1);
  SketchOptions options;
  options.sketch_rows = 23;
  options.seed = 42;
  const Matrix a = SketchRows(x, options);
  const Matrix b = SketchRows(x, options);
  ExpectBitwiseEqual(a, b);
  options.seed = 43;
  const Matrix c = SketchRows(x, options);
  EXPECT_GT(MaxAbsDiff(a, c), 0.0) << "seed must change the sketch";
}

TEST(SketchTest, SparseSketchMatchesDenseSketchBitwise) {
  // The count-sketch kernels add each row's entries in column order with
  // the same sign, so sketching a sparse matrix must equal sketching its
  // densification bit for bit.
  const SparseMatrix x = RandomSparse(90, 13, 2);
  SketchOptions options;
  options.sketch_rows = 31;
  const Matrix dense = SketchRows(x.ToDense(), options);
  const Matrix sparse = SketchRows(x, options);
  ExpectBitwiseEqual(dense, sparse);
}

TEST(SketchTest, StreamedAccumulationMatchesOneShot) {
  const Matrix x = RandomMatrix(64, 7, 3);
  SketchOptions options;
  options.sketch_rows = 19;
  const Matrix oneshot = SketchRows(x, options);
  for (int block : {1, 5, 63, 64}) {
    Matrix streamed(options.sketch_rows, x.cols());
    for (int start = 0; start < x.rows(); start += block) {
      const int count = std::min(block, x.rows() - start);
      SketchAccumulate(x.Block(start, 0, count, x.cols()), start, options,
                       &streamed);
    }
    ExpectBitwiseEqual(oneshot, streamed);
  }
}

TEST(SketchTest, ShardedSketchMatchesInRamBitwise) {
  const Matrix dense = RandomMatrix(70, 11, 4);
  const SparseMatrix sparse = RandomSparse(70, 11, 5);
  SketchOptions options;
  options.sketch_rows = 29;
  const Matrix dense_reference = SketchRows(dense, options);
  const Matrix sparse_reference = SketchRows(sparse, options);
  for (int shard_rows : {1, 7, 69, 70}) {
    DenseMatrixShardSource dense_source(&dense, shard_rows);
    ExpectBitwiseEqual(dense_reference, SketchShards(&dense_source, options));
    SparseMatrixShardSource sparse_source(&sparse, shard_rows);
    ExpectBitwiseEqual(sparse_reference,
                       SketchShards(&sparse_source, options));
  }
}

TEST(SketchTest, SketchIndependentOfThreadCount) {
  const Matrix x = RandomMatrix(83, 17, 6);
  SketchOptions options;
  options.sketch_rows = 37;
  const int saved = GlobalThreadCount();
  Matrix sketches[2];
  for (int pass = 0; pass < 2; ++pass) {
    SetGlobalThreadCount(pass == 0 ? 1 : 4);
    sketches[pass] = SketchRows(x, options);
  }
  SetGlobalThreadCount(saved);
  ExpectBitwiseEqual(sketches[0], sketches[1]);
}

TEST(SketchTest, SketchOnesMatchesSketchOfOnesColumn) {
  Matrix ones(45, 1);
  for (int i = 0; i < 45; ++i) ones(i, 0) = 1.0;
  SketchOptions options;
  options.sketch_rows = 16;
  const Matrix via_matrix = SketchRows(ones, options);
  const Vector via_helper = SketchOnes(45, options);
  ASSERT_EQ(via_helper.size(), 16);
  for (int t = 0; t < 16; ++t) {
    EXPECT_EQ(via_matrix(t, 0), via_helper[t]) << "at " << t;
  }
}

TEST(SketchTest, GramEstimateConcentrates) {
  // E[(SX)^T (SX)] = X^T X; with s comfortably above n the count-sketch
  // estimate should land within a modest relative error — enough for a
  // preconditioner, which is all we ask of it.
  const Matrix x = RandomMatrix(400, 6, 7);
  const Matrix exact = MultiplyTransposedA(x, x);
  SketchOptions options;
  options.sketch_rows = 200;
  const Matrix sketch = SketchRows(x, options);
  const Matrix estimate = MultiplyTransposedA(sketch, sketch);
  double exact_norm = 0.0;
  for (int i = 0; i < exact.rows(); ++i) {
    for (int j = 0; j < exact.cols(); ++j) {
      exact_norm = std::max(exact_norm, std::abs(exact(i, j)));
    }
  }
  EXPECT_LT(MaxAbsDiff(exact, estimate), 0.5 * exact_norm);
}

TEST(SketchTest, FactorSketchedGramMatchesDirectFactorization) {
  const Matrix sketch = RandomMatrix(40, 8, 8);
  Cholesky via_helper;
  ASSERT_TRUE(FactorSketchedGram(sketch, 0.75, &via_helper));
  Matrix gram = MultiplyTransposedA(sketch, sketch);
  for (int i = 0; i < gram.rows(); ++i) gram(i, i) += 0.75;
  Cholesky direct;
  ASSERT_TRUE(direct.Factor(gram));
  ExpectBitwiseEqual(direct.factor(), via_helper.factor());
}

// --- Preconditioned LSQR: exactness, batching, determinism. ---

TEST(PrecondLsqrTest, PreconditionedSolveMatchesNormalEquations) {
  // With the iteration budget uncapped, the preconditioned LSQR solve must
  // land on the same ridge solution the direct factorization produces.
  const Matrix x = RandomMatrix(120, 10, 9);
  const Matrix b = RandomMatrix(120, 3, 10);
  const DenseOperator a(&x);
  const double alpha = 0.1;
  Matrix gram = MultiplyTransposedA(x, x);
  for (int i = 0; i < gram.rows(); ++i) gram(i, i) += alpha;
  Cholesky exact_chol;
  ASSERT_TRUE(exact_chol.Factor(gram));
  const Matrix exact = exact_chol.SolveMatrix(MultiplyTransposedA(x, b));

  SketchOptions sketch_options;
  sketch_options.sketch_rows = 40;
  const Matrix sketch = SketchRows(x, sketch_options);
  Cholesky precond;
  ASSERT_TRUE(FactorSketchedGram(sketch, alpha, &precond));

  LsqrOptions options;
  options.max_iterations = 200;
  options.damp = std::sqrt(alpha);
  options.atol = 1e-12;
  options.btol = 1e-12;
  options.right_precond = &precond.factor();
  const std::vector<LsqrResult> results = LsqrBatch(a, b, options);
  ASSERT_EQ(results.size(), 3u);
  for (int j = 0; j < 3; ++j) {
    ASSERT_TRUE(results[static_cast<size_t>(j)].converged);
    for (int i = 0; i < x.cols(); ++i) {
      EXPECT_NEAR(results[static_cast<size_t>(j)].x[i], exact(i, j), 1e-7);
    }
  }
}

TEST(PrecondLsqrTest, BatchMatchesSerialBitwise) {
  // A d-column preconditioned batch must give every column the bits of a
  // one-column solve on that column alone: the preconditioned operator's
  // products and the final back-substitution keep columns independent, and
  // columns that stop early leave the packed passes without disturbing the
  // rest. Column 1 is zero (stops before the first pass); a deliberately
  // small sketch keeps the preconditioner loose enough that the other
  // columns stop at different iterations.
  const Matrix x = RandomMatrix(200, 40, 11);
  Matrix b = RandomMatrix(200, 4, 12);
  for (int i = 0; i < b.rows(); ++i) b(i, 1) = 0.0;
  const DenseOperator a(&x);
  SketchOptions sketch_options;
  sketch_options.sketch_rows = 50;
  const Matrix sketch = SketchRows(x, sketch_options);
  Cholesky precond;
  ASSERT_TRUE(FactorSketchedGram(sketch, 0.01, &precond));
  LsqrOptions options;
  options.max_iterations = 60;
  options.damp = std::sqrt(0.01);
  options.right_precond = &precond.factor();
  const std::vector<LsqrResult> batch = LsqrBatch(a, b, options);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[1].stop, LsqrStop::kRhsZero);
  int fewest = options.max_iterations;
  int most = 0;
  for (int j = 0; j < b.cols(); ++j) {
    const LsqrResult single =
        LsqrBatch(a, b.Block(0, j, b.rows(), 1), options)[0];
    const LsqrResult& batched = batch[static_cast<size_t>(j)];
    EXPECT_EQ(single.iterations, batched.iterations) << "rhs " << j;
    EXPECT_EQ(single.stop, batched.stop) << "rhs " << j;
    EXPECT_EQ(single.residual_norm, batched.residual_norm) << "rhs " << j;
    ASSERT_EQ(single.x.size(), batched.x.size());
    for (int i = 0; i < single.x.size(); ++i) {
      EXPECT_EQ(single.x[i], batched.x[i]) << "rhs " << j << " entry " << i;
    }
    if (j != 1) {
      fewest = std::min(fewest, batched.iterations);
      most = std::max(most, batched.iterations);
    }
  }
  EXPECT_LT(fewest, most) << "columns must leave the batch at different "
                             "iterations for the packing to be exercised";
}

TEST(PrecondLsqrTest, PreconditionedBatchIndependentOfThreadCount) {
  const SparseDataset corpus = SmallTextCorpus();
  const Matrix responses =
      RandomMatrix(corpus.features.rows(), 3, 13);
  const int saved = GlobalThreadCount();
  Matrix coefficients[2];
  for (int pass = 0; pass < 2; ++pass) {
    SetGlobalThreadCount(pass == 0 ? 1 : 4);
    const SparseOperator data(&corpus.features);
    RidgeSolver solver(&data);
    SketchConfig config;
    config.mode = SketchMode::kPrecondition;
    config.sketch_rows = 300;
    solver.SetSketch(config);
    RidgeSolveOptions options;
    options.method = RidgeMethod::kLsqr;
    options.lsqr_iterations = 100;
    const RidgeSolution solution = solver.Solve(responses, 1e-3, options);
    ASSERT_TRUE(solution.ok);
    coefficients[pass] = solution.coefficients;
  }
  SetGlobalThreadCount(saved);
  ExpectBitwiseEqual(coefficients[0], coefficients[1]);
}

TEST(PrecondLsqrTest, AgreesWithPlainLsqrOnIllConditionedCorpus) {
  // On the ill-conditioned text Gram both runs get a generous budget and
  // tight tolerances; the preconditioned run must reach the same solution
  // in strictly fewer total iterations.
  const SparseDataset corpus = SmallTextCorpus();
  const Matrix responses =
      RandomMatrix(corpus.features.rows(), 3, 14);
  const double alpha = 1e-3;
  RidgeSolveOptions options;
  options.method = RidgeMethod::kLsqr;
  options.lsqr_iterations = 400;
  options.lsqr_atol = 1e-10;
  options.lsqr_btol = 1e-10;

  const SparseOperator plain_data(&corpus.features);
  RidgeSolver plain(&plain_data);
  const RidgeSolution plain_solution = plain.Solve(responses, alpha, options);
  ASSERT_TRUE(plain_solution.ok);

  const SparseOperator precond_data(&corpus.features);
  RidgeSolver preconditioned(&precond_data);
  SketchConfig config;
  config.mode = SketchMode::kPrecondition;
  config.sketch_rows = 400;
  preconditioned.SetSketch(config);
  const RidgeSolution precond_solution =
      preconditioned.Solve(responses, alpha, options);
  ASSERT_TRUE(precond_solution.ok);
  for (const RidgeRhsDiagnostics& diag : precond_solution.lsqr) {
    EXPECT_TRUE(diag.converged);
  }

  // Same solution (both converged to tight tolerances)...
  EXPECT_LT(MaxAbsDiff(plain_solution.coefficients,
                       precond_solution.coefficients),
            1e-5);
  EXPECT_LT(MaxAbsDiff(plain_solution.bias, precond_solution.bias), 1e-5);
  // ...in strictly fewer iterations.
  EXPECT_LT(precond_solution.total_lsqr_iterations,
            plain_solution.total_lsqr_iterations);
}

TEST(PrecondLsqrTest, ShardedSketchSolveMatchesInRamBitwise) {
  // The sharded binding sketches while streaming; the preconditioned solve
  // must be bitwise identical to the dense-bound solver on the same data.
  const Matrix x = RandomMatrix(96, 8, 15);
  const Matrix responses = RandomMatrix(96, 2, 16);
  SketchConfig config;
  config.mode = SketchMode::kPrecondition;
  config.sketch_rows = 32;
  RidgeSolveOptions options;
  options.method = RidgeMethod::kLsqr;
  options.lsqr_iterations = 80;

  RidgeSolver dense(&x);
  dense.SetSketch(config);
  const RidgeSolution reference = dense.Solve(responses, 0.5, options);
  ASSERT_TRUE(reference.ok);
  for (int shard_rows : {1, 17, 95, 96}) {
    DenseMatrixShardSource source(&x, shard_rows);
    RidgeSolver sharded(&source);
    sharded.SetSketch(config);
    const RidgeSolution solution = sharded.Solve(responses, 0.5, options);
    ASSERT_TRUE(solution.ok);
    ExpectBitwiseEqual(reference.coefficients, solution.coefficients);
  }
}

TEST(PrecondLsqrTest, SingularSketchFallsBackToPlainLsqr) {
  // With fewer sketch rows than columns and alpha = 0 the sketched Gram is
  // singular, so its factor fails the relative pivot floor. The solve then
  // runs plain LSQR, bit for bit, and the fallback counter records it.
  const Matrix x = RandomMatrix(96, 8, 17);
  const Matrix responses = RandomMatrix(96, 2, 18);
  RidgeSolveOptions options;
  options.method = RidgeMethod::kLsqr;
  options.lsqr_iterations = 40;

  RidgeSolver plain(&x);
  const RidgeSolution reference = plain.Solve(responses, 0.0, options);
  ASSERT_TRUE(reference.ok);

  const Counter* fallbacks =
      MetricsRegistry::Global().counter("ridge.sketch_precond_fallback");
  const double before = fallbacks->value();
  RidgeSolver sketched(&x);
  SketchConfig config;
  config.mode = SketchMode::kPrecondition;
  config.sketch_rows = 4;
  sketched.SetSketch(config);
  const RidgeSolution solution = sketched.Solve(responses, 0.0, options);
  ASSERT_TRUE(solution.ok);
  EXPECT_EQ(fallbacks->value() - before, 1.0);
  ExpectBitwiseEqual(reference.coefficients, solution.coefficients);
  ASSERT_EQ(reference.bias.size(), solution.bias.size());
  for (int j = 0; j < reference.bias.size(); ++j) {
    EXPECT_EQ(reference.bias[j], solution.bias[j]) << "bias " << j;
  }
  EXPECT_EQ(reference.total_lsqr_iterations, solution.total_lsqr_iterations);
}

TEST(PrecondLsqrDeathTest, OperatorWithoutRowAccessAborts) {
  // Only sparse and dense operators expose the rows the sketch kernels
  // read; any other operator binding aborts instead of sketching.
  const Matrix x = RandomMatrix(40, 6, 17);
  const Matrix responses = RandomMatrix(40, 2, 18);
  const DenseOperator data(&x);
  const Vector mean(x.cols());
  const CenterColumnsOperator centered(&data, &mean);
  RidgeSolver solver(&centered);
  SketchConfig config;
  config.mode = SketchMode::kPrecondition;
  solver.SetSketch(config);
  RidgeSolveOptions options;
  options.method = RidgeMethod::kLsqr;
  EXPECT_DEATH(solver.Solve(responses, 0.5, options),
               "SparseOperator or DenseOperator");
}

}  // namespace
}  // namespace srda
