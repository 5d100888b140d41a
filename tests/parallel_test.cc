// Tests for the parallel execution layer: pool lifecycle, ParallelFor
// coverage, exception propagation, nesting, and the determinism guarantee
// that 1-thread and N-thread runs of the parallel kernels are bitwise
// identical (DESIGN.md, "Threading model").

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/idr_qr.h"
#include "core/incremental_srda.h"
#include "core/rlda.h"
#include "core/srda.h"
#include "linalg/cholesky.h"
#include "matrix/blas.h"
#include "matrix/blocking.h"
#include "sparse/sparse_matrix.h"

namespace srda {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const size_t bytes = static_cast<size_t>(a.rows()) * a.cols() *
                       sizeof(double);
  return bytes == 0 || std::memcmp(a.data(), b.data(), bytes) == 0;
}

bool BitwiseEqual(const Vector& x, const Vector& y) {
  if (x.size() != y.size()) return false;
  const size_t bytes = static_cast<size_t>(x.size()) * sizeof(double);
  return bytes == 0 || std::memcmp(x.data(), y.data(), bytes) == 0;
}

TEST(ThreadPoolTest, StartupAndShutdownRepeatedly) {
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    std::atomic<int> sum{0};
    pool.ParallelFor(0, 100, [&](int begin, int end) {
      for (int i = begin; i < end; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
  }  // Destructor joins the workers; leaks/hangs would fail the test run.
}

TEST(ThreadPoolTest, ResolvesThreadCountFromEnvironment) {
  ASSERT_EQ(setenv("SRDA_NUM_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveThreadCount(0), 3);
  // An explicit count wins over the environment.
  EXPECT_EQ(ResolveThreadCount(2), 2);
  // Garbage in the variable falls back to hardware concurrency (>= 1).
  ASSERT_EQ(setenv("SRDA_NUM_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ResolveThreadCount(0), 1);
  ASSERT_EQ(unsetenv("SRDA_NUM_THREADS"), 0);
}

TEST(ThreadPoolTest, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kCount = 10007;  // Prime: exercises uneven chunk sizes.
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, kCount, [&](int begin, int end) {
    ASSERT_LE(begin, end);
    for (int i = begin; i < end; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ConcurrentExternalCallersEachCoverTheirRange) {
  // Two threads that are not pool workers share one pool, so the queue
  // holds two jobs at once and workers must move past a drained front job
  // to help the other caller.
  ThreadPool pool(4);
  constexpr int kCount = 997;
  constexpr int kCalls = 200;
  const auto caller = [&pool](int offset, bool* ok) {
    std::vector<std::atomic<int>> hits(kCount);
    for (int call = 0; call < kCalls && *ok; ++call) {
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(offset, offset + kCount, [&](int begin, int end) {
        for (int i = begin; i < end; ++i) {
          hits[static_cast<size_t>(i - offset)]++;
        }
      });
      for (const auto& h : hits) {
        if (h.load() != 1) *ok = false;
      }
    }
  };
  bool ok_a = true;
  bool ok_b = true;
  std::thread a(caller, 0, &ok_a);
  std::thread b(caller, 5000, &ok_b);
  a.join();
  b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(7, 8, [&](int begin, int end) {
    ++calls;
    EXPECT_EQ(begin, 7);
    EXPECT_EQ(end, 8);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(0, 64, [&](int, int) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, PropagatesExceptionsToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 1000,
                       [&](int begin, int) {
                         if (begin >= 500) {
                           throw std::runtime_error("chunk failed");
                         }
                       }),
      std::runtime_error);
  // The pool survives a throwing job and keeps working.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 100, [&](int begin, int end) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 16, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      // A nested call from a worker must execute inline, not re-enqueue.
      pool.ParallelFor(0, 8, [&](int inner_begin, int inner_end) {
        total.fetch_add(inner_end - inner_begin);
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 8);
}

TEST(GlobalPoolTest, SetGlobalThreadCountTakesEffect) {
  SetGlobalThreadCount(2);
  EXPECT_EQ(GlobalThreadCount(), 2);
  SetGlobalThreadCount(1);
  EXPECT_EQ(GlobalThreadCount(), 1);
}

// Determinism: the dense kernels partition disjoint output rows and keep
// each element's accumulation order fixed, so any thread count must produce
// the same bits.
TEST(DeterminismTest, DenseKernelsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(101);
  const Matrix a = RandomMatrix(57, 43, &rng);
  const Matrix b = RandomMatrix(43, 29, &rng);
  const Matrix bt = RandomMatrix(31, 43, &rng);

  SetGlobalThreadCount(1);
  const Matrix product1 = Multiply(a, b);
  const Matrix gram1 = Gram(a);
  const Matrix outer1 = OuterGram(a);
  const Matrix ata1 = MultiplyTransposedA(a, a);
  const Matrix abt1 = MultiplyTransposedB(a, bt);

  SetGlobalThreadCount(4);
  const Matrix product4 = Multiply(a, b);
  const Matrix gram4 = Gram(a);
  const Matrix outer4 = OuterGram(a);
  const Matrix ata4 = MultiplyTransposedA(a, a);
  const Matrix abt4 = MultiplyTransposedB(a, bt);
  SetGlobalThreadCount(1);

  EXPECT_TRUE(BitwiseEqual(product1, product4));
  EXPECT_TRUE(BitwiseEqual(gram1, gram4));
  EXPECT_TRUE(BitwiseEqual(outer1, outer4));
  EXPECT_TRUE(BitwiseEqual(ata1, ata4));
  EXPECT_TRUE(BitwiseEqual(abt1, abt4));
}

TEST(DeterminismTest, BlockedCholeskyBitwiseIdenticalAcrossThreadCounts) {
  // The blocked factorization runs its TRSM and SYRK stages on the pool;
  // like the dense products, each element's update chain is fixed, so the
  // factor and the batched solve must not depend on the thread count.
  Rng rng(404);
  const int n = 150;  // Several panels at the default panel width.
  const Matrix basis = RandomMatrix(n + 5, n, &rng);
  Matrix spd = Gram(basis);
  for (int i = 0; i < n; ++i) spd(i, i) += n;
  const Matrix rhs = RandomMatrix(n, 4, &rng);

  SetGlobalThreadCount(1);
  Cholesky chol1;
  ASSERT_TRUE(chol1.Factor(spd));
  const Matrix solve1 = chol1.SolveMatrix(rhs);
  SetGlobalThreadCount(4);
  Cholesky chol4;
  ASSERT_TRUE(chol4.Factor(spd));
  const Matrix solve4 = chol4.SolveMatrix(rhs);
  SetGlobalThreadCount(1);

  EXPECT_TRUE(BitwiseEqual(chol1.factor(), chol4.factor()));
  EXPECT_TRUE(BitwiseEqual(solve1, solve4));
}

TEST(DeterminismTest, SparseTransposeProductBitwiseIdentical) {
  // More rows than the fixed reduction chunk (512) so several per-chunk
  // partials really are folded.
  Rng rng(202);
  const int rows = 1700;
  const int cols = 90;
  SparseMatrixBuilder builder(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.15) builder.Add(i, j, rng.NextGaussian());
    }
  }
  const SparseMatrix sparse = std::move(builder).Build();
  Matrix x(rows, 3);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < 3; ++j) x(i, j) = rng.NextGaussian();
  }
  Matrix dense_x(cols, 3);
  for (int i = 0; i < cols; ++i) {
    for (int j = 0; j < 3; ++j) dense_x(i, j) = rng.NextGaussian();
  }

  SetGlobalThreadCount(1);
  const Matrix transposed1 = sparse.MultiplyTransposedDense(x);
  const Matrix forward1 = sparse.MultiplyDense(dense_x);
  SetGlobalThreadCount(4);
  const Matrix transposed4 = sparse.MultiplyTransposedDense(x);
  const Matrix forward4 = sparse.MultiplyDense(dense_x);
  SetGlobalThreadCount(1);

  EXPECT_TRUE(BitwiseEqual(transposed1, transposed4));
  EXPECT_TRUE(BitwiseEqual(forward1, forward4));
}

TEST(DeterminismTest, FitSrdaBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(303);
  const int num_classes = 5;
  const int per_class = 30;
  const int dim = 40;
  Matrix x(num_classes * per_class, dim);
  std::vector<int> labels;
  for (int k = 0; k < num_classes; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      for (int j = 0; j < dim; ++j) {
        x(row, j) = (j % num_classes == k ? 2.0 : 0.0) + rng.NextGaussian();
      }
      labels.push_back(k);
    }
  }
  SparseMatrix sparse = SparseFromDense(x, /*tolerance=*/0.0);

  for (SrdaSolver solver :
       {SrdaSolver::kNormalEquations, SrdaSolver::kLsqr}) {
    SrdaOptions options;
    options.solver = solver;
    options.alpha = 0.8;
    SetGlobalThreadCount(1);
    const SrdaModel model1 = FitSrda(x, labels, num_classes, options);
    SetGlobalThreadCount(4);
    const SrdaModel model4 = FitSrda(x, labels, num_classes, options);
    SetGlobalThreadCount(1);
    ASSERT_TRUE(model1.converged);
    ASSERT_TRUE(model4.converged);
    EXPECT_TRUE(BitwiseEqual(model1.embedding.projection(),
                             model4.embedding.projection()));
    EXPECT_TRUE(BitwiseEqual(model1.embedding.bias(),
                             model4.embedding.bias()));
    EXPECT_EQ(model1.total_lsqr_iterations, model4.total_lsqr_iterations);
  }

  // Sparse LSQR path too (exercises the chunked A^T x reduction inside the
  // pooled per-response solves).
  SrdaOptions sparse_options;
  sparse_options.solver = SrdaSolver::kLsqr;
  SetGlobalThreadCount(1);
  const SrdaModel sparse1 = FitSrda(sparse, labels, num_classes,
                                    sparse_options);
  SetGlobalThreadCount(4);
  const SrdaModel sparse4 = FitSrda(sparse, labels, num_classes,
                                    sparse_options);
  SetGlobalThreadCount(1);
  EXPECT_TRUE(BitwiseEqual(sparse1.embedding.projection(),
                           sparse4.embedding.projection()));
  EXPECT_TRUE(BitwiseEqual(sparse1.embedding.bias(),
                           sparse4.embedding.bias()));
}

// Table test over the trainers whose triangular solves run through the
// batched sweeps (ForwardSubstituteMatrix / BackSubstituteTransposedMatrix):
// each embedding is bitwise identical at 1 and 4 threads. A narrow panel
// makes even IDR/QR's c x c factor span several panels, so the
// row-parallel updates run.
TEST(DeterminismTest, SweepTrainersBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(304);
  const int num_classes = 6;
  const int per_class = 25;
  const int dim = 90;
  Matrix x(num_classes * per_class, dim);
  std::vector<int> labels;
  for (int k = 0; k < num_classes; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      for (int j = 0; j < dim; ++j) {
        x(row, j) = (j % num_classes == k ? 2.0 : 0.0) + rng.NextGaussian();
      }
      labels.push_back(k);
    }
  }
  using Fit = std::function<LinearEmbedding()>;
  auto rlda = [&](bool exploit_low_rank) {
    RldaOptions options;
    options.alpha = 0.5;
    options.exploit_low_rank = exploit_low_rank;
    const RldaModel model = FitRlda(x, labels, num_classes, options);
    EXPECT_TRUE(model.converged);
    return model.embedding;
  };
  const struct {
    const char* name;
    Fit fit;
  } cases[] = {
      {"rlda", [&] { return rlda(false); }},
      {"rlda_low_rank", [&] { return rlda(true); }},
      {"idr_qr",
       [&] {
         const IdrQrModel model = FitIdrQr(x, labels, num_classes);
         EXPECT_TRUE(model.converged);
         return model.embedding;
       }},
      {"incremental_srda",
       [&] {
         IncrementalSrda trainer(dim, num_classes, 0.8);
         for (int i = 0; i < x.rows(); ++i) {
           trainer.AddSample(x.Row(i), labels[static_cast<size_t>(i)]);
         }
         return trainer.Solve();
       }},
  };
  BlockConfig config;
  config.nb = 4;
  SetBlockConfig(config);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    SetGlobalThreadCount(1);
    const LinearEmbedding one = c.fit();
    SetGlobalThreadCount(4);
    const LinearEmbedding four = c.fit();
    SetGlobalThreadCount(1);
    ASSERT_GT(one.output_dim(), 0);
    EXPECT_TRUE(BitwiseEqual(one.projection(), four.projection()));
    EXPECT_TRUE(BitwiseEqual(one.bias(), four.bias()));
  }
  SetBlockConfig(BlockConfig());
}

}  // namespace
}  // namespace srda
