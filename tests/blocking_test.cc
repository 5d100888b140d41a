// Tests for the cache-blocking layer: blocked level-3 kernels against the
// srda::naive references at adversarial sizes, the blocked Cholesky against
// the serial reference, the blocked SolveMatrix against the column-striped
// solve it replaced, bitwise thread-count / panel-width / SIMD-level
// determinism of the blocked paths, SetBlockConfig's handling of
// non-positive fields, and the runtime flop counter.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "linalg/cholesky.h"
#include "matrix/blas.h"
#include "matrix/blocking.h"
#include "matrix/simd/simd.h"
#include "tests/column_striped_solve.h"
#include "tests/naive_kernels.h"
#include "tests/scoped_level.h"

namespace srda {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

// Symmetric positive definite: G = A^T A + n*I via the naive kernels so the
// input does not depend on the code under test.
Matrix RandomSpd(int n, Rng* rng) {
  const Matrix a = RandomMatrix(n + 3, n, rng);
  Matrix g = naive::Gram(a);
  for (int i = 0; i < n; ++i) g(i, i) += n;
  return g;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const size_t bytes =
      static_cast<size_t>(a.rows()) * a.cols() * sizeof(double);
  return bytes == 0 || std::memcmp(a.data(), b.data(), bytes) == 0;
}

// A vector as an n x 1 matrix: a single right-hand side is a one-column
// batched solve.
Matrix OneColumn(const Vector& v) {
  Matrix m(v.size(), 1);
  m.SetCol(0, v);
  return m;
}

// The blocked kernels drop the naive loops' zero-skips and reassociate the
// k-sums across panels, so agreement is to rounding, not bitwise.
void ExpectNear(const Matrix& a, const Matrix& b, double tolerance) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_LE(MaxAbsDiff(a, b), tolerance);
}

// Sizes straddling the default panel width of the triangular sweeps, and
// right-hand-side counts from one column to the faces workload's 67.
constexpr int kSolveSizes[] = {1, 63, 64, 65, 150, 300};
constexpr int kSolveRhs[] = {1, 5, 67};

// Panel widths for a size-n sweep: single rows, a few panels, the default,
// and one panel covering everything.
std::vector<int> SolvePanelWidths(int n) { return {1, 16, 64, n + 1}; }

// Restores the default block config and a single-threaded pool after each
// test, so tests that shrink tiles or raise the thread count cannot leak
// into later ones.
class BlockingTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetBlockConfig(BlockConfig{});
    SetGlobalThreadCount(1);
  }
};

// Sizes straddling every default tile boundary: 1, tiny, mc +/- 1, nb +/- 1,
// kc +/- 1, and non-multiples of everything.
constexpr int kEdgeSizes[] = {1, 2, 7, 31, 32, 33, 63, 64, 65, 100, 129};

TEST_F(BlockingTest, MultiplyMatchesNaiveAtEdgeSizes) {
  Rng rng(11);
  for (const int n : kEdgeSizes) {
    const Matrix a = RandomMatrix(n, n + 3, &rng);
    const Matrix b = RandomMatrix(n + 3, n + 1, &rng);
    ExpectNear(Multiply(a, b), naive::Multiply(a, b), 1e-11 * (n + 3));
  }
}

TEST_F(BlockingTest, MultiplyTransposedAMatchesNaiveAtEdgeSizes) {
  Rng rng(12);
  for (const int n : kEdgeSizes) {
    const Matrix a = RandomMatrix(n + 2, n, &rng);
    const Matrix b = RandomMatrix(n + 2, n + 1, &rng);
    ExpectNear(MultiplyTransposedA(a, b), naive::MultiplyTransposedA(a, b),
               1e-11 * (n + 2));
  }
}

TEST_F(BlockingTest, MultiplyTransposedBMatchesNaiveAtEdgeSizes) {
  Rng rng(13);
  for (const int n : kEdgeSizes) {
    const Matrix a = RandomMatrix(n, n + 2, &rng);
    const Matrix b = RandomMatrix(n + 1, n + 2, &rng);
    ExpectNear(MultiplyTransposedB(a, b), naive::MultiplyTransposedB(a, b),
               1e-11 * (n + 2));
  }
}

TEST_F(BlockingTest, GramMatchesNaiveAtEdgeSizes) {
  Rng rng(14);
  for (const int n : kEdgeSizes) {
    const Matrix a = RandomMatrix(n + 5, n, &rng);
    ExpectNear(Gram(a), naive::Gram(a), 1e-11 * (n + 5));
  }
}

TEST_F(BlockingTest, OuterGramMatchesNaiveAtEdgeSizes) {
  Rng rng(15);
  for (const int n : kEdgeSizes) {
    const Matrix a = RandomMatrix(n, n + 5, &rng);
    ExpectNear(OuterGram(a), naive::OuterGram(a), 1e-11 * (n + 5));
  }
}

TEST_F(BlockingTest, SymmetricProductsFillBothTriangles) {
  Rng rng(16);
  const Matrix a = RandomMatrix(70, 67, &rng);
  const Matrix g = Gram(a);
  const Matrix o = OuterGram(a);
  for (int i = 0; i < g.rows(); ++i) {
    for (int j = 0; j < i; ++j) {
      ASSERT_EQ(g(i, j), g(j, i)) << "Gram mirror at " << i << "," << j;
    }
  }
  for (int i = 0; i < o.rows(); ++i) {
    for (int j = 0; j < i; ++j) {
      ASSERT_EQ(o(i, j), o(j, i)) << "OuterGram mirror at " << i << "," << j;
    }
  }
}

// Shrinking the tiles to a few elements forces many partial panels and
// cleanup paths through every micro-kernel.
TEST_F(BlockingTest, TinyTilesStillAgreeWithNaive) {
  BlockConfig tiny;
  tiny.kc = 8;
  tiny.mc = 4;
  tiny.nc = 8;
  tiny.nb = 8;
  SetBlockConfig(tiny);
  Rng rng(17);
  const Matrix a = RandomMatrix(53, 47, &rng);
  const Matrix b = RandomMatrix(47, 39, &rng);
  const Matrix bt = RandomMatrix(41, 47, &rng);
  ExpectNear(Multiply(a, b), naive::Multiply(a, b), 1e-10);
  ExpectNear(MultiplyTransposedA(a, a), naive::MultiplyTransposedA(a, a),
             1e-10);
  ExpectNear(MultiplyTransposedB(a, bt), naive::MultiplyTransposedB(a, bt),
             1e-10);
  ExpectNear(Gram(a), naive::Gram(a), 1e-10);
  ExpectNear(OuterGram(a), naive::OuterGram(a), 1e-10);
}

TEST_F(BlockingTest, TileShapeDoesNotChangeBits) {
  // Tile boundaries must be invisible in the result: each element owns one
  // accumulation chain whatever the panel sizes are.
  Rng rng(18);
  const Matrix a = RandomMatrix(61, 58, &rng);
  const Matrix b = RandomMatrix(58, 45, &rng);
  SetBlockConfig(BlockConfig{});
  const Matrix product_default = Multiply(a, b);
  const Matrix gram_default = Gram(a);
  BlockConfig tiny;
  tiny.kc = 5;
  tiny.mc = 3;
  tiny.nc = 7;
  tiny.nb = 4;
  SetBlockConfig(tiny);
  EXPECT_TRUE(BitwiseEqual(Multiply(a, b), product_default));
  EXPECT_TRUE(BitwiseEqual(Gram(a), gram_default));
}

TEST_F(BlockingTest, SetBlockConfigRejectsNonPositiveFields) {
  BlockConfig bad;
  bad.kc = -3;
  bad.mc = 0;
  bad.nc = 17;
  bad.nb = -1;
  SetBlockConfig(bad);
  const BlockConfig defaults;
  const BlockConfig& active = GetBlockConfig();
  EXPECT_EQ(active.kc, defaults.kc);
  EXPECT_EQ(active.mc, defaults.mc);
  EXPECT_EQ(active.nc, 17);
  EXPECT_EQ(active.nb, defaults.nb);
}

TEST_F(BlockingTest, BlockedCholeskyMatchesNaiveFactor) {
  Rng rng(19);
  // Sizes around the default panel width and with several full panels.
  for (const int n : {1, 2, 63, 64, 65, 100, 150}) {
    const Matrix spd = RandomSpd(n, &rng);
    Cholesky chol;
    ASSERT_TRUE(chol.Factor(spd)) << "n=" << n;
    Matrix reference;
    ASSERT_TRUE(naive::CholeskyFactor(spd, &reference)) << "n=" << n;
    ExpectNear(chol.factor(), reference, 1e-9 * n);
    // Lower-triangular with positive diagonal.
    for (int i = 0; i < n; ++i) {
      EXPECT_GT(chol.factor()(i, i), 0.0);
      for (int j = i + 1; j < n; ++j) EXPECT_EQ(chol.factor()(i, j), 0.0);
    }
    // L L^T reconstructs the input.
    const Matrix rebuilt =
        MultiplyTransposedB(chol.factor(), chol.factor());
    ExpectNear(rebuilt, spd, 1e-9 * n);
  }
}

TEST_F(BlockingTest, BlockedCholeskyRejectsIndefiniteInLaterPanel) {
  Rng rng(20);
  // Poison a diagonal entry well past the first panel so the failure is
  // detected inside a later FactorDiagonalBlock, after TRSM/SYRK updates.
  const int n = 150;
  Matrix spd = RandomSpd(n, &rng);
  spd(120, 120) = -5.0;
  Cholesky chol;
  EXPECT_FALSE(chol.Factor(spd));
  EXPECT_FALSE(chol.ok());
}

TEST_F(BlockingTest, BlockedCholeskyPanelWidthDoesNotChangeCorrectness) {
  Rng rng(21);
  const int n = 97;
  const Matrix spd = RandomSpd(n, &rng);
  const Vector b = [&] {
    Vector v(n);
    for (int i = 0; i < n; ++i) v[i] = rng.NextGaussian();
    return v;
  }();
  for (const int nb : {1, 3, 16, 97, 200}) {
    BlockConfig config;
    config.nb = nb;
    SetBlockConfig(config);
    Cholesky chol;
    ASSERT_TRUE(chol.Factor(spd)) << "nb=" << nb;
    const Vector x = chol.SolveMatrix(OneColumn(b)).Col(0);
    // Residual check: A x ~= b.
    const Vector ax = Multiply(spd, x);
    EXPECT_LE(MaxAbsDiff(ax, b), 1e-8 * n) << "nb=" << nb;
  }
}

TEST_F(BlockingTest, SolveMatrixMatchesPerColumnSolve) {
  Rng rng(22);
  const int n = 80;
  const int num_rhs = 7;
  const Matrix spd = RandomSpd(n, &rng);
  const Matrix b = RandomMatrix(n, num_rhs, &rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(spd));
  const Matrix x = chol.SolveMatrix(b);
  for (int j = 0; j < num_rhs; ++j) {
    EXPECT_TRUE(BitwiseEqual(x.Block(0, j, n, 1),
                             chol.SolveMatrix(b.Block(0, j, n, 1))))
        << "col " << j;
  }
  // The blocked sweep reproduces the column-striped solve bit for bit at
  // every size, right-hand-side count, panel width, thread count, and SIMD
  // level.
  for (const int n : kSolveSizes) {
    const Matrix spd = RandomSpd(n, &rng);
    Cholesky chol;
    ASSERT_TRUE(chol.Factor(spd)) << "n=" << n;
    for (const int k : kSolveRhs) {
      const Matrix b = RandomMatrix(n, k, &rng);
      const Matrix want = ColumnStripedSolveMatrix(chol.factor(), b);
      for (const simd::CpuLevel level : simd::SupportedLevels()) {
        ScopedLevel forced(level);
        for (const int nb : SolvePanelWidths(n)) {
          BlockConfig config;
          config.nb = nb;
          SetBlockConfig(config);
          for (const int threads : {1, 4}) {
            SetGlobalThreadCount(threads);
            EXPECT_TRUE(BitwiseEqual(chol.SolveMatrix(b), want))
                << "n=" << n << " k=" << k << " nb=" << nb
                << " threads=" << threads << " "
                << simd::CpuLevelName(level);
          }
        }
      }
    }
  }
}

// A block-diagonal SPD matrix has a factor with exact zeros, which the
// column-striped solve skipped and the GEMM update multiplies through.
// Skipping a zero term only changes the sign of an exact-zero result, so
// the two agree as values (+0 == -0) everywhere.
TEST_F(BlockingTest, SolveMatrixWithZerosInFactorMatchesColumnStripedSolve) {
  Rng rng(27);
  const int n = 150;
  const int block = 40;  // Straddles the panel edges of every tested nb.
  const Matrix dense = RandomSpd(n, &rng);
  Matrix spd(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i / block == j / block) spd(i, j) = dense(i, j);
    }
  }
  Matrix b = RandomMatrix(n, 9, &rng);
  // A zero right-hand side in one diagonal block: its solution is exact
  // zeros, the case where the sign may differ.
  for (int i = block; i < 2 * block; ++i) {
    for (int j = 0; j < b.cols(); ++j) b(i, j) = 0.0;
  }
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(spd));
  EXPECT_EQ(chol.factor()(2 * block, 0), 0.0);
  const Matrix want = ColumnStripedSolveMatrix(chol.factor(), b);
  for (const int nb : SolvePanelWidths(n)) {
    BlockConfig config;
    config.nb = nb;
    SetBlockConfig(config);
    for (const int threads : {1, 4}) {
      SetGlobalThreadCount(threads);
      const Matrix x = chol.SolveMatrix(b);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < b.cols(); ++j) {
          ASSERT_EQ(x(i, j), want(i, j))
              << "(" << i << "," << j << ") nb=" << nb
              << " threads=" << threads;
        }
      }
    }
  }
}

// Column independence: column j of each batched sweep is bitwise the sweep
// of column j alone (the single-vector solve), at every SIMD level, panel
// width, and thread count.
TEST_F(BlockingTest, BatchedSubstitutionsMatchVectorRoutines) {
  Rng rng(28);
  for (const int n : {1, 65, 150}) {
    const Matrix spd = RandomSpd(n, &rng);
    Cholesky chol;
    ASSERT_TRUE(chol.Factor(spd));
    const Matrix& l = chol.factor();
    const Matrix b = RandomMatrix(n, 5, &rng);
    for (const simd::CpuLevel level : simd::SupportedLevels()) {
      ScopedLevel forced(level);
      for (const int nb : SolvePanelWidths(n)) {
        BlockConfig config;
        config.nb = nb;
        SetBlockConfig(config);
        for (const int threads : {1, 4}) {
          SetGlobalThreadCount(threads);
          const Matrix forward = ForwardSubstituteMatrix(l, b);
          const Matrix backward = BackSubstituteTransposedMatrix(l, b);
          const Matrix both = chol.SolveMatrix(b);
          for (int j = 0; j < b.cols(); ++j) {
            const Matrix column = b.Block(0, j, n, 1);
            const std::string where = "n=" + std::to_string(n) +
                                      " nb=" + std::to_string(nb) +
                                      " t=" + std::to_string(threads) + " " +
                                      simd::CpuLevelName(level);
            ASSERT_TRUE(BitwiseEqual(forward.Block(0, j, n, 1),
                                     ForwardSubstituteMatrix(l, column)))
                << "forward " << where;
            ASSERT_TRUE(BitwiseEqual(backward.Block(0, j, n, 1),
                                     BackSubstituteTransposedMatrix(l, column)))
                << "backward " << where;
            ASSERT_TRUE(BitwiseEqual(both.Block(0, j, n, 1),
                                     chol.SolveMatrix(column)))
                << "solve " << where;
          }
        }
      }
    }
  }
}

// Each sweep reproduces the serial per-row oracle (the column-striped
// halves): forward and backward alone, and SolveMatrix as the two in
// sequence, bit for bit at every size, panel width, thread count, and SIMD
// level.
TEST_F(BlockingTest, BatchedSweepsMatchPerRowOracle) {
  Rng rng(29);
  for (const int n : kSolveSizes) {
    const Matrix spd = RandomSpd(n, &rng);
    Cholesky chol;
    ASSERT_TRUE(chol.Factor(spd)) << "n=" << n;
    const Matrix& l = chol.factor();
    const Matrix b = RandomMatrix(n, 5, &rng);
    Matrix want_forward = b;
    ColumnStripedForward(l, &want_forward);
    Matrix want_backward = b;
    ColumnStripedBackward(l, &want_backward);
    Matrix want_solve = want_forward;
    ColumnStripedBackward(l, &want_solve);
    for (const simd::CpuLevel level : simd::SupportedLevels()) {
      ScopedLevel forced(level);
      for (const int nb : SolvePanelWidths(n)) {
        BlockConfig config;
        config.nb = nb;
        SetBlockConfig(config);
        for (const int threads : {1, 4}) {
          SetGlobalThreadCount(threads);
          const std::string where = "n=" + std::to_string(n) +
                                    " nb=" + std::to_string(nb) +
                                    " t=" + std::to_string(threads) + " " +
                                    simd::CpuLevelName(level);
          EXPECT_TRUE(
              BitwiseEqual(ForwardSubstituteMatrix(l, b), want_forward))
              << "forward " << where;
          EXPECT_TRUE(
              BitwiseEqual(BackSubstituteTransposedMatrix(l, b), want_backward))
              << "backward " << where;
          EXPECT_TRUE(BitwiseEqual(chol.SolveMatrix(b), want_solve))
              << "solve " << where;
        }
      }
    }
  }
}

TEST_F(BlockingTest, BackSubstituteTransposedSolvesTransposedSystem) {
  Rng rng(23);
  const int n = 90;
  const Matrix spd = RandomSpd(n, &rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(spd));
  const Matrix& l = chol.factor();
  Vector b(n);
  for (int i = 0; i < n; ++i) b[i] = rng.NextGaussian();
  const Vector x = BackSubstituteTransposedMatrix(l, OneColumn(b)).Col(0);
  // Check L^T x = b directly: (L^T x)[i] = sum_{k >= i} L(k, i) x[k].
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int k = i; k < n; ++k) sum += l(k, i) * x[k];
    EXPECT_NEAR(sum, b[i], 1e-9) << "row " << i;
  }
}

TEST_F(BlockingTest, BlockedCholeskyBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(24);
  for (const int n : kSolveSizes) {
    const Matrix spd = RandomSpd(n, &rng);
    for (const int k : kSolveRhs) {
      const Matrix rhs = RandomMatrix(n, k, &rng);

      SetGlobalThreadCount(1);
      Cholesky chol1;
      ASSERT_TRUE(chol1.Factor(spd));
      const Matrix solve1 = chol1.SolveMatrix(rhs);

      SetGlobalThreadCount(4);
      Cholesky chol4;
      ASSERT_TRUE(chol4.Factor(spd));
      const Matrix solve4 = chol4.SolveMatrix(rhs);
      SetGlobalThreadCount(1);

      EXPECT_TRUE(BitwiseEqual(chol1.factor(), chol4.factor()))
          << "n=" << n << " k=" << k;
      EXPECT_TRUE(BitwiseEqual(solve1, solve4)) << "n=" << n << " k=" << k;
      EXPECT_TRUE(
          BitwiseEqual(solve1, ColumnStripedSolveMatrix(chol1.factor(), rhs)))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST_F(BlockingTest, FlopCounterTracksKernelWork) {
  Rng rng(25);
  const int m = 30;
  const int n = 20;
  const Matrix a = RandomMatrix(m, n, &rng);

  const double before_gram = FlopCount();
  const Matrix g = Gram(a);
  EXPECT_DOUBLE_EQ(FlopCount() - before_gram,
                   static_cast<double>(m) * n * (n + 1));

  const double before_multiply = FlopCount();
  const Matrix p = Multiply(a, g);
  EXPECT_DOUBLE_EQ(FlopCount() - before_multiply, 2.0 * m * n * n);

  ResetFlopCount();
  EXPECT_DOUBLE_EQ(FlopCount(), 0.0);
  Cholesky chol;
  Matrix spd = g;
  for (int i = 0; i < n; ++i) spd(i, i) += n;
  ASSERT_TRUE(chol.Factor(spd));
  EXPECT_GE(FlopCount(), static_cast<double>(n) * n * n / 3.0);
}

}  // namespace
}  // namespace srda
