// Bitwise-identity matrix for the SIMD micro-kernel layer (DESIGN.md §4j).
//
// Every vector kernel must reproduce the generic reference chains
// lane-for-lane, so the tests compare raw bytes — never tolerances —
// between each supported dispatch level and the scalar table, at
// adversarial shapes (1, width - 1, width, width + 1, primes) chosen to
// exercise every vector-width remainder path, and between 1-thread and
// 4-thread runs of the public kernels that funnel through the table.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/srda.h"
#include "dataset/dataset.h"
#include "linalg/cholesky.h"
#include "linalg/cholesky_update.h"
#include "matrix/blas.h"
#include "matrix/matrix.h"
#include "matrix/simd/kernel_impl.h"
#include "matrix/simd/simd.h"
#include "select/model_selection.h"
#include "tests/naive_kernels.h"
#include "tests/scoped_level.h"

namespace srda {
namespace {

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.rows()) *
                         static_cast<size_t>(a.cols())) == 0;
}

bool BitwiseEqual(const Vector& x, const Vector& y) {
  if (x.size() != y.size()) return false;
  return std::memcmp(x.data(), y.data(),
                     sizeof(double) * static_cast<size_t>(x.size())) == 0;
}

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

std::vector<double> RandomBuffer(size_t count, Rng* rng) {
  std::vector<double> buffer(count);
  for (double& v : buffer) v = rng->NextGaussian();
  return buffer;
}

// The vector levels available in this binary on this CPU, scalar included.
std::vector<simd::CpuLevel> Levels() { return simd::SupportedLevels(); }

TEST(SimdDispatchTest, ScalarAlwaysSupportedAndLevelsAreConsistent) {
  EXPECT_TRUE(simd::LevelSupported(simd::CpuLevel::kScalar));
  const std::vector<simd::CpuLevel> levels = Levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::CpuLevel::kScalar);
  for (simd::CpuLevel level : levels) {
    EXPECT_TRUE(simd::LevelSupported(level)) << simd::CpuLevelName(level);
    ScopedLevel forced(level);
    EXPECT_EQ(simd::ActiveLevel(), level);
  }
}

TEST(SimdDispatchTest, RejectsUnsupportedLevel) {
#if defined(__x86_64__) || defined(_M_X64)
  const simd::CpuLevel foreign = simd::CpuLevel::kNeon;
#else
  const simd::CpuLevel foreign = simd::CpuLevel::kAvx512;
#endif
  EXPECT_FALSE(simd::LevelSupported(foreign));
  const simd::CpuLevel before = simd::ActiveLevel();
  EXPECT_FALSE(simd::SetDispatchLevel(foreign));
  EXPECT_EQ(simd::ActiveLevel(), before);
}

// --- Raw kernel-table comparisons against the generic reference ---------

TEST(SimdKernelTest, GemmTileMatchesGenericBitwise) {
  Rng rng(11);
  // Shapes around the zmm (16), ymm (8/4) and register-tile (4) widths.
  const int kRows[] = {1, 3, 4, 5, 8};
  const int kCols[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 37};
  const int kDepth[] = {1, 2, 7, 13};
  for (int mr : kRows) {
    for (int nc : kCols) {
      for (int kk : kDepth) {
        const int i0 = 2, j0 = 3;  // nonzero offsets into C
        const int k0 = 4;          // b rows [k0, k0 + kk)
        const std::vector<double> panel =
            RandomBuffer(static_cast<size_t>(mr) * kk, &rng);
        const Matrix b = RandomMatrix(k0 + kk, j0 + nc, &rng);
        const Matrix c0 = RandomMatrix(i0 + mr, j0 + nc, &rng);

        Matrix want = c0;
        simd::generic::GemmTile(panel.data(), kk, kk, b.data(), b.cols(),
                                k0, want.data(), want.cols(), i0, i0 + mr,
                                j0, j0 + nc);
        for (simd::CpuLevel level : Levels()) {
          ScopedLevel forced(level);
          Matrix got = c0;
          simd::Dispatch().gemm_tile(panel.data(), kk, kk, b.data(),
                                     b.cols(), k0, got.data(), got.cols(),
                                     i0, i0 + mr, j0, j0 + nc);
          ASSERT_TRUE(BitwiseEqual(want, got))
              << simd::CpuLevelName(level) << " m=" << mr << " n=" << nc
              << " k=" << kk;
        }
      }
    }
  }
}

TEST(SimdKernelTest, DotTileMatchesGenericBitwise) {
  Rng rng(13);
  const int kRows[] = {1, 2, 3, 4, 5};
  const int kCols[] = {1, 2, 3, 4, 5, 7, 8, 9, 17};
  const int kDepth[] = {1, 3, 4, 5, 8, 13};
  for (int mr : kRows) {
    for (int nc : kCols) {
      for (int kk : kDepth) {
        const int i0 = 1, j0 = 2, k0 = 3;
        const Matrix a = RandomMatrix(i0 + mr, k0 + kk + 2, &rng);
        const Matrix b = RandomMatrix(j0 + nc, k0 + kk + 2, &rng);
        const Matrix c0 = RandomMatrix(i0 + mr, j0 + nc, &rng);

        Matrix want = c0;
        simd::generic::DotTile(a.data(), a.cols(), b.data(), b.cols(), k0,
                               kk, want.data(), want.cols(), i0, i0 + mr,
                               j0, j0 + nc);
        for (simd::CpuLevel level : Levels()) {
          ScopedLevel forced(level);
          Matrix got = c0;
          simd::Dispatch().dot_tile(a.data(), a.cols(), b.data(), b.cols(),
                                    k0, kk, got.data(), got.cols(), i0,
                                    i0 + mr, j0, j0 + nc);
          ASSERT_TRUE(BitwiseEqual(want, got))
              << simd::CpuLevelName(level) << " m=" << mr << " n=" << nc
              << " k=" << kk;
        }
      }
    }
  }
}

TEST(SimdKernelTest, TrsmRowsMatchesGenericBitwise) {
  Rng rng(19);
  const int n = 43;  // prime
  const int kWidths[] = {1, 2, 3, 5, 8, 16};
  const int kRowCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 17};
  for (int width : kWidths) {
    for (int rows : kRowCounts) {
      const int p0 = 2;
      const int p1 = p0 + width;
      const int i = p1;  // factor rows below the panel
      if (i + rows > n) continue;
      const Matrix l0 = RandomMatrix(n, n, &rng);
      std::vector<double> inv_diag(static_cast<size_t>(width));
      for (double& v : inv_diag) v = 1.0 + rng.NextDouble();

      Matrix want = l0;
      std::vector<double> scratch(
          static_cast<size_t>(simd::kTrsmMaxLanes) * width);
      simd::generic::TrsmRows(want.data(), n, p0, p1, inv_diag.data(), i,
                              rows, scratch.data());
      for (simd::CpuLevel level : Levels()) {
        ScopedLevel forced(level);
        Matrix got = l0;
        simd::Dispatch().trsm_rows(got.data(), n, p0, p1, inv_diag.data(),
                                   i, rows, scratch.data());
        ASSERT_TRUE(BitwiseEqual(want, got))
            << simd::CpuLevelName(level) << " width=" << width
            << " rows=" << rows;
      }
    }
  }
}

TEST(SimdKernelTest, DowndateTileMatchesGenericBitwise) {
  Rng rng(23);
  constexpr int kLanes = simd::kDowndateLanes;
  const int kWidths[] = {1, 2, 3, 5, 8};
  const int kDepths[] = {1, 2, 3, 7, 8, 13};
  for (int width : kWidths) {
    for (int k : kDepths) {
      const Matrix l0 = RandomMatrix(kLanes, width, &rng);
      const std::vector<double> w0 =
          RandomBuffer(static_cast<size_t>(k) * kLanes, &rng);
      // Small coefficients keep the recurrence well-conditioned.
      std::vector<double> p(static_cast<size_t>(width) * k);
      std::vector<double> g(static_cast<size_t>(width) * k);
      for (double& v : p) v = 0.1 * rng.NextGaussian();
      for (double& v : g) v = 0.1 * rng.NextGaussian();

      Matrix want_l = l0;
      std::vector<double> want_w = w0;
      double* want_rows[kLanes];
      for (int q = 0; q < kLanes; ++q) want_rows[q] = want_l.RowPtr(q);
      simd::generic::DowndateTile(want_rows, want_w.data(), p.data(),
                                  g.data(), width, k);
      for (simd::CpuLevel level : Levels()) {
        ScopedLevel forced(level);
        Matrix got_l = l0;
        std::vector<double> got_w = w0;
        double* got_rows[kLanes];
        for (int q = 0; q < kLanes; ++q) got_rows[q] = got_l.RowPtr(q);
        simd::Dispatch().downdate_tile(got_rows, got_w.data(), p.data(),
                                       g.data(), width, k);
        ASSERT_TRUE(BitwiseEqual(want_l, got_l))
            << simd::CpuLevelName(level) << " width=" << width << " k=" << k;
        ASSERT_EQ(std::memcmp(want_w.data(), got_w.data(),
                              sizeof(double) * want_w.size()),
                  0)
            << simd::CpuLevelName(level) << " width=" << width << " k=" << k;
      }
    }
  }
}

TEST(SimdKernelTest, RotatePanelMatchesGenericBitwise) {
  Rng rng(29);
  constexpr int kLanes = simd::kRotationLanes;
  const int n = 13;
  const std::vector<double> panel0 =
      RandomBuffer(static_cast<size_t>(n) * kLanes, &rng);
  // Descending runs like a QL sweep's, plus the orders a sweep boundary
  // can produce: a rotation on the column the last one kept (i == cur),
  // an ascending step, repeats, and the panel's first and last pairs.
  std::vector<simd::PlaneRotation> rotations;
  for (const int i : {11, 10, 9, 9, 10, 4, 3, 2, 1, 0, 0, 1, 5, 11, 7}) {
    const double angle = rng.NextGaussian();
    rotations.push_back({i, std::cos(angle), std::sin(angle)});
  }
  for (int count = 0; count <= static_cast<int>(rotations.size()); ++count) {
    std::vector<double> want = panel0;
    simd::generic::RotatePanel(want.data(), rotations.data(), count);
    for (simd::CpuLevel level : Levels()) {
      ScopedLevel forced(level);
      std::vector<double> got = panel0;
      simd::Dispatch().rotate_panel(got.data(), rotations.data(), count);
      ASSERT_EQ(std::memcmp(want.data(), got.data(),
                            sizeof(double) * want.size()),
                0)
          << simd::CpuLevelName(level) << " count=" << count;
    }
  }
}

// --- Public kernels through the table, across levels and thread counts --

class SimdBlasTest : public ::testing::TestWithParam<int> {};

TEST(SimdBlasTest, DenseKernelsBitwiseIdenticalAcrossLevelsAndThreads) {
  Rng rng(29);
  // 1 and width±1 exercise the degenerate and remainder paths; 97 is prime
  // (never a multiple of any vector width); 130 spans multiple blocks.
  for (int n : {1, 7, 8, 9, 15, 16, 17, 97, 130}) {
    const Matrix a = RandomMatrix(n + 3, n, &rng);
    const Matrix b = RandomMatrix(n + 3, n, &rng);
    const Matrix bt = RandomMatrix(n, n + 3, &rng);

    struct Result {
      Matrix multiply, mta, mtb, gram, outer;
    };
    auto run = [&] {
      Result r;
      r.multiply = Multiply(a, bt);
      r.mta = MultiplyTransposedA(a, b);
      r.mtb = MultiplyTransposedB(a, b);
      r.gram = Gram(a);
      r.outer = OuterGram(a);
      return r;
    };

    SetGlobalThreadCount(1);
    ScopedLevel scalar_level(simd::CpuLevel::kScalar);
    const Result want = run();

    // Sanity: the table-driven kernels agree with the naive references.
    EXPECT_LT(MaxAbsDiff(want.multiply, naive::Multiply(a, bt)), 1e-9);
    EXPECT_LT(MaxAbsDiff(want.gram, naive::Gram(a)), 1e-9);

    for (simd::CpuLevel level : Levels()) {
      ScopedLevel forced(level);
      for (int threads : {1, 4}) {
        SetGlobalThreadCount(threads);
        const Result got = run();
        SetGlobalThreadCount(1);
        EXPECT_TRUE(BitwiseEqual(want.multiply, got.multiply))
            << simd::CpuLevelName(level) << " n=" << n << " t=" << threads;
        EXPECT_TRUE(BitwiseEqual(want.mta, got.mta))
            << simd::CpuLevelName(level) << " n=" << n << " t=" << threads;
        EXPECT_TRUE(BitwiseEqual(want.mtb, got.mtb))
            << simd::CpuLevelName(level) << " n=" << n << " t=" << threads;
        EXPECT_TRUE(BitwiseEqual(want.gram, got.gram))
            << simd::CpuLevelName(level) << " n=" << n << " t=" << threads;
        EXPECT_TRUE(BitwiseEqual(want.outer, got.outer))
            << simd::CpuLevelName(level) << " n=" << n << " t=" << threads;
      }
    }
  }
}

TEST(SimdLinalgTest, BlockedCholeskyBitwiseIdenticalAcrossLevelsAndThreads) {
  Rng rng(31);
  for (int n : {17, 97, 130}) {
    const Matrix a = RandomMatrix(n, n, &rng);
    Matrix spd = Gram(a);
    AddDiagonal(static_cast<double>(n), &spd);

    SetGlobalThreadCount(1);
    Matrix want;
    {
      ScopedLevel scalar_level(simd::CpuLevel::kScalar);
      Cholesky chol;
      ASSERT_TRUE(chol.Factor(spd));
      want = chol.factor();
    }
    for (simd::CpuLevel level : Levels()) {
      ScopedLevel forced(level);
      for (int threads : {1, 4}) {
        SetGlobalThreadCount(threads);
        Cholesky chol;
        ASSERT_TRUE(chol.Factor(spd));
        SetGlobalThreadCount(1);
        EXPECT_TRUE(BitwiseEqual(want, chol.factor()))
            << simd::CpuLevelName(level) << " n=" << n << " t=" << threads;
      }
    }
  }
}

TEST(SimdLinalgTest, RankKDowndateBitwiseIdenticalAcrossLevelsAndThreads) {
  Rng rng(37);
  for (int n : {33, 97}) {
    const Matrix a = RandomMatrix(n + 5, n, &rng);
    Matrix spd = Gram(a);
    AddDiagonal(static_cast<double>(n), &spd);
    Cholesky chol;
    SetGlobalThreadCount(1);
    ASSERT_TRUE(chol.Factor(spd));
    const Matrix l0 = chol.factor();
    Matrix v = RandomMatrix(5, n, &rng);
    for (int i = 0; i < v.rows(); ++i) {
      for (int j = 0; j < v.cols(); ++j) v(i, j) *= 0.01;
    }

    Matrix want = l0;
    {
      ScopedLevel scalar_level(simd::CpuLevel::kScalar);
      ASSERT_TRUE(CholeskyRankKDowndate(&want, v));
    }
    for (simd::CpuLevel level : Levels()) {
      ScopedLevel forced(level);
      for (int threads : {1, 4}) {
        SetGlobalThreadCount(threads);
        Matrix got = l0;
        ASSERT_TRUE(CholeskyRankKDowndate(&got, v));
        SetGlobalThreadCount(1);
        EXPECT_TRUE(BitwiseEqual(want, got))
            << simd::CpuLevelName(level) << " n=" << n << " t=" << threads;
      }
    }
  }
}

DenseDataset MakeDataset(int num_classes, int per_class, int dim,
                         uint64_t seed) {
  Rng rng(seed);
  DenseDataset dataset;
  dataset.num_classes = num_classes;
  dataset.features = Matrix(num_classes * per_class, dim);
  for (int k = 0; k < num_classes; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      for (int j = 0; j < dim; ++j) {
        dataset.features(row, j) =
            (j % num_classes == k ? 2.0 : 0.0) + rng.NextGaussian();
      }
      dataset.labels.push_back(k);
    }
  }
  return dataset;
}

TEST(SimdEndToEndTest, FitAndAlphaSearchBitwiseIdenticalAcrossLevels) {
  const DenseDataset dataset = MakeDataset(4, 24, 31, 41);
  const std::vector<double> alphas = {0.01, 1.0, 100.0};

  SetGlobalThreadCount(1);
  SrdaOptions options;
  options.alpha = 0.5;

  SrdaModel want_model;
  AlphaSearchResult want_search;
  {
    ScopedLevel scalar_level(simd::CpuLevel::kScalar);
    want_model = FitSrda(dataset.features, dataset.labels,
                         dataset.num_classes, options);
    want_search = SelectSrdaAlpha(dataset, alphas, /*num_folds=*/3,
                                  /*seed=*/7);
  }
  ASSERT_TRUE(want_model.converged);

  for (simd::CpuLevel level : Levels()) {
    ScopedLevel forced(level);
    for (int threads : {1, 4}) {
      SetGlobalThreadCount(threads);
      const SrdaModel model = FitSrda(dataset.features, dataset.labels,
                                      dataset.num_classes, options);
      const AlphaSearchResult search =
          SelectSrdaAlpha(dataset, alphas, /*num_folds=*/3, /*seed=*/7);
      SetGlobalThreadCount(1);
      ASSERT_TRUE(model.converged);
      EXPECT_TRUE(BitwiseEqual(want_model.embedding.projection(),
                               model.embedding.projection()))
          << simd::CpuLevelName(level) << " t=" << threads;
      EXPECT_TRUE(BitwiseEqual(want_model.embedding.bias(),
                               model.embedding.bias()))
          << simd::CpuLevelName(level) << " t=" << threads;
      EXPECT_EQ(want_search.best_index, search.best_index)
          << simd::CpuLevelName(level) << " t=" << threads;
      ASSERT_EQ(want_search.errors.size(), search.errors.size());
      for (size_t i = 0; i < search.errors.size(); ++i) {
        EXPECT_EQ(want_search.errors[i], search.errors[i])
            << simd::CpuLevelName(level) << " t=" << threads << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace srda
