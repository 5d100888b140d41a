// Tests for the Golub-Reinsch SVD test oracle (tests/golub_reinsch_svd.h)
// and its accuracy advantage over the production cross-product ThinSvd.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/svd.h"
#include "matrix/blas.h"
#include "tests/golub_reinsch_svd.h"

namespace srda {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

Matrix Reconstruct(const SvdResult& svd) {
  Matrix us = svd.u;
  for (int k = 0; k < svd.rank; ++k) {
    for (int i = 0; i < us.rows(); ++i) us(i, k) *= svd.singular_values[k];
  }
  return MultiplyTransposedB(us, svd.v);
}

TEST(GolubReinschSvdTest, TallMatrixReconstructs) {
  Rng rng(1);
  const Matrix a = RandomMatrix(12, 5, &rng);
  const SvdResult svd = ThinSvdGolubReinsch(a);
  ASSERT_TRUE(svd.converged);
  EXPECT_EQ(svd.rank, 5);
  EXPECT_LT(MaxAbsDiff(Reconstruct(svd), a), 1e-12);
}

TEST(GolubReinschSvdTest, WideMatrixReconstructs) {
  Rng rng(2);
  const Matrix a = RandomMatrix(4, 11, &rng);
  const SvdResult svd = ThinSvdGolubReinsch(a);
  ASSERT_TRUE(svd.converged);
  EXPECT_EQ(svd.rank, 4);
  EXPECT_LT(MaxAbsDiff(Reconstruct(svd), a), 1e-12);
}

TEST(GolubReinschSvdTest, FactorsOrthonormal) {
  Rng rng(3);
  const Matrix a = RandomMatrix(15, 7, &rng);
  const SvdResult svd = ThinSvdGolubReinsch(a);
  ASSERT_TRUE(svd.converged);
  EXPECT_LT(MaxAbsDiff(Gram(svd.u), Matrix::Identity(svd.rank)), 1e-12);
  EXPECT_LT(MaxAbsDiff(Gram(svd.v), Matrix::Identity(svd.rank)), 1e-12);
}

TEST(GolubReinschSvdTest, AgreesWithCrossProductOnWellConditioned) {
  Rng rng(4);
  const Matrix a = RandomMatrix(20, 8, &rng);
  const SvdResult accurate = ThinSvdGolubReinsch(a);
  const SvdResult fast = ThinSvd(a);
  ASSERT_EQ(accurate.rank, fast.rank);
  for (int k = 0; k < accurate.rank; ++k) {
    EXPECT_NEAR(accurate.singular_values[k], fast.singular_values[k],
                1e-7 * accurate.singular_values[0])
        << "singular value " << k;
  }
}

TEST(GolubReinschSvdTest, ResolvesTinySingularValues) {
  // A matrix with singular values {1, 1e-7}: the cross-product method can't
  // distinguish 1e-7 from noise (its floor is ~sqrt(eps)); Golub-Reinsch
  // recovers it to ~eps relative accuracy.
  Matrix a(4, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1e-7;
  const SvdResult svd = ThinSvdGolubReinsch(a, 1e-12);
  ASSERT_TRUE(svd.converged);
  ASSERT_EQ(svd.rank, 2);
  EXPECT_NEAR(svd.singular_values[0], 1.0, 1e-14);
  EXPECT_NEAR(svd.singular_values[1], 1e-7, 1e-14);
}

TEST(GolubReinschSvdTest, ExactRankDetectionAtTightTolerance) {
  // Rank-2 matrix: Golub-Reinsch detects rank 2 even at tolerance 1e-12,
  // where the cross-product method over-reports (documented limitation).
  Rng rng(5);
  const Matrix left = RandomMatrix(9, 2, &rng);
  const Matrix right = RandomMatrix(2, 6, &rng);
  const Matrix a = Multiply(left, right);
  const SvdResult svd = ThinSvdGolubReinsch(a, 1e-12);
  ASSERT_TRUE(svd.converged);
  EXPECT_EQ(svd.rank, 2);
}

TEST(GolubReinschSvdTest, ZeroColumnHandled) {
  Matrix a(5, 3);
  a(0, 0) = 2.0;
  a(1, 2) = 3.0;  // Middle column all zero.
  const SvdResult svd = ThinSvdGolubReinsch(a, 1e-12);
  ASSERT_TRUE(svd.converged);
  EXPECT_EQ(svd.rank, 2);
  EXPECT_LT(MaxAbsDiff(Reconstruct(svd), a), 1e-13);
}

TEST(GolubReinschSvdTest, SingularValuesNonNegativeDescending) {
  Rng rng(6);
  const Matrix a = RandomMatrix(10, 10, &rng);
  const SvdResult svd = ThinSvdGolubReinsch(a);
  for (int k = 0; k < svd.rank; ++k) {
    EXPECT_GT(svd.singular_values[k], 0.0);
    if (k > 0) {
      EXPECT_LE(svd.singular_values[k], svd.singular_values[k - 1]);
    }
  }
}

TEST(GolubReinschSvdDeathTest, EmptyMatrixAborts) {
  EXPECT_DEATH(ThinSvdGolubReinsch(Matrix(0, 2)), "empty");
}

// Property sweep over shapes, mirroring the cross-product suite but with
// tighter tolerances (backward stability).
struct GrShape {
  int rows;
  int cols;
};

class GolubReinschShapeTest : public ::testing::TestWithParam<GrShape> {};

TEST_P(GolubReinschShapeTest, ReconstructsAndOrthogonal) {
  Rng rng(400 + GetParam().rows * 31 + GetParam().cols);
  const Matrix a = RandomMatrix(GetParam().rows, GetParam().cols, &rng);
  const SvdResult svd = ThinSvdGolubReinsch(a);
  ASSERT_TRUE(svd.converged);
  EXPECT_LT(MaxAbsDiff(Reconstruct(svd), a), 1e-11);
  EXPECT_LT(MaxAbsDiff(Gram(svd.u), Matrix::Identity(svd.rank)), 1e-11);
  EXPECT_LT(MaxAbsDiff(Gram(svd.v), Matrix::Identity(svd.rank)), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GolubReinschShapeTest,
    ::testing::Values(GrShape{1, 1}, GrShape{1, 8}, GrShape{8, 1},
                      GrShape{5, 5}, GrShape{20, 3}, GrShape{3, 20},
                      GrShape{16, 16}, GrShape{40, 17}, GrShape{17, 40},
                      GrShape{64, 64}));

}  // namespace
}  // namespace srda
