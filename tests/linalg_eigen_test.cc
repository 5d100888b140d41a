// Tests for the symmetric eigensolver (tred2 + tql2).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/blas.h"
#include "matrix/simd/simd.h"
#include "tests/eispack_reference.h"
#include "tests/scoped_level.h"

namespace srda {
namespace {

Matrix RandomSymmetric(int n, Rng* rng) {
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      const double value = rng->NextGaussian();
      a(i, j) = value;
      a(j, i) = value;
    }
  }
  return a;
}

TEST(SymmetricEigenTest, DiagonalMatrix) {
  Matrix d(3, 3);
  d(0, 0) = 3.0;
  d(1, 1) = 1.0;
  d(2, 2) = 2.0;
  const SymmetricEigenResult result = SymmetricEigen(d);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(result.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(result.eigenvalues[2], 3.0, 1e-12);
}

TEST(SymmetricEigenTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  const Matrix a = Matrix::FromRows({{2.0, 1.0}, {1.0, 2.0}});
  const SymmetricEigenResult result = SymmetricEigen(a);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(result.eigenvalues[1], 3.0, 1e-12);
}

TEST(SymmetricEigenTest, OneByOne) {
  Matrix a(1, 1);
  a(0, 0) = -4.5;
  const SymmetricEigenResult result = SymmetricEigen(a);
  ASSERT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.eigenvalues[0], -4.5);
  EXPECT_DOUBLE_EQ(result.eigenvectors(0, 0), 1.0);
}

TEST(SymmetricEigenTest, EigenvaluesAscending) {
  Rng rng(1);
  const Matrix a = RandomSymmetric(12, &rng);
  const SymmetricEigenResult result = SymmetricEigen(a);
  ASSERT_TRUE(result.converged);
  for (int i = 1; i < 12; ++i) {
    EXPECT_LE(result.eigenvalues[i - 1], result.eigenvalues[i]);
  }
}

TEST(SymmetricEigenTest, EigenpairsSatisfyDefinition) {
  Rng rng(2);
  const Matrix a = RandomSymmetric(15, &rng);
  const SymmetricEigenResult result = SymmetricEigen(a);
  ASSERT_TRUE(result.converged);
  for (int j = 0; j < 15; ++j) {
    const Vector v = result.eigenvectors.Col(j);
    Vector av = Multiply(a, v);
    Vector lv = v;
    Scale(result.eigenvalues[j], &lv);
    EXPECT_LT(MaxAbsDiff(av, lv), 1e-9) << "eigenpair " << j;
  }
}

TEST(SymmetricEigenTest, EigenvectorsOrthonormal) {
  Rng rng(3);
  const Matrix a = RandomSymmetric(10, &rng);
  const SymmetricEigenResult result = SymmetricEigen(a);
  ASSERT_TRUE(result.converged);
  const Matrix gram = Gram(result.eigenvectors);
  EXPECT_LT(MaxAbsDiff(gram, Matrix::Identity(10)), 1e-10);
}

TEST(SymmetricEigenTest, TraceEqualsEigenvalueSum) {
  Rng rng(4);
  const Matrix a = RandomSymmetric(20, &rng);
  const SymmetricEigenResult result = SymmetricEigen(a);
  ASSERT_TRUE(result.converged);
  double trace = 0.0;
  double eigen_sum = 0.0;
  for (int i = 0; i < 20; ++i) {
    trace += a(i, i);
    eigen_sum += result.eigenvalues[i];
  }
  EXPECT_NEAR(trace, eigen_sum, 1e-9 * (1.0 + std::fabs(trace)));
}

TEST(SymmetricEigenTest, RepeatedEigenvalues) {
  // 2*I has eigenvalue 2 with multiplicity 3; vectors still orthonormal.
  Matrix a = Matrix::Identity(3);
  for (int i = 0; i < 3; ++i) a(i, i) = 2.0;
  const SymmetricEigenResult result = SymmetricEigen(a);
  ASSERT_TRUE(result.converged);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(result.eigenvalues[i], 2.0, 1e-12);
  EXPECT_LT(MaxAbsDiff(Gram(result.eigenvectors), Matrix::Identity(3)),
            1e-12);
}

TEST(SymmetricEigenTest, RankDeficientGram) {
  // Gram of a rank-1 matrix: one positive eigenvalue, the rest ~0.
  Matrix a(4, 3);
  for (int j = 0; j < 3; ++j) a(0, j) = 1.0;
  const Matrix gram = Gram(a);  // rank 1, 3x3
  const SymmetricEigenResult result = SymmetricEigen(gram);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalues[0], 0.0, 1e-10);
  EXPECT_NEAR(result.eigenvalues[1], 0.0, 1e-10);
  EXPECT_NEAR(result.eigenvalues[2], 3.0, 1e-10);
}

TEST(SymmetricEigenTest, UsesLowerTriangleOnly) {
  // Upper triangle deliberately garbage; result must match the symmetric
  // matrix built from the lower triangle.
  Matrix a = Matrix::FromRows({{2.0, 99.0}, {1.0, 2.0}});
  const SymmetricEigenResult result = SymmetricEigen(a);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(result.eigenvalues[1], 3.0, 1e-12);
}

Matrix RandomRows(int rows, int cols, Rng* rng) {
  Matrix x(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) x(i, j) = rng->NextGaussian();
  }
  return x;
}

bool SameBits(const double* a, const double* b, int count) {
  return count == 0 ||
         std::memcmp(a, b, sizeof(double) * static_cast<size_t>(count)) == 0;
}

// The row-major reduction and the row-panel QL sweep keep every element's
// multiplies and adds of the EISPACK column loops, so eigenvalues and
// eigenvectors match the verbatim reference bit for bit at every dispatch
// level and thread count. The sizes cover partial and whole 32-row panels,
// and n = 97 and 300 flush the rotation log several times.
TEST(SymmetricEigenTest, BitwiseEqualsEispackReference) {
  for (const int n : {1, 2, 3, 7, 8, 9, 17, 97, 300}) {
    Rng rng(500 + n);
    std::vector<std::pair<std::string, Matrix>> inputs;
    inputs.emplace_back("wishart", Gram(RandomRows(n + 3, n, &rng)));
    inputs.emplace_back("rank-deficient",
                        Gram(RandomRows(std::max(1, n / 3), n, &rng)));
    // Zero rows keep zero through the reduction: tred2's scale == 0 branch.
    Matrix zero_rows = inputs[0].second;
    for (const int z : {n / 2, n - 1}) {
      for (int j = 0; j < n; ++j) {
        zero_rows(z, j) = 0.0;
        zero_rows(j, z) = 0.0;
      }
    }
    inputs.emplace_back("zero-rows", std::move(zero_rows));
    // Already tridiagonal with e = 0: the QL sweep applies no rotation.
    Matrix diagonal(n, n);
    for (int i = 0; i < n; ++i) diagonal(i, i) = rng.NextGaussian();
    inputs.emplace_back("diagonal", std::move(diagonal));

    for (const auto& [name, a] : inputs) {
      const SymmetricEigenResult expected = ReferenceSymmetricEigen(a);
      for (const simd::CpuLevel level : simd::SupportedLevels()) {
        ScopedLevel forced(level);
        for (const int threads : {1, 4}) {
          SetGlobalThreadCount(threads);
          const SymmetricEigenResult actual = SymmetricEigen(a);
          SCOPED_TRACE(name + " n=" + std::to_string(n) + " level=" +
                       simd::CpuLevelName(level) +
                       " threads=" + std::to_string(threads));
          EXPECT_EQ(actual.converged, expected.converged);
          EXPECT_TRUE(SameBits(actual.eigenvalues.data(),
                               expected.eigenvalues.data(), n));
          EXPECT_TRUE(SameBits(actual.eigenvectors.data(),
                               expected.eigenvectors.data(), n * n));
        }
      }
    }
  }
  SetGlobalThreadCount(0);
}

TEST(SymmetricEigenDeathTest, NonSquareAborts) {
  EXPECT_DEATH(SymmetricEigen(Matrix(2, 3)), "square");
}

// Property sweep: reconstruction A == V diag(lambda) V^T across sizes.
class SymmetricEigenSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricEigenSizeTest, Reconstructs) {
  Rng rng(70 + GetParam());
  const int n = GetParam();
  const Matrix a = RandomSymmetric(n, &rng);
  const SymmetricEigenResult result = SymmetricEigen(a);
  ASSERT_TRUE(result.converged);
  Matrix scaled = result.eigenvectors;  // V * diag(lambda)
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) scaled(i, j) *= result.eigenvalues[j];
  }
  const Matrix reconstructed =
      MultiplyTransposedB(scaled, result.eigenvectors);
  EXPECT_LT(MaxAbsDiff(reconstructed, a), 1e-8 * (1.0 + n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenSizeTest,
                         ::testing::Values(1, 2, 3, 4, 6, 9, 16, 25, 40, 64));

}  // namespace
}  // namespace srda
