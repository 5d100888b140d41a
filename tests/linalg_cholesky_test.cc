// Tests for Cholesky factorization and triangular solves.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "matrix/blas.h"

namespace srda {
namespace {

// Random symmetric positive-definite matrix: A^T A + I.
Matrix RandomSpd(int n, Rng* rng) {
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng->NextGaussian();
  }
  Matrix spd = Gram(a);
  AddDiagonal(1.0, &spd);
  return spd;
}

// A vector as an n x 1 matrix: a single right-hand side is a one-column
// batched solve.
Matrix OneColumn(const Vector& v) {
  Matrix m(v.size(), 1);
  m.SetCol(0, v);
  return m;
}

TEST(CholeskyTest, FactorReconstructs) {
  Rng rng(1);
  const Matrix a = RandomSpd(8, &rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(a));
  const Matrix& l = chol.factor();
  const Matrix reconstructed = MultiplyTransposedB(l, l);
  EXPECT_LT(MaxAbsDiff(reconstructed, a), 1e-10);
}

TEST(CholeskyTest, FactorIsLowerTriangular) {
  Rng rng(2);
  const Matrix a = RandomSpd(6, &rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(a));
  const Matrix& l = chol.factor();
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) EXPECT_EQ(l(i, j), 0.0);
    EXPECT_GT(l(i, i), 0.0);
  }
}

TEST(CholeskyTest, SolveRecoversKnownSolution) {
  Rng rng(3);
  const Matrix a = RandomSpd(10, &rng);
  Vector x_true(10);
  for (int i = 0; i < 10; ++i) x_true[i] = rng.NextGaussian();
  const Vector b = Multiply(a, x_true);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(a));
  const Vector x = chol.SolveMatrix(OneColumn(b)).Col(0);
  EXPECT_LT(MaxAbsDiff(x, x_true), 1e-8);
}

TEST(CholeskyTest, SolveMatrixSolvesEachColumn) {
  Rng rng(4);
  const Matrix a = RandomSpd(5, &rng);
  Matrix b(5, 3);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 3; ++j) b(i, j) = rng.NextGaussian();
  }
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(a));
  const Matrix x = chol.SolveMatrix(b);
  EXPECT_LT(MaxAbsDiff(Multiply(a, x), b), 1e-9);
}

TEST(CholeskyTest, IndefiniteMatrixRejected) {
  Matrix indefinite = Matrix::FromRows({{1.0, 2.0}, {2.0, 1.0}});
  Cholesky chol;
  EXPECT_FALSE(chol.Factor(indefinite));
  EXPECT_FALSE(chol.ok());
}

TEST(CholeskyTest, ZeroMatrixRejected) {
  Cholesky chol;
  EXPECT_FALSE(chol.Factor(Matrix(3, 3)));
}

TEST(CholeskyDeathTest, SolveWithoutFactorAborts) {
  Cholesky chol;
  EXPECT_DEATH(chol.SolveMatrix(Matrix(2, 1)), "Factor");
}

TEST(CholeskyDeathTest, NonSquareAborts) {
  Cholesky chol;
  EXPECT_DEATH(chol.Factor(Matrix(2, 3)), "square");
}

TEST(TriangularSolveTest, ForwardSubstitution) {
  const Matrix l = Matrix::FromRows({{2.0, 0.0}, {1.0, 3.0}});
  const Matrix x = ForwardSubstituteMatrix(l, OneColumn(Vector{4.0, 11.0}));
  EXPECT_DOUBLE_EQ(x(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(x(1, 0), 3.0);
}

TEST(TriangularSolveTest, BackSubstitution) {
  // R x = b for upper-triangular R = L^T is the backward sweep on L.
  const Matrix r = Matrix::FromRows({{2.0, 1.0}, {0.0, 4.0}});
  const Matrix x =
      BackSubstituteTransposedMatrix(r.Transposed(), OneColumn({5.0, 8.0}));
  EXPECT_DOUBLE_EQ(x(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(x(0, 0), 1.5);
}

TEST(TriangularSolveTest, BackSubstituteTransposed) {
  Rng rng(5);
  const Matrix a = RandomSpd(6, &rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(a));
  Vector b(6);
  for (int i = 0; i < 6; ++i) b[i] = rng.NextGaussian();
  const Vector x =
      BackSubstituteTransposedMatrix(chol.factor(), OneColumn(b)).Col(0);
  // L^T x should equal b.
  const Vector check = Multiply(chol.factor().Transposed(), x);
  EXPECT_LT(MaxAbsDiff(check, b), 1e-10);
}

TEST(TriangularSolveDeathTest, SingularDiagonalAborts) {
  const Matrix l = Matrix::FromRows({{0.0, 0.0}, {1.0, 1.0}});
  EXPECT_DEATH(ForwardSubstituteMatrix(l, OneColumn({1.0, 1.0})), "singular");
}

// Property sweep: solve residual stays tiny across sizes.
class CholeskySizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskySizeTest, ResidualSmall) {
  Rng rng(40 + GetParam());
  const int n = GetParam();
  const Matrix a = RandomSpd(n, &rng);
  Vector b(n);
  for (int i = 0; i < n; ++i) b[i] = rng.NextGaussian();
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(a));
  const Vector x = chol.SolveMatrix(OneColumn(b)).Col(0);
  Vector residual = Multiply(a, x);
  Axpy(-1.0, b, &residual);
  EXPECT_LT(Norm2(residual), 1e-8 * (1.0 + Norm2(b)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace srda
