// Tests for the CSR sparse matrix.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "matrix/blas.h"
#include "sparse/sparse_matrix.h"

namespace srda {
namespace {

SparseMatrix RandomSparse(int rows, int cols, double density, Rng* rng) {
  SparseMatrixBuilder builder(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng->NextDouble() < density) builder.Add(i, j, rng->NextGaussian());
    }
  }
  return std::move(builder).Build();
}

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrixBuilder builder(3, 4);
  const SparseMatrix m = std::move(builder).Build();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.NumNonZeros(), 0);
  EXPECT_EQ(m.AvgNonZerosPerRow(), 0.0);
  const Matrix y = m.MultiplyDense(Matrix(4, 1));
  EXPECT_EQ(y.rows(), 3);
  const Matrix z = m.MultiplyTransposedDense(Matrix(3, 1));
  EXPECT_EQ(z.rows(), 4);
  EXPECT_EQ(MaxAbsDiff(z, Matrix(4, 1)), 0.0);
}

TEST(SparseMatrixTest, BuildAndDensify) {
  SparseMatrixBuilder builder(2, 3);
  builder.Add(0, 1, 2.0);
  builder.Add(1, 0, -1.0);
  builder.Add(1, 2, 3.0);
  const SparseMatrix m = std::move(builder).Build();
  EXPECT_EQ(m.NumNonZeros(), 3);
  const Matrix dense = m.ToDense();
  EXPECT_EQ(dense(0, 1), 2.0);
  EXPECT_EQ(dense(1, 0), -1.0);
  EXPECT_EQ(dense(1, 2), 3.0);
  EXPECT_EQ(dense(0, 0), 0.0);
}

TEST(SparseMatrixTest, DuplicatesAreSummed) {
  SparseMatrixBuilder builder(1, 2);
  builder.Add(0, 0, 1.5);
  builder.Add(0, 0, 2.5);
  const SparseMatrix m = std::move(builder).Build();
  EXPECT_EQ(m.NumNonZeros(), 1);
  EXPECT_EQ(m.ToDense()(0, 0), 4.0);
}

TEST(SparseMatrixTest, CancellingDuplicatesDropped) {
  SparseMatrixBuilder builder(1, 2);
  builder.Add(0, 1, 1.0);
  builder.Add(0, 1, -1.0);
  const SparseMatrix m = std::move(builder).Build();
  EXPECT_EQ(m.NumNonZeros(), 0);
}

TEST(SparseMatrixTest, ExplicitZerosDropped) {
  SparseMatrixBuilder builder(2, 2);
  builder.Add(0, 0, 0.0);
  builder.Add(1, 1, 5.0);
  const SparseMatrix m = std::move(builder).Build();
  EXPECT_EQ(m.NumNonZeros(), 1);
}

TEST(SparseMatrixDeathTest, OutOfRangeTripletAborts) {
  SparseMatrixBuilder builder(2, 2);
  EXPECT_DEATH(builder.Add(2, 0, 1.0), "out of");
  EXPECT_DEATH(builder.Add(0, -1, 1.0), "out of");
}

TEST(SparseMatrixTest, RowAccess) {
  SparseMatrixBuilder builder(2, 5);
  builder.Add(1, 4, 4.0);
  builder.Add(1, 2, 2.0);
  const SparseMatrix m = std::move(builder).Build();
  EXPECT_EQ(m.RowNonZeros(0), 0);
  EXPECT_EQ(m.RowNonZeros(1), 2);
  // Indices sorted within the row.
  EXPECT_EQ(m.RowIndices(1)[0], 2);
  EXPECT_EQ(m.RowIndices(1)[1], 4);
  EXPECT_EQ(m.RowValues(1)[0], 2.0);
  EXPECT_EQ(m.RowValues(1)[1], 4.0);
}

TEST(SparseMatrixTest, SparseFromDenseRoundTrip) {
  Rng rng(3);
  Matrix dense(6, 9);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 9; ++j) {
      dense(i, j) = rng.NextDouble() < 0.3 ? rng.NextGaussian() : 0.0;
    }
  }
  const SparseMatrix sparse = SparseFromDense(dense);
  EXPECT_EQ(MaxAbsDiff(sparse.ToDense(), dense), 0.0);
}

TEST(SparseMatrixTest, SparseFromDenseTolerance) {
  Matrix dense(1, 3);
  dense(0, 0) = 1e-8;
  dense(0, 1) = 0.5;
  dense(0, 2) = -1e-8;
  const SparseMatrix sparse = SparseFromDense(dense, 1e-6);
  EXPECT_EQ(sparse.NumNonZeros(), 1);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  Rng rng(7);
  const SparseMatrix sparse = RandomSparse(20, 30, 0.15, &rng);
  const Matrix dense = sparse.ToDense();
  Matrix x(30, 1);
  for (int i = 0; i < 30; ++i) x(i, 0) = rng.NextGaussian();
  EXPECT_LT(MaxAbsDiff(sparse.MultiplyDense(x), Multiply(dense, x)), 1e-12);
}

TEST(SparseMatrixTest, MultiplyTransposedMatchesDense) {
  Rng rng(11);
  const SparseMatrix sparse = RandomSparse(25, 18, 0.2, &rng);
  const Matrix dense = sparse.ToDense();
  Matrix x(25, 1);
  for (int i = 0; i < 25; ++i) x(i, 0) = rng.NextGaussian();
  EXPECT_LT(MaxAbsDiff(sparse.MultiplyTransposedDense(x),
                       MultiplyTransposedA(dense, x)),
            1e-12);
}

TEST(SparseMatrixTest, MultiplyDenseMatchesDense) {
  Rng rng(13);
  const SparseMatrix sparse = RandomSparse(12, 9, 0.25, &rng);
  Matrix b(9, 4);
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 4; ++j) b(i, j) = rng.NextGaussian();
  }
  EXPECT_LT(
      MaxAbsDiff(sparse.MultiplyDense(b), Multiply(sparse.ToDense(), b)),
      1e-12);
}

TEST(SparseMatrixTest, MultiplyTransposedDenseMatchesColumnsBitwise) {
  // The multi-RHS transpose kernel promises column j of A^T B bitwise equal
  // to the one-column product on B's column j — that is what makes the
  // batched LSQR path reproduce the serial per-column solves exactly. Large
  // enough rows to span multiple 512-row reduction chunks.
  Rng rng(17);
  const SparseMatrix sparse = RandomSparse(1200, 40, 0.1, &rng);
  Matrix b(1200, 3);
  for (int i = 0; i < 1200; ++i) {
    for (int j = 0; j < 3; ++j) b(i, j) = rng.NextGaussian();
  }
  const Matrix product = sparse.MultiplyTransposedDense(b);
  ASSERT_EQ(product.rows(), 40);
  ASSERT_EQ(product.cols(), 3);
  for (int j = 0; j < 3; ++j) {
    const Matrix column =
        sparse.MultiplyTransposedDense(b.Block(0, j, b.rows(), 1));
    for (int i = 0; i < product.rows(); ++i) {
      ASSERT_EQ(product(i, j), column(i, 0)) << "column " << j << " row " << i;
    }
  }
}

TEST(SparseMatrixDeathTest, ProductShapeMismatchAborts) {
  SparseMatrixBuilder builder(2, 3);
  builder.Add(0, 0, 1.0);
  const SparseMatrix m = std::move(builder).Build();
  EXPECT_DEATH(m.MultiplyDense(Matrix(2, 1)), "shape mismatch");
  EXPECT_DEATH(m.MultiplyTransposedDense(Matrix(3, 1)), "shape mismatch");
}

TEST(SparseMatrixTest, AvgNonZerosPerRow) {
  SparseMatrixBuilder builder(4, 10);
  builder.Add(0, 0, 1.0);
  builder.Add(1, 1, 1.0);
  builder.Add(1, 2, 1.0);
  builder.Add(3, 9, 1.0);
  const SparseMatrix m = std::move(builder).Build();
  EXPECT_DOUBLE_EQ(m.AvgNonZerosPerRow(), 1.0);
}

// Property sweep: transpose duality <A x, y> == <x, A^T y>.
class SparseDualityTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseDualityTest, AdjointIdentityHolds) {
  Rng rng(900 + GetParam());
  const int rows = 5 + GetParam() % 17;
  const int cols = 3 + GetParam() % 23;
  const SparseMatrix a = RandomSparse(rows, cols, 0.2, &rng);
  Matrix x(cols, 1);
  Matrix y(rows, 1);
  for (int i = 0; i < cols; ++i) x(i, 0) = rng.NextGaussian();
  for (int i = 0; i < rows; ++i) y(i, 0) = rng.NextGaussian();
  const double left = Dot(a.MultiplyDense(x).Col(0), y.Col(0));
  const double right = Dot(x.Col(0), a.MultiplyTransposedDense(y).Col(0));
  EXPECT_NEAR(left, right, 1e-10 * (1.0 + std::abs(left)));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SparseDualityTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace srda
