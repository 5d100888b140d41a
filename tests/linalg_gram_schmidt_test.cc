// Tests for modified Gram-Schmidt orthonormalization.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/gram_schmidt.h"
#include "matrix/blas.h"

namespace srda {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

TEST(GramSchmidtTest, FullRankKeepsAllColumns) {
  Rng rng(1);
  Matrix basis = RandomMatrix(10, 4, &rng);
  const int kept = ModifiedGramSchmidt(&basis);
  EXPECT_EQ(kept, 4);
  EXPECT_LT(MaxAbsDiff(Gram(basis), Matrix::Identity(4)), 1e-12);
}

TEST(GramSchmidtTest, SpanIsPreserved) {
  Rng rng(2);
  const Matrix original = RandomMatrix(8, 3, &rng);
  Matrix basis = original;
  ASSERT_EQ(ModifiedGramSchmidt(&basis), 3);
  // Each original column must be reproducible from the orthonormal basis:
  // residual of projecting onto the basis is zero.
  for (int j = 0; j < 3; ++j) {
    Vector col = original.Col(j);
    Vector residual = col;
    for (int k = 0; k < 3; ++k) {
      const Vector q = basis.Col(k);
      Axpy(-Dot(q, col), q, &residual);
    }
    EXPECT_LT(Norm2(residual), 1e-10 * Norm2(col));
  }
}

TEST(GramSchmidtTest, DuplicateColumnDropped) {
  Rng rng(3);
  Matrix basis = RandomMatrix(6, 3, &rng);
  for (int i = 0; i < 6; ++i) basis(i, 2) = basis(i, 0);
  EXPECT_EQ(ModifiedGramSchmidt(&basis), 2);
  EXPECT_EQ(basis.cols(), 2);
  EXPECT_LT(MaxAbsDiff(Gram(basis), Matrix::Identity(2)), 1e-12);
}

TEST(GramSchmidtTest, LinearCombinationDropped) {
  Matrix basis(4, 3);
  // col2 = col0 + col1.
  basis(0, 0) = 1.0;
  basis(1, 1) = 1.0;
  basis(0, 2) = 1.0;
  basis(1, 2) = 1.0;
  EXPECT_EQ(ModifiedGramSchmidt(&basis), 2);
}

TEST(GramSchmidtTest, ZeroColumnDropped) {
  Matrix basis(5, 2);
  basis(0, 1) = 2.0;  // Column 0 is zero.
  EXPECT_EQ(ModifiedGramSchmidt(&basis), 1);
  EXPECT_NEAR(std::abs(basis(0, 0)), 1.0, 1e-15);
}

TEST(GramSchmidtTest, FirstColumnOnlyNormalized) {
  // SRDA relies on the first vector (all-ones) surviving unchanged in
  // direction.
  Matrix basis(4, 1, 1.0);
  EXPECT_EQ(ModifiedGramSchmidt(&basis), 1);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(basis(i, 0), 0.5, 1e-15);
}

TEST(GramSchmidtTest, NearlyDependentColumnsBenefitFromReorthogonalization) {
  // Columns nearly parallel: classical one-pass GS loses orthogonality;
  // the two-pass version must stay orthogonal to ~1e-12.
  Matrix basis(3, 2);
  basis(0, 0) = 1.0;
  basis(1, 0) = 1e-8;
  basis(0, 1) = 1.0;
  basis(1, 1) = -1e-8;
  ASSERT_EQ(ModifiedGramSchmidt(&basis, 1e-14), 2);
  EXPECT_LT(MaxAbsDiff(Gram(basis), Matrix::Identity(2)), 1e-12);
}

// The column-walk MGS the transposed implementation replaced, kept as the
// bitwise oracle: the same per-element operations, reading the row-major
// basis with a stride of `cols` doubles.
Matrix ColumnWalkGramSchmidt(Matrix b, double tolerance) {
  const int rows = b.rows();
  const auto column_dot = [&](int x, int y) {
    double sum = 0.0;
    for (int i = 0; i < rows; ++i) sum += b(i, x) * b(i, y);
    return sum;
  };
  std::vector<int> kept;
  for (int j = 0; j < b.cols(); ++j) {
    const double original_norm = std::sqrt(column_dot(j, j));
    for (int pass = 0; pass < 2; ++pass) {
      for (int kept_col : kept) {
        const double proj = column_dot(kept_col, j);
        for (int i = 0; i < rows; ++i) b(i, j) -= proj * b(i, kept_col);
      }
    }
    const double residual_norm = std::sqrt(column_dot(j, j));
    if (original_norm == 0.0 || residual_norm <= tolerance * original_norm) {
      continue;
    }
    const double inv = 1.0 / residual_norm;
    for (int i = 0; i < rows; ++i) b(i, j) *= inv;
    kept.push_back(j);
  }
  Matrix compacted(rows, static_cast<int>(kept.size()));
  for (size_t out = 0; out < kept.size(); ++out) {
    for (int i = 0; i < rows; ++i) {
      compacted(i, static_cast<int>(out)) = b(i, kept[out]);
    }
  }
  return compacted;
}

TEST(GramSchmidtTest, BitwiseEqualToColumnWalk) {
  Rng rng(4);
  // SRDA's response shape in miniature: an all-ones column, class
  // indicators, and one dependent column that must be dropped.
  const int rows = 97;
  const int cols = 12;
  Matrix basis = RandomMatrix(rows, cols, &rng);
  for (int i = 0; i < rows; ++i) {
    basis(i, 0) = 1.0;
    basis(i, 5) = basis(i, 1) - 2.0 * basis(i, 3);
  }
  const Matrix want = ColumnWalkGramSchmidt(basis, 1e-10);
  ASSERT_EQ(ModifiedGramSchmidt(&basis), cols - 1);
  ASSERT_EQ(want.cols(), basis.cols());
  EXPECT_EQ(std::memcmp(want.data(), basis.data(),
                        sizeof(double) * rows * basis.cols()),
            0);
}

// Property sweep: orthonormality across shapes and ranks.
class GramSchmidtShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(GramSchmidtShapeTest, OutputOrthonormal) {
  Rng rng(500 + GetParam());
  const int rows = 5 + GetParam() * 3;
  const int cols = 2 + GetParam();
  Matrix basis = RandomMatrix(rows, cols, &rng);
  const int kept = ModifiedGramSchmidt(&basis);
  EXPECT_EQ(kept, cols);  // Random matrices are full rank a.s.
  EXPECT_LT(MaxAbsDiff(Gram(basis), Matrix::Identity(kept)), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GramSchmidtShapeTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace srda
