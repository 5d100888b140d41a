// Tests for the LSQR solver and the linear-operator wrappers.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/linear_operator.h"
#include "linalg/lsqr.h"
#include "linalg/sharded_operator.h"
#include "matrix/blas.h"
#include "sparse/sparse_matrix.h"
#include "tests/dense_rows.h"

namespace srda {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

// One-column right-hand side for LsqrBatch, the single-RHS solve.
Matrix Column(const Vector& v) {
  Matrix m(v.size(), 1);
  m.SetCol(0, v);
  return m;
}

LsqrResult LsqrOneColumn(const LinearOperator& a, const Vector& b,
                         const LsqrOptions& options = {}) {
  return LsqrBatch(a, Column(b), options)[0];
}

// <A X, Y> == <X, A^T Y> column by column.
void ExpectAdjoint(const LinearOperator& op, const Matrix& x, const Matrix& y) {
  const Matrix ax = op.ApplyMulti(x);
  const Matrix aty = op.ApplyTransposedMulti(y);
  for (int j = 0; j < x.cols(); ++j) {
    EXPECT_NEAR(Dot(ax.Col(j), y.Col(j)), Dot(x.Col(j), aty.Col(j)), 1e-10)
        << "column " << j;
  }
}

// The dense operator view (a whole-matrix ShardedOperator) against the
// in-RAM kernels.
TEST(DenseOperatorTest, MatchesMatrixProducts) {
  Rng rng(1);
  const Matrix a = RandomMatrix(6, 4, &rng);
  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  EXPECT_EQ(op.rows(), 6);
  EXPECT_EQ(op.cols(), 4);
  const Matrix x = RandomMatrix(4, 3, &rng);
  EXPECT_LT(MaxAbsDiff(op.ApplyMulti(x), Multiply(a, x)), 1e-14);
  const Matrix y = RandomMatrix(6, 3, &rng);
  EXPECT_LT(MaxAbsDiff(op.ApplyTransposedMulti(y), MultiplyTransposedA(a, y)),
            1e-14);
}

TEST(SparseOperatorTest, MatchesSparseProducts) {
  SparseMatrixBuilder builder(3, 2);
  builder.Add(0, 0, 2.0);
  builder.Add(2, 1, -1.0);
  const SparseMatrix sparse = std::move(builder).Build();
  const SparseOperator op(&sparse);
  const Matrix y = op.ApplyMulti(Matrix(2, 1, 1.0));
  EXPECT_DOUBLE_EQ(y(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(y(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(2, 0), -1.0);
  const Matrix x = op.ApplyTransposedMulti(Matrix(3, 1, 1.0));
  EXPECT_DOUBLE_EQ(x(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(x(1, 0), -1.0);
}

TEST(LsqrTest, SolvesConsistentSquareSystem) {
  Rng rng(5);
  const Matrix a = RandomMatrix(6, 6, &rng);
  Vector x_true(6);
  for (int i = 0; i < 6; ++i) x_true[i] = rng.NextGaussian();
  const Vector b = Multiply(a, x_true);
  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  LsqrOptions options;
  options.max_iterations = 200;
  options.atol = 1e-12;
  options.btol = 1e-12;
  const LsqrResult result = LsqrOneColumn(op, b, options);
  EXPECT_LT(MaxAbsDiff(result.x, x_true), 1e-6);
}

TEST(LsqrTest, ZeroRhsGivesZeroSolution) {
  Rng rng(6);
  const Matrix a = RandomMatrix(4, 3, &rng);
  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  const LsqrResult result = LsqrOneColumn(op, Vector(4));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(Norm2(result.x), 0.0);
}

TEST(LsqrTest, OverdeterminedMatchesNormalEquations) {
  Rng rng(7);
  const Matrix a = RandomMatrix(20, 5, &rng);
  Vector b(20);
  for (int i = 0; i < 20; ++i) b[i] = rng.NextGaussian();
  // Reference: solve (A^T A) x = A^T b by Cholesky.
  Matrix gram = Gram(a);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(gram));
  const Vector reference =
      chol.SolveMatrix(Column(MultiplyTransposed(a, b))).Col(0);

  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  LsqrOptions options;
  options.max_iterations = 100;
  const LsqrResult result = LsqrOneColumn(op, b, options);
  EXPECT_LT(MaxAbsDiff(result.x, reference), 1e-6);
}

TEST(LsqrTest, DampedMatchesRidgeNormalEquations) {
  Rng rng(8);
  const Matrix a = RandomMatrix(15, 6, &rng);
  Vector b(15);
  for (int i = 0; i < 15; ++i) b[i] = rng.NextGaussian();
  const double alpha = 0.7;
  // Reference: (A^T A + alpha I) x = A^T b.
  Matrix gram = Gram(a);
  AddDiagonal(alpha, &gram);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(gram));
  const Vector reference =
      chol.SolveMatrix(Column(MultiplyTransposed(a, b))).Col(0);

  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  LsqrOptions options;
  options.max_iterations = 200;
  options.damp = std::sqrt(alpha);  // damp^2 == alpha
  options.atol = 1e-12;
  options.btol = 1e-12;
  const LsqrResult result = LsqrOneColumn(op, b, options);
  EXPECT_LT(MaxAbsDiff(result.x, reference), 1e-6);
}

TEST(LsqrTest, UnderdeterminedRidgeRegularized) {
  // More unknowns than equations: damping selects the unique ridge solution.
  Rng rng(9);
  const Matrix a = RandomMatrix(4, 10, &rng);
  Vector b(4);
  for (int i = 0; i < 4; ++i) b[i] = rng.NextGaussian();
  const double alpha = 0.5;
  Matrix gram = Gram(a);  // 10x10, singular without the ridge
  AddDiagonal(alpha, &gram);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(gram));
  const Vector reference =
      chol.SolveMatrix(Column(MultiplyTransposed(a, b))).Col(0);

  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  LsqrOptions options;
  options.max_iterations = 300;
  options.damp = std::sqrt(alpha);
  options.atol = 1e-13;
  options.btol = 1e-13;
  const LsqrResult result = LsqrOneColumn(op, b, options);
  EXPECT_LT(MaxAbsDiff(result.x, reference), 1e-6);
}

TEST(LsqrTest, SparseOperatorPath) {
  Rng rng(10);
  SparseMatrixBuilder builder(30, 12);
  for (int i = 0; i < 30; ++i) {
    for (int j = 0; j < 12; ++j) {
      if (rng.NextDouble() < 0.25) builder.Add(i, j, rng.NextGaussian());
    }
  }
  const SparseMatrix sparse = std::move(builder).Build();
  const Matrix dense = sparse.ToDense();
  Vector b(30);
  for (int i = 0; i < 30; ++i) b[i] = rng.NextGaussian();

  LsqrOptions options;
  options.max_iterations = 150;
  const SparseOperator sparse_op(&sparse);
  const DenseRows dense_op_rows(&dense);
  const LinearOperator& dense_op = dense_op_rows.op;
  const LsqrResult sparse_result = LsqrOneColumn(sparse_op, b, options);
  const LsqrResult dense_result = LsqrOneColumn(dense_op, b, options);
  EXPECT_LT(MaxAbsDiff(sparse_result.x, dense_result.x), 1e-9);
}

TEST(LsqrTest, IterationCapRespected) {
  Rng rng(11);
  const Matrix a = RandomMatrix(50, 40, &rng);
  Vector b(50);
  for (int i = 0; i < 50; ++i) b[i] = rng.NextGaussian();
  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  LsqrOptions options;
  options.max_iterations = 5;
  options.atol = 0.0;
  options.btol = 0.0;
  const LsqrResult result = LsqrOneColumn(op, b, options);
  EXPECT_EQ(result.iterations, 5);
  EXPECT_FALSE(result.converged);
}

TEST(LsqrTest, ResidualNormEstimateAccurate) {
  Rng rng(12);
  const Matrix a = RandomMatrix(25, 8, &rng);
  Vector b(25);
  for (int i = 0; i < 25; ++i) b[i] = rng.NextGaussian();
  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  LsqrOptions options;
  options.max_iterations = 100;
  const LsqrResult result = LsqrOneColumn(op, b, options);
  Vector residual = Multiply(a, result.x);
  Axpy(-1.0, b, &residual);
  EXPECT_NEAR(result.residual_norm, Norm2(residual),
              1e-6 * (1.0 + Norm2(residual)));
}

// Regression test: with damp > 0 the reported residual must be the norm of
// the AUGMENTED residual ||[b;0] - [A; damp*I] x||, which requires
// accumulating psi^2 across all iterations (Paige & Saunders), not just the
// final one.
TEST(LsqrTest, DampedResidualNormMatchesAugmentedSystem) {
  Rng rng(14);
  const Matrix a = RandomMatrix(25, 8, &rng);
  Vector b(25);
  for (int i = 0; i < 25; ++i) b[i] = rng.NextGaussian();
  const double damp = 0.9;

  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  LsqrOptions options;
  options.max_iterations = 100;
  options.damp = damp;
  options.atol = 1e-14;
  options.btol = 1e-14;
  const LsqrResult result = LsqrOneColumn(op, b, options);

  // Explicit augmented residual: ||b - A x||^2 + damp^2 ||x||^2.
  Vector residual = Multiply(a, result.x);
  Axpy(-1.0, b, &residual);
  const double r2 = Dot(residual, residual);
  const double x2 = Dot(result.x, result.x);
  const double explicit_norm = std::sqrt(r2 + damp * damp * x2);
  EXPECT_NEAR(result.residual_norm, explicit_norm, 1e-10 * explicit_norm);
}

TEST(CenterColumnsOperatorTest, MatchesExplicitlyCenteredMatrix) {
  Rng rng(15);
  const Matrix a = RandomMatrix(9, 5, &rng);
  const Vector mean = ColumnMeans(a);
  Matrix centered_dense = a;
  SubtractRowVector(mean, &centered_dense);

  const DenseRows base_rows(&a);
  const LinearOperator& base = base_rows.op;
  const CenterColumnsOperator op(&base, &mean);
  EXPECT_EQ(op.rows(), 9);
  EXPECT_EQ(op.cols(), 5);

  const Matrix x = RandomMatrix(5, 3, &rng);
  EXPECT_LT(MaxAbsDiff(op.ApplyMulti(x), Multiply(centered_dense, x)), 1e-13);
  const Matrix y = RandomMatrix(9, 3, &rng);
  EXPECT_LT(MaxAbsDiff(op.ApplyTransposedMulti(y),
                       MultiplyTransposedA(centered_dense, y)),
            1e-13);
}

TEST(CenterColumnsOperatorTest, AdjointIdentity) {
  Rng rng(16);
  const Matrix a = RandomMatrix(8, 6, &rng);
  const Vector mean = ColumnMeans(a);
  const DenseRows base_rows(&a);
  const LinearOperator& base = base_rows.op;
  const CenterColumnsOperator op(&base, &mean);
  const Matrix x = RandomMatrix(6, 3, &rng);
  const Matrix y = RandomMatrix(8, 3, &rng);
  ExpectAdjoint(op, x, y);
}

TEST(LsqrDeathTest, RhsSizeMismatchAborts) {
  const Matrix a(3, 2);
  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  EXPECT_DEATH(LsqrOneColumn(op, Vector(2)), "size mismatch");
}

// The paper's claim: ~15-20 iterations are enough for regression problems.
TEST(LsqrTest, TwentyIterationsNearConvergedOnWellConditioned) {
  Rng rng(13);
  const Matrix a = RandomMatrix(100, 20, &rng);
  Vector b(100);
  for (int i = 0; i < 100; ++i) b[i] = rng.NextGaussian();

  Matrix gram = Gram(a);
  AddDiagonal(1.0, &gram);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(gram));
  const Vector reference =
      chol.SolveMatrix(Column(MultiplyTransposed(a, b))).Col(0);

  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  LsqrOptions options;
  options.max_iterations = 20;
  options.damp = 1.0;
  const LsqrResult result = LsqrOneColumn(op, b, options);
  EXPECT_LT(MaxAbsDiff(result.x, reference), 1e-4);
}

// --- The operator contract: column independence. ---

// One row of the table: an operator and the explicit dense matrix it
// represents.
struct OperatorCase {
  std::string name;
  const LinearOperator* op;
  const Matrix* expected;
};

// Inputs with an all-zero column and scattered exact zeros, so the sparse
// kernels' zero skips fire in some columns and not in others.
Matrix ContractInput(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix x = RandomMatrix(rows, cols, &rng);
  for (int i = 0; i < rows; ++i) {
    x(i, 1) = 0.0;
    if (i % 3 == 0) x(i, cols - 1) = 0.0;
  }
  return x;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " at (" << i << ", " << j << ")";
    }
  }
}

// Column j of a k-column product must be bitwise the product on column j
// alone — the property LsqrBatch relies on when converged columns leave the
// packed pass — at 1 and 4 threads, with the same bits at both. The values
// and the adjoint identity are checked against the explicit matrix.
TEST(OperatorContractTest, ColumnsIndependentOfTheirNeighbours) {
  Rng rng(21);
  // Dense sizes span several GEMM tiles; the sparse matrix crosses the
  // 512-row transpose chunk grid.
  const Matrix dense = RandomMatrix(150, 70, &rng);
  SparseMatrixBuilder builder(700, 40);
  for (int i = 0; i < 700; ++i) {
    if (i % 13 == 5) continue;  // empty row
    for (int j = 0; j < 40; ++j) {
      if (rng.NextDouble() < 0.2) builder.Add(i, j, rng.NextGaussian());
    }
  }
  const SparseMatrix sparse = std::move(builder).Build();
  const Matrix sparse_dense = sparse.ToDense();

  const Vector sparse_mean = ColumnMeans(sparse_dense);
  Matrix centered = sparse_dense;
  SubtractRowVector(sparse_mean, &centered);

  // The dense case is sharded(dense, 150) below: one whole-matrix shard.
  const SparseOperator sparse_op(&sparse);
  const CenterColumnsOperator center_op(&sparse_op, &sparse_mean);
  std::vector<OperatorCase> cases = {
      {"sparse", &sparse_op, &sparse_dense},
      {"center_columns(sparse)", &center_op, &centered},
  };
  std::vector<std::unique_ptr<RowShardSource>> sources;
  std::vector<std::unique_ptr<ShardedOperator>> sharded;
  for (int shard_rows : {1, 37, 149, 150}) {
    sources.push_back(
        std::make_unique<DenseMatrixShardSource>(&dense, shard_rows));
    sharded.push_back(std::make_unique<ShardedOperator>(sources.back().get()));
    cases.push_back({"sharded(dense, " + std::to_string(shard_rows) + ")",
                     sharded.back().get(), &dense});
  }
  for (int shard_rows : {1, 300, 699, 700}) {
    sources.push_back(
        std::make_unique<SparseMatrixShardSource>(&sparse, shard_rows));
    sharded.push_back(std::make_unique<ShardedOperator>(sources.back().get()));
    cases.push_back({"sharded(sparse, " + std::to_string(shard_rows) + ")",
                     sharded.back().get(), &sparse_dense});
  }

  const int k = 5;
  const int saved = GlobalThreadCount();
  for (const OperatorCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Matrix x = ContractInput(c.op->cols(), k, 31);
    const Matrix y = ContractInput(c.op->rows(), k, 32);
    Matrix products[2][2];
    const int thread_counts[2] = {1, 4};
    for (int t = 0; t < 2; ++t) {
      SetGlobalThreadCount(thread_counts[t]);
      const Matrix ax = c.op->ApplyMulti(x);
      const Matrix aty = c.op->ApplyTransposedMulti(y);
      for (int j = 0; j < k; ++j) {
        const std::string column = " column " + std::to_string(j) + " at " +
                                   std::to_string(thread_counts[t]) +
                                   " threads";
        ExpectBitwiseEqual(ax.Block(0, j, ax.rows(), 1),
                           c.op->ApplyMulti(x.Block(0, j, x.rows(), 1)),
                           "A*X" + column);
        ExpectBitwiseEqual(aty.Block(0, j, aty.rows(), 1),
                           c.op->ApplyTransposedMulti(
                               y.Block(0, j, y.rows(), 1)),
                           "A^T*Y" + column);
      }
      products[t][0] = ax;
      products[t][1] = aty;
    }
    SetGlobalThreadCount(saved);
    ExpectBitwiseEqual(products[0][0], products[1][0], "A*X, 1 vs 4 threads");
    ExpectBitwiseEqual(products[0][1], products[1][1],
                       "A^T*Y, 1 vs 4 threads");
    EXPECT_LT(MaxAbsDiff(products[0][0], Multiply(*c.expected, x)), 1e-12);
    EXPECT_LT(MaxAbsDiff(products[0][1], MultiplyTransposedA(*c.expected, y)),
              1e-12);
    ExpectAdjoint(*c.op, x, y);
  }
}

}  // namespace
}  // namespace srda
