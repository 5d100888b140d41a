// Tests for SRDA, including the paper's Theorem 2 / Corollary 3 equivalence
// with LDA as alpha decreases to zero.

#include <cmath>

#include <gtest/gtest.h>

#include "classify/classifiers.h"
#include "common/rng.h"
#include "core/lda.h"
#include "core/responses.h"
#include "core/srda.h"
#include "linalg/gram_schmidt.h"
#include "matrix/blas.h"
#include "sparse/sparse_matrix.h"

namespace srda {
namespace {

void MakeBlobs(int num_classes, int per_class, int dim, double separation,
               Rng* rng, Matrix* x, std::vector<int>* labels) {
  *x = Matrix(num_classes * per_class, dim);
  labels->clear();
  Matrix centers(num_classes, dim);
  for (int k = 0; k < num_classes; ++k) {
    for (int j = 0; j < dim; ++j) {
      centers(k, j) = rng->NextGaussian() * separation;
    }
  }
  for (int k = 0; k < num_classes; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      for (int j = 0; j < dim; ++j) {
        (*x)(row, j) = centers(k, j) + rng->NextGaussian();
      }
      labels->push_back(k);
    }
  }
}

// Largest principal angle proxy: residual of projecting each column of `b`
// onto the column span of `a` (both orthonormalized first).
double SubspaceResidual(Matrix a, Matrix b) {
  ModifiedGramSchmidt(&a);
  ModifiedGramSchmidt(&b);
  double worst = 0.0;
  for (int j = 0; j < b.cols(); ++j) {
    Vector column = b.Col(j);
    Vector residual = column;
    for (int k = 0; k < a.cols(); ++k) {
      const Vector basis = a.Col(k);
      Axpy(-Dot(basis, column), basis, &residual);
    }
    worst = std::max(worst, Norm2(residual));
  }
  return worst;
}

TEST(SrdaTest, ProducesCMinusOneDirections) {
  Rng rng(1);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(4, 15, 10, 4.0, &rng, &x, &labels);
  const SrdaModel model = FitSrda(x, labels, 4);
  ASSERT_TRUE(model.converged);
  EXPECT_EQ(model.num_responses, 3);
  EXPECT_EQ(model.embedding.output_dim(), 3);
}

TEST(SrdaTest, SeparatesBlobsNormalEquations) {
  Rng rng(2);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(3, 30, 8, 5.0, &rng, &x, &labels);
  const SrdaModel model = FitSrda(x, labels, 3);
  ASSERT_TRUE(model.converged);
  const Matrix embedded = model.embedding.Transform(x);
  CentroidClassifier classifier;
  classifier.Fit(embedded, labels, 3);
  EXPECT_LT(ErrorRate(classifier.Predict(embedded), labels), 0.05);
}

TEST(SrdaTest, SeparatesBlobsLsqr) {
  Rng rng(3);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(3, 30, 8, 5.0, &rng, &x, &labels);
  SrdaOptions options;
  options.solver = SrdaSolver::kLsqr;
  const SrdaModel model = FitSrda(x, labels, 3, options);
  ASSERT_TRUE(model.converged);
  EXPECT_GT(model.total_lsqr_iterations, 0);
  const Matrix embedded = model.embedding.Transform(x);
  CentroidClassifier classifier;
  classifier.Fit(embedded, labels, 3);
  EXPECT_LT(ErrorRate(classifier.Predict(embedded), labels), 0.05);
}

TEST(SrdaTest, NormalEquationsAndLsqrAgree) {
  Rng rng(4);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(3, 20, 12, 4.0, &rng, &x, &labels);
  SrdaOptions normal_options;
  normal_options.alpha = 0.01;
  SrdaOptions lsqr_options = normal_options;
  lsqr_options.solver = SrdaSolver::kLsqr;
  lsqr_options.lsqr_iterations = 300;
  lsqr_options.lsqr_atol = 1e-13;
  lsqr_options.lsqr_btol = 1e-13;
  const SrdaModel a = FitSrda(x, labels, 3, normal_options);
  const SrdaModel b = FitSrda(x, labels, 3, lsqr_options);
  // Both solvers exclude the bias from the ridge penalty (implicitly
  // centered data, b = -mean^T a), so they target the same optimum and
  // agree to solver tolerance.
  const Matrix embedded_a = a.embedding.Transform(x);
  const Matrix embedded_b = b.embedding.Transform(x);
  EXPECT_LT(MaxAbsDiff(embedded_a, embedded_b), 1e-6);
}

TEST(SrdaTest, NormalEquationsAndLsqrAgreeAtModerateAlpha) {
  // Regression test for the bias fix: the old LSQR formulation appended a
  // ones column and damped the bias coefficient along with the projection,
  // pulling the bias toward zero for any alpha > 0. With the bias excluded
  // from damping, projection AND bias must match the normal-equations
  // solution tightly.
  Rng rng(11);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(4, 25, 10, 4.0, &rng, &x, &labels);
  // Shift the data away from the origin so a damped bias would be visibly
  // wrong (the optimal bias is far from zero).
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) x(i, j) += 7.0;
  }
  SrdaOptions normal_options;
  normal_options.alpha = 1.0;  // Moderate ridge: the paper's default.
  SrdaOptions lsqr_options = normal_options;
  lsqr_options.solver = SrdaSolver::kLsqr;
  lsqr_options.lsqr_iterations = 400;
  lsqr_options.lsqr_atol = 1e-14;
  lsqr_options.lsqr_btol = 1e-14;
  const SrdaModel a = FitSrda(x, labels, 4, normal_options);
  const SrdaModel b = FitSrda(x, labels, 4, lsqr_options);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_LT(MaxAbsDiff(a.embedding.projection(), b.embedding.projection()),
            1e-8);
  EXPECT_LT(MaxAbsDiff(a.embedding.bias(), b.embedding.bias()), 1e-8);
}

TEST(SrdaTest, DualPathSolvesSameNormalEquations) {
  // n > m triggers the dual (m x m) system; the result must still satisfy
  // the primal ridge normal equations (Xc^T Xc + alpha I) A = Xc^T Y.
  Rng rng(5);
  const int m = 12;
  const int n = 30;  // n > m -> dual path
  Matrix x(m, n);
  std::vector<int> labels;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) x(i, j) = rng.NextGaussian();
    labels.push_back(i % 3);
  }
  SrdaOptions options;
  options.alpha = 0.5;
  const SrdaModel model = FitSrda(x, labels, 3, options);
  ASSERT_TRUE(model.converged);

  Matrix centered = x;
  SubtractRowVector(ColumnMeans(x), &centered);
  const Matrix& a = model.embedding.projection();
  Matrix lhs = MultiplyTransposedA(centered, Multiply(centered, a));
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i < n; ++i) lhs(i, j) += options.alpha * a(i, j);
  }
  const Matrix responses = GenerateSrdaResponses(labels, 3);
  const Matrix rhs = MultiplyTransposedA(centered, responses);
  EXPECT_LT(MaxAbsDiff(lhs, rhs), 1e-9);
}

TEST(SrdaTest, SparseAndDenseLsqrAgree) {
  Rng rng(6);
  const int m = 40;
  const int n = 25;
  SparseMatrixBuilder builder(m, n);
  std::vector<int> labels;
  for (int i = 0; i < m; ++i) {
    const int k = i % 4;
    labels.push_back(k);
    // Class-dependent sparse pattern.
    for (int j = 0; j < n; ++j) {
      if (rng.NextDouble() < 0.2) {
        builder.Add(i, j, rng.NextGaussian() + (j % 4 == k ? 2.0 : 0.0));
      }
    }
  }
  const SparseMatrix sparse = std::move(builder).Build();
  const Matrix dense = sparse.ToDense();

  SrdaOptions options;
  options.solver = SrdaSolver::kLsqr;
  options.lsqr_iterations = 100;
  const SrdaModel sparse_model = FitSrda(sparse, labels, 4, options);
  const SrdaModel dense_model = FitSrda(dense, labels, 4, options);
  ASSERT_TRUE(sparse_model.converged);
  EXPECT_LT(MaxAbsDiff(sparse_model.embedding.projection(),
                       dense_model.embedding.projection()),
            1e-9);
  EXPECT_LT(MaxAbsDiff(sparse_model.embedding.bias(),
                       dense_model.embedding.bias()),
            1e-9);
}

TEST(SrdaTest, Theorem2EquivalenceWithLdaAsAlphaVanishes) {
  // Corollary 3: with linearly independent samples (n > m), the SRDA
  // projective functions span the LDA solution space as alpha -> 0.
  Rng rng(7);
  const int per_class = 5;
  const int c = 3;
  const int n = 80;  // n >> m = 15 -> samples linearly independent a.s.
  Matrix x(c * per_class, n);
  std::vector<int> labels;
  for (int k = 0; k < c; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      for (int j = 0; j < n; ++j) {
        x(row, j) = 1.5 * k + rng.NextGaussian();
      }
      labels.push_back(k);
    }
  }
  const LdaModel lda = FitLda(x, labels, c);
  ASSERT_TRUE(lda.converged);
  SrdaOptions options;
  options.alpha = 1e-9;
  const SrdaModel srda_model = FitSrda(x, labels, c, options);
  ASSERT_TRUE(srda_model.converged);
  EXPECT_LT(SubspaceResidual(lda.embedding.projection(),
                             srda_model.embedding.projection()),
            1e-3);
  EXPECT_LT(SubspaceResidual(srda_model.embedding.projection(),
                             lda.embedding.projection()),
            1e-3);
}

TEST(SrdaTest, TrainingClassesCollapseWhenSamplesIndependent) {
  // Corollary 3 consequence: same-class training points map to the same
  // embedded point as alpha -> 0 when samples are linearly independent.
  Rng rng(8);
  const int n = 60;
  Matrix x(9, n);
  std::vector<int> labels;
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < n; ++j) x(i, j) = rng.NextGaussian();
    labels.push_back(i / 3);
  }
  SrdaOptions options;
  options.alpha = 1e-10;
  const SrdaModel model = FitSrda(x, labels, 3, options);
  ASSERT_TRUE(model.converged);
  const Matrix embedded = model.embedding.Transform(x);
  for (int k = 0; k < 3; ++k) {
    for (int i = 1; i < 3; ++i) {
      Vector diff = embedded.Row(3 * k + i);
      Axpy(-1.0, embedded.Row(3 * k), &diff);
      EXPECT_LT(Norm2(diff), 1e-4 * (1.0 + Norm2(embedded.Row(3 * k))));
    }
  }
}

TEST(SrdaTest, RegularizationShrinksProjection) {
  Rng rng(9);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(3, 10, 20, 3.0, &rng, &x, &labels);
  SrdaOptions weak;
  weak.alpha = 1e-6;
  SrdaOptions strong;
  strong.alpha = 100.0;
  const SrdaModel weak_model = FitSrda(x, labels, 3, weak);
  const SrdaModel strong_model = FitSrda(x, labels, 3, strong);
  double weak_norm = 0.0;
  double strong_norm = 0.0;
  for (int j = 0; j < 2; ++j) {
    weak_norm += Norm2(weak_model.embedding.projection().Col(j));
    strong_norm += Norm2(strong_model.embedding.projection().Col(j));
  }
  EXPECT_LT(strong_norm, weak_norm);
}

TEST(SrdaTest, AlphaZeroAllowedWhenFullRank) {
  Rng rng(10);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(3, 30, 5, 4.0, &rng, &x, &labels);  // m >> n, full rank
  SrdaOptions options;
  options.alpha = 0.0;
  const SrdaModel model = FitSrda(x, labels, 3, options);
  EXPECT_TRUE(model.converged);
}

// An alpha sweep through one bound solver (its Gram cached, one Cholesky
// refactorization per alpha) must reproduce a fresh fit at every alpha.
void ExpectSweepMatchesFreshFits(const Matrix& x,
                                 const std::vector<int>& labels,
                                 int num_classes,
                                 const std::vector<double>& alphas) {
  RidgeSolver solver(&x);
  for (double alpha : alphas) {
    SrdaOptions options;
    options.alpha = alpha;
    const SrdaModel swept = FitSrda(&solver, labels, num_classes, options);
    const SrdaModel fresh = FitSrda(x, labels, num_classes, options);
    ASSERT_TRUE(swept.converged && fresh.converged) << "alpha " << alpha;
    EXPECT_EQ(MaxAbsDiff(swept.embedding.projection(),
                         fresh.embedding.projection()),
              0.0)
        << "alpha " << alpha;
    EXPECT_EQ(MaxAbsDiff(swept.embedding.bias(), fresh.embedding.bias()), 0.0)
        << "alpha " << alpha;
  }
}

TEST(SrdaTest, SolverSweepMatchesFreshFitsBitwise) {
  Rng rng(11);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(3, 20, 8, 2.5, &rng, &x, &labels);
  ExpectSweepMatchesFreshFits(x, labels, 3,
                              {1e-4, 0.01, 0.5, 1.0, 10.0, 500.0});
}

TEST(SrdaTest, SolverSweepMatchesFreshFitsInWideRegime) {
  // n > m: the bound solver caches the dual m x m Gram instead.
  Rng rng(12);
  const int m = 15;
  const int n = 40;
  Matrix x(m, n);
  std::vector<int> labels;
  for (int i = 0; i < m; ++i) {
    labels.push_back(i % 3);
    for (int j = 0; j < n; ++j) x(i, j) = 1.5 * (i % 3) + rng.NextGaussian();
  }
  ExpectSweepMatchesFreshFits(x, labels, 3, {0.3, 2.0});
}

TEST(SrdaTest, SolverSweepShrinksProjectionMonotonically) {
  Rng rng(13);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(4, 15, 10, 2.5, &rng, &x, &labels);
  RidgeSolver solver(&x);
  double previous_norm = 1e300;
  for (int grid = 0; grid < 50; ++grid) {
    SrdaOptions options;
    options.alpha = std::pow(10.0, -3.0 + 0.12 * grid);
    const SrdaModel model = FitSrda(&solver, labels, 4, options);
    ASSERT_TRUE(model.converged) << "alpha " << options.alpha;
    double norm = 0.0;
    for (int j = 0; j < model.embedding.output_dim(); ++j) {
      norm += Norm2(model.embedding.projection().Col(j));
    }
    // Ridge shrinkage: total projection norm decreases as alpha grows.
    EXPECT_LE(norm, previous_norm + 1e-12) << "alpha " << options.alpha;
    previous_norm = norm;
  }
}

TEST(SrdaDeathTest, NegativeAlphaAborts) {
  Matrix x(4, 2);
  SrdaOptions options;
  options.alpha = -1.0;
  EXPECT_DEATH(FitSrda(x, {0, 0, 1, 1}, 2, options), "non-negative");
}

TEST(SrdaDeathTest, LabelMismatchAborts) {
  Matrix x(4, 2);
  EXPECT_DEATH(FitSrda(x, {0, 1}, 2), "label count");
}

// The responses overload checks the row count on every binding: the rows
// binding on both solvers, and the Gram binding.
TEST(SrdaDeathTest, ResponsesOverloadRejectsWrongRowCount) {
  Rng rng(31);
  Matrix x(6, 3);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 3; ++j) x(i, j) = rng.NextGaussian();
  }
  const Matrix responses(5, 1, 1.0);
  SrdaOptions options;
  EXPECT_DEATH(
      {
        RidgeSolver solver(&x);
        FitSrda(&solver, responses, options);
      },
      "response count mismatch");
  options.solver = SrdaSolver::kLsqr;
  EXPECT_DEATH(
      {
        RidgeSolver solver(&x);
        FitSrda(&solver, responses, options);
      },
      "response count mismatch");
  options.solver = SrdaSolver::kNormalEquations;
  EXPECT_DEATH(
      {
        RidgeSolver solver = RidgeSolver::FromGram(Gram(x));
        FitSrda(&solver, Matrix(6, 1, 1.0), options);
      },
      "response count mismatch");
}

// Property sweep: SRDA solves the ridge normal equations on centered data
// (primal path), verified directly.
class SrdaNormalEquationTest : public ::testing::TestWithParam<int> {};

TEST_P(SrdaNormalEquationTest, ResidualOfNormalEquationsSmall) {
  Rng rng(1000 + GetParam());
  const int c = 2 + GetParam() % 3;
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(c, 12, 6 + GetParam(), 3.0, &rng, &x, &labels);
  SrdaOptions options;
  options.alpha = 0.25 * (1 + GetParam() % 4);
  const SrdaModel model = FitSrda(x, labels, c, options);
  ASSERT_TRUE(model.converged);

  // Verify (Xc^T Xc + alpha I) A == Xc^T Y by recomputing both sides.
  Matrix centered = x;
  SubtractRowVector(ColumnMeans(x), &centered);
  const Matrix& a = model.embedding.projection();
  Matrix lhs = MultiplyTransposedA(centered, Multiply(centered, a));
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i < a.rows(); ++i) lhs(i, j) += options.alpha * a(i, j);
  }
  const Matrix responses = GenerateSrdaResponses(labels, c);
  const Matrix rhs = MultiplyTransposedA(centered, responses);
  EXPECT_LT(MaxAbsDiff(lhs, rhs), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SrdaNormalEquationTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace srda
