// Failure-injection and degenerate-input tests: the library must either
// produce a defined result (converged flag, finite outputs) or abort through
// SRDA_CHECK — never return silent garbage.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "classify/classifiers.h"
#include "common/rng.h"
#include "core/lda.h"
#include "core/rlda.h"
#include "core/semi_supervised_srda.h"
#include "core/srda.h"
#include "linalg/cholesky.h"
#include "linalg/lsqr.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/blas.h"
#include "tests/dense_rows.h"

namespace srda {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool AllFinite(const Matrix& m) {
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(m(i, j))) return false;
    }
  }
  return true;
}

TEST(RobustnessTest, CholeskyRejectsNanMatrix) {
  Matrix a = Matrix::Identity(3);
  a(1, 1) = kNan;
  Cholesky chol;
  EXPECT_FALSE(chol.Factor(a));
}

TEST(RobustnessTest, CholeskyRejectsInfMatrix) {
  Matrix a = Matrix::Identity(3);
  a(2, 2) = kInf;
  Cholesky chol;
  // Either rejected outright or the factor stays unusable; Factor must not
  // return a "success" with non-finite entries.
  if (chol.Factor(a)) {
    EXPECT_TRUE(AllFinite(chol.factor()));
  }
}

TEST(RobustnessTest, SrdaOnConstantFeatures) {
  // A feature with zero variance adds a zero row/column to the scatter; the
  // ridge keeps the system solvable.
  Rng rng(1);
  Matrix x(20, 4);
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    labels.push_back(i % 2);
    x(i, 0) = 7.5;  // Constant feature.
    for (int j = 1; j < 4; ++j) {
      x(i, j) = 2.0 * (i % 2) + rng.NextGaussian();
    }
  }
  const SrdaModel model = FitSrda(x, labels, 2);
  ASSERT_TRUE(model.converged);
  EXPECT_TRUE(AllFinite(model.embedding.projection()));
  // The constant feature must get (near) zero weight: it carries no signal.
  EXPECT_NEAR(model.embedding.projection()(0, 0), 0.0, 1e-8);
}

TEST(RobustnessTest, SrdaOnDuplicatedSamples) {
  Rng rng(2);
  Matrix x(24, 5);
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 5; ++j) x(i, j) = (i % 2) * 2.0 + rng.NextGaussian();
    labels.push_back(i % 2);
  }
  for (int i = 12; i < 24; ++i) {  // Exact duplicates of the first half.
    for (int j = 0; j < 5; ++j) x(i, j) = x(i - 12, j);
    labels.push_back(labels[static_cast<size_t>(i - 12)]);
  }
  const SrdaModel model = FitSrda(x, labels, 2);
  ASSERT_TRUE(model.converged);
  EXPECT_TRUE(AllFinite(model.embedding.projection()));
}

TEST(RobustnessTest, SrdaAlphaZeroOnRankDeficientReportsFailure) {
  // alpha = 0 with duplicated columns: the primal normal equations are
  // singular; the trainer must report failure, not return garbage.
  Matrix x(10, 3);
  std::vector<int> labels;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    x(i, 0) = rng.NextGaussian();
    x(i, 1) = x(i, 0);  // Duplicate column.
    x(i, 2) = rng.NextGaussian() + (i % 2);
    labels.push_back(i % 2);
  }
  SrdaOptions options;
  options.alpha = 0.0;
  const SrdaModel model = FitSrda(x, labels, 2, options);
  EXPECT_FALSE(model.converged);
}

TEST(RobustnessTest, RldaAlphaZeroOnRankDeficientReportsFailure) {
  // Same contract as SRDA now that every trainer shares the ridge engine:
  // alpha == 0 on a singular scatter matrix reports converged == false
  // instead of aborting.
  Matrix x(10, 3);
  std::vector<int> labels;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    x(i, 0) = rng.NextGaussian();
    x(i, 1) = x(i, 0);  // Duplicate column.
    x(i, 2) = rng.NextGaussian() + (i % 2);
    labels.push_back(i % 2);
  }
  RldaOptions options;
  options.alpha = 0.0;
  const RldaModel model = FitRlda(x, labels, 2, options);
  EXPECT_FALSE(model.converged);
}

TEST(RobustnessTest, SemiSupervisedAlphaZeroOnRankDeficientReportsFailure) {
  Matrix x(10, 3);
  std::vector<int> labels;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    x(i, 0) = rng.NextGaussian();
    x(i, 1) = x(i, 0);  // Duplicate column.
    x(i, 2) = rng.NextGaussian() + (i % 2);
    labels.push_back(i % 2);
  }
  SemiSupervisedSrdaOptions options;
  options.alpha = 0.0;
  options.graph_weight = 0.0;
  const SemiSupervisedSrdaModel model =
      FitSemiSupervisedSrda(x, labels, 2, options);
  EXPECT_FALSE(model.converged);
}

TEST(RobustnessTest, LdaOnIdenticalClassMeans) {
  // All classes share the same distribution: no discriminative direction
  // exists, eigenvalues collapse to ~0. LDA must stay finite and keep at
  // most c-1 directions (possibly 0).
  Rng rng(4);
  Matrix x(30, 4);
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) {
    labels.push_back(i % 3);
    for (int j = 0; j < 4; ++j) x(i, j) = rng.NextGaussian();
  }
  const LdaModel model = FitLda(x, labels, 3);
  ASSERT_TRUE(model.converged);
  EXPECT_LE(model.num_directions, 2);
  if (model.num_directions > 0) {
    EXPECT_TRUE(AllFinite(model.embedding.projection()));
  }
}

TEST(RobustnessTest, LdaOnSingleSamplePerClass) {
  Rng rng(5);
  Matrix x(3, 10);
  std::vector<int> labels = {0, 1, 2};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 10; ++j) x(i, j) = rng.NextGaussian() + 2.0 * i;
  }
  const LdaModel model = FitLda(x, labels, 3);
  ASSERT_TRUE(model.converged);
  EXPECT_TRUE(AllFinite(model.embedding.projection()));
  // Each training point is its own class: they embed to distinct points.
  const Matrix embedded = model.embedding.Transform(x);
  Vector d01 = embedded.Row(0);
  Axpy(-1.0, embedded.Row(1), &d01);
  EXPECT_GT(Norm2(d01), 1e-6);
}

TEST(RobustnessTest, SrdaWideFeatureScales) {
  // Features spanning ~8 orders of magnitude: still within double-precision
  // reach, results must stay finite and usable.
  Rng rng(6);
  Matrix x(20, 3);
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    labels.push_back(i % 2);
    x(i, 0) = 1e4 * ((i % 2) + 0.1 * rng.NextGaussian());
    x(i, 1) = 1e-4 * rng.NextGaussian();
    x(i, 2) = rng.NextGaussian();
  }
  const SrdaModel model = FitSrda(x, labels, 2);
  ASSERT_TRUE(model.converged);
  EXPECT_TRUE(AllFinite(model.embedding.projection()));
  const Matrix embedded = model.embedding.Transform(x);
  EXPECT_TRUE(AllFinite(embedded));
}

TEST(RobustnessTest, SrdaAbsurdFeatureScalesFailsCleanly) {
  // Scales beyond double precision (condition ~1e18 after the ridge): the
  // trainer must decline rather than return meaningless numbers.
  Rng rng(9);
  Matrix x(20, 3);
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    labels.push_back(i % 2);
    x(i, 0) = 1e9 * ((i % 2) + 0.1 * rng.NextGaussian());
    x(i, 1) = 1e-6 * rng.NextGaussian();
    x(i, 2) = rng.NextGaussian();
  }
  const SrdaModel model = FitSrda(x, labels, 2);
  if (model.converged) {
    EXPECT_TRUE(AllFinite(model.embedding.projection()));
  }
  // Either outcome (clean failure or finite solution) is acceptable; what
  // this test pins down is the absence of silent NaN/Inf output.
}

TEST(RobustnessTest, LsqrOnZeroOperator) {
  const Matrix zero(5, 3);
  const DenseRows op_rows(&zero);
  const LinearOperator& op = op_rows.op;
  const Matrix b(5, 1, 1.0);
  const LsqrResult result = LsqrBatch(op, b)[0];
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(Norm2(result.x), 0.0);  // A^T b = 0 -> x = 0 is optimal.
}

TEST(RobustnessTest, LsqrHugeDamping) {
  Rng rng(7);
  Matrix a(10, 4);
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 4; ++j) a(i, j) = rng.NextGaussian();
  }
  const DenseRows op_rows(&a);
  const LinearOperator& op = op_rows.op;
  Matrix b(10, 1);
  for (int i = 0; i < 10; ++i) b(i, 0) = rng.NextGaussian();
  LsqrOptions options;
  options.damp = 1e8;  // Essentially forces x -> 0.
  options.max_iterations = 50;
  const LsqrResult result = LsqrBatch(op, b, options)[0];
  EXPECT_LT(Norm2(result.x), 1e-10);
}

TEST(RobustnessTest, SymmetricEigenNearlyDegenerateSpectrum) {
  // Eigenvalues clustered within 1e-14 of each other.
  Matrix a = Matrix::Identity(6);
  for (int i = 0; i < 6; ++i) a(i, i) = 1.0 + i * 1e-14;
  const SymmetricEigenResult result = SymmetricEigen(a);
  ASSERT_TRUE(result.converged);
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(result.eigenvalues[i], 1.0, 1e-12);
  }
  EXPECT_LT(MaxAbsDiff(Gram(result.eigenvectors), Matrix::Identity(6)),
            1e-10);
}

TEST(RobustnessTest, ThinSvdOnZeroMatrix) {
  const SvdResult svd = ThinSvd(Matrix(4, 3, 0.0));
  EXPECT_EQ(svd.rank, 0);
}

TEST(RobustnessTest, CentroidClassifierSingleTrainingPoint) {
  Matrix train(2, 2);
  train(0, 0) = 1.0;
  train(1, 0) = -1.0;
  CentroidClassifier classifier;
  classifier.Fit(train, {0, 1}, 2);
  const std::vector<int> predictions =
      classifier.Predict(Matrix::FromRows({{0.9, 0.0}}));
  EXPECT_EQ(predictions[0], 0);
}

TEST(RobustnessTest, RldaHugeAlphaStaysFinite) {
  Rng rng(8);
  Matrix x(18, 4);
  std::vector<int> labels;
  for (int i = 0; i < 18; ++i) {
    labels.push_back(i % 3);
    for (int j = 0; j < 4; ++j) x(i, j) = (i % 3) + rng.NextGaussian();
  }
  RldaOptions options;
  options.alpha = 1e12;
  const RldaModel model = FitRlda(x, labels, 3, options);
  ASSERT_TRUE(model.converged);
  EXPECT_TRUE(AllFinite(model.embedding.projection()));
}

}  // namespace
}  // namespace srda
