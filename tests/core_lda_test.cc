// Tests for classical LDA (Section II of the paper).

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "classify/classifiers.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/lda.h"
#include "matrix/blas.h"

namespace srda {
namespace {

// Three well-separated Gaussian blobs in `dim` dimensions.
void MakeBlobs(int per_class, int dim, double separation, Rng* rng,
               Matrix* x, std::vector<int>* labels) {
  const int c = 3;
  *x = Matrix(c * per_class, dim);
  labels->clear();
  Matrix centers(c, dim);
  for (int k = 0; k < c; ++k) {
    for (int j = 0; j < dim; ++j) {
      centers(k, j) = rng->NextGaussian() * separation;
    }
  }
  for (int k = 0; k < c; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      for (int j = 0; j < dim; ++j) {
        (*x)(row, j) = centers(k, j) + rng->NextGaussian();
      }
      labels->push_back(k);
    }
  }
}

TEST(LdaTest, AtMostCMinusOneDirections) {
  Rng rng(1);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(20, 10, 4.0, &rng, &x, &labels);
  const LdaModel model = FitLda(x, labels, 3);
  ASSERT_TRUE(model.converged);
  EXPECT_EQ(model.num_directions, 2);
  EXPECT_EQ(model.embedding.output_dim(), 2);
  EXPECT_EQ(model.embedding.input_dim(), 10);
}

TEST(LdaTest, SeparatesBlobs) {
  Rng rng(2);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(30, 8, 5.0, &rng, &x, &labels);
  const LdaModel model = FitLda(x, labels, 3);
  ASSERT_TRUE(model.converged);
  const Matrix embedded = model.embedding.Transform(x);
  CentroidClassifier classifier;
  classifier.Fit(embedded, labels, 3);
  EXPECT_LT(ErrorRate(classifier.Predict(embedded), labels), 0.05);
}

TEST(LdaTest, TwoClassMatchesFisherDirection) {
  // For two Gaussian classes with shared covariance, the Fisher direction is
  // proportional to S_w^{-1} (mu_1 - mu_0). LDA's single direction must align.
  Rng rng(3);
  const int per_class = 200;
  const int dim = 4;
  Matrix x(2 * per_class, dim);
  std::vector<int> labels;
  for (int k = 0; k < 2; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      for (int j = 0; j < dim; ++j) {
        x(row, j) = (j == 0 ? 3.0 * k : 0.0) + rng.NextGaussian();
      }
      labels.push_back(k);
    }
  }
  const LdaModel model = FitLda(x, labels, 2);
  ASSERT_TRUE(model.converged);
  ASSERT_EQ(model.num_directions, 1);
  const Vector direction = model.embedding.projection().Col(0);
  // The direction should be dominated by coordinate 0.
  double max_other = 0.0;
  for (int j = 1; j < dim; ++j) {
    max_other = std::max(max_other, std::fabs(direction[j]));
  }
  EXPECT_GT(std::fabs(direction[0]), 5.0 * max_other);
}

TEST(LdaTest, WhitenedScaling) {
  // Directions satisfy a^T S_t a = lambda with lambda in (0, 1].
  Rng rng(4);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(40, 6, 3.0, &rng, &x, &labels);
  const LdaModel model = FitLda(x, labels, 3);
  ASSERT_TRUE(model.converged);
  Matrix centered = x;
  SubtractRowVector(ColumnMeans(x), &centered);
  const Matrix st = Gram(centered);
  for (int d = 0; d < model.num_directions; ++d) {
    const Vector a = model.embedding.projection().Col(d);
    const double lambda = Dot(a, Multiply(st, a));
    EXPECT_GT(lambda, 0.0) << "direction " << d;
    EXPECT_LE(lambda, 1.0 + 1e-6) << "direction " << d;
  }
}

TEST(LdaTest, EmbeddingIsCentered) {
  Rng rng(5);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(15, 7, 3.0, &rng, &x, &labels);
  const LdaModel model = FitLda(x, labels, 3);
  const Matrix embedded = model.embedding.Transform(x);
  const Vector mean = ColumnMeans(embedded);
  for (int j = 0; j < mean.size(); ++j) EXPECT_NEAR(mean[j], 0.0, 1e-9);
}

TEST(LdaTest, SingularCaseMoreFeaturesThanSamples) {
  // n > m: S_w singular; the SVD route must still work (the paper's
  // motivating case). With linearly independent samples, training classes
  // collapse to points (Corollary 3 discussion).
  Rng rng(6);
  const int per_class = 4;
  const int dim = 50;
  Matrix x(3 * per_class, dim);
  std::vector<int> labels;
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      for (int j = 0; j < dim; ++j) {
        x(row, j) = 2.0 * k + rng.NextGaussian();
      }
      labels.push_back(k);
    }
  }
  const LdaModel model = FitLda(x, labels, 3);
  ASSERT_TRUE(model.converged);
  EXPECT_EQ(model.data_rank, 3 * per_class - 1);
  const Matrix embedded = model.embedding.Transform(x);
  // Same-class training samples embed to (nearly) the same point.
  for (int i = 1; i < per_class; ++i) {
    Vector diff = embedded.Row(i);
    Axpy(-1.0, embedded.Row(0), &diff);
    EXPECT_LT(Norm2(diff), 1e-6) << "sample " << i;
  }
}

TEST(LdaTest, PerfectTrainingAccuracyWhenSamplesIndependent) {
  Rng rng(7);
  const int dim = 60;
  Matrix x(9, dim);
  std::vector<int> labels;
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < dim; ++j) {
      x(i, j) = (i / 3) * 1.5 + rng.NextGaussian();
    }
    labels.push_back(i / 3);
  }
  const LdaModel model = FitLda(x, labels, 3);
  ASSERT_TRUE(model.converged);
  const Matrix embedded = model.embedding.Transform(x);
  CentroidClassifier classifier;
  classifier.Fit(embedded, labels, 3);
  EXPECT_EQ(ErrorRate(classifier.Predict(embedded), labels), 0.0);
}

// LDA's Gram and projection products run on the pool and its eigen stage
// (ThinSvd's Gram eigendecomposition) applies its QL rotations to row
// panels; every output bit must be independent of the thread count. 120
// samples in 150 dimensions take the dual 120 x 120 eigenproblem: several
// 32-row panels plus a partial one.
TEST(LdaTest, ProjectionBitwiseAcrossThreadCounts) {
  Rng rng(9);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(40, 150, 3.0, &rng, &x, &labels);
  SetGlobalThreadCount(1);
  const LdaModel serial = FitLda(x, labels, 3);
  SetGlobalThreadCount(4);
  const LdaModel threaded = FitLda(x, labels, 3);
  SetGlobalThreadCount(0);
  ASSERT_TRUE(serial.converged);
  ASSERT_TRUE(threaded.converged);
  const Matrix& p1 = serial.embedding.projection();
  const Matrix& p4 = threaded.embedding.projection();
  ASSERT_EQ(p1.rows(), p4.rows());
  ASSERT_EQ(p1.cols(), p4.cols());
  EXPECT_EQ(std::memcmp(p1.data(), p4.data(),
                        sizeof(double) * p1.rows() * p1.cols()),
            0);
  const Vector& b1 = serial.embedding.bias();
  const Vector& b4 = threaded.embedding.bias();
  ASSERT_EQ(b1.size(), b4.size());
  EXPECT_EQ(std::memcmp(b1.data(), b4.data(), sizeof(double) * b1.size()), 0);
}

TEST(LdaDeathTest, SingleClassAborts) {
  Matrix x(4, 2);
  EXPECT_DEATH(FitLda(x, {0, 0, 0, 0}, 1), "two classes");
}

TEST(LdaDeathTest, LabelCountMismatchAborts) {
  Matrix x(4, 2);
  EXPECT_DEATH(FitLda(x, {0, 1}, 2), "label count");
}

TEST(LdaDeathTest, EmptyClassAborts) {
  Matrix x(4, 2);
  EXPECT_DEATH(FitLda(x, {0, 0, 0, 0}, 2), "no samples");
}

// Property sweep: error on separable blobs stays low across dimensions.
class LdaDimensionTest : public ::testing::TestWithParam<int> {};

TEST_P(LdaDimensionTest, SeparableBlobsClassified) {
  Rng rng(800 + GetParam());
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(25, GetParam(), 6.0, &rng, &x, &labels);
  const LdaModel model = FitLda(x, labels, 3);
  ASSERT_TRUE(model.converged);
  const Matrix embedded = model.embedding.Transform(x);
  CentroidClassifier classifier;
  classifier.Fit(embedded, labels, 3);
  // Higher dimensions overfit more with only 75 samples; allow extra slack.
  EXPECT_LT(ErrorRate(classifier.Predict(embedded), labels),
            GetParam() >= 50 ? 0.2 : 0.1);
}

INSTANTIATE_TEST_SUITE_P(Dimensions, LdaDimensionTest,
                         ::testing::Values(2, 3, 5, 10, 20, 50, 100));

}  // namespace
}  // namespace srda
