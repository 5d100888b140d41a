// Tests for classifiers and evaluation helpers.

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "classify/classifiers.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "matrix/blas.h"
#include "matrix/matrix.h"
#include "matrix/simd/simd.h"
#include "tests/scoped_level.h"

namespace srda {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.rows()) *
                         static_cast<size_t>(a.cols())) == 0;
}

TEST(CentroidClassifierTest, SeparatedClusters) {
  Matrix train = Matrix::FromRows({{0.0, 0.0},
                                   {0.2, -0.1},
                                   {5.0, 5.0},
                                   {5.1, 4.9}});
  CentroidClassifier classifier;
  classifier.Fit(train, {0, 0, 1, 1}, 2);
  const Matrix test = Matrix::FromRows({{0.1, 0.1}, {4.8, 5.2}});
  const std::vector<int> predictions = classifier.Predict(test);
  EXPECT_EQ(predictions[0], 0);
  EXPECT_EQ(predictions[1], 1);
}

TEST(CentroidClassifierTest, CentroidsAreClassMeans) {
  Matrix train = Matrix::FromRows({{0.0, 2.0}, {2.0, 0.0}, {10.0, 10.0}});
  CentroidClassifier classifier;
  classifier.Fit(train, {0, 0, 1}, 2);
  EXPECT_DOUBLE_EQ(classifier.centroids()(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(classifier.centroids()(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(classifier.centroids()(1, 0), 10.0);
}

// The classifier scores with the axpy-form Multiply against transposed
// centroids; the dot-form MultiplyTransposedB against the centroids is the
// oracle. Cross products and labels must match it bit for bit at every
// dispatch level and at 1 and 4 threads, on the faces head's shape
// (68 classes, 67 dimensions). Classes 2 and 5 share a centroid, so a
// query placed on it ties exactly and must take the lower class id.
TEST(CentroidClassifierTest, ScoresBitwiseEqualDotFormOracle) {
  Rng rng(43);
  const int classes = 68;
  const int dim = 67;
  Matrix centroids = RandomMatrix(classes, dim, &rng);
  for (int j = 0; j < dim; ++j) centroids(5, j) = centroids(2, j);
  CentroidClassifier classifier;
  classifier.SetCentroids(centroids);
  std::vector<double> sq_norms(classes, 0.0);
  for (int k = 0; k < classes; ++k) {
    for (int j = 0; j < dim; ++j) {
      sq_norms[k] += centroids(k, j) * centroids(k, j);
    }
  }
  const Matrix centroids_t = centroids.Transposed();

  for (int rows : {1, 3, 64}) {
    Matrix queries = RandomMatrix(rows, dim, &rng);
    for (int j = 0; j < dim; ++j) queries(0, j) = centroids(2, j);
    Matrix oracle_cross;
    {
      SetGlobalThreadCount(1);
      ScopedLevel scalar_level(simd::CpuLevel::kScalar);
      oracle_cross = MultiplyTransposedB(queries, centroids);
    }
    std::vector<int> oracle_labels;
    for (int i = 0; i < rows; ++i) {
      int best_class = 0;
      double best_score = std::numeric_limits<double>::infinity();
      for (int k = 0; k < classes; ++k) {
        const double score = sq_norms[k] - 2.0 * oracle_cross(i, k);
        if (score < best_score) {
          best_score = score;
          best_class = k;
        }
      }
      oracle_labels.push_back(best_class);
    }
    ASSERT_EQ(oracle_labels[0], 2) << "the tie row must take the lower id";

    for (simd::CpuLevel level : simd::SupportedLevels()) {
      ScopedLevel forced(level);
      for (int threads : {1, 4}) {
        SetGlobalThreadCount(threads);
        EXPECT_TRUE(
            BitwiseEqual(Multiply(queries, centroids_t), oracle_cross))
            << simd::CpuLevelName(level) << " rows=" << rows
            << " t=" << threads;
        EXPECT_EQ(classifier.ScoreBatch(queries), oracle_labels)
            << simd::CpuLevelName(level) << " rows=" << rows
            << " t=" << threads;
      }
    }
  }
  SetGlobalThreadCount(0);
}

TEST(CentroidClassifierDeathTest, PredictBeforeFitAborts) {
  CentroidClassifier classifier;
  EXPECT_DEATH(classifier.Predict(Matrix(1, 2)), "before Fit");
}

TEST(CentroidClassifierDeathTest, MissingClassAborts) {
  CentroidClassifier classifier;
  Matrix train(2, 2);
  EXPECT_DEATH(classifier.Fit(train, {0, 0}, 2), "no training samples");
}

TEST(CentroidClassifierDeathTest, DimensionMismatchAborts) {
  CentroidClassifier classifier;
  Matrix train(2, 3);
  classifier.Fit(train, {0, 1}, 2);
  EXPECT_DEATH(classifier.Predict(Matrix(1, 2)), "dimension mismatch");
}

TEST(KnnClassifierTest, OneNearestNeighbor) {
  Matrix train = Matrix::FromRows({{0.0}, {1.0}, {10.0}});
  KnnClassifier classifier(1);
  classifier.Fit(train, {0, 0, 1}, 2);
  const std::vector<int> predictions =
      classifier.Predict(Matrix::FromRows({{0.4}, {9.0}}));
  EXPECT_EQ(predictions[0], 0);
  EXPECT_EQ(predictions[1], 1);
}

TEST(KnnClassifierTest, MajorityVote) {
  Matrix train = Matrix::FromRows({{0.0}, {1.0}, {2.0}, {3.0}});
  KnnClassifier classifier(3);
  classifier.Fit(train, {0, 1, 1, 1}, 2);
  // Query near 0: neighbors {0, 1, 2} have labels {0, 1, 1} -> class 1.
  const std::vector<int> predictions =
      classifier.Predict(Matrix::FromRows({{0.1}}));
  EXPECT_EQ(predictions[0], 1);
}

TEST(KnnClassifierTest, KLargerThanTrainSetClamped) {
  Matrix train = Matrix::FromRows({{0.0}, {5.0}});
  KnnClassifier classifier(10);
  classifier.Fit(train, {0, 1}, 2);
  const std::vector<int> predictions =
      classifier.Predict(Matrix::FromRows({{0.2}}));
  EXPECT_EQ(predictions.size(), 1u);
}

TEST(KnnClassifierDeathTest, NonPositiveKAborts) {
  EXPECT_DEATH(KnnClassifier(0), "positive");
}

TEST(ErrorRateTest, CountsMismatches) {
  EXPECT_DOUBLE_EQ(ErrorRate({0, 1, 2, 0}, {0, 1, 0, 1}), 0.5);
  EXPECT_DOUBLE_EQ(ErrorRate({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(ErrorRate({0}, {1}), 1.0);
}

TEST(ErrorRateDeathTest, SizeMismatchAborts) {
  EXPECT_DEATH(ErrorRate({0, 1}, {0}), "size mismatch");
  EXPECT_DEATH(ErrorRate({}, {}), "empty");
}

TEST(MeanStdTest, KnownValues) {
  const MeanStd stats = ComputeMeanStd({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(stats.mean, 5.0);
  EXPECT_NEAR(stats.stddev, 2.138, 1e-3);  // Sample stddev.
}

TEST(MeanStdTest, SingleValueZeroStddev) {
  const MeanStd stats = ComputeMeanStd({3.5});
  EXPECT_DOUBLE_EQ(stats.mean, 3.5);
  EXPECT_DOUBLE_EQ(stats.stddev, 0.0);
}

TEST(ClassifierAgreementTest, KnnAndCentroidAgreeOnWellSeparatedData) {
  Rng rng(7);
  const int per_class = 30;
  Matrix data(3 * per_class, 2);
  std::vector<int> labels;
  const double centers[3][2] = {{0, 0}, {8, 0}, {0, 8}};
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      data(row, 0) = centers[k][0] + rng.NextGaussian();
      data(row, 1) = centers[k][1] + rng.NextGaussian();
      labels.push_back(k);
    }
  }
  CentroidClassifier centroid;
  centroid.Fit(data, labels, 3);
  KnnClassifier knn(5);
  knn.Fit(data, labels, 3);
  const std::vector<int> a = centroid.Predict(data);
  const std::vector<int> b = knn.Predict(data);
  int disagreements = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++disagreements;
  }
  EXPECT_LT(disagreements, 5);
}

// Batched scoring must be row-decomposable: scoring the block all at once,
// one row at a time, or in arbitrary sub-blocks yields identical
// predictions. This is the invariant the serving layer's micro-batching
// rests on.
TEST(ScorerBatchTest, BatchCompositionNeverChangesPredictions) {
  Rng rng(31);
  const int rows = 57;  // odd, so sub-blocks straddle uneven boundaries
  Matrix train(40, 4);
  std::vector<int> labels;
  for (int i = 0; i < train.rows(); ++i) {
    labels.push_back(i % 3);
    for (int j = 0; j < 4; ++j) {
      train(i, j) = 3.0 * (j == i % 3) + rng.NextGaussian();
    }
  }
  Matrix queries(rows, 4);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < 4; ++j) queries(i, j) = rng.NextGaussian();
  }

  CentroidClassifier centroid;
  centroid.Fit(train, labels, 3);
  KnnClassifier knn(3);
  knn.Fit(train, labels, 3);
  for (const Scorer* scorer :
       {static_cast<const Scorer*>(&centroid),
        static_cast<const Scorer*>(&knn)}) {
    const std::vector<int> whole = scorer->ScoreBatch(queries);
    ASSERT_EQ(static_cast<int>(whole.size()), rows);
    for (const int block_rows : {1, 7, 16}) {
      std::vector<int> pieced;
      for (int start = 0; start < rows; start += block_rows) {
        const int n = std::min(block_rows, rows - start);
        Matrix block(n, queries.cols());
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < queries.cols(); ++j) {
            block(i, j) = queries(start + i, j);
          }
        }
        for (int p : scorer->ScoreBatch(block)) pieced.push_back(p);
      }
      EXPECT_EQ(pieced, whole);
    }
  }
}

TEST(ScorerBatchTest, ScorerInterfaceReportsDimensions) {
  CentroidClassifier centroid;
  centroid.SetCentroids(Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}}));
  const Scorer& scorer = centroid;
  EXPECT_EQ(scorer.embedded_dim(), 2);
  EXPECT_EQ(scorer.num_classes(), 2);
  EXPECT_EQ(scorer.ScoreBatch(Matrix::FromRows({{0.9, 0.1}, {0.0, 2.0}})),
            (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace srda
