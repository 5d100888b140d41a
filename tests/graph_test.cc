// Tests for the kNN affinity graph and semi-supervised SRDA.

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "classify/classifiers.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/semi_supervised_srda.h"
#include "core/srda.h"
#include "dataset/dataset.h"
#include "graph/knn_graph.h"
#include "matrix/blas.h"

namespace srda {
namespace {

TEST(KnnGraphTest, SymmetricZeroDiagonal) {
  Rng rng(1);
  Matrix x(20, 3);
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 3; ++j) x(i, j) = rng.NextGaussian();
  }
  KnnGraphOptions options;
  options.num_neighbors = 4;
  const SparseMatrix graph = BuildKnnGraph(x, options);
  const Matrix dense = graph.ToDense();
  EXPECT_LT(MaxAbsDiff(dense, dense.Transposed()), 1e-14);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(dense(i, i), 0.0);
}

TEST(KnnGraphTest, NeighborsAreNearby) {
  // Two tight, well-separated clusters: no cross-cluster edges.
  Matrix x(10, 1);
  for (int i = 0; i < 5; ++i) x(i, 0) = 0.0 + 0.01 * i;
  for (int i = 5; i < 10; ++i) x(i, 0) = 100.0 + 0.01 * i;
  KnnGraphOptions options;
  options.num_neighbors = 2;
  const SparseMatrix graph = BuildKnnGraph(x, options);
  const Matrix dense = graph.ToDense();
  for (int i = 0; i < 5; ++i) {
    for (int j = 5; j < 10; ++j) {
      EXPECT_EQ(dense(i, j), 0.0) << i << "," << j;
    }
  }
}

TEST(KnnGraphTest, HeatWeightsInUnitInterval) {
  Rng rng(2);
  Matrix x(15, 2);
  for (int i = 0; i < 15; ++i) {
    for (int j = 0; j < 2; ++j) x(i, j) = rng.NextGaussian();
  }
  KnnGraphOptions options;
  options.num_neighbors = 3;
  options.weights = GraphWeightScheme::kHeatKernel;
  const SparseMatrix graph = BuildKnnGraph(x, options);
  for (int i = 0; i < graph.rows(); ++i) {
    const double* values = graph.RowValues(i);
    for (int e = 0; e < graph.RowNonZeros(i); ++e) {
      EXPECT_GT(values[e], 0.0);
      EXPECT_LE(values[e], 1.0);
    }
  }
}

TEST(KnnGraphTest, BinaryWeights) {
  Matrix x(6, 1);
  for (int i = 0; i < 6; ++i) x(i, 0) = i;
  KnnGraphOptions options;
  options.num_neighbors = 1;
  options.weights = GraphWeightScheme::kBinary;
  const SparseMatrix graph = BuildKnnGraph(x, options);
  // Mutual nearest neighbors get weight 1 (0.5 + 0.5); single-direction
  // edges get 0.5.
  const Matrix dense = graph.ToDense();
  EXPECT_NEAR(dense(0, 1), 1.0, 1e-15);  // 0 and 1 are mutual.
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_TRUE(dense(i, j) == 0.0 || dense(i, j) == 0.5 ||
                  dense(i, j) == 1.0);
    }
  }
}

TEST(KnnGraphTest, DegreesArePositive) {
  Rng rng(3);
  Matrix x(12, 2);
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 2; ++j) x(i, j) = rng.NextGaussian();
  }
  const SparseMatrix graph = BuildKnnGraph(x, KnnGraphOptions{});
  const Vector degrees = GraphDegrees(graph);
  for (int i = 0; i < 12; ++i) EXPECT_GT(degrees[i], 0.0);
}

TEST(CosineKnnGraphTest, SymmetricNonNegative) {
  Rng rng(10);
  SparseMatrixBuilder builder(12, 30);
  for (int i = 0; i < 12; ++i) {
    for (int e = 0; e < 6; ++e) {
      builder.Add(i, static_cast<int>(rng.NextUint64Bounded(30)),
                  rng.NextDouble() + 0.1);
    }
  }
  const SparseMatrix x = std::move(builder).Build();
  const SparseMatrix graph = BuildCosineKnnGraph(x, 3);
  const Matrix dense = graph.ToDense();
  EXPECT_LT(MaxAbsDiff(dense, dense.Transposed()), 1e-14);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(dense(i, i), 0.0);
    for (int j = 0; j < 12; ++j) {
      EXPECT_GE(dense(i, j), 0.0);
      EXPECT_LE(dense(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(CosineKnnGraphTest, ConnectsSameTopicDocuments) {
  // Two "topics" with disjoint vocabularies: no cross-topic edges.
  SparseMatrixBuilder builder(8, 20);
  for (int i = 0; i < 4; ++i) {
    builder.Add(i, 0, 1.0);
    builder.Add(i, 1 + i % 2, 0.5);
  }
  for (int i = 4; i < 8; ++i) {
    builder.Add(i, 10, 1.0);
    builder.Add(i, 11 + i % 2, 0.5);
  }
  const SparseMatrix x = std::move(builder).Build();
  const SparseMatrix graph = BuildCosineKnnGraph(x, 2);
  const Matrix dense = graph.ToDense();
  for (int i = 0; i < 4; ++i) {
    for (int j = 4; j < 8; ++j) {
      EXPECT_EQ(dense(i, j), 0.0) << i << "," << j;
    }
  }
}

TEST(SemiSupervisedSrdaTest, SparsePathLearnsTopics) {
  // Sparse documents with 1 labeled doc per topic plus an unlabeled pool.
  Rng rng(11);
  const int per_topic = 30;
  SparseMatrixBuilder builder(2 * per_topic, 100);
  std::vector<int> labels;
  std::vector<int> truth;
  for (int t = 0; t < 2; ++t) {
    for (int d = 0; d < per_topic; ++d) {
      const int row = t * per_topic + d;
      // Topic block [t*40, t*40+30) plus shared background words.
      for (int w = 0; w < 8; ++w) {
        builder.Add(row, t * 40 + static_cast<int>(rng.NextUint64Bounded(30)),
                    1.0);
      }
      for (int w = 0; w < 3; ++w) {
        builder.Add(row, 80 + static_cast<int>(rng.NextUint64Bounded(20)),
                    1.0);
      }
      truth.push_back(t);
      labels.push_back(d < 2 ? t : kUnlabeled);
    }
  }
  const SparseMatrix x = std::move(builder).Build();
  SemiSupervisedSrdaOptions options;
  options.graph.num_neighbors = 5;
  options.graph_weight = 0.5;
  const SemiSupervisedSrdaModel model =
      FitSemiSupervisedSrda(x, labels, 2, options);
  ASSERT_TRUE(model.converged);
  const Matrix embedded = model.embedding.Transform(x);
  CentroidClassifier classifier;
  classifier.Fit(embedded, truth, 2);
  EXPECT_LT(ErrorRate(classifier.Predict(embedded), truth), 0.15);
}

TEST(KnnGraphDeathTest, TooFewSamplesAborts) {
  EXPECT_DEATH(BuildKnnGraph(Matrix(1, 2), KnnGraphOptions{}), "two samples");
}

// Semi-supervised SRDA -------------------------------------------------

// Two Gaussian blobs with only a few labeled points per class.
void MakeSemiSupervisedBlobs(int per_class, int labeled_per_class, int dim,
                             Rng* rng, Matrix* x, std::vector<int>* labels,
                             std::vector<int>* truth) {
  const int c = 2;
  *x = Matrix(c * per_class, dim);
  labels->clear();
  truth->clear();
  for (int k = 0; k < c; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      for (int j = 0; j < dim; ++j) {
        (*x)(row, j) = 3.0 * k * (j == 0) + rng->NextGaussian();
      }
      truth->push_back(k);
      labels->push_back(i < labeled_per_class ? k : kUnlabeled);
    }
  }
}

TEST(SemiSupervisedSrdaTest, TrainsAndSeparates) {
  Rng rng(4);
  Matrix x;
  std::vector<int> labels;
  std::vector<int> truth;
  MakeSemiSupervisedBlobs(40, 5, 4, &rng, &x, &labels, &truth);
  const SemiSupervisedSrdaModel model =
      FitSemiSupervisedSrda(x, labels, 2);
  ASSERT_TRUE(model.converged);
  EXPECT_EQ(model.num_directions, 1);
  const Matrix embedded = model.embedding.Transform(x);
  CentroidClassifier classifier;
  classifier.Fit(embedded, truth, 2);
  EXPECT_LT(ErrorRate(classifier.Predict(embedded), truth), 0.1);
}

TEST(SemiSupervisedSrdaTest, ReducesToSupervisedWithoutGraph) {
  // graph_weight = 0 and all samples labeled: same subspace as SRDA.
  Rng rng(5);
  Matrix x;
  std::vector<int> labels;
  std::vector<int> truth;
  MakeSemiSupervisedBlobs(30, 30, 5, &rng, &x, &labels, &truth);
  SemiSupervisedSrdaOptions options;
  options.graph_weight = 0.0;
  const SemiSupervisedSrdaModel semi =
      FitSemiSupervisedSrda(x, labels, 2, options);
  const SrdaModel supervised = FitSrda(x, labels, 2);
  ASSERT_TRUE(semi.converged);
  // Directions are parallel up to sign.
  const Vector a = semi.embedding.projection().Col(0);
  const Vector b = supervised.embedding.projection().Col(0);
  const double cosine = Dot(a, b) / (Norm2(a) * Norm2(b));
  EXPECT_GT(std::fabs(cosine), 0.999);
}

TEST(SemiSupervisedSrdaTest, UnlabeledDataImprovesFewLabelCase) {
  // With 2 labels per class in 30 dims, the supervised solution is noisy;
  // the unlabeled structure should help on average. We check the semi-
  // supervised model is not (much) worse and that it trains at all.
  Rng rng(6);
  Matrix x;
  std::vector<int> labels;
  std::vector<int> truth;
  MakeSemiSupervisedBlobs(50, 2, 10, &rng, &x, &labels, &truth);

  const SemiSupervisedSrdaModel semi = FitSemiSupervisedSrda(x, labels, 2);
  ASSERT_TRUE(semi.converged);
  const Matrix semi_embedded = semi.embedding.Transform(x);
  CentroidClassifier semi_classifier;
  semi_classifier.Fit(semi_embedded, truth, 2);
  const double semi_error =
      ErrorRate(semi_classifier.Predict(semi_embedded), truth);

  // Supervised on the labeled subset only.
  std::vector<int> labeled_indices;
  std::vector<int> labeled_labels;
  for (int i = 0; i < static_cast<int>(labels.size()); ++i) {
    if (labels[static_cast<size_t>(i)] != kUnlabeled) {
      labeled_indices.push_back(i);
    }
  }
  DenseDataset full;
  full.features = x;
  full.labels = truth;
  full.num_classes = 2;
  const DenseDataset labeled_only = Subset(full, labeled_indices);
  const SrdaModel supervised =
      FitSrda(labeled_only.features, labeled_only.labels, 2);
  CentroidClassifier supervised_classifier;
  supervised_classifier.Fit(
      supervised.embedding.Transform(labeled_only.features),
      labeled_only.labels, 2);
  const double supervised_error = ErrorRate(
      supervised_classifier.Predict(supervised.embedding.Transform(x)),
      truth);

  EXPECT_LE(semi_error, supervised_error + 0.05);
}

// Random sparse rows (~30% density) over three classes; every fourth
// sample is unlabeled.
void MakeSparseSemiSupervised(int rows, int cols, uint64_t seed,
                              SparseMatrix* x, std::vector<int>* labels) {
  Rng rng(seed);
  SparseMatrixBuilder builder(rows, cols);
  labels->clear();
  for (int i = 0; i < rows; ++i) {
    const int label = i % 3;
    for (int j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.3) {
        builder.Add(i, j, rng.NextGaussian() + (j % 3 == label ? 1.5 : 0.0));
      }
    }
    labels->push_back(i % 4 == 3 ? kUnlabeled : label);
  }
  *x = std::move(builder).Build();
}

bool BitwiseEqual(const LinearEmbedding& a, const LinearEmbedding& b) {
  const Matrix& pa = a.projection();
  const Matrix& pb = b.projection();
  if (pa.rows() != pb.rows() || pa.cols() != pb.cols() ||
      a.bias().size() != b.bias().size()) {
    return false;
  }
  return std::memcmp(pa.data(), pb.data(),
                     sizeof(double) * pa.rows() * pa.cols()) == 0 &&
         std::memcmp(a.bias().data(), b.bias().data(),
                     sizeof(double) * a.bias().size()) == 0;
}

// Both layouts fit the one ridge objective of Eq. 15 (implicitly centered
// data, bias out of the penalty): with the label graph alone (graph_weight
// = 0) the two build bitwise-equal responses, so the sparse LSQR fit run to
// convergence must land on the dense normal-equations solution.
TEST(SemiSupervisedSrdaTest, SparseAndDenseLayoutsFitOneObjective) {
  SparseMatrix x;
  std::vector<int> labels;
  MakeSparseSemiSupervised(40, 25, 17, &x, &labels);
  const Matrix dense = x.ToDense();
  for (double alpha : {1.0, 0.1}) {
    SCOPED_TRACE(alpha);
    SemiSupervisedSrdaOptions options;
    options.alpha = alpha;
    options.graph_weight = 0.0;
    options.lsqr_iterations = 500;
    const SemiSupervisedSrdaModel sparse_fit =
        FitSemiSupervisedSrda(x, labels, 3, options);
    const SemiSupervisedSrdaModel dense_fit =
        FitSemiSupervisedSrda(dense, labels, 3, options);
    ASSERT_TRUE(sparse_fit.converged);
    ASSERT_TRUE(dense_fit.converged);
    ASSERT_EQ(sparse_fit.num_directions, 2);
    ASSERT_EQ(dense_fit.num_directions, 2);
    EXPECT_LT(MaxAbsDiff(sparse_fit.embedding.projection(),
                         dense_fit.embedding.projection()),
              1e-10);
    EXPECT_LT(MaxAbsDiff(sparse_fit.embedding.bias(),
                         dense_fit.embedding.bias()),
              1e-10);
  }
}

// The sparse fit (cosine kNN graph, spectral step, batched LSQR across the
// 512-row transpose chunk grid) is bitwise independent of the thread count.
TEST(SemiSupervisedSrdaTest, SparseFitBitwiseAcrossThreadCounts) {
  SparseMatrix x;
  std::vector<int> labels;
  MakeSparseSemiSupervised(520, 60, 23, &x, &labels);
  SemiSupervisedSrdaOptions options;
  options.graph_weight = 0.5;
  SetGlobalThreadCount(1);
  const SemiSupervisedSrdaModel serial =
      FitSemiSupervisedSrda(x, labels, 3, options);
  SetGlobalThreadCount(4);
  const SemiSupervisedSrdaModel threaded =
      FitSemiSupervisedSrda(x, labels, 3, options);
  SetGlobalThreadCount(0);
  ASSERT_TRUE(serial.converged);
  ASSERT_TRUE(threaded.converged);
  EXPECT_TRUE(BitwiseEqual(serial.embedding, threaded.embedding));
}

TEST(SemiSupervisedSrdaDeathTest, ClassWithoutLabelsAborts) {
  Matrix x(4, 2);
  EXPECT_DEATH(
      FitSemiSupervisedSrda(x, {0, 0, kUnlabeled, kUnlabeled}, 2),
      "no labeled samples");
}

TEST(SemiSupervisedSrdaDeathTest, BadLabelAborts) {
  Matrix x(3, 2);
  EXPECT_DEATH(FitSemiSupervisedSrda(x, {0, 1, 7}, 2), "outside");
}

}  // namespace
}  // namespace srda
