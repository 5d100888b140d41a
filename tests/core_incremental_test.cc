// Tests for incremental SRDA and the Cholesky rank-1 update it builds on.

#include <gtest/gtest.h>

#include "classify/classifiers.h"
#include "common/rng.h"
#include "core/incremental_srda.h"
#include "core/responses.h"
#include "core/srda.h"
#include "linalg/cholesky.h"
#include "linalg/cholesky_update.h"
#include "matrix/blas.h"

namespace srda {
namespace {

Matrix RandomSpd(int n, Rng* rng) {
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng->NextGaussian();
  }
  Matrix spd = Gram(a);
  AddDiagonal(1.0, &spd);
  return spd;
}

TEST(CholeskyRank1UpdateTest, MatchesRefactorization) {
  Rng rng(1);
  const int n = 10;
  Matrix a = RandomSpd(n, &rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(a));
  Matrix updated_factor = chol.factor();

  Vector v(n);
  for (int i = 0; i < n; ++i) v[i] = rng.NextGaussian();
  CholeskyRank1Update(&updated_factor, v);

  // Reference: factor A + v v^T from scratch.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) += v[i] * v[j];
  }
  Cholesky reference;
  ASSERT_TRUE(reference.Factor(a));
  EXPECT_LT(MaxAbsDiff(updated_factor, reference.factor()), 1e-9);
}

TEST(CholeskyRank1UpdateTest, RepeatedUpdatesStayAccurate) {
  Rng rng(2);
  const int n = 6;
  Matrix a = Matrix::Identity(n);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(a));
  Matrix factor = chol.factor();
  for (int step = 0; step < 50; ++step) {
    Vector v(n);
    for (int i = 0; i < n; ++i) v[i] = rng.NextGaussian();
    CholeskyRank1Update(&factor, v);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) a(i, j) += v[i] * v[j];
    }
  }
  const Matrix reconstructed = MultiplyTransposedB(factor, factor);
  EXPECT_LT(MaxAbsDiff(reconstructed, a), 1e-8 * (1.0 + NormInf(a.Row(0))));
}

TEST(CholeskyRank1UpdateDeathTest, SizeMismatchAborts) {
  // The update vector must have one entry per factor row.
  Matrix factor = Matrix::Identity(3);
  EXPECT_DEATH(CholeskyRank1Update(&factor, Vector(4)), "size mismatch");
  EXPECT_DEATH(CholeskyRank1Update(&factor, Vector(2)), "size mismatch");
}

void MakeBlobs(int num_classes, int per_class, int dim, Rng* rng, Matrix* x,
               std::vector<int>* labels) {
  *x = Matrix(num_classes * per_class, dim);
  labels->clear();
  for (int k = 0; k < num_classes; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      for (int j = 0; j < dim; ++j) {
        (*x)(row, j) = 3.0 * (j % num_classes == k) + rng->NextGaussian();
      }
      labels->push_back(k);
    }
  }
}

TEST(IncrementalSrdaTest, MatchesBatchAugmentedSolution) {
  // Streaming all samples must reproduce the batch augmented ridge solution
  // exactly (same normal equations).
  Rng rng(3);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(3, 12, 7, &rng, &x, &labels);
  const double alpha = 0.8;

  IncrementalSrda incremental(7, 3, alpha);
  for (int i = 0; i < x.rows(); ++i) {
    incremental.AddSample(x.Row(i), labels[static_cast<size_t>(i)]);
  }
  ASSERT_TRUE(incremental.ready());
  const LinearEmbedding streamed = incremental.Solve();

  // Batch reference: solve ([X 1]^T [X 1] + aI) [A; b] = [X 1]^T Y directly.
  const int m = x.rows();
  const int n = 7;
  Matrix augmented(m, n + 1);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) augmented(i, j) = x(i, j);
    augmented(i, n) = 1.0;
  }
  Matrix gram = Gram(augmented);
  AddDiagonal(alpha, &gram);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(gram));
  const Matrix responses = GenerateSrdaResponses(labels, 3);
  const Matrix solution =
      chol.SolveMatrix(MultiplyTransposedA(augmented, responses));

  for (int d = 0; d < 2; ++d) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(streamed.projection()(j, d), solution(j, d), 1e-8)
          << "entry " << j << "," << d;
    }
    EXPECT_NEAR(streamed.bias()[d], solution(n, d), 1e-8);
  }
}

TEST(IncrementalSrdaTest, OrderIndependent) {
  Rng rng(4);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(2, 10, 5, &rng, &x, &labels);

  IncrementalSrda forward(5, 2, 1.0);
  for (int i = 0; i < x.rows(); ++i) {
    forward.AddSample(x.Row(i), labels[static_cast<size_t>(i)]);
  }
  IncrementalSrda backward(5, 2, 1.0);
  for (int i = x.rows() - 1; i >= 0; --i) {
    backward.AddSample(x.Row(i), labels[static_cast<size_t>(i)]);
  }
  const LinearEmbedding a = forward.Solve();
  const LinearEmbedding b = backward.Solve();
  EXPECT_LT(MaxAbsDiff(a.projection(), b.projection()), 1e-8);
  EXPECT_LT(MaxAbsDiff(a.bias(), b.bias()), 1e-8);
}

TEST(IncrementalSrdaTest, ReadyOnlyAfterAllClassesSeen) {
  IncrementalSrda incremental(3, 2, 1.0);
  EXPECT_FALSE(incremental.ready());
  incremental.AddSample(Vector{1.0, 0.0, 0.0}, 0);
  EXPECT_FALSE(incremental.ready());
  incremental.AddSample(Vector{0.0, 1.0, 0.0}, 1);
  EXPECT_TRUE(incremental.ready());
  EXPECT_EQ(incremental.num_samples(), 2);
}

TEST(IncrementalSrdaTest, ClassifiesAfterStreaming) {
  Rng rng(5);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(3, 40, 6, &rng, &x, &labels);
  IncrementalSrda incremental(6, 3, 1.0);
  for (int i = 0; i < x.rows(); ++i) {
    incremental.AddSample(x.Row(i), labels[static_cast<size_t>(i)]);
  }
  const LinearEmbedding embedding = incremental.Solve();
  const Matrix embedded = embedding.Transform(x);
  CentroidClassifier classifier;
  classifier.Fit(embedded, labels, 3);
  EXPECT_LT(ErrorRate(classifier.Predict(embedded), labels), 0.05);
}

TEST(IncrementalSrdaTest, SolveIsRepeatable) {
  Rng rng(6);
  Matrix x;
  std::vector<int> labels;
  MakeBlobs(2, 8, 4, &rng, &x, &labels);
  IncrementalSrda incremental(4, 2, 1.0);
  for (int i = 0; i < x.rows(); ++i) {
    incremental.AddSample(x.Row(i), labels[static_cast<size_t>(i)]);
  }
  const LinearEmbedding a = incremental.Solve();
  const LinearEmbedding b = incremental.Solve();  // Const: no state change.
  EXPECT_EQ(MaxAbsDiff(a.projection(), b.projection()), 0.0);
}

TEST(IncrementalSrdaTest, UpdatesAfterMoreData) {
  // Adding many more samples of a shifted class must move the solution.
  Rng rng(7);
  IncrementalSrda incremental(3, 2, 1.0);
  for (int i = 0; i < 10; ++i) {
    Vector x(3);
    for (int j = 0; j < 3; ++j) x[j] = rng.NextGaussian() + 2.0 * (i % 2);
    incremental.AddSample(x, i % 2);
  }
  const LinearEmbedding before = incremental.Solve();
  for (int i = 0; i < 50; ++i) {
    Vector x(3);
    for (int j = 0; j < 3; ++j) x[j] = rng.NextGaussian() - 5.0;
    incremental.AddSample(x, 0);
  }
  const LinearEmbedding after = incremental.Solve();
  EXPECT_GT(MaxAbsDiff(before.projection(), after.projection()), 1e-4);
}

TEST(IncrementalSrdaDeathTest, BadUsageAborts) {
  IncrementalSrda incremental(3, 2, 1.0);
  EXPECT_DEATH(incremental.AddSample(Vector(2), 0), "feature size");
  EXPECT_DEATH(incremental.AddSample(Vector(3), 2), "outside");
  EXPECT_DEATH(incremental.Solve(), "before every class");
  EXPECT_DEATH(IncrementalSrda(3, 2, 0.0), "alpha");
}

}  // namespace
}  // namespace srda
