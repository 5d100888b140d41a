// Tests for stratified k-fold splitting and alpha selection.

#include <algorithm>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "classify/classifiers.h"
#include "common/rng.h"
#include "core/srda.h"
#include "select/model_selection.h"

namespace srda {
namespace {

std::vector<int> BalancedLabels(int num_classes, int per_class) {
  std::vector<int> labels;
  for (int k = 0; k < num_classes; ++k) {
    for (int i = 0; i < per_class; ++i) labels.push_back(k);
  }
  return labels;
}

TEST(StratifiedFoldsTest, PartitionCoversAllSamples) {
  const std::vector<int> labels = BalancedLabels(3, 12);
  Rng rng(1);
  const auto folds = StratifiedFolds(labels, 3, 4, &rng);
  ASSERT_EQ(folds.size(), 4u);
  std::set<int> seen;
  for (const auto& fold : folds) {
    for (int index : fold) {
      EXPECT_TRUE(seen.insert(index).second) << "duplicate index " << index;
    }
  }
  EXPECT_EQ(seen.size(), labels.size());
}

TEST(StratifiedFoldsTest, FoldsAreClassBalanced) {
  const std::vector<int> labels = BalancedLabels(2, 20);
  Rng rng(2);
  const auto folds = StratifiedFolds(labels, 2, 5, &rng);
  for (const auto& fold : folds) {
    int class0 = 0;
    for (int index : fold) {
      if (labels[static_cast<size_t>(index)] == 0) ++class0;
    }
    EXPECT_EQ(class0, 4);  // 20 / 5 per class per fold.
    EXPECT_EQ(fold.size(), 8u);
  }
}

TEST(StratifiedFoldsDeathTest, TooManyFoldsAborts) {
  const std::vector<int> labels = BalancedLabels(2, 3);
  Rng rng(3);
  EXPECT_DEATH(StratifiedFolds(labels, 2, 4, &rng), "fewer samples");
}

TEST(SelectSrdaAlphaTest, PicksReasonableAlphaOnBlobs) {
  Rng rng(5);
  DenseDataset dataset;
  dataset.num_classes = 3;
  const int per_class = 20;
  dataset.features = Matrix(3 * per_class, 8);
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      dataset.labels.push_back(k);
      for (int j = 0; j < 8; ++j) {
        dataset.features(row, j) = 2.5 * (j == k) + rng.NextGaussian();
      }
    }
  }
  const std::vector<double> alphas = {1e-4, 0.01, 1.0, 100.0, 1e4};
  const AlphaSearchResult result =
      SelectSrdaAlpha(dataset, alphas, 4, /*seed=*/42);
  ASSERT_EQ(result.errors.size(), alphas.size());
  for (double error : result.errors) {
    EXPECT_GE(error, 0.0);
    EXPECT_LE(error, 1.0);
  }
  EXPECT_EQ(result.best_alpha,
            alphas[static_cast<size_t>(result.best_index)]);
  // Extreme over-regularization should not win on separable data.
  EXPECT_LT(result.errors[static_cast<size_t>(result.best_index)],
            result.errors.back() + 1e-12);
}

TEST(SelectSrdaAlphaTest, DeterministicInSeed) {
  Rng rng(6);
  DenseDataset dataset;
  dataset.num_classes = 2;
  const int per_class = 12;
  dataset.features = Matrix(2 * per_class, 4);
  for (int k = 0; k < 2; ++k) {
    for (int i = 0; i < per_class; ++i) {
      const int row = k * per_class + i;
      dataset.labels.push_back(k);
      for (int j = 0; j < 4; ++j) {
        dataset.features(row, j) = 1.5 * k + rng.NextGaussian();
      }
    }
  }
  const std::vector<double> alphas = {0.1, 1.0};
  const AlphaSearchResult a = SelectSrdaAlpha(dataset, alphas, 3, 7);
  const AlphaSearchResult b = SelectSrdaAlpha(dataset, alphas, 3, 7);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.best_index, b.best_index);
}

// Each grid point's error is the fold mean of a fresh FitSrda on the
// training fold, scored by the centroid classifier on the held-out fold.
// The search shares one solver and one response matrix per fold across the
// grid and must reproduce those errors bit for bit, on the primal (more
// rows than features) and the dual (more features than rows) path.
TEST(SelectSrdaAlphaTest, ErrorsMatchPerFoldFitSrda) {
  const std::vector<double> alphas = {0.01, 1.0, 100.0};
  const int num_folds = 5;
  const uint64_t seed = 11;
  for (const int dim : {6, 50}) {
    Rng rng(8 + dim);
    DenseDataset dataset;
    dataset.num_classes = 3;
    const int per_class = 15;
    dataset.features = Matrix(3 * per_class, dim);
    // Interleaved labels: each training fold has its own label sequence,
    // so its responses differ from every other fold's.
    for (int row = 0; row < 3 * per_class; ++row) {
      const int k = row % 3;
      dataset.labels.push_back(k);
      for (int j = 0; j < dim; ++j) {
        dataset.features(row, j) = 1.2 * (j % 3 == k) + rng.NextGaussian();
      }
    }
    const AlphaSearchResult result =
        SelectSrdaAlpha(dataset, alphas, num_folds, seed);

    Rng fold_rng(seed);
    const std::vector<std::vector<int>> folds = StratifiedFolds(
        dataset.labels, dataset.num_classes, num_folds, &fold_rng);
    std::vector<double> expected(alphas.size(), 0.0);
    for (int f = 0; f < num_folds; ++f) {
      std::vector<int> train_indices;
      for (int other = 0; other < num_folds; ++other) {
        if (other == f) continue;
        train_indices.insert(train_indices.end(),
                             folds[static_cast<size_t>(other)].begin(),
                             folds[static_cast<size_t>(other)].end());
      }
      std::sort(train_indices.begin(), train_indices.end());
      const DenseDataset train = Subset(dataset, train_indices);
      const DenseDataset validation =
          Subset(dataset, folds[static_cast<size_t>(f)]);
      for (size_t a = 0; a < alphas.size(); ++a) {
        SrdaOptions options;
        options.alpha = alphas[a];
        const SrdaModel model = FitSrda(train.features, train.labels,
                                        train.num_classes, options);
        ASSERT_TRUE(model.converged);
        CentroidClassifier classifier;
        classifier.Fit(model.embedding.Transform(train.features),
                       train.labels, train.num_classes);
        expected[a] += ErrorRate(
            classifier.Predict(model.embedding.Transform(validation.features)),
            validation.labels);
      }
    }
    for (double& error : expected) error /= num_folds;
    ASSERT_EQ(result.errors.size(), expected.size());
    EXPECT_EQ(std::memcmp(result.errors.data(), expected.data(),
                          sizeof(double) * expected.size()),
              0)
        << "dim=" << dim;
  }
}

TEST(SelectSrdaAlphaDeathTest, EmptyGridAborts) {
  DenseDataset dataset;
  dataset.num_classes = 2;
  dataset.features = Matrix(4, 2);
  dataset.labels = {0, 0, 1, 1};
  EXPECT_DEATH(SelectSrdaAlpha(dataset, {}, 2, 1), "no alpha");
}

}  // namespace
}  // namespace srda
