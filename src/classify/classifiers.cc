#include "classify/classifiers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "dataset/dataset.h"
#include "matrix/blas.h"
#include "obs/trace.h"

namespace srda {
namespace {

// |row|^2 per row, precomputed once at fit time so batched scoring only
// needs the cross products.
Vector RowSquaredNorms(const Matrix& m) {
  Vector norms(m.rows());
  for (int i = 0; i < m.rows(); ++i) {
    const double* row = m.RowPtr(i);
    double sum = 0.0;
    for (int j = 0; j < m.cols(); ++j) sum += row[j] * row[j];
    norms[i] = sum;
  }
  return norms;
}

}  // namespace

void CentroidClassifier::Fit(const Matrix& embedded,
                             const std::vector<int>& labels, int num_classes) {
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), embedded.rows())
      << "label count mismatch";
  SRDA_CHECK_GT(embedded.rows(), 0) << "cannot fit on an empty set";
  const std::vector<int> counts = ClassCounts(labels, num_classes);
  for (int k = 0; k < num_classes; ++k) {
    SRDA_CHECK_GT(counts[static_cast<size_t>(k)], 0)
        << "class " << k << " has no training samples";
  }
  centroids_ = Matrix(num_classes, embedded.cols());
  for (int i = 0; i < embedded.rows(); ++i) {
    const double* row = embedded.RowPtr(i);
    double* centroid = centroids_.RowPtr(labels[static_cast<size_t>(i)]);
    for (int j = 0; j < embedded.cols(); ++j) centroid[j] += row[j];
  }
  for (int k = 0; k < num_classes; ++k) {
    const double inv = 1.0 / counts[static_cast<size_t>(k)];
    double* centroid = centroids_.RowPtr(k);
    for (int j = 0; j < embedded.cols(); ++j) centroid[j] *= inv;
  }
  PrepareScoring();
}

void CentroidClassifier::SetCentroids(Matrix centroids) {
  SRDA_CHECK_GT(centroids.rows(), 0) << "need at least one centroid";
  centroids_ = std::move(centroids);
  PrepareScoring();
}

void CentroidClassifier::PrepareScoring() {
  centroids_t_ = centroids_.Transposed();
  centroid_sq_norms_ = RowSquaredNorms(centroids_);
  fitted_ = true;
}

std::vector<int> CentroidClassifier::ScoreBatch(const Matrix& embedded) const {
  SRDA_CHECK(fitted_) << "Predict before Fit";
  SRDA_CHECK_EQ(embedded.cols(), centroids_.cols())
      << "embedding dimension mismatch";
  SRDA_TRACE_SCOPE("classify.score");
  // One blocked GEMM for every query x centroid cross product; row i of the
  // result depends only on query i, so any sub-batching of the rows scores
  // identically.
  const Matrix cross = Multiply(embedded, centroids_t_);
  std::vector<int> predictions(static_cast<size_t>(embedded.rows()), 0);
  for (int i = 0; i < cross.rows(); ++i) {
    const double* row = cross.RowPtr(i);
    int best_class = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (int k = 0; k < centroids_.rows(); ++k) {
      const double score = centroid_sq_norms_[k] - 2.0 * row[k];
      if (score < best_score) {
        best_score = score;
        best_class = k;
      }
    }
    predictions[static_cast<size_t>(i)] = best_class;
  }
  return predictions;
}

std::vector<int> CentroidClassifier::Predict(const Matrix& embedded) const {
  return ScoreBatch(embedded);
}

KnnClassifier::KnnClassifier(int k) : k_(k) {
  SRDA_CHECK_GT(k, 0) << "k must be positive";
}

void KnnClassifier::Fit(const Matrix& embedded, const std::vector<int>& labels,
                        int num_classes) {
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), embedded.rows())
      << "label count mismatch";
  SRDA_CHECK_GT(embedded.rows(), 0) << "cannot fit on an empty set";
  ClassCounts(labels, num_classes);  // Validates the labels.
  train_ = embedded;
  train_sq_norms_ = RowSquaredNorms(train_);
  labels_ = labels;
  num_classes_ = num_classes;
  fitted_ = true;
}

std::vector<int> KnnClassifier::ScoreBatch(const Matrix& embedded) const {
  SRDA_CHECK(fitted_) << "Predict before Fit";
  SRDA_CHECK_EQ(embedded.cols(), train_.cols())
      << "embedding dimension mismatch";
  SRDA_TRACE_SCOPE("classify.score");
  const int k = std::min(k_, train_.rows());
  const Matrix cross = MultiplyTransposedB(embedded, train_);
  std::vector<int> predictions;
  predictions.reserve(static_cast<size_t>(embedded.rows()));
  std::vector<std::pair<double, int>> distances(
      static_cast<size_t>(train_.rows()));
  for (int i = 0; i < cross.rows(); ++i) {
    const double* row = cross.RowPtr(i);
    // |q - t|^2 shifted by the per-row constant |q|^2: the ranking (and the
    // equal-distance, lower-label tie rule of std::pair ordering) is
    // unchanged.
    for (int t = 0; t < train_.rows(); ++t) {
      distances[static_cast<size_t>(t)] = {
          train_sq_norms_[t] - 2.0 * row[t], labels_[static_cast<size_t>(t)]};
    }
    std::partial_sort(distances.begin(), distances.begin() + k,
                      distances.end());
    // Majority vote among the k nearest; ties go to the class whose nearest
    // member is closest (i.e. the first encountered in sorted order).
    std::vector<int> votes(static_cast<size_t>(num_classes_), 0);
    for (int j = 0; j < k; ++j) {
      ++votes[static_cast<size_t>(distances[static_cast<size_t>(j)].second)];
    }
    int best_class = -1;
    int best_votes = 0;
    for (int j = 0; j < k; ++j) {
      const int label = distances[static_cast<size_t>(j)].second;
      if (votes[static_cast<size_t>(label)] > best_votes) {
        best_votes = votes[static_cast<size_t>(label)];
        best_class = label;
      }
    }
    predictions.push_back(best_class);
  }
  return predictions;
}

std::vector<int> KnnClassifier::Predict(const Matrix& embedded) const {
  return ScoreBatch(embedded);
}

double ErrorRate(const std::vector<int>& predicted,
                 const std::vector<int>& actual) {
  SRDA_CHECK_EQ(predicted.size(), actual.size()) << "size mismatch";
  SRDA_CHECK(!predicted.empty()) << "empty prediction set";
  int errors = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] != actual[i]) ++errors;
  }
  return static_cast<double>(errors) / static_cast<double>(predicted.size());
}

MeanStd ComputeMeanStd(const std::vector<double>& values) {
  SRDA_CHECK(!values.empty()) << "no measurements";
  MeanStd result;
  for (double value : values) result.mean += value;
  result.mean /= static_cast<double>(values.size());
  if (values.size() > 1) {
    double sum_sq = 0.0;
    for (double value : values) {
      const double diff = value - result.mean;
      sum_sq += diff * diff;
    }
    result.stddev =
        std::sqrt(sum_sq / (static_cast<double>(values.size()) - 1.0));
  }
  return result;
}

}  // namespace srda
