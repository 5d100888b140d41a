#include "core/incremental_srda.h"

#include <cmath>

#include "common/check.h"
#include "linalg/cholesky.h"
#include "linalg/cholesky_update.h"

namespace srda {
namespace {

// Orthonormalizes the class-value columns [1, e_1, .., e_c] under the
// weighted inner product <u, v> = sum_k count_k u_k v_k — the compressed
// form of the response generation of responses.cc, exact because every
// response is constant within a class. Returns the c x (c-1) class-value
// matrix V: response j assigns value V(k, j) to samples of class k.
Matrix ClassResponseValues(const std::vector<int>& counts) {
  const int c = static_cast<int>(counts.size());
  // Columns: ones, then the c indicators.
  Matrix basis(c, c + 1);
  for (int k = 0; k < c; ++k) {
    basis(k, 0) = 1.0;
    basis(k, 1 + k) = 1.0;
  }
  auto weighted_dot = [&](int col_a, int col_b) {
    double sum = 0.0;
    for (int k = 0; k < c; ++k) {
      sum += counts[static_cast<size_t>(k)] * basis(k, col_a) *
             basis(k, col_b);
    }
    return sum;
  };

  std::vector<int> kept;
  for (int j = 0; j < c + 1; ++j) {
    const double original_norm = std::sqrt(weighted_dot(j, j));
    for (int pass = 0; pass < 2; ++pass) {
      for (int kept_col : kept) {
        const double proj = weighted_dot(kept_col, j);
        for (int k = 0; k < c; ++k) basis(k, j) -= proj * basis(k, kept_col);
      }
    }
    const double residual_norm = std::sqrt(weighted_dot(j, j));
    if (original_norm == 0.0 || residual_norm <= 1e-10 * original_norm) {
      continue;
    }
    const double inv = 1.0 / residual_norm;
    for (int k = 0; k < c; ++k) basis(k, j) *= inv;
    kept.push_back(j);
  }
  SRDA_CHECK_EQ(static_cast<int>(kept.size()), c)
      << "unexpected rank in compressed response generation";

  // Drop the ones vector (always kept first).
  Matrix values(c, c - 1);
  for (int out = 1; out < c; ++out) {
    for (int k = 0; k < c; ++k) values(k, out - 1) = basis(k, kept[out]);
  }
  return values;
}

}  // namespace

IncrementalSrda::IncrementalSrda(int num_features, int num_classes,
                                 double alpha)
    : num_features_(num_features), num_classes_(num_classes) {
  SRDA_CHECK_GT(num_features, 0);
  SRDA_CHECK_GT(num_classes, 1) << "need at least two classes";
  SRDA_CHECK_GT(alpha, 0.0)
      << "incremental SRDA needs alpha > 0 to stay positive definite";
  // Factor of alpha * I: sqrt(alpha) on the diagonal.
  chol_factor_ = Matrix(num_features + 1, num_features + 1);
  const double sqrt_alpha = std::sqrt(alpha);
  for (int i = 0; i <= num_features; ++i) chol_factor_(i, i) = sqrt_alpha;
  class_sums_ = Matrix(num_classes, num_features);
  counts_.assign(static_cast<size_t>(num_classes), 0);
}

void IncrementalSrda::AddSample(const Vector& features, int label) {
  SRDA_CHECK_EQ(features.size(), num_features_) << "feature size mismatch";
  SRDA_CHECK(label >= 0 && label < num_classes_)
      << "label " << label << " outside [0, " << num_classes_ << ")";
  // Augmented sample [x; 1].
  Vector augmented(num_features_ + 1);
  for (int j = 0; j < num_features_; ++j) augmented[j] = features[j];
  augmented[num_features_] = 1.0;
  CholeskyRank1Update(&chol_factor_, std::move(augmented));

  double* sums = class_sums_.RowPtr(label);
  for (int j = 0; j < num_features_; ++j) sums[j] += features[j];
  ++counts_[static_cast<size_t>(label)];
  ++total_count_;
}

void IncrementalSrda::AddShard(const Matrix& features,
                               const std::vector<int>& labels) {
  const int k = features.rows();
  SRDA_CHECK_GT(k, 0) << "empty shard";
  SRDA_CHECK_EQ(features.cols(), num_features_) << "feature size mismatch";
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), k)
      << "label count mismatch";
  // Augmented shard [X 1]; one blocked rank-k update of the factor.
  Matrix augmented(k, num_features_ + 1);
  for (int i = 0; i < k; ++i) {
    const int label = labels[static_cast<size_t>(i)];
    SRDA_CHECK(label >= 0 && label < num_classes_)
        << "label " << label << " outside [0, " << num_classes_ << ")";
    const double* src = features.RowPtr(i);
    double* dst = augmented.RowPtr(i);
    for (int j = 0; j < num_features_; ++j) dst[j] = src[j];
    dst[num_features_] = 1.0;
  }
  CholeskyRankKUpdate(&chol_factor_, augmented);
  for (int i = 0; i < k; ++i) {
    const double* src = features.RowPtr(i);
    double* sums = class_sums_.RowPtr(labels[static_cast<size_t>(i)]);
    for (int j = 0; j < num_features_; ++j) sums[j] += src[j];
    ++counts_[static_cast<size_t>(labels[static_cast<size_t>(i)])];
  }
  total_count_ += k;
}

bool IncrementalSrda::ready() const {
  for (int count : counts_) {
    if (count == 0) return false;
  }
  return true;
}

LinearEmbedding IncrementalSrda::Solve() const {
  SRDA_CHECK(ready()) << "Solve before every class has a sample";
  const Matrix values = ClassResponseValues(counts_);
  const int d = num_classes_ - 1;

  // RHS column j: [sum_k V(k,j) class_sum_k ; sum_k V(k,j) count_k]; all
  // d columns go through one forward and one backward sweep.
  Matrix rhs(num_features_ + 1, d);
  for (int j = 0; j < d; ++j) {
    for (int k = 0; k < num_classes_; ++k) {
      const double weight = values(k, j);
      const double* sums = class_sums_.RowPtr(k);
      for (int f = 0; f < num_features_; ++f) rhs(f, j) += weight * sums[f];
      rhs(num_features_, j) += weight * counts_[static_cast<size_t>(k)];
    }
  }
  const Matrix solution = BackSubstituteTransposedMatrix(
      chol_factor_, ForwardSubstituteMatrix(chol_factor_, rhs));
  Matrix projection = solution.Block(0, 0, num_features_, d);
  Vector bias = solution.Row(num_features_);
  return LinearEmbedding(std::move(projection), std::move(bias));
}

}  // namespace srda
