// Incremental SRDA: stream samples one at a time and re-solve cheaply.
//
// The paper compares against IDR/QR precisely because that baseline is
// *incremental*; SRDA's normal-equations formulation supports the same
// mode naturally. The trainer maintains the Cholesky factor of the
// augmented Gram matrix [X 1]^T [X 1] + alpha*I via O(n^2) rank-1 updates
// per sample, plus per-class feature sums, so adding a sample costs O(n^2)
// and producing the current embedding costs O(c n^2) back-substitutions —
// no pass over past data is ever needed.
//
// The solution is exactly the batch augmented ridge regression
//   min ||[X 1] [a; b] - ybar||^2 + alpha (||a||^2 + b^2),
// so IncrementalSrda damps the bias b. FitSrda does not: both of its paths
// solve on implicitly centered data and leave the bias out of the penalty
// (the paper's Eq. 15), so the two models differ slightly at alpha > 0.

#ifndef SRDA_CORE_INCREMENTAL_SRDA_H_
#define SRDA_CORE_INCREMENTAL_SRDA_H_

#include <vector>

#include "core/embedding.h"
#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

class IncrementalSrda {
 public:
  // `alpha` > 0 keeps the streamed Gram matrix positive definite from the
  // first sample on.
  IncrementalSrda(int num_features, int num_classes, double alpha);

  // Streams one labeled sample; O((n+1)^2).
  void AddSample(const Vector& features, int label);

  // Streams a whole shard of rows at once via a blocked rank-k Cholesky
  // update; O(k (n+1)^2) but with far better locality than k AddSample
  // calls. This is the bulk-load half of the out-of-core story: fit the
  // history through RowShardReader shards, then keep streaming new samples
  // with AddSample. The factor equals the k successive rank-1 updates up
  // to rounding (the blocked update reassociates the rotations), so
  // results agree to solver tolerance, not bitwise.
  void AddShard(const Matrix& features, const std::vector<int>& labels);

  int num_samples() const { return total_count_; }
  int num_features() const { return num_features_; }
  int num_classes() const { return num_classes_; }

  // True once every class has at least one sample (the embedding is only
  // defined then).
  bool ready() const;

  // Solves for the current discriminant embedding; O(c (n+1)^2).
  LinearEmbedding Solve() const;

 private:
  int num_features_;
  int num_classes_;
  int total_count_ = 0;
  Matrix chol_factor_;       // (n+1) x (n+1) factor of [X 1]^T [X 1] + aI
  Matrix class_sums_;        // c x n feature sums per class
  std::vector<int> counts_;  // samples per class
};

}  // namespace srda

#endif  // SRDA_CORE_INCREMENTAL_SRDA_H_
