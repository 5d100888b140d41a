// Classifiers operating in the embedded (post-projection) space, plus error
// evaluation helpers. These close the loop for the paper's experiments: each
// discriminant method produces an embedding, a simple classifier measures the
// test error rate in that space.
//
// Both classifiers implement the batched Scorer interface: a whole block of
// embedded queries is scored at once through the blocked GEMM kernels
// (matrix/blas.h) instead of a per-row distance loop, so prediction
// throughput scales with the level-3 kernels' cache blocking and thread
// pool rather than gemv latency. Per-row results are independent of the
// block they arrive in — scoring rows one at a time, in micro-batches, or
// all at once yields identical predictions — which is what lets the
// serving layer (serve/serving.h) micro-batch traffic without changing
// any answer.

#ifndef SRDA_CLASSIFY_CLASSIFIERS_H_
#define SRDA_CLASSIFY_CLASSIFIERS_H_

#include <vector>

#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

// A fitted classifier that scores blocks of embedded queries. `embedded`
// carries one query per row in the embedding's output space; the result is
// one compact class id per row.
class Scorer {
 public:
  virtual ~Scorer() = default;

  // Dimension of the embedded space queries must arrive in.
  virtual int embedded_dim() const = 0;

  // Number of classes predictions are drawn from.
  virtual int num_classes() const = 0;

  // Scores every row of `embedded` (m x embedded_dim). Row i's prediction
  // depends only on row i, never on the rest of the block.
  virtual std::vector<int> ScoreBatch(const Matrix& embedded) const = 0;
};

// Nearest-centroid classifier: stores one mean vector per class and assigns
// each query to the class with the closest (Euclidean) centroid. Batched
// scoring expands |q - c_k|^2 = |q|^2 - 2 q.c_k + |c_k|^2 and drops the
// query term (constant per row): one blocked GEMM produces every q.c_k
// cross product, then an argmin over |c_k|^2 - 2 q.c_k per row. Ties take
// the lowest class id. The GEMM runs in axpy form against a transposed
// centroid copy (Multiply), whose kernel keeps a one-row query on vector
// chains; each q.c_k is the same ascending-j chain as the dot form
// (MultiplyTransposedB against the centroids), so the bits are too.
class CentroidClassifier : public Scorer {
 public:
  // Fits centroids from embedded training data (one row per sample).
  void Fit(const Matrix& embedded, const std::vector<int>& labels,
           int num_classes);

  // Adopts precomputed centroids (one row per class), e.g. loaded from a
  // saved model. Leaves the classifier ready to score.
  void SetCentroids(Matrix centroids);

  // Predicts the class of each row of `embedded` (same as ScoreBatch).
  std::vector<int> Predict(const Matrix& embedded) const;

  // Scorer:
  int embedded_dim() const override { return centroids_.cols(); }
  int num_classes() const override { return centroids_.rows(); }
  std::vector<int> ScoreBatch(const Matrix& embedded) const override;

  const Matrix& centroids() const { return centroids_; }

 private:
  // Derives the transposed copy and the squared norms from centroids_.
  void PrepareScoring();

  Matrix centroids_;            // num_classes x dim
  Matrix centroids_t_;          // dim x num_classes, the scoring GEMM's B
  Vector centroid_sq_norms_;    // |c_k|^2, precomputed at fit time
  bool fitted_ = false;
};

// k-nearest-neighbor classifier with majority vote (ties broken by the
// nearest member of the tied classes). Batched scoring computes the
// query x train cross products with one blocked GEMM, then ranks
// |t|^2 - 2 q.t per row (the |q|^2 term cannot change the order).
class KnnClassifier : public Scorer {
 public:
  explicit KnnClassifier(int k = 1);

  void Fit(const Matrix& embedded, const std::vector<int>& labels,
           int num_classes);

  std::vector<int> Predict(const Matrix& embedded) const;

  // Scorer:
  int embedded_dim() const override { return train_.cols(); }
  int num_classes() const override { return num_classes_; }
  std::vector<int> ScoreBatch(const Matrix& embedded) const override;

 private:
  int k_;
  Matrix train_;
  Vector train_sq_norms_;  // |t|^2 per training row
  std::vector<int> labels_;
  int num_classes_ = 0;
  bool fitted_ = false;
};

// Fraction of mismatches between `predicted` and `actual` (same length,
// non-empty), in [0, 1].
double ErrorRate(const std::vector<int>& predicted,
                 const std::vector<int>& actual);

// Mean and sample standard deviation of a set of measurements.
struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStd ComputeMeanStd(const std::vector<double>& values);

}  // namespace srda

#endif  // SRDA_CLASSIFY_CLASSIFIERS_H_
