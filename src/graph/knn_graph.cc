#include "graph/knn_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"

namespace srda {

SparseMatrix BuildKnnGraph(const Matrix& x, const KnnGraphOptions& options) {
  const int m = x.rows();
  SRDA_CHECK_GT(m, 1) << "graph needs at least two samples";
  SRDA_CHECK_GT(options.num_neighbors, 0);
  const int k = std::min(options.num_neighbors, m - 1);

  // All pairwise squared distances, then per-row k smallest.
  std::vector<std::pair<double, int>> row_distances(
      static_cast<size_t>(m));
  std::vector<std::vector<std::pair<int, double>>> neighbors(
      static_cast<size_t>(m));
  double knn_distance_sum = 0.0;
  int knn_distance_count = 0;
  for (int i = 0; i < m; ++i) {
    const double* xi = x.RowPtr(i);
    for (int j = 0; j < m; ++j) {
      double distance_sq = 0.0;
      const double* xj = x.RowPtr(j);
      for (int d = 0; d < x.cols(); ++d) {
        const double diff = xi[d] - xj[d];
        distance_sq += diff * diff;
      }
      row_distances[static_cast<size_t>(j)] = {distance_sq, j};
    }
    row_distances[static_cast<size_t>(i)].first =
        std::numeric_limits<double>::infinity();  // Exclude self.
    std::partial_sort(row_distances.begin(), row_distances.begin() + k,
                      row_distances.end());
    for (int neighbor = 0; neighbor < k; ++neighbor) {
      const auto& [distance_sq, index] =
          row_distances[static_cast<size_t>(neighbor)];
      neighbors[static_cast<size_t>(i)].push_back({index, distance_sq});
      knn_distance_sum += std::sqrt(distance_sq);
      ++knn_distance_count;
    }
  }

  // Heat-kernel bandwidth: the mean kNN distance.
  double bandwidth = knn_distance_sum / std::max(knn_distance_count, 1);
  if (bandwidth == 0.0) bandwidth = 1.0;  // All points identical.
  const double inv_two_bw_sq = 1.0 / (2.0 * bandwidth * bandwidth);

  // Symmetrize: w_ij = max over both directions (duplicates are summed by
  // the builder, so emit each directed edge at half weight and let i-j plus
  // j-i sum; for one-directional edges the weight is halved, which keeps the
  // graph symmetric and positive — the standard "or" symmetrization up to a
  // factor that normalization absorbs).
  SparseMatrixBuilder builder(m, m);
  for (int i = 0; i < m; ++i) {
    for (const auto& [j, distance_sq] : neighbors[static_cast<size_t>(i)]) {
      double weight = 1.0;
      if (options.weights == GraphWeightScheme::kHeatKernel) {
        weight = std::exp(-distance_sq * inv_two_bw_sq);
      }
      builder.Add(i, j, 0.5 * weight);
      builder.Add(j, i, 0.5 * weight);
    }
  }
  return std::move(builder).Build();
}

SparseMatrix BuildCosineKnnGraph(const SparseMatrix& x, int num_neighbors) {
  const int m = x.rows();
  SRDA_CHECK_GT(m, 1) << "graph needs at least two samples";
  SRDA_CHECK_GT(num_neighbors, 0);
  const int k = std::min(num_neighbors, m - 1);

  // Row norms for cosine normalization.
  std::vector<double> norms(static_cast<size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    const double* values = x.RowValues(i);
    double sum = 0.0;
    for (int e = 0; e < x.RowNonZeros(i); ++e) sum += values[e] * values[e];
    norms[static_cast<size_t>(i)] = std::sqrt(sum);
  }

  SparseMatrixBuilder builder(m, m);
  std::vector<double> dense_row;
  std::vector<std::pair<double, int>> similarities(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    // Scatter row i into a dense buffer for fast dot products.
    dense_row.assign(static_cast<size_t>(x.cols()), 0.0);
    const int* cols_i = x.RowIndices(i);
    const double* values_i = x.RowValues(i);
    for (int e = 0; e < x.RowNonZeros(i); ++e) {
      dense_row[static_cast<size_t>(cols_i[e])] = values_i[e];
    }
    for (int j = 0; j < m; ++j) {
      double dot = 0.0;
      const int* cols_j = x.RowIndices(j);
      const double* values_j = x.RowValues(j);
      for (int e = 0; e < x.RowNonZeros(j); ++e) {
        dot += values_j[e] * dense_row[static_cast<size_t>(cols_j[e])];
      }
      const double denom =
          norms[static_cast<size_t>(i)] * norms[static_cast<size_t>(j)];
      // Negative similarity = descending sort key; self excluded below.
      similarities[static_cast<size_t>(j)] = {
          denom > 0.0 ? -dot / denom : 0.0, j};
    }
    similarities[static_cast<size_t>(i)].first = 1.0;  // Exclude self.
    std::partial_sort(similarities.begin(), similarities.begin() + k,
                      similarities.end());
    for (int neighbor = 0; neighbor < k; ++neighbor) {
      const auto& [negative_sim, j] =
          similarities[static_cast<size_t>(neighbor)];
      const double weight = std::max(-negative_sim, 0.0);
      if (weight == 0.0) continue;
      builder.Add(i, j, 0.5 * weight);
      builder.Add(j, i, 0.5 * weight);
    }
  }
  return std::move(builder).Build();
}

Vector GraphDegrees(const SparseMatrix& affinity) {
  SRDA_CHECK_EQ(affinity.rows(), affinity.cols())
      << "affinity matrix must be square";
  Vector degrees(affinity.rows());
  for (int i = 0; i < affinity.rows(); ++i) {
    const double* values = affinity.RowValues(i);
    double sum = 0.0;
    for (int k = 0; k < affinity.RowNonZeros(i); ++k) sum += values[k];
    degrees[i] = sum;
  }
  return degrees;
}

}  // namespace srda
