// k-nearest-neighbor affinity graphs.
//
// Section III of the paper notes the SRDA recipe "can be generalized by
// constructing the graph matrix W in the unsupervised or semi-supervised
// way" (its references [12]-[16]). This module provides that substrate: a
// symmetric kNN affinity matrix over the samples, with binary or
// heat-kernel weights, which semi_supervised_srda.h combines with the
// label-block graph.

#ifndef SRDA_GRAPH_KNN_GRAPH_H_
#define SRDA_GRAPH_KNN_GRAPH_H_

#include "matrix/matrix.h"
#include "sparse/sparse_matrix.h"

namespace srda {

enum class GraphWeightScheme {
  kBinary,      // w_ij = 1 for neighbors
  // w_ij = exp(-||x_i - x_j||^2 / (2 t^2)), t the mean kNN distance
  kHeatKernel,
};

struct KnnGraphOptions {
  int num_neighbors = 5;
  GraphWeightScheme weights = GraphWeightScheme::kHeatKernel;
};

// Builds the symmetrized kNN affinity graph over the rows of `x`:
// w_ij > 0 iff i is among j's k nearest neighbors or vice versa. The
// diagonal is zero. Brute-force O(m^2 n).
SparseMatrix BuildKnnGraph(const Matrix& x, const KnnGraphOptions& options);

// Row sums (degrees) of a symmetric affinity matrix.
Vector GraphDegrees(const SparseMatrix& affinity);

// kNN affinity graph over sparse rows using cosine similarity (the natural
// metric for L2-normalized text vectors): w_ij = max(cos(x_i, x_j), 0) for
// mutual-or-single kNN edges, symmetrized like BuildKnnGraph. Brute force
// O(m^2 * nnz/row).
SparseMatrix BuildCosineKnnGraph(const SparseMatrix& x, int num_neighbors);

}  // namespace srda

#endif  // SRDA_GRAPH_KNN_GRAPH_H_
