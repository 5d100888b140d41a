// Semi-supervised spectral regression discriminant analysis.
//
// Implements the generalization sketched in Section III of the paper (its
// references [12], [15], [16]): build the graph matrix W from BOTH the
// labels (the class-block graph of Eqn. 6) and an unsupervised kNN affinity
// graph over all samples (labeled and unlabeled), extract the top graph
// embedding responses from the generalized eigenproblem W y = lambda D y,
// and regress them onto the features with a ridge penalty — supervised
// SRDA's regression step itself (FitSrda's responses overload), so the cost
// stays linear and both data layouts fit one objective: implicitly centered
// data with the bias left out of the penalty (the paper's Eq. 15).

#ifndef SRDA_CORE_SEMI_SUPERVISED_SRDA_H_
#define SRDA_CORE_SEMI_SUPERVISED_SRDA_H_

#include <vector>

#include "core/embedding.h"
#include "graph/knn_graph.h"
#include "matrix/matrix.h"
#include "sparse/sparse_matrix.h"

namespace srda {

// Marks a sample as unlabeled in the labels vector.
inline constexpr int kUnlabeled = -1;

struct SemiSupervisedSrdaOptions {
  // Ridge penalty of the regression step. alpha == 0 is accepted but the
  // dense path reports converged == false when the data is rank-deficient
  // (same contract as SRDA).
  double alpha = 1.0;
  // Relative weight of the unsupervised kNN graph against the label graph.
  double graph_weight = 0.2;
  // kNN graph construction (the dense path; the sparse path uses cosine
  // similarity with graph.num_neighbors).
  KnnGraphOptions graph;
  // LSQR budget for the sparse regression step.
  int lsqr_iterations = 20;
};

struct SemiSupervisedSrdaModel {
  LinearEmbedding embedding;
  int num_directions = 0;
  bool converged = false;
};

// Trains on `x` (all samples, rows) where labels[i] is a class id in
// [0, num_classes) or kUnlabeled. Every class must have at least one labeled
// sample; at least two samples total. The spectral step eigendecomposes an
// m x m dense matrix, so this trainer targets m up to a few thousand.
SemiSupervisedSrdaModel FitSemiSupervisedSrda(
    const Matrix& x, const std::vector<int>& labels, int num_classes,
    const SemiSupervisedSrdaOptions& options = {});

// Sparse-data variant (text): cosine-similarity kNN graph, LSQR for the
// regression step on the implicitly centered rows, bound like
// FitSrda(const SparseMatrix&) — the data is never densified or explicitly
// centered (same spectral step cost caveat: m x m dense eigendecomposition).
SemiSupervisedSrdaModel FitSemiSupervisedSrda(
    const SparseMatrix& x, const std::vector<int>& labels, int num_classes,
    const SemiSupervisedSrdaOptions& options = {});

}  // namespace srda

#endif  // SRDA_CORE_SEMI_SUPERVISED_SRDA_H_
