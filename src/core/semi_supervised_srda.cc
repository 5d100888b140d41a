#include "core/semi_supervised_srda.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/srda.h"
#include "linalg/gram_schmidt.h"
#include "linalg/sharded_operator.h"
#include "linalg/symmetric_eigen.h"
#include "solver/ridge_solver.h"

namespace srda {
namespace {

// Eigenvalues of the normalized graph at or below this are dropped.
constexpr double kEigenTolerance = 1e-9;

// The input checks both data layouts share; m is the sample count.
void CheckInputs(int m, const std::vector<int>& labels, int num_classes,
                 const SemiSupervisedSrdaOptions& options) {
  SRDA_CHECK_GT(num_classes, 1) << "need at least two classes";
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), m) << "label count mismatch";
  SRDA_CHECK_GT(m, 1) << "need at least two samples";
  SRDA_CHECK_GE(options.alpha, 0.0) << "alpha must be non-negative";
  SRDA_CHECK_GE(options.graph_weight, 0.0);
  SRDA_CHECK_GT(options.lsqr_iterations, 0);
}

// The label-block graph of the paper's Eqn. 6, restricted to labeled
// samples: w_ij = 1/m_k when i and j are both labeled with class k.
Matrix LabelGraph(const std::vector<int>& labels, int num_classes) {
  const int m = static_cast<int>(labels.size());
  std::vector<int> counts(static_cast<size_t>(num_classes), 0);
  for (int label : labels) {
    if (label == kUnlabeled) continue;
    SRDA_CHECK(label >= 0 && label < num_classes)
        << "label " << label << " outside [0, " << num_classes << ")";
    ++counts[static_cast<size_t>(label)];
  }
  for (int k = 0; k < num_classes; ++k) {
    SRDA_CHECK_GT(counts[static_cast<size_t>(k)], 0)
        << "class " << k << " has no labeled samples";
  }
  Matrix w(m, m);
  for (int i = 0; i < m; ++i) {
    if (labels[static_cast<size_t>(i)] == kUnlabeled) continue;
    const int k = labels[static_cast<size_t>(i)];
    const double weight = 1.0 / counts[static_cast<size_t>(k)];
    for (int j = 0; j < m; ++j) {
      if (labels[static_cast<size_t>(j)] == k) w(i, j) = weight;
    }
  }
  return w;
}

// Adds a weighted sparse affinity graph into the dense combined graph.
void AccumulateGraph(const SparseMatrix& affinity, double weight, Matrix* w) {
  for (int i = 0; i < affinity.rows(); ++i) {
    const int* cols = affinity.RowIndices(i);
    const double* values = affinity.RowValues(i);
    for (int e = 0; e < affinity.RowNonZeros(i); ++e) {
      (*w)(i, cols[e]) += weight * values[e];
    }
  }
}

// Spectral step shared by both data layouts: solves W y = lambda D y on the
// combined graph and returns up to c-1 response vectors orthogonal to the
// ones vector (empty matrix on failure).
Matrix SpectralResponses(Matrix w, int num_classes) {
  const int m = w.rows();
  Vector degrees(m);
  for (int i = 0; i < m; ++i) {
    double sum = 0.0;
    const double* row = w.RowPtr(i);
    for (int j = 0; j < m; ++j) sum += row[j];
    // Isolated vertices get a unit degree so normalization stays defined.
    degrees[i] = sum > 0.0 ? sum : 1.0;
  }
  Matrix normalized(m, m);
  for (int i = 0; i < m; ++i) {
    const double di = 1.0 / std::sqrt(degrees[i]);
    for (int j = 0; j < m; ++j) {
      normalized(i, j) = di * w(i, j) / std::sqrt(degrees[j]);
    }
  }

  const SymmetricEigenResult eigen = SymmetricEigen(normalized);
  if (!eigen.converged) return Matrix();

  // Top eigenvectors; the very top one is the trivial constant-like vector
  // (D^{1/2} 1 direction), so request c vectors and remove the span of ones
  // afterwards with Gram-Schmidt, exactly as the supervised recipe does.
  const int take = std::min(num_classes, m);
  Matrix responses(m, take + 1);
  for (int i = 0; i < m; ++i) responses(i, 0) = 1.0;  // ones first
  for (int r = 0; r < take; ++r) {
    const int src = m - 1 - r;
    if (eigen.eigenvalues[src] <= kEigenTolerance) break;
    for (int i = 0; i < m; ++i) {
      responses(i, r + 1) =
          eigen.eigenvectors(i, src) / std::sqrt(degrees[i]);
    }
  }
  const int kept = ModifiedGramSchmidt(&responses);
  if (kept <= 1) return Matrix();  // Only the trivial vector survived.
  const int num_responses = std::min(kept - 1, num_classes - 1);
  Matrix result(m, num_responses);
  for (int j = 0; j < num_responses; ++j) {
    for (int i = 0; i < m; ++i) result(i, j) = responses(i, j + 1);
  }
  return result;
}

// The spectral step on the combined graph `w`, then the regression step
// through the solver bound to the samples — FitSrda's responses overload,
// the one ridge objective every SRDA variant fits (bias undamped, Eq. 15).
// A failed factorization — alpha == 0 on rank-deficient data with normal
// equations — leaves converged == false.
SemiSupervisedSrdaModel FitOnGraph(Matrix w, int num_classes,
                                   RidgeSolver* solver, SrdaSolver method,
                                   const SemiSupervisedSrdaOptions& options) {
  SemiSupervisedSrdaModel model;
  const Matrix responses = SpectralResponses(std::move(w), num_classes);
  if (responses.cols() == 0) return model;
  model.num_directions = responses.cols();

  SrdaOptions srda_options;
  srda_options.alpha = options.alpha;
  srda_options.solver = method;
  srda_options.lsqr_iterations = options.lsqr_iterations;
  SrdaModel fit = FitSrda(solver, responses, srda_options);
  if (!fit.converged) return model;
  model.embedding = std::move(fit.embedding);
  model.converged = true;
  return model;
}

}  // namespace

SemiSupervisedSrdaModel FitSemiSupervisedSrda(
    const Matrix& x, const std::vector<int>& labels, int num_classes,
    const SemiSupervisedSrdaOptions& options) {
  CheckInputs(x.rows(), labels, num_classes, options);
  // Combined graph: label blocks + weighted kNN affinity.
  Matrix w = LabelGraph(labels, num_classes);
  if (options.graph_weight > 0.0) {
    AccumulateGraph(BuildKnnGraph(x, options.graph), options.graph_weight,
                    &w);
  }
  // Normal equations; the engine picks primal vs dual by shape.
  RidgeSolver solver(&x);
  return FitOnGraph(std::move(w), num_classes, &solver,
                    SrdaSolver::kNormalEquations, options);
}

SemiSupervisedSrdaModel FitSemiSupervisedSrda(
    const SparseMatrix& x, const std::vector<int>& labels, int num_classes,
    const SemiSupervisedSrdaOptions& options) {
  CheckInputs(x.rows(), labels, num_classes, options);
  Matrix w = LabelGraph(labels, num_classes);
  if (options.graph_weight > 0.0) {
    AccumulateGraph(BuildCosineKnnGraph(x, options.graph.num_neighbors),
                    options.graph_weight, &w);
  }
  // Batched LSQR over one whole-matrix shard of x (no copy), as
  // FitSrda(const SparseMatrix&) binds it: the sparse matrix is never
  // centered or densified.
  SparseMatrixShardSource source(&x, x.rows());
  RidgeSolver solver(&source);
  return FitOnGraph(std::move(w), num_classes, &solver, SrdaSolver::kLsqr,
                    options);
}

}  // namespace srda
