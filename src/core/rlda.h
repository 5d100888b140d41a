// Regularized LDA (Friedman, 1989) — the RLDA baseline from the paper's
// experiments: solve the generalized eigenproblem S_b a = lambda (S_t + aI) a.
//
// Two solution paths:
//  * Faithful (default): reduce to a standard symmetric eigenproblem on the
//    full n x n matrix L^{-1} S_b L^{-T} and eigendecompose it — this is the
//    textbook approach whose O(n^3)-with-a-large-constant cost the paper's
//    Tables IV/VI/VIII measure (RLDA is as slow as or slower than LDA).
//  * Low-rank (exploit_low_rank = true): use rank(S_b) <= c-1 to collapse
//    the eigenproblem to c x c after one Cholesky solve. Same answer, far
//    cheaper — included to show the baseline could be accelerated, and
//    ablated in bench_ablation_srda.

#ifndef SRDA_CORE_RLDA_H_
#define SRDA_CORE_RLDA_H_

#include <vector>

#include "core/embedding.h"
#include "matrix/matrix.h"

namespace srda {

struct RldaOptions {
  // Tikhonov regularizer added to the total scatter diagonal. alpha == 0 is
  // accepted but reports converged == false when the scatter is
  // rank-deficient (same contract as SRDA).
  double alpha = 1.0;
  // Collapse the eigenproblem to c x c using the low rank of S_b. Off by
  // default so timings reproduce the paper's RLDA cost profile.
  bool exploit_low_rank = false;
};

struct RldaModel {
  LinearEmbedding embedding;
  int num_directions = 0;
  bool converged = false;
};

// Trains RLDA on dense data (rows are samples). Directions satisfy
// a^T (S_t + alpha I) a = lambda (sqrt(lambda)-scaled whitening, the
// optimal-scoring-equivalent metric shared by all trainers here).
RldaModel FitRlda(const Matrix& x, const std::vector<int>& labels,
                  int num_classes, const RldaOptions& options = {});

}  // namespace srda

#endif  // SRDA_CORE_RLDA_H_
