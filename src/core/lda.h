// Classical Linear Discriminant Analysis, solved exactly as analysed in
// Section II of the paper: SVD of the centered data matrix (via the
// cross-product trick) to handle the singular total scatter, followed by a
// small c x c eigenproblem for the between-class structure.
//
// Cost is O(m n t + t^3) time and O(m n + (m + n) t) memory with
// t = min(m, n) — the cubic baseline that SRDA is measured against.

#ifndef SRDA_CORE_LDA_H_
#define SRDA_CORE_LDA_H_

#include <vector>

#include "core/embedding.h"
#include "matrix/matrix.h"

namespace srda {

struct LdaModel {
  LinearEmbedding embedding;
  // Numerical rank of the centered training data.
  int data_rank = 0;
  // Number of discriminant directions kept (<= c-1).
  int num_directions = 0;
  // False if an eigensolver failed to converge (practically never).
  bool converged = false;
};

// Trains LDA on dense data (rows are samples). Directions satisfy
// a^T S_t a = lambda (whitened up to a sqrt(lambda) length, the
// optimal-scoring-equivalent metric shared by all trainers here).
LdaModel FitLda(const Matrix& x, const std::vector<int>& labels,
                int num_classes);

}  // namespace srda

#endif  // SRDA_CORE_LDA_H_
