// IDR/QR (Ye et al., KDD'04) — the fast LDA variant the paper compares
// against. Instead of an SVD of the full data, IDR/QR:
//   1. QR-decomposes the n x c class-centroid matrix (cheap: n x c),
//   2. projects the data onto the c-dimensional centroid span,
//   3. solves a small c x c discriminant eigenproblem there.
// Cost is O(m n c + n c^2): as fast as SRDA, but — as the paper stresses —
// without a theoretical connection to the LDA objective, which shows up as
// consistently worse accuracy in Tables III-IX.

#ifndef SRDA_CORE_IDR_QR_H_
#define SRDA_CORE_IDR_QR_H_

#include <vector>

#include "core/embedding.h"
#include "matrix/matrix.h"

namespace srda {

struct IdrQrModel {
  LinearEmbedding embedding;
  int num_directions = 0;
  bool converged = false;
};

// Trains IDR/QR on dense data (rows are samples). Requires n >= c.
IdrQrModel FitIdrQr(const Matrix& x, const std::vector<int>& labels,
                    int num_classes);

}  // namespace srda

#endif  // SRDA_CORE_IDR_QR_H_
