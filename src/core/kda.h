// Exact (regularized) Kernel Discriminant Analysis — the O(m^3) baseline
// that Kernel SRDA (ksrda.h) accelerates, mirroring the comparison in the
// paper's reference [14].
//
// In coefficient space the kernel Fisher criterion becomes the generalized
// eigenproblem  (K Ybar)(K Ybar)^T c = lambda (K K + rho K + eps I) c,
// where Ybar are the spectral responses (the between-class structure) and
// the right-hand side is the regularized kernel total scatter. The rank of
// the numerator is c-1, so after one Cholesky factorization the problem
// collapses to (c-1) x (c-1) — but forming K K alone is already O(m^3),
// which is exactly the cost KSRDA avoids by regressing instead.

#ifndef SRDA_CORE_KDA_H_
#define SRDA_CORE_KDA_H_

#include <memory>
#include <vector>

#include "kernel/kernel.h"
#include "matrix/matrix.h"

namespace srda {

struct KdaOptions {
  // Regularizer rho on the kernel scatter (rho * K term).
  double alpha = 0.01;
};

// A trained exact-KDA model; same interface shape as KsrdaModel.
class KdaModel {
 public:
  KdaModel() = default;

  bool converged() const { return converged_; }
  int output_dim() const { return coefficients_.cols(); }

  // Embeds each row of `queries` into the discriminant space.
  Matrix Transform(const Matrix& queries) const;

  const Matrix& coefficients() const { return coefficients_; }

 private:
  friend KdaModel FitKda(const Matrix&, const std::vector<int>&, int,
                         std::shared_ptr<const Kernel>, const KdaOptions&);

  std::shared_ptr<const Kernel> kernel_;
  Matrix train_points_;
  Matrix coefficients_;  // m x (c-1)
  bool converged_ = false;
};

// Trains exact KDA on dense data (rows are samples).
KdaModel FitKda(const Matrix& x, const std::vector<int>& labels,
                int num_classes, std::shared_ptr<const Kernel> kernel,
                const KdaOptions& options = {});

}  // namespace srda

#endif  // SRDA_CORE_KDA_H_
