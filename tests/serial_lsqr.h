// The serial single-right-hand-side LSQR recurrence (Paige & Saunders) that
// LsqrBatch's per-column loop mirrors, kept as a test oracle only. It drives
// the operator through one-column ApplyMulti / ApplyTransposedMulti calls,
// so a batched column matching it bitwise shows the batch neither mixes
// columns nor reorders the recurrence's arithmetic.

#ifndef SRDA_TESTS_SERIAL_LSQR_H_
#define SRDA_TESTS_SERIAL_LSQR_H_

#include <cmath>
#include <utility>

#include "common/check.h"
#include "linalg/linear_operator.h"
#include "linalg/lsqr.h"
#include "matrix/blas.h"
#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

// One-column products: the operator sees exactly what a single active
// column of an LsqrBatch pass would give it.
inline Vector ApplyColumn(const LinearOperator& a, const Vector& x) {
  Matrix column(x.size(), 1);
  column.SetCol(0, x);
  return a.ApplyMulti(column).Col(0);
}

inline Vector ApplyTransposedColumn(const LinearOperator& a, const Vector& x) {
  Matrix column(x.size(), 1);
  column.SetCol(0, x);
  return a.ApplyTransposedMulti(column).Col(0);
}

inline LsqrResult SerialLsqr(const LinearOperator& a, const Vector& b,
                             const LsqrOptions& options = {}) {
  SRDA_CHECK_EQ(b.size(), a.rows()) << "LSQR rhs size mismatch";
  const int n = a.cols();
  LsqrResult result;
  result.x = Vector(n);

  // Golub-Kahan bidiagonalization starting vectors.
  Vector u = b;
  double beta = Norm2(u);
  if (beta == 0.0) {
    result.converged = true;
    result.stop = LsqrStop::kRhsZero;
    return result;
  }
  Scale(1.0 / beta, &u);
  Vector v = ApplyTransposedColumn(a, u);
  double alpha = Norm2(v);
  if (alpha == 0.0) {
    result.residual_norm = beta;
    result.converged = true;
    result.stop = LsqrStop::kNormalZero;
    return result;
  }
  Scale(1.0 / alpha, &v);

  Vector w = v;
  double phibar = beta;
  double rhobar = alpha;
  const double bnorm = beta;
  double anorm_sq = 0.0;
  double psi_sq_sum = 0.0;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    Vector au = ApplyColumn(a, v);
    for (int i = 0; i < au.size(); ++i) au[i] -= alpha * u[i];
    u = std::move(au);
    beta = Norm2(u);
    if (beta > 0.0) {
      Scale(1.0 / beta, &u);
      Vector atv = ApplyTransposedColumn(a, u);
      for (int i = 0; i < n; ++i) atv[i] -= beta * v[i];
      v = std::move(atv);
      alpha = Norm2(v);
      if (alpha > 0.0) Scale(1.0 / alpha, &v);
    } else {
      alpha = 0.0;
    }
    anorm_sq += alpha * alpha + beta * beta + options.damp * options.damp;

    const double rhobar1 = std::hypot(rhobar, options.damp);
    const double c1 = rhobar / rhobar1;
    const double s1 = options.damp / rhobar1;
    const double psi = s1 * phibar;
    psi_sq_sum += psi * psi;
    phibar = c1 * phibar;

    const double rho = std::hypot(rhobar1, beta);
    const double c = rhobar1 / rho;
    const double s = beta / rho;
    const double theta = s * alpha;
    rhobar = -c * alpha;
    const double phi = c * phibar;
    phibar = s * phibar;

    const double t1 = phi / rho;
    const double t2 = -theta / rho;
    for (int i = 0; i < n; ++i) {
      result.x[i] += t1 * w[i];
      w[i] = v[i] + t2 * w[i];
    }

    result.iterations = iter;
    result.residual_norm = psi_sq_sum == 0.0
                               ? std::fabs(phibar)
                               : std::sqrt(phibar * phibar + psi_sq_sum);
    result.normal_residual_norm = std::fabs(phibar) * alpha * std::fabs(c);

    const double anorm = std::sqrt(anorm_sq);
    const double xnorm = Norm2(result.x);
    if (result.residual_norm <=
        options.btol * bnorm + options.atol * anorm * xnorm) {
      result.converged = true;
      result.stop = LsqrStop::kResidualTol;
      break;
    }
    if (anorm > 0.0 && result.residual_norm > 0.0 &&
        result.normal_residual_norm / (anorm * result.residual_norm) <=
            options.atol) {
      result.converged = true;
      result.stop = LsqrStop::kNormalResidualTol;
      break;
    }
    if (alpha == 0.0) {
      result.converged = true;
      result.stop = LsqrStop::kBreakdown;
      break;
    }
  }
  return result;
}

}  // namespace srda

#endif  // SRDA_TESTS_SERIAL_LSQR_H_
