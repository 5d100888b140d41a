#include "linalg/lsqr.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "matrix/blas.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace srda {
namespace {

// Iteration accounting, recorded while tracing: the per-RHS spread, whose
// sum is the iteration total across every solve.
void RecordLsqrMetrics(const LsqrResult& result) {
  if (!TraceEnabled()) return;
  static Histogram* const iterations_per_rhs =
      MetricsRegistry::Global().histogram("lsqr.iterations_per_rhs");
  iterations_per_rhs->Observe(static_cast<double>(result.iterations));
}

// Per-column bidiagonalization state for LsqrBatch; `active` is false once
// a stopping rule fired (the column's iterate is then frozen and it drops
// out of the batched operator passes).
struct LsqrColumnState {
  Vector u, v, w;
  double alpha = 0.0;
  double beta = 0.0;
  double phibar = 0.0;
  double rhobar = 0.0;
  double bnorm = 0.0;
  double anorm_sq = 0.0;
  double psi_sq_sum = 0.0;
  bool active = false;
};

}  // namespace

const char* LsqrStopName(LsqrStop stop) {
  switch (stop) {
    case LsqrStop::kIterationLimit:
      return "iteration_limit";
    case LsqrStop::kRhsZero:
      return "rhs_zero";
    case LsqrStop::kNormalZero:
      return "normal_zero";
    case LsqrStop::kResidualTol:
      return "residual_tol";
    case LsqrStop::kNormalResidualTol:
      return "normal_residual_tol";
    case LsqrStop::kBreakdown:
      return "breakdown";
  }
  return "unknown";
}

std::vector<LsqrResult> LsqrBatch(const LinearOperator& a, const Matrix& b,
                                  const LsqrOptions& options) {
  SRDA_CHECK_EQ(b.rows(), a.rows()) << "LSQR batch rhs size mismatch";
  SRDA_CHECK_GT(options.max_iterations, 0);
  SRDA_CHECK_GE(options.damp, 0.0);
  const int m = a.rows();
  const int n = a.cols();
  const int d = b.cols();
  TraceSpan span("lsqr.batch");
  if (span.recording()) {
    span.AddArg("rhs", static_cast<double>(d));
    span.AddArg("max_iterations",
                static_cast<double>(options.max_iterations));
  }
  std::vector<LsqrResult> results(static_cast<size_t>(d));
  std::vector<LsqrColumnState> state(static_cast<size_t>(d));

  // Start the Golub-Kahan bidiagonalization: u_j = b_j / ||b_j||. Columns
  // with b_j == 0 converge immediately at x == 0.
  std::vector<int> pending;
  for (int j = 0; j < d; ++j) {
    results[j].x = Vector(n);
    LsqrColumnState& st = state[static_cast<size_t>(j)];
    st.u = b.Col(j);
    st.beta = Norm2(st.u);
    if (st.beta == 0.0) {
      results[j].converged = true;
      results[j].stop = LsqrStop::kRhsZero;
      continue;
    }
    Scale(1.0 / st.beta, &st.u);
    pending.push_back(j);
  }

  // One batched transposed pass seeds every surviving column's v.
  if (!pending.empty()) {
    Matrix packed(m, static_cast<int>(pending.size()));
    for (size_t t = 0; t < pending.size(); ++t) {
      packed.SetCol(static_cast<int>(t), state[pending[t]].u);
    }
    const Matrix seeded = a.ApplyTransposedMulti(packed);
    for (size_t t = 0; t < pending.size(); ++t) {
      const int j = pending[t];
      LsqrColumnState& st = state[static_cast<size_t>(j)];
      st.v = seeded.Col(static_cast<int>(t));
      st.alpha = Norm2(st.v);
      if (st.alpha == 0.0) {
        // A^T b_j == 0: x == 0 already solves the normal equations.
        results[j].residual_norm = st.beta;
        results[j].converged = true;
        results[j].stop = LsqrStop::kNormalZero;
        continue;
      }
      Scale(1.0 / st.alpha, &st.v);
      st.w = st.v;
      st.phibar = st.beta;
      st.rhobar = st.alpha;
      st.bnorm = st.beta;
      st.active = true;
    }
  }

  std::vector<int> active;
  for (int j = 0; j < d; ++j) {
    if (state[static_cast<size_t>(j)].active) active.push_back(j);
  }

  for (int iter = 1; iter <= options.max_iterations && !active.empty();
       ++iter) {
    TraceSpan iter_span("lsqr.iteration");
    if (iter_span.recording()) {
      iter_span.AddArg("iter", static_cast<double>(iter));
      iter_span.AddArg("active", static_cast<double>(active.size()));
    }
    // One forward pass covers every active column's A v_k.
    Matrix packed_v(n, static_cast<int>(active.size()));
    for (size_t t = 0; t < active.size(); ++t) {
      packed_v.SetCol(static_cast<int>(t), state[active[t]].v);
    }
    const Matrix av = a.ApplyMulti(packed_v);

    // beta_{k+1} u_{k+1} = A v_k - alpha_k u_k, independently per column.
    ParallelFor(0, static_cast<int>(active.size()), [&](int tb, int te) {
      for (int t = tb; t < te; ++t) {
        LsqrColumnState& st = state[static_cast<size_t>(active[t])];
        Vector au = av.Col(t);
        for (int i = 0; i < m; ++i) au[i] -= st.alpha * st.u[i];
        st.u = std::move(au);
        st.beta = Norm2(st.u);
        if (st.beta > 0.0) Scale(1.0 / st.beta, &st.u);
      }
    });

    // One transposed pass covers the columns whose beta stayed positive.
    std::vector<int> slot(active.size(), -1);
    std::vector<int> transposed;
    for (size_t t = 0; t < active.size(); ++t) {
      if (state[active[t]].beta > 0.0) {
        slot[t] = static_cast<int>(transposed.size());
        transposed.push_back(active[t]);
      }
    }
    Matrix atv;
    if (!transposed.empty()) {
      Matrix packed_u(m, static_cast<int>(transposed.size()));
      for (size_t t = 0; t < transposed.size(); ++t) {
        packed_u.SetCol(static_cast<int>(t), state[transposed[t]].u);
      }
      atv = a.ApplyTransposedMulti(packed_u);
    }

    // Finish the iteration per column: v/alpha update, the two plane
    // rotations, the iterate update, and the Paige-Saunders stopping rules.
    ParallelFor(0, static_cast<int>(active.size()), [&](int tb, int te) {
      for (int t = tb; t < te; ++t) {
        const int j = active[t];
        LsqrColumnState& st = state[static_cast<size_t>(j)];
        LsqrResult& res = results[static_cast<size_t>(j)];
        if (st.beta > 0.0) {
          Vector nv = atv.Col(slot[t]);
          for (int i = 0; i < n; ++i) nv[i] -= st.beta * st.v[i];
          st.v = std::move(nv);
          st.alpha = Norm2(st.v);
          if (st.alpha > 0.0) Scale(1.0 / st.alpha, &st.v);
        } else {
          st.alpha = 0.0;
        }
        st.anorm_sq += st.alpha * st.alpha + st.beta * st.beta +
                       options.damp * options.damp;

        // Eliminate the damping entry with a first rotation. The damped
        // residual ||[b; 0] - [A; damp I] x_k||^2 == phibar_k^2 +
        // sum_{i<=k} psi_i^2, so the psi^2 terms accumulate across
        // iterations rather than being read off the current one.
        const double rhobar1 = std::hypot(st.rhobar, options.damp);
        const double c1 = st.rhobar / rhobar1;
        const double s1 = options.damp / rhobar1;
        const double psi = s1 * st.phibar;
        st.psi_sq_sum += psi * psi;
        st.phibar = c1 * st.phibar;

        // Plane rotation annihilating beta.
        const double rho = std::hypot(rhobar1, st.beta);
        const double c = rhobar1 / rho;
        const double s = st.beta / rho;
        const double theta = s * st.alpha;
        st.rhobar = -c * st.alpha;
        const double phi = c * st.phibar;
        st.phibar = s * st.phibar;

        const double t1 = phi / rho;
        const double t2 = -theta / rho;
        for (int i = 0; i < n; ++i) {
          res.x[i] += t1 * st.w[i];
          st.w[i] = st.v[i] + t2 * st.w[i];
        }

        res.iterations = iter;
        // With damp == 0 every psi is 0 and this reduces to |phibar|.
        res.residual_norm =
            st.psi_sq_sum == 0.0
                ? std::fabs(st.phibar)
                : std::sqrt(st.phibar * st.phibar + st.psi_sq_sum);
        res.normal_residual_norm = std::fabs(st.phibar) * st.alpha *
                                   std::fabs(c);

        const double anorm = std::sqrt(st.anorm_sq);
        const double xnorm = Norm2(res.x);
        if (res.residual_norm <=
            options.btol * st.bnorm + options.atol * anorm * xnorm) {
          res.converged = true;
          res.stop = LsqrStop::kResidualTol;
          st.active = false;
        } else if (anorm > 0.0 && res.residual_norm > 0.0 &&
                   res.normal_residual_norm / (anorm * res.residual_norm) <=
                       options.atol) {
          res.converged = true;
          res.stop = LsqrStop::kNormalResidualTol;
          st.active = false;
        } else if (st.alpha == 0.0) {  // Exact breakdown: solution reached.
          res.converged = true;
          res.stop = LsqrStop::kBreakdown;
          st.active = false;
        }
      }
    });

    std::vector<int> still_active;
    for (const int j : active) {
      if (state[static_cast<size_t>(j)].active) still_active.push_back(j);
    }
    active = std::move(still_active);
  }
  for (const LsqrResult& result : results) RecordLsqrMetrics(result);
  return results;
}

}  // namespace srda
