// Full-accuracy thin SVD via Golub-Reinsch bidiagonalization, kept as a
// test oracle for the production cross-product ThinSvd (linalg/svd.h).
//
// ThinSvd eigendecomposes the smaller Gram matrix, the route the paper's
// LDA analysis assumes and its cost model measures, so it resolves
// singular values only down to ~sqrt(eps) * sigma_max. This path —
// Householder bidiagonalization followed by implicit-shift QR on the
// bidiagonal — is the classical backward-stable algorithm, accurate to
// ~eps * sigma_max; linalg_golub_reinsch_test checks both against each
// other and against known spectra.

#ifndef SRDA_TESTS_GOLUB_REINSCH_SVD_H_
#define SRDA_TESTS_GOLUB_REINSCH_SVD_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.h"
#include "linalg/svd.h"
#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {
namespace golub_reinsch_internal {

constexpr double kEps = 2.3e-16;
constexpr int kMaxIterations = 60;

inline double SameSign(double magnitude, double sign) {
  return sign >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
}

// Golub-Reinsch SVD of an m x n matrix with m >= n, operating in place:
// on exit `u` holds the left singular vectors (m x n), `w` the unsorted
// singular values, `v` the right singular vectors (n x n). Returns false if
// the QR iteration fails to converge.
inline bool GolubReinschCore(Matrix* u_matrix, Vector* w_vector,
                             Matrix* v_matrix) {
  Matrix& a = *u_matrix;
  Vector& w = *w_vector;
  Matrix& v = *v_matrix;
  const int m = a.rows();
  const int n = a.cols();
  Vector rv1(n);

  // Householder reduction to bidiagonal form.
  double g = 0.0;
  double scale = 0.0;
  double anorm = 0.0;
  int l = 0;
  for (int i = 0; i < n; ++i) {
    l = i + 1;
    rv1[i] = scale * g;
    g = 0.0;
    double s = 0.0;
    scale = 0.0;
    if (i < m) {
      for (int k = i; k < m; ++k) scale += std::fabs(a(k, i));
      if (scale != 0.0) {
        for (int k = i; k < m; ++k) {
          a(k, i) /= scale;
          s += a(k, i) * a(k, i);
        }
        double f = a(i, i);
        g = -SameSign(std::sqrt(s), f);
        const double h = f * g - s;
        a(i, i) = f - g;
        for (int j = l; j < n; ++j) {
          s = 0.0;
          for (int k = i; k < m; ++k) s += a(k, i) * a(k, j);
          f = s / h;
          for (int k = i; k < m; ++k) a(k, j) += f * a(k, i);
        }
        for (int k = i; k < m; ++k) a(k, i) *= scale;
      }
    }
    w[i] = scale * g;
    g = 0.0;
    s = 0.0;
    scale = 0.0;
    if (i < m && i != n - 1) {
      for (int k = l; k < n; ++k) scale += std::fabs(a(i, k));
      if (scale != 0.0) {
        for (int k = l; k < n; ++k) {
          a(i, k) /= scale;
          s += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        g = -SameSign(std::sqrt(s), f);
        const double h = f * g - s;
        a(i, l) = f - g;
        for (int k = l; k < n; ++k) rv1[k] = a(i, k) / h;
        for (int j = l; j < m; ++j) {
          s = 0.0;
          for (int k = l; k < n; ++k) s += a(j, k) * a(i, k);
          for (int k = l; k < n; ++k) a(j, k) += s * rv1[k];
        }
        for (int k = l; k < n; ++k) a(i, k) *= scale;
      }
    }
    anorm = std::max(anorm, std::fabs(w[i]) + std::fabs(rv1[i]));
  }

  // Accumulate right-hand transformations.
  for (int i = n - 1; i >= 0; --i) {
    if (i < n - 1) {
      if (g != 0.0) {
        for (int j = l; j < n; ++j) v(j, i) = (a(i, j) / a(i, l)) / g;
        for (int j = l; j < n; ++j) {
          double s = 0.0;
          for (int k = l; k < n; ++k) s += a(i, k) * v(k, j);
          for (int k = l; k < n; ++k) v(k, j) += s * v(k, i);
        }
      }
      for (int j = l; j < n; ++j) {
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    }
    v(i, i) = 1.0;
    g = rv1[i];
    l = i;
  }

  // Accumulate left-hand transformations.
  for (int i = std::min(m, n) - 1; i >= 0; --i) {
    l = i + 1;
    g = w[i];
    for (int j = l; j < n; ++j) a(i, j) = 0.0;
    if (g != 0.0) {
      g = 1.0 / g;
      for (int j = l; j < n; ++j) {
        double s = 0.0;
        for (int k = l; k < m; ++k) s += a(k, i) * a(k, j);
        const double f = (s / a(i, i)) * g;
        for (int k = i; k < m; ++k) a(k, j) += f * a(k, i);
      }
      for (int j = i; j < m; ++j) a(j, i) *= g;
    } else {
      for (int j = i; j < m; ++j) a(j, i) = 0.0;
    }
    a(i, i) += 1.0;
  }

  // Diagonalize the bidiagonal form by implicit-shift QR.
  for (int k = n - 1; k >= 0; --k) {
    for (int iteration = 1; iteration <= kMaxIterations; ++iteration) {
      bool flag = true;
      int nm = 0;
      int split = 0;
      for (split = k; split >= 0; --split) {
        nm = split - 1;
        if (std::fabs(rv1[split]) <= kEps * anorm) {
          flag = false;
          break;
        }
        if (nm >= 0 && std::fabs(w[nm]) <= kEps * anorm) break;
      }
      if (flag) {
        // Cancel rv1[split] with rotations from the left.
        double c = 0.0;
        double s = 1.0;
        for (int i = split; i <= k; ++i) {
          const double f = s * rv1[i];
          rv1[i] = c * rv1[i];
          if (std::fabs(f) <= kEps * anorm) break;
          g = w[i];
          double h = std::hypot(f, g);
          w[i] = h;
          h = 1.0 / h;
          c = g * h;
          s = -f * h;
          for (int j = 0; j < m; ++j) {
            const double y = a(j, nm);
            const double z = a(j, i);
            a(j, nm) = y * c + z * s;
            a(j, i) = z * c - y * s;
          }
        }
      }
      const double z_value = w[k];
      if (split == k) {
        if (z_value < 0.0) {  // Make the singular value non-negative.
          w[k] = -z_value;
          for (int j = 0; j < n; ++j) v(j, k) = -v(j, k);
        }
        break;
      }
      if (iteration == kMaxIterations) return false;

      // Shift from the bottom 2x2 minor.
      double x = w[split];
      nm = k - 1;
      double y = w[nm];
      g = rv1[nm];
      double h = rv1[k];
      double f =
          ((y - z_value) * (y + z_value) + (g - h) * (g + h)) / (2.0 * h * y);
      g = std::hypot(f, 1.0);
      f = ((x - z_value) * (x + z_value) +
           h * ((y / (f + SameSign(g, f))) - h)) /
          x;
      // QR transformation.
      double c = 1.0;
      double s = 1.0;
      for (int j = split; j <= nm; ++j) {
        const int i = j + 1;
        g = rv1[i];
        y = w[i];
        h = s * g;
        g = c * g;
        double z = std::hypot(f, h);
        rv1[j] = z;
        c = f / z;
        s = h / z;
        f = x * c + g * s;
        g = g * c - x * s;
        h = y * s;
        y *= c;
        for (int jj = 0; jj < n; ++jj) {
          x = v(jj, j);
          z = v(jj, i);
          v(jj, j) = x * c + z * s;
          v(jj, i) = z * c - x * s;
        }
        z = std::hypot(f, h);
        w[j] = z;
        if (z != 0.0) {
          z = 1.0 / z;
          c = f * z;
          s = h * z;
        }
        f = c * g + s * y;
        x = c * y - s * g;
        for (int jj = 0; jj < m; ++jj) {
          y = a(jj, j);
          z = a(jj, i);
          a(jj, j) = y * c + z * s;
          a(jj, i) = z * c - y * s;
        }
      }
      rv1[split] = 0.0;
      rv1[k] = f;
      w[k] = x;
    }
  }
  return true;
}

}  // namespace golub_reinsch_internal

// Computes the thin, rank-truncated SVD of `a` with the Golub-Reinsch
// algorithm. Result layout matches ThinSvd: U (m x r), singular values
// descending, V (n x r), singular values at or below
// sigma_max * rank_tolerance truncated.
inline SvdResult ThinSvdGolubReinsch(const Matrix& a,
                                     double rank_tolerance = 1e-12) {
  SRDA_CHECK(a.rows() > 0 && a.cols() > 0) << "SVD of an empty matrix";
  SRDA_CHECK(rank_tolerance >= 0.0);

  // The core requires m >= n; transpose otherwise and swap factors.
  const bool transposed = a.rows() < a.cols();
  Matrix work = transposed ? a.Transposed() : a;
  const int n_small = work.cols();
  Vector w(n_small);
  Matrix v(n_small, n_small);

  SvdResult result;
  if (!golub_reinsch_internal::GolubReinschCore(&work, &w, &v)) {
    result.converged = false;
    return result;
  }

  // Sort singular values descending and truncate by tolerance.
  std::vector<int> order(static_cast<size_t>(n_small));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int lhs, int rhs) { return w[lhs] > w[rhs]; });
  const double sigma_max = w[order[0]];
  const double threshold = sigma_max * rank_tolerance;
  int rank = 0;
  for (int index : order) {
    if (w[index] <= threshold || w[index] == 0.0) break;
    ++rank;
  }
  result.rank = rank;
  result.singular_values = Vector(rank);
  Matrix left(work.rows(), rank);
  Matrix right(n_small, rank);
  for (int out = 0; out < rank; ++out) {
    const int src = order[static_cast<size_t>(out)];
    result.singular_values[out] = w[src];
    for (int i = 0; i < work.rows(); ++i) left(i, out) = work(i, src);
    for (int i = 0; i < n_small; ++i) right(i, out) = v(i, src);
  }
  if (transposed) {
    result.u = std::move(right);
    result.v = std::move(left);
  } else {
    result.u = std::move(left);
    result.v = std::move(right);
  }
  result.converged = true;
  return result;
}

}  // namespace srda

#endif  // SRDA_TESTS_GOLUB_REINSCH_SVD_H_
