// The column-walking EISPACK eigensolver that linalg/symmetric_eigen.cc's
// row-major Householder reduction and row-panel QL sweep replaced, kept
// verbatim: tred2 and tql2 over a column index of the row-major Matrix,
// through the bounds-checked operator(). It is the bitwise oracle of
// SymmetricEigenTest.BitwiseEqualsEispackReference.

#ifndef SRDA_TESTS_EISPACK_REFERENCE_H_
#define SRDA_TESTS_EISPACK_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {
namespace reference {

inline double Hypot(double a, double b) { return std::hypot(a, b); }

inline double SameSign(double magnitude, double sign) {
  return sign >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
}

// Householder reduction of the symmetric matrix stored in `z` to tridiagonal
// form. On exit `z` holds the accumulated orthogonal transformation, `d` the
// diagonal and `e` the subdiagonal (e[0] unused). Classical tred2.
inline void Tred2(Matrix* z, Vector* d, Vector* e) {
  Matrix& a = *z;
  const int n = a.rows();
  for (int i = n - 1; i >= 1; --i) {
    const int l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k <= l; ++k) scale += std::fabs(a(i, k));
      if (scale == 0.0) {
        (*e)[i] = a(i, l);
      } else {
        for (int k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        (*e)[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;
          g = 0.0;
          for (int k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (int k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          (*e)[j] = g / h;
          f += (*e)[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) {
          f = a(i, j);
          g = (*e)[j] - hh * f;
          (*e)[j] = g;
          for (int k = 0; k <= j; ++k) {
            a(j, k) -= f * (*e)[k] + g * a(i, k);
          }
        }
      }
    } else {
      (*e)[i] = a(i, l);
    }
    (*d)[i] = h;
  }
  (*d)[0] = 0.0;
  (*e)[0] = 0.0;
  // Accumulate the transformation matrix.
  for (int i = 0; i < n; ++i) {
    const int l = i - 1;
    if ((*d)[i] != 0.0) {
      for (int j = 0; j <= l; ++j) {
        double g = 0.0;
        for (int k = 0; k <= l; ++k) g += a(i, k) * a(k, j);
        for (int k = 0; k <= l; ++k) a(k, j) -= g * a(k, i);
      }
    }
    (*d)[i] = a(i, i);
    a(i, i) = 1.0;
    for (int j = 0; j <= l; ++j) {
      a(j, i) = 0.0;
      a(i, j) = 0.0;
    }
  }
}

// Implicit-shift QL iteration on the tridiagonal matrix (d, e), rotating the
// columns of `z` along. Returns false if some eigenvalue fails to converge.
inline bool Tql2(Vector* d, Vector* e, Matrix* z) {
  const int n = d->size();
  constexpr int kMaxIterations = 64;
  for (int i = 1; i < n; ++i) (*e)[i - 1] = (*e)[i];
  (*e)[n - 1] = 0.0;
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m = 0;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs((*d)[m]) + std::fabs((*d)[m + 1]);
        if (std::fabs((*e)[m]) <= 1e-300 ||
            std::fabs((*e)[m]) <= 2.3e-16 * dd) {
          break;
        }
      }
      if (m != l) {
        if (iter++ == kMaxIterations) return false;
        double g = ((*d)[l + 1] - (*d)[l]) / (2.0 * (*e)[l]);
        double r = Hypot(g, 1.0);
        g = (*d)[m] - (*d)[l] + (*e)[l] / (g + SameSign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i = m - 1;
        for (; i >= l; --i) {
          double f = s * (*e)[i];
          const double b = c * (*e)[i];
          r = Hypot(f, g);
          (*e)[i + 1] = r;
          if (r == 0.0) {
            (*d)[i + 1] -= p;
            (*e)[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = (*d)[i + 1] - p;
          r = ((*d)[i] - g) * s + 2.0 * c * b;
          p = s * r;
          (*d)[i + 1] = g + p;
          g = c * r - b;
          for (int k = 0; k < n; ++k) {
            f = (*z)(k, i + 1);
            (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
            (*z)(k, i) = c * (*z)(k, i) - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        (*d)[l] -= p;
        (*e)[l] = g;
        (*e)[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

}  // namespace reference

// SymmetricEigen as it was: symmetrize from the lower triangle, tred2,
// tql2, then sort the eigenpairs ascending.
inline SymmetricEigenResult ReferenceSymmetricEigen(const Matrix& a) {
  SRDA_CHECK_EQ(a.rows(), a.cols()) << "SymmetricEigen needs a square matrix";
  const int n = a.rows();
  SymmetricEigenResult result;
  result.eigenvalues = Vector(n);
  result.eigenvectors = Matrix(n, n);
  if (n == 0) {
    result.converged = true;
    return result;
  }

  // Symmetrize from the lower triangle so callers may pass matrices with
  // round-off asymmetry.
  Matrix z(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      z(i, j) = a(i, j);
      z(j, i) = a(i, j);
    }
  }

  Vector d(n);
  Vector e(n);
  if (n == 1) {
    result.eigenvalues[0] = z(0, 0);
    result.eigenvectors(0, 0) = 1.0;
    result.converged = true;
    return result;
  }

  reference::Tred2(&z, &d, &e);
  result.converged = reference::Tql2(&d, &e, &z);

  // Sort eigenpairs ascending by eigenvalue.
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int lhs, int rhs) { return d[lhs] < d[rhs]; });
  for (int j = 0; j < n; ++j) {
    const int src = order[static_cast<size_t>(j)];
    result.eigenvalues[j] = d[src];
    for (int i = 0; i < n; ++i) result.eigenvectors(i, j) = z(i, src);
  }
  return result;
}

}  // namespace srda

#endif  // SRDA_TESTS_EISPACK_REFERENCE_H_
