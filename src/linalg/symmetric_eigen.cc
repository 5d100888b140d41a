#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "matrix/simd/simd.h"

namespace srda {
namespace {

// The rotation log is applied to z and emptied every kLogRotationsPerRow * n
// rotations, so it stays O(n) while each pass over z amortizes many
// rotations.
constexpr int kLogRotationsPerRow = 32;

double Hypot(double a, double b) { return std::hypot(a, b); }

double SameSign(double magnitude, double sign) {
  return sign >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
}

// p = A u for the symmetric leading (l+1) x (l+1) block of `a`, read from
// its lower triangle, in one pass over the rows. p_j gets tred2's order:
// row j's dot over k <= j, then the column terms a(r, j) u_r for r > j in
// ascending r. The dots of four consecutive rows advance together so their
// serial chains overlap.
void LowerSymmetricTimes(const Matrix& a, const double* u, int l, double* p) {
  int j = 0;
  for (; j + 4 <= l + 1; j += 4) {
    const double* r0 = a.RowPtr(j);
    const double* r1 = a.RowPtr(j + 1);
    const double* r2 = a.RowPtr(j + 2);
    const double* r3 = a.RowPtr(j + 3);
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (int k = 0; k <= j; ++k) {
      s0 += r0[k] * u[k];
      s1 += r1[k] * u[k];
      s2 += r2[k] * u[k];
      s3 += r3[k] * u[k];
    }
    s1 += r1[j + 1] * u[j + 1];
    s2 += r2[j + 1] * u[j + 1];
    s2 += r2[j + 2] * u[j + 2];
    s3 += r3[j + 1] * u[j + 1];
    s3 += r3[j + 2] * u[j + 2];
    s3 += r3[j + 3] * u[j + 3];
    const double u0 = u[j];
    const double u1 = u[j + 1];
    const double u2 = u[j + 2];
    const double u3 = u[j + 3];
    for (int k = 0; k < j; ++k) {
      double pk = p[k];
      pk += r0[k] * u0;
      pk += r1[k] * u1;
      pk += r2[k] * u2;
      pk += r3[k] * u3;
      p[k] = pk;
    }
    p[j] = s0 + r1[j] * u1 + r2[j] * u2 + r3[j] * u3;
    p[j + 1] = s1 + r2[j + 1] * u2 + r3[j + 1] * u3;
    p[j + 2] = s2 + r3[j + 2] * u3;
    p[j + 3] = s3;
  }
  for (; j <= l; ++j) {
    const double* aj = a.RowPtr(j);
    double dot = 0.0;
    for (int k = 0; k <= j; ++k) dot += aj[k] * u[k];
    const double uj = u[j];
    for (int k = 0; k < j; ++k) p[k] += aj[k] * uj;
    p[j] = dot;
  }
}

// Householder reduction of the symmetric matrix stored in `z` to tridiagonal
// form. On exit `z` holds the accumulated orthogonal transformation, `d` the
// diagonal and `e` the subdiagonal (e[0] unused). EISPACK tred2 with every
// loop walking rows: each element keeps tred2's operation sequence (see
// DESIGN.md, "Row-major eigensolver").
void Tred2(Matrix* z, Vector* d_out, Vector* e_out) {
  Matrix& a = *z;
  const int n = a.rows();
  double* d = d_out->data();
  double* e = e_out->data();
  for (int i = n - 1; i >= 1; --i) {
    const int l = i - 1;
    double* u = a.RowPtr(i);
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k <= l; ++k) scale += std::fabs(u[k]);
      if (scale == 0.0) {
        e[i] = u[l];
      } else {
        for (int k = 0; k <= l; ++k) {
          u[k] /= scale;
          h += u[k] * u[k];
        }
        double f = u[l];
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        u[l] = f - g;
        LowerSymmetricTimes(a, u, l, e);
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          a.RowPtr(j)[i] = u[j] / h;
          e[j] = e[j] / h;
          f += e[j] * u[j];
        }
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) e[j] -= hh * u[j];
        // Rank-2 update of the lower triangle, after every e_j is final.
        for (int j = 0; j <= l; ++j) {
          double* aj = a.RowPtr(j);
          const double fj = u[j];
          const double gj = e[j];
          for (int k = 0; k <= j; ++k) aj[k] -= fj * e[k] + gj * u[k];
        }
      }
    } else {
      e[i] = u[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulate the transformation matrix. Step i updates rows k < i by
  // Q -= (u / h) g^T, with u = row i, u / h = column i above the diagonal
  // and g = u^T Q summed over rows k < i in ascending order; then row and
  // column i become the unit vector. The same pass over rows k < i also
  // accumulates the next step's g from each row it has just finished, so
  // Q is read once per step.
  std::vector<double> g(static_cast<size_t>(n));
  std::vector<double> g_next(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double* u = a.RowPtr(i);
    const bool update = d[i] != 0.0;
    const double* u_next =
        i + 1 < n && d[i + 1] != 0.0 ? a.RowPtr(i + 1) : nullptr;
    if (u_next != nullptr) {
      std::fill(g_next.begin(), g_next.begin() + i + 1, 0.0);
    }
    for (int k = 0; k < i; ++k) {
      double* ak = a.RowPtr(k);
      if (update) {
        const double vk = ak[i];
        for (int j = 0; j < i; ++j) ak[j] -= g[j] * vk;
      }
      ak[i] = 0.0;
      if (u_next != nullptr) {
        const double uk = u_next[k];
        for (int j = 0; j <= i; ++j) g_next[j] += uk * ak[j];
      }
    }
    d[i] = u[i];
    u[i] = 1.0;
    for (int j = 0; j < i; ++j) u[j] = 0.0;
    if (u_next != nullptr) {
      const double ui = u_next[i];
      for (int j = 0; j <= i; ++j) g_next[j] += ui * u[j];
    }
    g.swap(g_next);
  }
}

// Applies the QL sweep's rotations to z. While the sweep runs, z is held as
// panels of kLanes rows, each transposed to n x kLanes (row r's column j at
// panel[j * kLanes + r]), so a rotation updates two contiguous lane vectors
// (simd::KernelTable::rotate_panel). Full panels are transposed in place in
// z's buffer; the n % kLanes trailing rows live in a zero-padded panel of
// their own. Rotations are logged and applied to all panels in batches.
// Every row sees them in logged order with tql2's expressions, so the
// result does not depend on the batch size, the panel width or the
// dispatch level.
class PanelRotator {
 public:
  explicit PanelRotator(Matrix* z)
      : z_(z),
        n_(z->rows()),
        num_full_(n_ / kLanes),
        num_panels_((n_ + kLanes - 1) / kLanes),
        capacity_(static_cast<size_t>(kLogRotationsPerRow) * n_),
        scratch_(static_cast<size_t>(kLanes) * n_),
        tail_(num_panels_ > num_full_ ? static_cast<size_t>(kLanes) * n_ : 0) {
    log_.reserve(capacity_);
    Transpose(/*to_panels=*/true);
  }

  void Add(int i, double c, double s) {
    log_.push_back({i, c, s});
    if (log_.size() == capacity_) Flush();
  }

  // Applies the pending rotations and returns z to row-major order.
  void Finish() {
    Flush();
    Transpose(/*to_panels=*/false);
  }

 private:
  static constexpr int kLanes = simd::kRotationLanes;

  double* Panel(int p) {
    return p < num_full_
               ? z_->data() + static_cast<size_t>(p) * kLanes * n_
               : tail_.data();
  }

  void Flush() {
    if (log_.empty()) return;
    for (int p = 0; p < num_panels_; ++p) {
      simd::Dispatch().rotate_panel(Panel(p), log_.data(),
                                    static_cast<int>(log_.size()));
    }
    log_.clear();
  }

  // Converts every panel between row-major rows and the lane layout.
  void Transpose(bool to_panels) {
    for (int p = 0; p < num_full_; ++p) {
      double* panel = Panel(p);
      std::copy(panel, panel + scratch_.size(), scratch_.begin());
      for (int r = 0; r < kLanes; ++r) {
        for (int j = 0; j < n_; ++j) {
          if (to_panels) {
            panel[j * kLanes + r] = scratch_[r * n_ + j];
          } else {
            panel[r * n_ + j] = scratch_[j * kLanes + r];
          }
        }
      }
    }
    for (int r = 0; num_full_ * kLanes + r < n_; ++r) {
      double* row = z_->RowPtr(num_full_ * kLanes + r);
      for (int j = 0; j < n_; ++j) {
        if (to_panels) {
          tail_[j * kLanes + r] = row[j];
        } else {
          row[j] = tail_[j * kLanes + r];
        }
      }
    }
  }

  Matrix* z_;
  const int n_;
  const int num_full_;
  const int num_panels_;
  const size_t capacity_;
  std::vector<simd::PlaneRotation> log_;
  // Copy of one full panel for the in-place transposes.
  std::vector<double> scratch_;
  std::vector<double> tail_;
};

// Implicit-shift QL iteration on the tridiagonal matrix (d, e), rotating the
// columns of `z` along. The recurrence never reads z, so its rotations are
// logged and applied to z in row panels. Returns false if some eigenvalue fails
// to converge.
bool Tql2(Vector* d_out, Vector* e_out, Matrix* z) {
  const int n = d_out->size();
  double* d = d_out->data();
  double* e = e_out->data();
  constexpr int kMaxIterations = 64;
  PanelRotator rotator(z);
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m = 0;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-300 || std::fabs(e[m]) <= 2.3e-16 * dd) {
          break;
        }
      }
      if (m != l) {
        if (iter++ == kMaxIterations) {
          rotator.Finish();
          return false;
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = Hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + SameSign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i = m - 1;
        for (; i >= l; --i) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = Hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          rotator.Add(i, c, s);
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  rotator.Finish();
  return true;
}

}  // namespace

SymmetricEigenResult SymmetricEigen(const Matrix& a) {
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
    const double* ai = a.RowPtr(i);
    double* zi = z.RowPtr(i);
    for (int j = 0; j <= i; ++j) {
      zi[j] = ai[j];
      z.RowPtr(j)[i] = ai[j];
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

  Tred2(&z, &d, &e);
  result.converged = Tql2(&d, &e, &z);

  // Sort eigenpairs ascending by eigenvalue.
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int lhs, int rhs) { return d[lhs] < d[rhs]; });
  for (int j = 0; j < n; ++j) {
    result.eigenvalues[j] = d[order[static_cast<size_t>(j)]];
  }
  for (int i = 0; i < n; ++i) {
    const double* zi = z.RowPtr(i);
    double* vi = result.eigenvectors.RowPtr(i);
    for (int j = 0; j < n; ++j) vi[j] = zi[order[static_cast<size_t>(j)]];
  }
  return result;
}

}  // namespace srda
