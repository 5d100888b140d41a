// The blocked Cholesky factorization whose trailing update ran one factor
// row at a time (a per-row SYRK kernel: a fresh ascending-k dot per
// element, subtracted once), kept verbatim with that kernel's generic
// body inlined. linalg/cholesky.cc now runs the update as gemm_tile
// calls on a transposed panel pack; this loop is the bitwise oracle of
// CholeskyTest.FactorBitwiseEqualsRowSyrkReference.

#ifndef SRDA_TESTS_ROW_SYRK_CHOLESKY_H_
#define SRDA_TESTS_ROW_SYRK_CHOLESKY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "matrix/blocking.h"
#include "matrix/matrix.h"
#include "matrix/simd/simd.h"

namespace srda {
namespace reference {

// Factors the diagonal block l[p0:p1, p0:p1] in place.
inline bool FactorDiagonalBlock(Matrix* l, int p0, int p1,
                                double pivot_floor) {
  for (int j = p0; j < p1; ++j) {
    double* lrow_j = l->RowPtr(j);
    double diag = lrow_j[j];
    for (int k = p0; k < j; ++k) diag -= lrow_j[k] * lrow_j[k];
    if (diag <= pivot_floor || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    lrow_j[j] = ljj;
    const double inv = 1.0 / ljj;
    for (int i = j + 1; i < p1; ++i) {
      double* lrow_i = l->RowPtr(i);
      double sum = lrow_i[j];
      for (int k = p0; k < j; ++k) sum -= lrow_i[k] * lrow_j[k];
      lrow_i[j] = sum * inv;
    }
  }
  return true;
}

// SYRK inner loop for factor row i: subtract the panel outer product from
// columns [j0, jend). Two-wide unroll, each element a fresh ascending-k
// dot.
inline void SyrkRow(double* l, int stride, int i, int p0, int kk, int j0,
                    int jend) {
  const double* rowi = l + static_cast<size_t>(i) * stride + p0;
  double* crow = l + static_cast<size_t>(i) * stride;
  int j = j0;
  for (; j + 2 <= jend; j += 2) {
    const double* rj0 = l + static_cast<size_t>(j) * stride + p0;
    const double* rj1 = rj0 + stride;
    double s0 = 0.0;
    double s1 = 0.0;
    for (int k = 0; k < kk; ++k) {
      const double v = rowi[k];
      s0 += v * rj0[k];
      s1 += v * rj1[k];
    }
    crow[j] -= s0;
    crow[j + 1] -= s1;
  }
  for (; j < jend; ++j) {
    const double* rowj = l + static_cast<size_t>(j) * stride + p0;
    double sum = 0.0;
    for (int k = 0; k < kk; ++k) sum += rowi[k] * rowj[k];
    crow[j] -= sum;
  }
}

// Cholesky factor of `a` (lower triangle read) into `*l`; false on a
// pivot at or below the relative floor, as Cholesky::Factor.
inline bool RowSyrkCholeskyFactor(const Matrix& a, Matrix* l) {
  SRDA_CHECK_EQ(a.rows(), a.cols()) << "Cholesky needs a square matrix";
  const int n = a.rows();
  *l = Matrix(n, n);
  double max_diag = 0.0;
  for (int j = 0; j < n; ++j) {
    if (!std::isfinite(a(j, j))) return false;
    max_diag = std::max(max_diag, std::fabs(a(j, j)));
  }
  const double pivot_floor = 1e-14 * max_diag;
  ParallelFor(0, n, [&](int row_begin, int row_end) {
    for (int i = row_begin; i < row_end; ++i) {
      const double* arow = a.RowPtr(i);
      double* lrow = l->RowPtr(i);
      std::copy(arow, arow + i + 1, lrow);
    }
  });
  const BlockConfig& blk = GetBlockConfig();
  const simd::KernelTable& kt = simd::Dispatch();
  for (int p0 = 0; p0 < n; p0 += blk.nb) {
    const int p1 = std::min(p0 + blk.nb, n);
    const int kk = p1 - p0;
    if (!FactorDiagonalBlock(l, p0, p1, pivot_floor)) return false;
    if (p1 == n) break;
    std::vector<double> inv_diag(kk);
    for (int j = 0; j < kk; ++j) inv_diag[j] = 1.0 / (*l)(p0 + j, p0 + j);
    ParallelFor(p1, n, [&](int row_begin, int row_end) {
      PanelScratch scratch;
      double* s = scratch.Acquire(
          static_cast<size_t>(simd::kTrsmMaxLanes) * kk);
      kt.trsm_rows(l->data(), n, p0, p1, inv_diag.data(), row_begin,
                   row_end - row_begin, s);
    });
    ParallelFor(p1, n, [&](int row_begin, int row_end) {
      for (int i0 = row_begin; i0 < row_end; i0 += blk.mc) {
        const int i1 = std::min(i0 + blk.mc, row_end);
        for (int j0 = p1; j0 < i1; j0 += blk.nc) {
          const int j1 = std::min(j0 + blk.nc, i1);
          for (int i = std::max(i0, j0); i < i1; ++i) {
            SyrkRow(l->data(), n, i, p0, kk, j0, std::min(j1, i + 1));
          }
        }
      }
    });
  }
  return true;
}

}  // namespace reference
}  // namespace srda

#endif  // SRDA_TESTS_ROW_SYRK_CHOLESKY_H_
