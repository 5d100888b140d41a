// Generic (autovectorized) micro-kernel implementations — the portable
// source of truth every vector translation unit is measured against.
//
// The arithmetic here is the blocked-kernel code that previously lived
// inline in matrix/blas.cc, linalg/cholesky.cc, and
// linalg/cholesky_update.cc, lifted to raw-pointer signatures. Each
// output element owns exactly one accumulator chain that advances k
// strictly ascending; unrolling (4x4 register tile, 2x2 dot tile, the
// 8-lane downdate tile, the 32-lane rotation panel) only multiplies the
// number of *concurrent* elements. The vector kernels in kernels_avx2.cc /
// kernels_avx512.cc / kernels_neon.cc reproduce these chains
// lane-for-lane, which is what makes every dispatch level bitwise
// identical.

#ifndef SRDA_MATRIX_SIMD_KERNEL_IMPL_H_
#define SRDA_MATRIX_SIMD_KERNEL_IMPL_H_

#include <cstddef>

#include "matrix/simd/simd.h"

namespace srda {
namespace simd {
namespace generic {

// C[i0:i1, j0:j1] += P * B, 4x4 register tile (see KernelTable::gemm_tile
// for the layout contract). Seeding the sixteen accumulators from C and
// folding the whole K-panel before storing back is the same addition
// chain per element as updating memory each step.
inline void GemmTile(const double* panel, int panel_stride, int kk,
                     const double* b, int b_stride, int k0, double* c,
                     int c_stride, int i0, int i1, int j0, int j1) {
  const double* bbase = b + static_cast<size_t>(k0) * b_stride;
  int i = i0;
  for (; i + 4 <= i1; i += 4) {
    const double* p0 = panel + static_cast<size_t>(i - i0) * panel_stride;
    const double* p1 = p0 + panel_stride;
    const double* p2 = p1 + panel_stride;
    const double* p3 = p2 + panel_stride;
    double* c0 = c + static_cast<size_t>(i) * c_stride;
    double* c1 = c0 + c_stride;
    double* c2 = c1 + c_stride;
    double* c3 = c2 + c_stride;
    int j = j0;
    for (; j + 4 <= j1; j += 4) {
      double a00 = c0[j], a01 = c0[j + 1], a02 = c0[j + 2], a03 = c0[j + 3];
      double a10 = c1[j], a11 = c1[j + 1], a12 = c1[j + 2], a13 = c1[j + 3];
      double a20 = c2[j], a21 = c2[j + 1], a22 = c2[j + 2], a23 = c2[j + 3];
      double a30 = c3[j], a31 = c3[j + 1], a32 = c3[j + 2], a33 = c3[j + 3];
      const double* brow = bbase + j;
      for (int k = 0; k < kk; ++k, brow += b_stride) {
        const double b0 = brow[0];
        const double b1 = brow[1];
        const double b2 = brow[2];
        const double b3 = brow[3];
        const double v0 = p0[k];
        const double v1 = p1[k];
        const double v2 = p2[k];
        const double v3 = p3[k];
        a00 += v0 * b0; a01 += v0 * b1; a02 += v0 * b2; a03 += v0 * b3;
        a10 += v1 * b0; a11 += v1 * b1; a12 += v1 * b2; a13 += v1 * b3;
        a20 += v2 * b0; a21 += v2 * b1; a22 += v2 * b2; a23 += v2 * b3;
        a30 += v3 * b0; a31 += v3 * b1; a32 += v3 * b2; a33 += v3 * b3;
      }
      c0[j] = a00; c0[j + 1] = a01; c0[j + 2] = a02; c0[j + 3] = a03;
      c1[j] = a10; c1[j + 1] = a11; c1[j + 2] = a12; c1[j + 3] = a13;
      c2[j] = a20; c2[j + 1] = a21; c2[j + 2] = a22; c2[j + 3] = a23;
      c3[j] = a30; c3[j + 1] = a31; c3[j + 2] = a32; c3[j + 3] = a33;
    }
    for (; j < j1; ++j) {
      double a0 = c0[j], a1 = c1[j], a2 = c2[j], a3 = c3[j];
      const double* bk = bbase + j;
      for (int k = 0; k < kk; ++k, bk += b_stride) {
        const double bv = *bk;
        a0 += p0[k] * bv;
        a1 += p1[k] * bv;
        a2 += p2[k] * bv;
        a3 += p3[k] * bv;
      }
      c0[j] = a0;
      c1[j] = a1;
      c2[j] = a2;
      c3[j] = a3;
    }
  }
  for (; i < i1; ++i) {
    const double* prow = panel + static_cast<size_t>(i - i0) * panel_stride;
    double* crow = c + static_cast<size_t>(i) * c_stride;
    int j = j0;
    for (; j + 4 <= j1; j += 4) {
      double a0 = crow[j], a1 = crow[j + 1], a2 = crow[j + 2],
             a3 = crow[j + 3];
      const double* brow = bbase + j;
      for (int k = 0; k < kk; ++k, brow += b_stride) {
        const double v = prow[k];
        a0 += v * brow[0];
        a1 += v * brow[1];
        a2 += v * brow[2];
        a3 += v * brow[3];
      }
      crow[j] = a0;
      crow[j + 1] = a1;
      crow[j + 2] = a2;
      crow[j + 3] = a3;
    }
    for (; j < j1; ++j) {
      double acc = crow[j];
      const double* bk = bbase + j;
      for (int k = 0; k < kk; ++k, bk += b_stride) acc += prow[k] * *bk;
      crow[j] = acc;
    }
  }
}

// C[i0:i1, j0:j1] += A * B^T in dot form, 2x2-unrolled (four independent
// accumulator chains, one per output element).
inline void DotTile(const double* a, int a_stride, const double* b,
                    int b_stride, int k0, int kk, double* c, int c_stride,
                    int i0, int i1, int j0, int j1) {
  int i = i0;
  for (; i + 2 <= i1; i += 2) {
    const double* a0 = a + static_cast<size_t>(i) * a_stride + k0;
    const double* a1 = a0 + a_stride;
    double* c0 = c + static_cast<size_t>(i) * c_stride;
    double* c1 = c0 + c_stride;
    int j = j0;
    for (; j + 2 <= j1; j += 2) {
      const double* b0 = b + static_cast<size_t>(j) * b_stride + k0;
      const double* b1 = b0 + b_stride;
      double s00 = c0[j];
      double s01 = c0[j + 1];
      double s10 = c1[j];
      double s11 = c1[j + 1];
      for (int k = 0; k < kk; ++k) {
        const double av0 = a0[k];
        const double av1 = a1[k];
        s00 += av0 * b0[k];
        s01 += av0 * b1[k];
        s10 += av1 * b0[k];
        s11 += av1 * b1[k];
      }
      c0[j] = s00;
      c0[j + 1] = s01;
      c1[j] = s10;
      c1[j + 1] = s11;
    }
    for (; j < j1; ++j) {
      const double* brow = b + static_cast<size_t>(j) * b_stride + k0;
      double s0 = c0[j];
      double s1 = c1[j];
      for (int k = 0; k < kk; ++k) {
        s0 += a0[k] * brow[k];
        s1 += a1[k] * brow[k];
      }
      c0[j] = s0;
      c1[j] = s1;
    }
  }
  for (; i < i1; ++i) {
    const double* arow = a + static_cast<size_t>(i) * a_stride + k0;
    double* crow = c + static_cast<size_t>(i) * c_stride;
    for (int j = j0; j < j1; ++j) {
      const double* brow = b + static_cast<size_t>(j) * b_stride + k0;
      double sum = crow[j];
      for (int k = 0; k < kk; ++k) sum += arow[k] * brow[k];
      crow[j] = sum;
    }
  }
}

// Blocked-Cholesky TRSM for rows [i, i + rows): finish panel columns
// [p0, p1). Row r only reads rows < p1 (final) and its own earlier
// columns, so rows are independent; `scratch` is unused here.
inline void TrsmRows(double* l, int stride, int p0, int p1,
                     const double* inv_diag, int i, int rows,
                     double* scratch) {
  (void)scratch;
  for (int r = 0; r < rows; ++r) {
    double* lrow_i = l + static_cast<size_t>(i + r) * stride;
    for (int j = p0; j < p1; ++j) {
      const double* lrow_j = l + static_cast<size_t>(j) * stride;
      double sum = lrow_i[j];
      for (int k = p0; k < j; ++k) sum -= lrow_i[k] * lrow_j[k];
      lrow_i[j] = sum * inv_diag[j - p0];
    }
  }
}

// Downdate sweep full-tile kernel: kDowndateLanes rows advance in
// lockstep through the panel's scaled rotations. Per (element, vector)
// step: w ← w − p·l, l ← l + γ·w, column-outer / vector-inner — the
// classical one-column-at-a-time order.
inline void DowndateTile(double* const* lrows, double* wtile,
                         const double* p, const double* g, int width,
                         int k) {
  constexpr int kLanes = kDowndateLanes;
  for (int j = 0; j < width; ++j) {
    const double* pj = p + static_cast<size_t>(j) * k;
    const double* gj = g + static_cast<size_t>(j) * k;
    double lv[kLanes];
    for (int q = 0; q < kLanes; ++q) lv[q] = lrows[q][j];
    for (int r = 0; r < k; ++r) {
      const double pr = pj[r];
      const double gr = gj[r];
      double* wr = wtile + r * kLanes;
      for (int q = 0; q < kLanes; ++q) {
        const double wq = wr[q] - pr * lv[q];
        lv[q] += gr * wq;
        wr[q] = wq;
      }
    }
    for (int q = 0; q < kLanes; ++q) lrows[q][j] = lv[q];
  }
}

// QL eigen sweep: each rotation mixes two kRotationLanes-wide columns of
// the panel; lanes are independent rows, rotations run in logged order.
inline void RotatePanel(double* panel, const PlaneRotation* rotations,
                        int count) {
  constexpr int kLanes = kRotationLanes;
  for (int t = 0; t < count; ++t) {
    double* lo = panel + static_cast<size_t>(rotations[t].i) * kLanes;
    double* hi = lo + kLanes;
    const double c = rotations[t].c;
    const double s = rotations[t].s;
    for (int q = 0; q < kLanes; ++q) {
      const double f = hi[q];
      hi[q] = s * lo[q] + c * f;
      lo[q] = c * lo[q] - s * f;
    }
  }
}

}  // namespace generic
}  // namespace simd
}  // namespace srda

#endif  // SRDA_MATRIX_SIMD_KERNEL_IMPL_H_
