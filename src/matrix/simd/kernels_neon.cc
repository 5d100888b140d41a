// NEON (aarch64 baseline) kernel table: 128-bit float64x2 lanes. Uses
// separate vmulq/vaddq/vsubq — never vfmaq, which would fuse the
// mul-add and break bitwise identity with the scalar chains — and the TU
// is additionally compiled with -ffp-contract=off so the compiler cannot
// re-fuse them. Remainders delegate to the generic kernels.

#include "matrix/simd/tables.h"

#ifdef SRDA_SIMD_HAVE_NEON

#include <arm_neon.h>

#include <cstddef>

#include "matrix/simd/kernel_impl.h"

namespace srda {
namespace simd {
namespace internal {
namespace {

// gemm_tile, 4 rows x 4 columns (eight q-register accumulators).
void GemmTileNeon(const double* panel, int panel_stride, int kk,
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
      float64x2_t a00 = vld1q_f64(c0 + j);
      float64x2_t a01 = vld1q_f64(c0 + j + 2);
      float64x2_t a10 = vld1q_f64(c1 + j);
      float64x2_t a11 = vld1q_f64(c1 + j + 2);
      float64x2_t a20 = vld1q_f64(c2 + j);
      float64x2_t a21 = vld1q_f64(c2 + j + 2);
      float64x2_t a30 = vld1q_f64(c3 + j);
      float64x2_t a31 = vld1q_f64(c3 + j + 2);
      const double* brow = bbase + j;
      for (int k = 0; k < kk; ++k, brow += b_stride) {
        const float64x2_t b0 = vld1q_f64(brow);
        const float64x2_t b1 = vld1q_f64(brow + 2);
        float64x2_t v = vdupq_n_f64(p0[k]);
        a00 = vaddq_f64(a00, vmulq_f64(v, b0));
        a01 = vaddq_f64(a01, vmulq_f64(v, b1));
        v = vdupq_n_f64(p1[k]);
        a10 = vaddq_f64(a10, vmulq_f64(v, b0));
        a11 = vaddq_f64(a11, vmulq_f64(v, b1));
        v = vdupq_n_f64(p2[k]);
        a20 = vaddq_f64(a20, vmulq_f64(v, b0));
        a21 = vaddq_f64(a21, vmulq_f64(v, b1));
        v = vdupq_n_f64(p3[k]);
        a30 = vaddq_f64(a30, vmulq_f64(v, b0));
        a31 = vaddq_f64(a31, vmulq_f64(v, b1));
      }
      vst1q_f64(c0 + j, a00);
      vst1q_f64(c0 + j + 2, a01);
      vst1q_f64(c1 + j, a10);
      vst1q_f64(c1 + j + 2, a11);
      vst1q_f64(c2 + j, a20);
      vst1q_f64(c2 + j + 2, a21);
      vst1q_f64(c3 + j, a30);
      vst1q_f64(c3 + j + 2, a31);
    }
    if (j < j1) {
      generic::GemmTile(p0, panel_stride, kk, b, b_stride, k0, c, c_stride,
                        i, i + 4, j, j1);
    }
  }
  if (i < i1) {
    generic::GemmTile(panel + static_cast<size_t>(i - i0) * panel_stride,
                      panel_stride, kk, b, b_stride, k0, c, c_stride, i, i1,
                      j0, j1);
  }
}

// dot_tile, 2 rows x 2 columns: B's two row segments are zipped into
// column vectors so each k step broadcasts one A value across two output
// columns.
void DotTileNeon(const double* a, int a_stride, const double* b,
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
      float64x2_t s0 = vld1q_f64(c0 + j);
      float64x2_t s1 = vld1q_f64(c1 + j);
      int k = 0;
      for (; k + 2 <= kk; k += 2) {
        const float64x2_t r0 = vld1q_f64(b0 + k);
        const float64x2_t r1 = vld1q_f64(b1 + k);
        const float64x2_t t0 = vzip1q_f64(r0, r1);  // {b0[k], b1[k]}
        const float64x2_t t1 = vzip2q_f64(r0, r1);  // {b0[k+1], b1[k+1]}
        s0 = vaddq_f64(s0, vmulq_f64(vdupq_n_f64(a0[k]), t0));
        s0 = vaddq_f64(s0, vmulq_f64(vdupq_n_f64(a0[k + 1]), t1));
        s1 = vaddq_f64(s1, vmulq_f64(vdupq_n_f64(a1[k]), t0));
        s1 = vaddq_f64(s1, vmulq_f64(vdupq_n_f64(a1[k + 1]), t1));
      }
      for (; k < kk; ++k) {
        float64x2_t t = vdupq_n_f64(b0[k]);
        t = vsetq_lane_f64(b1[k], t, 1);
        s0 = vaddq_f64(s0, vmulq_f64(vdupq_n_f64(a0[k]), t));
        s1 = vaddq_f64(s1, vmulq_f64(vdupq_n_f64(a1[k]), t));
      }
      vst1q_f64(c0 + j, s0);
      vst1q_f64(c1 + j, s1);
    }
    if (j < j1) {
      generic::DotTile(a, a_stride, b, b_stride, k0, kk, c, c_stride, i,
                       i + 2, j, j1);
    }
  }
  if (i < i1) {
    generic::DotTile(a, a_stride, b, b_stride, k0, kk, c, c_stride, i, i1,
                     j0, j1);
  }
}

// syrk_row: two output columns per iteration.
void SyrkRowNeon(double* l, int stride, int i, int p0, int kk, int j0,
                 int jend) {
  const double* rowi = l + static_cast<size_t>(i) * stride + p0;
  double* crow = l + static_cast<size_t>(i) * stride;
  int j = j0;
  for (; j + 2 <= jend; j += 2) {
    const double* r0 = l + static_cast<size_t>(j) * stride + p0;
    const double* r1 = r0 + stride;
    float64x2_t s = vdupq_n_f64(0.0);
    int k = 0;
    for (; k + 2 <= kk; k += 2) {
      const float64x2_t q0 = vld1q_f64(r0 + k);
      const float64x2_t q1 = vld1q_f64(r1 + k);
      const float64x2_t t0 = vzip1q_f64(q0, q1);
      const float64x2_t t1 = vzip2q_f64(q0, q1);
      s = vaddq_f64(s, vmulq_f64(vdupq_n_f64(rowi[k]), t0));
      s = vaddq_f64(s, vmulq_f64(vdupq_n_f64(rowi[k + 1]), t1));
    }
    for (; k < kk; ++k) {
      float64x2_t t = vdupq_n_f64(r0[k]);
      t = vsetq_lane_f64(r1[k], t, 1);
      s = vaddq_f64(s, vmulq_f64(vdupq_n_f64(rowi[k]), t));
    }
    vst1q_f64(crow + j, vsubq_f64(vld1q_f64(crow + j), s));
  }
  if (j < jend) {
    generic::SyrkRow(l, stride, i, p0, kk, j, jend);
  }
}

// trsm_rows: two factor rows in lockstep, scratch[2 * jj + lane].
void TrsmRowsNeon(double* l, int stride, int p0, int p1,
                  const double* inv_diag, int i, int rows, double* scratch) {
  int r = 0;
  for (; r + 2 <= rows; r += 2) {
    double* l0 = l + static_cast<size_t>(i + r) * stride;
    double* l1 = l0 + stride;
    for (int j = p0; j < p1; ++j) {
      const int jj = j - p0;
      const double* lrow_j = l + static_cast<size_t>(j) * stride + p0;
      float64x2_t acc = vdupq_n_f64(l0[j]);
      acc = vsetq_lane_f64(l1[j], acc, 1);
      for (int k = 0; k < jj; ++k) {
        const float64x2_t prev = vld1q_f64(scratch + 2 * k);
        acc = vsubq_f64(acc, vmulq_f64(vdupq_n_f64(lrow_j[k]), prev));
      }
      acc = vmulq_f64(acc, vdupq_n_f64(inv_diag[jj]));
      vst1q_f64(scratch + 2 * jj, acc);
      l0[j] = vgetq_lane_f64(acc, 0);
      l1[j] = vgetq_lane_f64(acc, 1);
    }
  }
  if (r < rows) {
    generic::TrsmRows(l, stride, p0, p1, inv_diag, i + r, rows - r, scratch);
  }
}

// downdate_tile: the 8 lanes are four q registers.
void DowndateTileNeon(double* const* lrows, double* wtile, const double* p,
                      const double* g, int width, int k) {
  static_assert(kDowndateLanes == 8, "neon downdate kernel assumes 8 lanes");
  for (int j = 0; j < width; ++j) {
    const double* pj = p + static_cast<size_t>(j) * k;
    const double* gj = g + static_cast<size_t>(j) * k;
    double seed[8];
    for (int q = 0; q < 8; ++q) seed[q] = lrows[q][j];
    float64x2_t lv0 = vld1q_f64(seed);
    float64x2_t lv1 = vld1q_f64(seed + 2);
    float64x2_t lv2 = vld1q_f64(seed + 4);
    float64x2_t lv3 = vld1q_f64(seed + 6);
    for (int r = 0; r < k; ++r) {
      const float64x2_t pr = vdupq_n_f64(pj[r]);
      const float64x2_t gr = vdupq_n_f64(gj[r]);
      double* wr = wtile + r * 8;
      float64x2_t w0 = vld1q_f64(wr);
      float64x2_t w1 = vld1q_f64(wr + 2);
      float64x2_t w2 = vld1q_f64(wr + 4);
      float64x2_t w3 = vld1q_f64(wr + 6);
      w0 = vsubq_f64(w0, vmulq_f64(pr, lv0));
      w1 = vsubq_f64(w1, vmulq_f64(pr, lv1));
      w2 = vsubq_f64(w2, vmulq_f64(pr, lv2));
      w3 = vsubq_f64(w3, vmulq_f64(pr, lv3));
      lv0 = vaddq_f64(lv0, vmulq_f64(gr, w0));
      lv1 = vaddq_f64(lv1, vmulq_f64(gr, w1));
      lv2 = vaddq_f64(lv2, vmulq_f64(gr, w2));
      lv3 = vaddq_f64(lv3, vmulq_f64(gr, w3));
      vst1q_f64(wr, w0);
      vst1q_f64(wr + 2, w1);
      vst1q_f64(wr + 4, w2);
      vst1q_f64(wr + 6, w3);
    }
    double out[8];
    vst1q_f64(out, lv0);
    vst1q_f64(out + 2, lv1);
    vst1q_f64(out + 4, lv2);
    vst1q_f64(out + 6, lv3);
    for (int q = 0; q < 8; ++q) lrows[q][j] = out[q];
  }
}

}  // namespace

// rotate_panel uses the generic loop: NEON is the aarch64 baseline, so
// that loop already compiles to q-register code.
const KernelTable& NeonTable() {
  static const KernelTable table = {
      &GemmTileNeon, &DotTileNeon, &SyrkRowNeon, &TrsmRowsNeon,
      &DowndateTileNeon, &generic::RotatePanel,
  };
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace srda

#endif  // SRDA_SIMD_HAVE_NEON
