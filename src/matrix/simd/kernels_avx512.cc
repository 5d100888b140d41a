// AVX-512 kernel table. Compiled with -mavx512f -ffp-contract=off; only
// entered when __builtin_cpu_supports("avx512f") said yes. The zmm
// kernels widen the axpy-form GEMM tile (4 rows x 16 columns), run the
// 8-lane downdate step in a single register, and push TRSM to 8 rows in
// lockstep; the dot-form kernel reuses the ymm body, whose 4x4
// transpose shape does not benefit from wider registers. Remainder
// regions delegate to the ymm or generic kernels — same per-element
// chains, so the choice of width never shows up in the bits.

#include "matrix/simd/tables.h"

#ifdef SRDA_SIMD_HAVE_AVX512

#include <immintrin.h>

#include <cstddef>

#include "matrix/simd/kernel_impl.h"

namespace srda {
namespace simd {
namespace internal {
namespace {

#include "matrix/simd/kernels_x86_ymm.inl"

// gemm_tile, 4 rows x 16 columns (8 zmm accumulators = 64 C elements).
void GemmTileZmm(const double* panel, int panel_stride, int kk,
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
    for (; j + 16 <= j1; j += 16) {
      __m512d a00 = _mm512_loadu_pd(c0 + j);
      __m512d a01 = _mm512_loadu_pd(c0 + j + 8);
      __m512d a10 = _mm512_loadu_pd(c1 + j);
      __m512d a11 = _mm512_loadu_pd(c1 + j + 8);
      __m512d a20 = _mm512_loadu_pd(c2 + j);
      __m512d a21 = _mm512_loadu_pd(c2 + j + 8);
      __m512d a30 = _mm512_loadu_pd(c3 + j);
      __m512d a31 = _mm512_loadu_pd(c3 + j + 8);
      const double* brow = bbase + j;
      for (int k = 0; k < kk; ++k, brow += b_stride) {
        const __m512d b0 = _mm512_loadu_pd(brow);
        const __m512d b1 = _mm512_loadu_pd(brow + 8);
        __m512d v = _mm512_set1_pd(p0[k]);
        a00 = _mm512_add_pd(a00, _mm512_mul_pd(v, b0));
        a01 = _mm512_add_pd(a01, _mm512_mul_pd(v, b1));
        v = _mm512_set1_pd(p1[k]);
        a10 = _mm512_add_pd(a10, _mm512_mul_pd(v, b0));
        a11 = _mm512_add_pd(a11, _mm512_mul_pd(v, b1));
        v = _mm512_set1_pd(p2[k]);
        a20 = _mm512_add_pd(a20, _mm512_mul_pd(v, b0));
        a21 = _mm512_add_pd(a21, _mm512_mul_pd(v, b1));
        v = _mm512_set1_pd(p3[k]);
        a30 = _mm512_add_pd(a30, _mm512_mul_pd(v, b0));
        a31 = _mm512_add_pd(a31, _mm512_mul_pd(v, b1));
      }
      _mm512_storeu_pd(c0 + j, a00);
      _mm512_storeu_pd(c0 + j + 8, a01);
      _mm512_storeu_pd(c1 + j, a10);
      _mm512_storeu_pd(c1 + j + 8, a11);
      _mm512_storeu_pd(c2 + j, a20);
      _mm512_storeu_pd(c2 + j + 8, a21);
      _mm512_storeu_pd(c3 + j, a30);
      _mm512_storeu_pd(c3 + j + 8, a31);
    }
    if (j < j1) {
      GemmTileYmm(p0, panel_stride, kk, b, b_stride, k0, c, c_stride, i,
                  i + 4, j, j1);
    }
  }
  if (i < i1) {
    GemmTileYmm(panel + static_cast<size_t>(i - i0) * panel_stride,
                panel_stride, kk, b, b_stride, k0, c, c_stride, i, i1, j0,
                j1);
  }
}

// trsm_rows, 8 factor rows in lockstep; scratch[8 * jj + lane] parks the
// finished column values (uses the full kTrsmMaxLanes scratch width).
void TrsmRowsZmm(double* l, int stride, int p0, int p1,
                 const double* inv_diag, int i, int rows, double* scratch) {
  int r = 0;
  for (; r + 8 <= rows; r += 8) {
    double* lr[8];
    lr[0] = l + static_cast<size_t>(i + r) * stride;
    for (int q = 1; q < 8; ++q) lr[q] = lr[q - 1] + stride;
    for (int j = p0; j < p1; ++j) {
      const int jj = j - p0;
      const double* lrow_j = l + static_cast<size_t>(j) * stride + p0;
      __m512d acc =
          _mm512_set_pd(lr[7][j], lr[6][j], lr[5][j], lr[4][j], lr[3][j],
                        lr[2][j], lr[1][j], lr[0][j]);
      for (int k = 0; k < jj; ++k) {
        const __m512d prev = _mm512_loadu_pd(scratch + 8 * k);
        acc = _mm512_sub_pd(
            acc, _mm512_mul_pd(_mm512_set1_pd(lrow_j[k]), prev));
      }
      acc = _mm512_mul_pd(acc, _mm512_set1_pd(inv_diag[jj]));
      _mm512_storeu_pd(scratch + 8 * jj, acc);
      double out[8];
      _mm512_storeu_pd(out, acc);
      for (int q = 0; q < 8; ++q) lr[q][j] = out[q];
    }
  }
  if (r < rows) {
    TrsmRowsYmm(l, stride, p0, p1, inv_diag, i + r, rows - r, scratch);
  }
}

// downdate_tile: all 8 lanes in one zmm register per rotation step.
void DowndateTileZmm(double* const* lrows, double* wtile, const double* p,
                     const double* g, int width, int k) {
  static_assert(kDowndateLanes == 8, "zmm downdate kernel assumes 8 lanes");
  for (int j = 0; j < width; ++j) {
    const double* pj = p + static_cast<size_t>(j) * k;
    const double* gj = g + static_cast<size_t>(j) * k;
    __m512d lv = _mm512_set_pd(lrows[7][j], lrows[6][j], lrows[5][j],
                               lrows[4][j], lrows[3][j], lrows[2][j],
                               lrows[1][j], lrows[0][j]);
    for (int r = 0; r < k; ++r) {
      const __m512d pr = _mm512_set1_pd(pj[r]);
      const __m512d gr = _mm512_set1_pd(gj[r]);
      double* wr = wtile + r * 8;
      __m512d w = _mm512_loadu_pd(wr);
      w = _mm512_sub_pd(w, _mm512_mul_pd(pr, lv));
      lv = _mm512_add_pd(lv, _mm512_mul_pd(gr, w));
      _mm512_storeu_pd(wr, w);
    }
    double out[8];
    _mm512_storeu_pd(out, lv);
    for (int q = 0; q < 8; ++q) lrows[q][j] = out[q];
  }
}

// rotate_panel: each kRotationLanes-wide column is four zmm registers. A
// sweep's rotations walk i downward, so rotation t's new column i is the
// next rotation's column i + 1: it stays in registers (`carry`, holding
// column `cur`) and is stored only when the next rotation does not read
// it, which takes the store-to-load round trip off the serial chain.
void RotatePanelZmm(double* panel, const PlaneRotation* rotations,
                    int count) {
  constexpr int kLanes = kRotationLanes;
  static_assert(kLanes == 32, "zmm rotation kernel assumes 32 lanes");
  __m512d carry[4];
  int cur = -1;
  for (int t = 0; t < count; ++t) {
    const int i = rotations[t].i;
    double* lo = panel + static_cast<size_t>(i) * kLanes;
    double* hi = lo + kLanes;
    const __m512d c = _mm512_set1_pd(rotations[t].c);
    const __m512d s = _mm512_set1_pd(rotations[t].s);
    __m512d f[4];
    if (i + 1 == cur) {
      for (int v = 0; v < 4; ++v) f[v] = carry[v];
    } else {
      if (cur >= 0) {
        double* spill = panel + static_cast<size_t>(cur) * kLanes;
        for (int v = 0; v < 4; ++v) _mm512_storeu_pd(spill + 8 * v, carry[v]);
      }
      for (int v = 0; v < 4; ++v) f[v] = _mm512_loadu_pd(hi + 8 * v);
    }
    for (int v = 0; v < 4; ++v) {
      const __m512d x = _mm512_loadu_pd(lo + 8 * v);
      _mm512_storeu_pd(hi + 8 * v, _mm512_add_pd(_mm512_mul_pd(s, x),
                                                 _mm512_mul_pd(c, f[v])));
      carry[v] = _mm512_sub_pd(_mm512_mul_pd(c, x), _mm512_mul_pd(s, f[v]));
    }
    cur = i;
  }
  if (cur >= 0) {
    double* spill = panel + static_cast<size_t>(cur) * kLanes;
    for (int v = 0; v < 4; ++v) _mm512_storeu_pd(spill + 8 * v, carry[v]);
  }
}

}  // namespace

const KernelTable& Avx512Table() {
  static const KernelTable table = {
      &GemmTileZmm,     &DotTileYmm,
      &TrsmRowsZmm,     &DowndateTileZmm, &RotatePanelZmm,
  };
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace srda

#endif  // SRDA_SIMD_HAVE_AVX512
