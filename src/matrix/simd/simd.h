// Explicit SIMD micro-kernels behind one-time runtime CPU dispatch.
//
// The blocked dense kernels (the GEMM family, which also carries the
// blocked Cholesky's trailing update and the triangular sweeps, the
// Cholesky panel TRSM, the downdate engine's rotation sweep, and the QL
// eigen sweep's plane rotations) funnel their innermost loops through the
// function-pointer table returned by Dispatch(). The table is resolved
// once, on first use, from CPUID (x86-64) or the architecture baseline
// (aarch64 NEON), and can be forced with
// SRDA_CPU_LEVEL=scalar|avx2|avx512|neon — unknown or unsupported values
// silently fall back to the detected best.
//
// Determinism contract (see DESIGN.md §4j): every vector kernel assigns
// SIMD lanes to *independent output elements* and walks k strictly
// ascending, so each element keeps the exact mul-then-add chain of the
// scalar kernel — no horizontal reductions, no FMA contraction (the SIMD
// translation units are built with -ffp-contract=off and use separate
// mul/add intrinsics). Results are therefore bitwise identical across
// every dispatch level, tile shape, and thread count.

#ifndef SRDA_MATRIX_SIMD_SIMD_H_
#define SRDA_MATRIX_SIMD_SIMD_H_

#include <vector>

namespace srda {
namespace simd {

enum class CpuLevel {
  kScalar = 0,  // generic C++, compiler autovectorization only
  kAvx2 = 1,    // 256-bit ymm kernels (x86-64)
  kAvx512 = 2,  // 512-bit zmm kernels (x86-64)
  kNeon = 3,    // 128-bit kernels (aarch64 baseline)
};

// Lane count of the downdate sweep's interleaved workspace tiles. The
// layout constant lives here so the widest kernel (one zmm row per
// rotation step) and the workspace builder in linalg/cholesky_update.cc
// agree by construction.
inline constexpr int kDowndateLanes = 8;

// Rows per transposed panel of the QL eigen sweep (rotate_panel): a
// multiple of every vector width, so each rotation updates whole
// registers, and wide enough that the serial chain of a sweep's rotations
// is hidden behind independent lanes.
inline constexpr int kRotationLanes = 32;

// One plane rotation of the QL eigen sweep: panel columns i and i + 1
// become (c x_i - s x_{i+1}, s x_i + c x_{i+1}).
struct PlaneRotation {
  int i;
  double c;
  double s;
};

// Widest row group any trsm_rows implementation processes in lockstep;
// callers must size the scratch argument as kTrsmMaxLanes * (p1 - p0).
inline constexpr int kTrsmMaxLanes = 8;

// The micro-kernel table. All pointers are non-null at every level; the
// scalar entries are the autovec reference implementations.
struct KernelTable {
  // C[i0:i1, j0:j1] += P * B[k0:k0+kk, j0:j1] in axpy (outer-product)
  // form. Panel row r = i - i0 starts at panel + r * panel_stride and
  // holds the kk values for this K-panel; B row k0+k starts at
  // b + (k0 + k) * b_stride; C row i at c + i * c_stride. One
  // accumulator per C element, seeded from C, k ascending.
  void (*gemm_tile)(const double* panel, int panel_stride, int kk,
                    const double* b, int b_stride, int k0, double* c,
                    int c_stride, int i0, int i1, int j0, int j1);

  // C[i0:i1, j0:j1] += A[i0:i1, k0:k0+kk] * B[j0:j1, k0:k0+kk]^T in dot
  // form (both operands index k along rows). Same accumulator contract.
  void (*dot_tile)(const double* a, int a_stride, const double* b,
                   int b_stride, int k0, int kk, double* c, int c_stride,
                   int i0, int i1, int j0, int j1);

  // Blocked-Cholesky TRSM: finishes panel columns [p0, p1) for the
  // `rows` factor rows starting at row `i`. inv_diag[j - p0] is the
  // reciprocal of the panel diagonal. `scratch` must hold at least
  // kTrsmMaxLanes * (p1 - p0) doubles; its layout is private to the
  // implementation.
  void (*trsm_rows)(double* l, int stride, int p0, int p1,
                    const double* inv_diag, int i, int rows,
                    double* scratch);

  // Downdate sweep full-tile kernel: applies `width` panel columns of
  // scaled-rotation coefficients (p, g; column j's k entries at
  // p + j * k) to kDowndateLanes factor-row segments lrows[0..7] and the
  // tile's lane-interleaved workspace wtile (k * kDowndateLanes doubles).
  void (*downdate_tile)(double* const* lrows, double* wtile,
                        const double* p, const double* g, int width, int k);

  // QL eigen sweep: applies `count` rotations, in order, to a panel of
  // kRotationLanes rows stored lane-interleaved (column j's lanes at
  // panel + j * kRotationLanes). Per lane, with f the old x_{i+1}:
  // x_{i+1} = s x_i + c f, then x_i = c x_i - s f, every product rounded
  // before its add.
  void (*rotate_panel)(double* panel, const PlaneRotation* rotations,
                       int count);
};

// The table for the active dispatch level. First call resolves the level
// (CPU detection + SRDA_CPU_LEVEL override) and records it in the obs
// runtime info and the simd.dispatch_level gauge.
const KernelTable& Dispatch();

// Level the table currently points at (resolves dispatch if needed).
CpuLevel ActiveLevel();

// True when `level` is both compiled into this binary and usable on this
// CPU. kScalar is always supported.
bool LevelSupported(CpuLevel level);

// All supported levels, ascending (always starts with kScalar).
std::vector<CpuLevel> SupportedLevels();

// Forces the table to `level`. Returns false (table unchanged) when the
// level is unsupported. Test/bench hook — not thread-safe against
// concurrent kernel calls.
bool SetDispatchLevel(CpuLevel level);

// "scalar" / "avx2" / "avx512" / "neon".
const char* CpuLevelName(CpuLevel level);

}  // namespace simd
}  // namespace srda

#endif  // SRDA_MATRIX_SIMD_SIMD_H_
