#include "linalg/cholesky_update.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "matrix/simd/simd.h"
#include "matrix/vector.h"
#include "obs/trace.h"

// No-aliasing qualifier for the hot sweep kernels; GCC and Clang both
// accept the double-underscore spelling in C++.
#define SRDA_RESTRICT __restrict

namespace srda {
namespace {

// A downdate rotation that shrinks its pivot by this factor or more
// (d̄_j / d_j at or below the floor, the ρ² of the equivalent hyperbolic
// rotation) amplifies rounding error by ≥ ~3e4 and signals that G − VᵀV
// is numerically singular; we bail out to a full refactor instead of
// finishing with garbage digits.
constexpr double kDowndateRho2Floor = 1e-9;

// Columns per panel. Bounds the rotation-coefficient tables at
// 2 * kPanelColumns * k doubles so phase 2 streams them from cache while
// the factor and workspace rows stream from memory exactly once per panel.
constexpr int kPanelColumns = 16;

// Rows of the workspace are grouped into tiles of kLanes rows stored
// lane-interleaved ([tile][r][lane]), so the tile kernel's inner step is a
// contiguous kLanes-wide data-parallel operation. The lane count is owned
// by the simd layer (one zmm register at AVX-512), which supplies the
// full-tile kernel through simd::Dispatch().
constexpr int kLanes = simd::kDowndateLanes;

// Applies one panel's scaled rotations (columns [0, width) of the
// coefficient tables) to a single row of the unit-lower factor: `lseg` is
// the row's factor segment under the panel, `wlane` its k workspace
// entries at stride kLanes (one lane of a workspace tile). Per (element,
// vector) step the C1 recurrence is two fused multiply-adds:
// w ← w − p·l,  l ← l + γ·w.  The chain runs r-inner / column-outer in a
// fixed order, so the result never depends on how rows were grouped or
// partitioned — the bitwise-determinism contract.
inline void ApplyPanelRow(double* SRDA_RESTRICT lseg,
                          double* SRDA_RESTRICT wlane,
                          const double* SRDA_RESTRICT p,
                          const double* SRDA_RESTRICT g, int width, int k) {
  for (int j = 0; j < width; ++j) {
    const double* pj = p + j * k;
    const double* gj = g + j * k;
    double lij = lseg[j];
    for (int r = 0; r < k; ++r) {
      const double wr = wlane[r * kLanes] - pj[r] * lij;
      lij += gj[r] * wr;
      wlane[r * kLanes] = wr;
    }
    lseg[j] = lij;
  }
}

// The full-tile variant (apply the panel to kLanes rows at once, all
// lanes advancing in lockstep) is the dispatch table's downdate_tile
// kernel: each lane computes exactly the ApplyPanelRow arithmetic, so
// every dispatch level produces the bits of the scalar sweep.

// Blocked one-pass rank-k sweep over the factor in LDLᵀ form, shared by
// the update (sigma = +1) and downdate (sigma = −1). This is method C1 of
// Gill, Golub, Murray & Saunders applied to k vectors at once: per factor
// column j and vector r,
//
//   p = w_r[j],  d̄ = d + b_r p²,  γ = b_r p / d̄,  b_r ← b_r d / d̄,  d ← d̄
//
// and each trailing element takes the two-FMA step above — "fast"
// (scaled) rotations, 4 flops per element·vector against 6 for rotations
// on the LLᵀ factor. `l` is unit-lower (diagonal entries unread), `d` the
// diagonal, and `w` holds the k vectors transposed to n x k so every
// row's chain walks contiguous memory.
//
// Per panel: phase 1 (serial, triangular head) brings each panel row up
// to date against the panel's earlier columns and forms that column's k
// coefficient pairs (p, γ) from the running diagonal; phase 2 applies the
// whole panel's tables to every row below it, parallel over rows, eight
// rows interleaved. Each (row, column) element accumulates its rotations
// in the fixed (column-ascending, vector-ascending) order of the
// classical one-column-at-a-time sweep — the same dependency DAG,
// reordered for locality — so results are bitwise identical at any thread
// count and any row grouping.
//
// Returns false (factor left unspecified) when a downdated pivot hits the
// condition floor or a non-finite value appears.
template <bool kDowndate>
bool RankKSweep(Matrix* l, std::vector<double>* w, int k,
                std::vector<double>* diag) {
  Matrix& factor = *l;
  const int n = factor.rows();
  // Lane of row i inside its workspace tile.
  auto lane_ptr = [&](int i) {
    return w->data() +
           static_cast<size_t>(i / kLanes) * k * kLanes + i % kLanes;
  };
  const size_t table = static_cast<size_t>(kPanelColumns) * k;
  std::vector<double> p(table);
  std::vector<double> g(table);
  std::vector<double> b(static_cast<size_t>(k), kDowndate ? -1.0 : 1.0);
  for (int p0 = 0; p0 < n; p0 += kPanelColumns) {
    const int p1 = std::min(p0 + kPanelColumns, n);
    for (int j = p0; j < p1; ++j) {
      double* lrow = factor.RowPtr(j);
      double* wlane = lane_ptr(j);
      ApplyPanelRow(lrow + p0, wlane, p.data(), g.data(), j - p0, k);
      double dj = (*diag)[j];
      double* pj = p.data() + static_cast<size_t>(j - p0) * k;
      double* gj = g.data() + static_cast<size_t>(j - p0) * k;
      for (int r = 0; r < k; ++r) {
        const double pr = wlane[r * kLanes];
        const double dbar = dj + b[r] * pr * pr;
        if (kDowndate) {
          // catches NaN too
          if (!(dbar > kDowndateRho2Floor * dj)) return false;
        }
        pj[r] = pr;
        gj[r] = b[r] * pr / dbar;
        b[r] *= dj / dbar;
        dj = dbar;
      }
      if (!std::isfinite(dj)) return false;
      (*diag)[j] = dj;
    }
    const int width = p1 - p0;
    // Phase 2 walks workspace tiles. The head tile straddling the panel
    // boundary (and a ragged tail tile) go lane by lane; full tiles take
    // the SIMD-width kernel. Tile membership is fixed by row index, never
    // by thread partition, so the arithmetic per row is invariant.
    const int full_begin = (p1 + kLanes - 1) / kLanes;
    const int full_end = std::max(full_begin, n / kLanes);
    for (int i = p1; i < std::min(full_begin * kLanes, n); ++i) {
      ApplyPanelRow(factor.RowPtr(i) + p0, lane_ptr(i), p.data(), g.data(),
                    width, k);
    }
    const simd::KernelTable& kt = simd::Dispatch();
    ParallelFor(full_begin, full_end, [&](int tile_begin, int tile_end) {
      for (int t = tile_begin; t < tile_end; ++t) {
        double* lrows[kLanes];
        for (int q = 0; q < kLanes; ++q) {
          lrows[q] = factor.RowPtr(t * kLanes + q) + p0;
        }
        kt.downdate_tile(lrows,
                         w->data() + static_cast<size_t>(t) * k * kLanes,
                         p.data(), g.data(), width, k);
      }
    });
    for (int i = std::max(p1, full_end * kLanes); i < n; ++i) {
      ApplyPanelRow(factor.RowPtr(i) + p0, lane_ptr(i), p.data(), g.data(),
                    width, k);
    }
  }
  return true;
}

// Scales the LLᵀ factor into unit-lower columns plus a separate diagonal
// (the LDLᵀ form the sweep works in): d_j = L²_jj, column j divided by
// L_jj. The strict lower triangle is scaled in place, row by row.
void ToUnitLower(Matrix* l, std::vector<double>* diag) {
  Matrix& factor = *l;
  const int n = factor.rows();
  diag->resize(static_cast<size_t>(n));
  std::vector<double> inv(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double ljj = factor(j, j);
    SRDA_CHECK_GT(ljj, 0.0) << "invalid Cholesky factor at " << j;
    (*diag)[j] = ljj * ljj;
    inv[j] = 1.0 / ljj;
  }
  for (int i = 1; i < n; ++i) {
    double* row = factor.RowPtr(i);
    for (int j = 0; j < i; ++j) row[j] *= inv[j];
  }
}

// Inverse of ToUnitLower with the (updated) diagonal: column j scaled by
// sqrt(d_j), diagonal entries overwritten with sqrt(d_j).
void FromUnitLower(Matrix* l, const std::vector<double>& diag) {
  Matrix& factor = *l;
  const int n = factor.rows();
  std::vector<double> root(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) root[j] = std::sqrt(diag[static_cast<size_t>(j)]);
  for (int i = 0; i < n; ++i) {
    double* row = factor.RowPtr(i);
    for (int j = 0; j < i; ++j) row[j] *= root[j];
    row[i] = root[i];
  }
}

// Scatters the k x n vector block into the lane-interleaved sweep
// workspace: element (i, r) lives at tile i / kLanes, offset
// r * kLanes + i % kLanes.
std::vector<double> BuildTiledWorkspace(const Matrix& v) {
  const int k = v.rows();
  const int n = v.cols();
  const size_t tiles = static_cast<size_t>((n + kLanes - 1) / kLanes);
  std::vector<double> w(tiles * k * kLanes, 0.0);
  for (int r = 0; r < k; ++r) {
    const double* src = v.RowPtr(r);
    for (int i = 0; i < n; ++i) {
      w[static_cast<size_t>(i / kLanes) * k * kLanes + r * kLanes +
        i % kLanes] = src[i];
    }
  }
  return w;
}

void CheckShapes(const Matrix& l, const Matrix& v) {
  SRDA_CHECK_EQ(l.rows(), l.cols()) << "factor must be square";
  SRDA_CHECK_EQ(v.cols(), l.rows()) << "update vectors must have n entries";
  SRDA_CHECK_GT(v.rows(), 0) << "need at least one update vector";
}

}  // namespace

void CholeskyRank1Update(Matrix* l, Vector v) {
  SRDA_CHECK(l != nullptr);
  SRDA_CHECK_EQ(l->rows(), l->cols()) << "factor must be square";
  SRDA_CHECK_EQ(v.size(), l->rows()) << "update vector size mismatch";
  Matrix& factor = *l;
  const int n = v.size();
  // Sequence of Givens rotations zeroing v against the diagonal.
  for (int d = 0; d < n; ++d) {
    const double ldd = factor(d, d);
    SRDA_CHECK_GT(ldd, 0.0) << "invalid Cholesky factor at " << d;
    const double vd = v[d];
    const double rr = std::hypot(ldd, vd);
    const double c = rr / ldd;
    const double s = vd / ldd;
    factor(d, d) = rr;
    for (int i = d + 1; i < n; ++i) {
      const double lid = (factor(i, d) + s * v[i]) / c;
      v[i] = c * v[i] - s * lid;
      factor(i, d) = lid;
    }
  }
}

void CholeskyRankKUpdate(Matrix* l, const Matrix& v) {
  SRDA_CHECK(l != nullptr);
  CheckShapes(*l, v);
  const int n = l->rows();
  const int k = v.rows();
  TraceSpan span("cholesky.update");
  if (span.recording()) {
    span.AddArg("k", static_cast<double>(k));
    span.AddArg("flops", 2.0 * n * n * k);
  }
  AddFlops(2.0 * n * n * k);
  std::vector<double> w = BuildTiledWorkspace(v);
  std::vector<double> diag;
  ToUnitLower(l, &diag);
  const bool ok = RankKSweep<false>(l, &w, k, &diag);
  SRDA_CHECK(ok) << "rank-k update met a non-finite value";
  FromUnitLower(l, diag);
}

bool CholeskyRankKDowndate(Matrix* l, const Matrix& v) {
  SRDA_CHECK(l != nullptr);
  CheckShapes(*l, v);
  const int n = l->rows();
  const int k = v.rows();
  TraceSpan span("cholesky.downdate");
  if (span.recording()) {
    span.AddArg("k", static_cast<double>(k));
    span.AddArg("flops", 2.0 * n * n * k);
  }
  AddFlops(2.0 * n * n * k);
  std::vector<double> w = BuildTiledWorkspace(v);
  std::vector<double> diag;
  ToUnitLower(l, &diag);
  if (!RankKSweep<true>(l, &w, k, &diag)) return false;
  FromUnitLower(l, diag);
  return true;
}

}  // namespace srda

#undef SRDA_RESTRICT
