#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "matrix/blocking.h"
#include "matrix/simd/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace srda {
namespace {

// Factors the diagonal block l[p0:p1, p0:p1] in place. The trailing
// updates of earlier panels have already been applied, so only the
// within-panel columns [p0, j) remain in each sum. Returns false on a
// pivot at or below `pivot_floor`.
bool FactorDiagonalBlock(Matrix* l, int p0, int p1, double pivot_floor) {
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

// Finishes row i of a sweep once its update chain is complete: every
// column is multiplied by the reciprocal of the pivot.
void FinishRow(double diag, double* row, int width) {
  const double inv = 1.0 / diag;
  for (int j = 0; j < width; ++j) row[j] *= inv;
}

// Solves L X = B in place (x holds B on entry), right-looking over panels
// of nb rows. Each panel's diagonal block runs the serial per-row loop;
// its update of every row below is a GEMM through gemm_tile, row-parallel,
// with the panel packed negated: c + (-l)·x is bitwise c - l·x. Element
// (i, j) therefore subtracts l_ik·x_kj for k = 0..i-1 ascending and then
// finishes, whatever the panel width, thread count, or SIMD level.
void ForwardSweep(const Matrix& l, Matrix* x) {
  const int n = l.rows();
  const int width = x->cols();
  if (width == 0) return;
  const BlockConfig& blk = GetBlockConfig();
  const simd::KernelTable& kt = simd::Dispatch();
  for (int p0 = 0; p0 < n; p0 += blk.nb) {
    const int p1 = std::min(p0 + blk.nb, n);
    const int kk = p1 - p0;
    for (int i = p0; i < p1; ++i) {
      const double* lrow = l.RowPtr(i);
      double* xrow_i = x->RowPtr(i);
      for (int k = p0; k < i; ++k) {
        const double lik = lrow[k];
        const double* xrow_k = x->RowPtr(k);
        for (int j = 0; j < width; ++j) xrow_i[j] -= lik * xrow_k[j];
      }
      SRDA_CHECK_NE(lrow[i], 0.0) << "singular triangular matrix at " << i;
      FinishRow(lrow[i], xrow_i, width);
    }
    if (p1 == n) break;
    // Rows below the panel read only the finished rows [p0, p1) and write
    // only themselves, so the row partition is race-free.
    ParallelForRowTiles(p1, n, [&](int row_begin, int row_end) {
      PanelScratch scratch;
      double* pack = scratch.Acquire(static_cast<size_t>(blk.mc) * kk);
      for (int i0 = row_begin; i0 < row_end; i0 += blk.mc) {
        const int i1 = std::min(i0 + blk.mc, row_end);
        for (int i = i0; i < i1; ++i) {
          const double* lrow = l.RowPtr(i) + p0;
          double* prow = pack + static_cast<size_t>(i - i0) * kk;
          for (int k = 0; k < kk; ++k) prow[k] = -lrow[k];
        }
        kt.gemm_tile(pack, kk, kk, x->data(), width, p0, x->data(), width,
                     i0, i1, 0, width);
      }
    });
  }
}

// Solves L^T X = B in place, panels bottom-up. The diagonal block runs
// the serial scatter loop; its update of every row above is a GEMM whose
// reduction walks the panel's rows in DESCENDING order: the panel is
// packed transposed and row-reversed (pack[c][r] = -l(p1-1-r, c)) against
// a row-reversed copy of the solved block. Element (c, j) thus subtracts
// l_ic·x_ij for i = n-1 down to c+1 before it finishes — the scatter
// form's chain, at any panel width, thread count, or SIMD level.
void BackwardSweep(const Matrix& l, Matrix* x) {
  const int n = l.rows();
  const int width = x->cols();
  if (width == 0) return;
  const BlockConfig& blk = GetBlockConfig();
  const simd::KernelTable& kt = simd::Dispatch();
  std::vector<double> solved;
  for (int p1 = n; p1 > 0;) {
    const int p0 = std::max(p1 - blk.nb, 0);
    const int kk = p1 - p0;
    for (int i = p1 - 1; i >= p0; --i) {
      const double* lrow = l.RowPtr(i);
      double* xrow_i = x->RowPtr(i);
      SRDA_CHECK_NE(lrow[i], 0.0) << "singular triangular matrix at " << i;
      FinishRow(lrow[i], xrow_i, width);
      for (int k = p0; k < i; ++k) {
        const double lik = lrow[k];
        double* xrow_k = x->RowPtr(k);
        for (int j = 0; j < width; ++j) xrow_k[j] -= lik * xrow_i[j];
      }
    }
    if (p0 == 0) break;
    solved.resize(static_cast<size_t>(kk) * width);
    for (int r = 0; r < kk; ++r) {
      const double* xrow = x->RowPtr(p1 - 1 - r);
      std::copy(xrow, xrow + width,
                solved.begin() + static_cast<ptrdiff_t>(r) * width);
    }
    ParallelForRowTiles(0, p0, [&](int row_begin, int row_end) {
      PanelScratch scratch;
      double* pack = scratch.Acquire(static_cast<size_t>(blk.mc) * kk);
      for (int c0 = row_begin; c0 < row_end; c0 += blk.mc) {
        const int c1 = std::min(c0 + blk.mc, row_end);
        for (int r = 0; r < kk; ++r) {
          const double* lrow = l.RowPtr(p1 - 1 - r);
          for (int c = c0; c < c1; ++c) {
            pack[static_cast<size_t>(c - c0) * kk + r] = -lrow[c];
          }
        }
        kt.gemm_tile(pack, kk, kk, solved.data(), width, 0, x->data(), width,
                     c0, c1, 0, width);
      }
    });
    p1 = p0;
  }
}

}  // namespace

bool Cholesky::Factor(const Matrix& a, double shift) {
  SRDA_CHECK_EQ(a.rows(), a.cols()) << "Cholesky needs a square matrix";
  const int n = a.rows();
  TraceSpan span("cholesky.factor");
  if (span.recording()) {
    span.AddArg("n", static_cast<double>(n));
    span.AddArg("flops", static_cast<double>(n) * n * n / 3.0);
    static Counter* refactors =
        MetricsRegistry::Global().counter("cholesky.refactors");
    refactors->Increment();
  }
  ok_ = false;
  // Pivots below this relative threshold indicate a numerically singular
  // matrix; round-off can leave them slightly positive, so an exact <= 0
  // test would let garbage factors through.
  double max_diag = 0.0;
  for (int j = 0; j < n; ++j) {
    const double d = a(j, j) + shift;
    if (!std::isfinite(d)) return false;
    max_diag = std::max(max_diag, std::fabs(d));
  }
  const double pivot_floor = 1e-14 * max_diag;
  AddFlops(static_cast<double>(n) * n * n / 3.0);
  // Work on a copy of the shifted lower triangle. Nothing writes above the
  // diagonal, so a previous factor's storage of the same order still has
  // a zero upper triangle and is reused.
  if (l_.rows() != n) l_ = Matrix(n, n);
  ParallelFor(0, n, [&](int row_begin, int row_end) {
    for (int i = row_begin; i < row_end; ++i) {
      const double* arow = a.RowPtr(i);
      double* lrow = l_.RowPtr(i);
      std::copy(arow, arow + i, lrow);
      lrow[i] = arow[i] + shift;
    }
  });
  const BlockConfig& blk = GetBlockConfig();
  const simd::KernelTable& kt = simd::Dispatch();
  // The finished panel columns below the diagonal block, transposed:
  // row k holds l[j][p0 + k] for j = p1..n-1, the B operand of the
  // trailing update's gemm_tile.
  std::vector<double> panel_t(
      static_cast<size_t>(std::min(blk.nb, n)) * (n - std::min(blk.nb, n)));
  for (int p0 = 0; p0 < n; p0 += blk.nb) {
    const int p1 = std::min(p0 + blk.nb, n);
    const int kk = p1 - p0;
    if (!FactorDiagonalBlock(&l_, p0, p1, pivot_floor)) return false;
    if (p1 == n) break;
    std::vector<double> inv_diag(kk);
    for (int j = 0; j < kk; ++j) inv_diag[j] = 1.0 / l_(p0 + j, p0 + j);
    const int trailing = n - p1;
    // TRSM: finish the panel's columns in the rows below the block. Row i
    // only reads rows < p1 (final) and its own earlier columns, so rows
    // are independent; each chunk then writes its finished rows' columns
    // of the transposed pack. The kernel scratch is chunk-local, allocated
    // and first-touched by the worker that uses it.
    ParallelFor(p1, n, [&](int row_begin, int row_end) {
      PanelScratch scratch;
      double* s = scratch.Acquire(
          static_cast<size_t>(simd::kTrsmMaxLanes) * kk);
      kt.trsm_rows(l_.data(), n, p0, p1, inv_diag.data(), row_begin,
                   row_end - row_begin, s);
      for (int j = row_begin; j < row_end; ++j) {
        const int q = (j - p1) / blk.nc;
        const int wq = std::min(blk.nc, trailing - q * blk.nc);
        const double* lrow = l_.RowPtr(j) + p0;
        double* col = panel_t.data() + static_cast<size_t>(q) * blk.nc * kk +
                      (j - p1 - q * blk.nc);
        for (int k = 0; k < kk; ++k) col[static_cast<size_t>(k) * wq] = lrow[k];
      }
    });
    // SYRK: subtract the panel's outer product from the trailing lower
    // triangle, one mc x nc tile at a time. gemm_tile sums the panel rows
    // (read in place) against the transposed pack into a zero-seeded
    // tile, so element (i, j) is 0 + l_i0 l_j0 + ... in ascending k,
    // subtracted from l[i][j] once: the same chain at any tile shape,
    // thread count, or SIMD level. Row i writes columns [p1, i] and reads
    // only the final panel columns, so the row partition is race-free.
    // Chunks map to rows bottom-up: workers claim chunks in index order,
    // so the longest rows of the triangle are handed out first. The tile
    // grid is counted from row n, so only the top chunk has leftover rows.
    ParallelForRowTiles(0, trailing, [&](int chunk_begin, int chunk_end) {
      const int row_begin = n - chunk_end;
      const int row_end = n - chunk_begin;
      PanelScratch scratch;
      double* tile = scratch.Acquire(static_cast<size_t>(blk.mc) * blk.nc);
      for (int i0 = row_begin; i0 < row_end; i0 += blk.mc) {
        const int i1 = std::min(i0 + blk.mc, row_end);
        for (int j0 = p1; j0 < i1; j0 += blk.nc) {
          const int j1 = std::min(j0 + blk.nc, i1);
          const int width = j1 - j0;
          const int ib = std::max(i0, j0);  // rows above j0 have no j <= i
          std::fill(tile, tile + static_cast<size_t>(i1 - ib) * width, 0.0);
          const int q = (j0 - p1) / blk.nc;
          const int wq = std::min(blk.nc, trailing - q * blk.nc);
          kt.gemm_tile(l_.RowPtr(ib) + p0, n, kk,
                       panel_t.data() + static_cast<size_t>(q) * blk.nc * kk,
                       wq, 0, tile, width, 0, i1 - ib, 0, width);
          for (int i = ib; i < i1; ++i) {
            double* lrow = l_.RowPtr(i) + j0;
            const double* trow = tile + static_cast<size_t>(i - ib) * width;
            const int jend = std::min(j1, i + 1) - j0;
            for (int j = 0; j < jend; ++j) lrow[j] -= trow[j];
          }
        }
      }
    });
  }
  ok_ = true;
  return true;
}

Matrix Cholesky::SolveMatrix(const Matrix& b) const {
  SRDA_CHECK(ok_) << "Cholesky::SolveMatrix without a successful Factor()";
  SRDA_CHECK_EQ(b.rows(), l_.rows()) << "SolveMatrix shape mismatch";
  const int n = l_.rows();
  TraceSpan span("cholesky.solve");
  if (span.recording()) {
    span.AddArg("rhs", static_cast<double>(b.cols()));
    span.AddArg("flops", 2.0 * n * n * b.cols());
  }
  AddFlops(2.0 * n * n * b.cols());
  Matrix x = b;
  ForwardSweep(l_, &x);
  BackwardSweep(l_, &x);
  return x;
}

const Matrix& Cholesky::factor() const {
  SRDA_CHECK(ok_) << "Cholesky::factor without a successful Factor()";
  return l_;
}

Matrix ForwardSubstituteMatrix(const Matrix& l, const Matrix& b) {
  SRDA_CHECK_EQ(l.rows(), l.cols()) << "triangular solve needs square matrix";
  SRDA_CHECK_EQ(b.rows(), l.rows()) << "triangular solve shape mismatch";
  const int n = l.rows();
  AddFlops(static_cast<double>(n) * n * b.cols());
  Matrix x = b;
  ForwardSweep(l, &x);
  return x;
}

Matrix BackSubstituteTransposedMatrix(const Matrix& l, const Matrix& b) {
  SRDA_CHECK_EQ(l.rows(), l.cols()) << "triangular solve needs square matrix";
  SRDA_CHECK_EQ(b.rows(), l.rows()) << "triangular solve shape mismatch";
  const int n = l.rows();
  AddFlops(static_cast<double>(n) * n * b.cols());
  Matrix x = b;
  BackwardSweep(l, &x);
  return x;
}

}  // namespace srda
