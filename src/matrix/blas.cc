#include "matrix/blas.h"

#include <algorithm>
#include <cmath>
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

// Dense-kernel traffic in bytes (operands read + result written), recorded
// only while tracing so the disabled path stays untouched.
Counter* BytesTouched() {
  static Counter* counter =
      MetricsRegistry::Global().counter("bytes.touched");
  return counter;
}

}  // namespace

double Dot(const Vector& x, const Vector& y) {
  SRDA_CHECK_EQ(x.size(), y.size()) << "Dot size mismatch";
  const double* px = x.data();
  const double* py = y.data();
  double sum = 0.0;
  for (int i = 0; i < x.size(); ++i) sum += px[i] * py[i];
  return sum;
}

void Axpy(double alpha, const Vector& x, Vector* y) {
  SRDA_CHECK(y != nullptr);
  SRDA_CHECK_EQ(x.size(), y->size()) << "Axpy size mismatch";
  const double* px = x.data();
  double* py = y->data();
  for (int i = 0; i < x.size(); ++i) py[i] += alpha * px[i];
}

void Scale(double alpha, Vector* x) {
  SRDA_CHECK(x != nullptr);
  double* px = x->data();
  for (int i = 0; i < x->size(); ++i) px[i] *= alpha;
}

double Norm2(const Vector& x) {
  // Two-pass scaled norm: immune to overflow/underflow for the magnitudes
  // seen in practice.
  const double max_abs = NormInf(x);
  if (max_abs == 0.0) return 0.0;
  const double* px = x.data();
  double sum = 0.0;
  for (int i = 0; i < x.size(); ++i) {
    const double scaled = px[i] / max_abs;
    sum += scaled * scaled;
  }
  return max_abs * std::sqrt(sum);
}

double NormInf(const Vector& x) {
  const double* px = x.data();
  double max_abs = 0.0;
  for (int i = 0; i < x.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(px[i]));
  }
  return max_abs;
}

Vector Multiply(const Matrix& a, const Vector& x) {
  SRDA_CHECK_EQ(a.cols(), x.size()) << "A*x shape mismatch";
  TraceSpan span("gemv");
  if (span.recording()) {
    span.AddArg("flops", 2.0 * a.rows() * a.cols());
    BytesTouched()->Add(8.0 * (static_cast<double>(a.rows()) * a.cols() +
                               a.cols() + a.rows()));
  }
  AddFlops(2.0 * a.rows() * a.cols());
  Vector y(a.rows());
  const double* px = x.data();
  for (int i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    double sum = 0.0;
    for (int j = 0; j < a.cols(); ++j) sum += row[j] * px[j];
    y[i] = sum;
  }
  return y;
}

Vector MultiplyTransposed(const Matrix& a, const Vector& x) {
  SRDA_CHECK_EQ(a.rows(), x.size()) << "A^T*x shape mismatch";
  TraceSpan span("gemv_t");
  if (span.recording()) {
    span.AddArg("flops", 2.0 * a.rows() * a.cols());
    BytesTouched()->Add(8.0 * (static_cast<double>(a.rows()) * a.cols() +
                               a.cols() + a.rows()));
  }
  AddFlops(2.0 * a.rows() * a.cols());
  Vector y(a.cols());
  double* py = y.data();
  for (int i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (int j = 0; j < a.cols(); ++j) py[j] += xi * row[j];
  }
  return y;
}

namespace {

// ---- Blocked level-3 building blocks -----------------------------------
//
// Two micro-kernel shapes cover all five products:
//
//  * axpy form (gemm_tile): the output tile's rows are updated with
//    scaled operand rows, j as the vector axis — used when B's k-rows are
//    contiguous (Multiply, MultiplyTransposedA, Gram);
//  * dot form (dot_tile): each output element is a dot product of two
//    row segments — used when both operands index k along rows
//    (MultiplyTransposedB, OuterGram).
//
// Both keep ONE running accumulator per output element, carried through C
// between K-panels, and advance k strictly ascending. Row/column unrolling
// multiplies the number of concurrent elements, never the number of
// partial sums per element, so the per-element addition chain — and hence
// the result bits — is independent of tile shapes, unroll cleanup paths,
// and the ParallelFor partition. That preserves PR 1's guarantee: any
// thread count produces identical bits.
//
// The kernel bodies live in matrix/simd/ behind runtime CPU dispatch
// (matrix/simd/simd.h): simd::Dispatch() returns scalar, AVX2, AVX-512,
// or NEON implementations of the same chains — bitwise identical at every
// level. Only the triangular diagonal-straddle variants below stay scalar
// here; they touch a vanishing fraction of the work.

// Triangular variant for the stripes straddling the diagonal of a
// symmetric product: row i starts at column max(j0, i).
void GemmTileUpdateUpper(const double* panel, int kk, const Matrix& b,
                         int k0, int i0, int i1, int j0, int j1, Matrix* c) {
  for (int i = i0; i < i1; ++i) {
    const double* prow = panel + static_cast<size_t>(i - i0) * kk;
    const int jstart = std::max(j0, i);
    double* crow = c->RowPtr(i);
    for (int k = 0; k < kk; ++k) {
      const double v = prow[k];
      const double* brow = b.RowPtr(k0 + k);
      for (int j = jstart; j < j1; ++j) crow[j] += v * brow[j];
    }
  }
}

// Dot-form triangular variant: row i covers columns max(j0, i) .. j1.
void DotTileUpdateUpper(const Matrix& a, const Matrix& b, int k0, int kk,
                        int i0, int i1, int j0, int j1, Matrix* c) {
  for (int i = i0; i < i1; ++i) {
    const double* arow = a.RowPtr(i) + k0;
    double* crow = c->RowPtr(i);
    for (int j = std::max(j0, i); j < j1; ++j) {
      const double* brow = b.RowPtr(j) + k0;
      double sum = crow[j];
      for (int k = 0; k < kk; ++k) sum += arow[k] * brow[k];
      crow[j] = sum;
    }
  }
}

// pack[(i - i0) * kk + (k - k0)] = a(k0 + k, i): the K-panel of columns
// [i0, i1), transposed to contiguous per-column storage. Read row-wise, so
// the pack touches each cache line of A once — this is the one place the
// transposed products pay for A's row-major layout.
void PackPanelTransposed(const Matrix& a, int k0, int kk, int i0, int i1,
                         double* pack) {
  for (int k = 0; k < kk; ++k) {
    const double* arow = a.RowPtr(k0 + k) + i0;
    for (int i = 0; i < i1 - i0; ++i) {
      pack[static_cast<size_t>(i) * kk + k] = arow[i];
    }
  }
}

// Copies the strict upper triangle into the lower one.
void MirrorUpperToLower(Matrix* c) {
  ParallelFor(1, c->rows(), [&](int row_begin, int row_end) {
    for (int j = row_begin; j < row_end; ++j) {
      double* crow = c->RowPtr(j);
      for (int i = 0; i < j; ++i) crow[i] = c->RowPtr(i)[j];
    }
  });
}

// C += A^T B, blocked. Shared by MultiplyTransposedA (C zeroed) and the
// streaming accumulate variant (C carries the previous blocks' partial
// chains); no span/flop accounting here.
void GemmAtBInto(const Matrix& a, const Matrix& b, Matrix* c) {
  const int m = a.rows();
  const int p = a.cols();
  const int n = b.cols();
  const BlockConfig& blk = GetBlockConfig();
  const simd::KernelTable& kt = simd::Dispatch();
  ParallelForRowTiles(0, p, [&](int col_begin, int col_end) {
    // Chunk-local scratch: the packed panel is allocated and first-touched
    // by the worker that streams it (NUMA-local under pinning).
    PanelScratch scratch;
    double* pack = scratch.Acquire(static_cast<size_t>(blk.mc) * blk.kc);
    for (int i0 = col_begin; i0 < col_end; i0 += blk.mc) {
      const int i1 = std::min(i0 + blk.mc, col_end);
      for (int k0 = 0; k0 < m; k0 += blk.kc) {
        const int kk = std::min(blk.kc, m - k0);
        PackPanelTransposed(a, k0, kk, i0, i1, pack);
        for (int j0 = 0; j0 < n; j0 += blk.nc) {
          const int j1 = std::min(j0 + blk.nc, n);
          kt.gemm_tile(pack, kk, kk, b.data(), b.cols(), k0, c->data(),
                       c->cols(), i0, i1, j0, j1);
        }
      }
    }
  });
}

// Upper triangle of C += A^T A, blocked; same sharing as GemmAtBInto.
void GramUpperInto(const Matrix& a, Matrix* c) {
  const int m = a.rows();
  const int n = a.cols();
  const BlockConfig& blk = GetBlockConfig();
  const simd::KernelTable& kt = simd::Dispatch();
  ParallelForRowTiles(0, n, [&](int row_begin, int row_end) {
    PanelScratch scratch;
    double* pack = scratch.Acquire(static_cast<size_t>(blk.mc) * blk.kc);
    for (int i0 = row_begin; i0 < row_end; i0 += blk.mc) {
      const int i1 = std::min(i0 + blk.mc, row_end);
      for (int k0 = 0; k0 < m; k0 += blk.kc) {
        const int kk = std::min(blk.kc, m - k0);
        PackPanelTransposed(a, k0, kk, i0, i1, pack);
        for (int j0 = i0; j0 < n; j0 += blk.nc) {
          const int j1 = std::min(j0 + blk.nc, n);
          if (j0 >= i1) {
            kt.gemm_tile(pack, kk, kk, a.data(), a.cols(), k0, c->data(),
                         c->cols(), i0, i1, j0, j1);
          } else {
            // Stripe straddles the diagonal: scalar triangle up to the
            // tile's last row, fast rectangle for the columns beyond it.
            const int split = std::min(j1, i1);
            GemmTileUpdateUpper(pack, kk, a, k0, i0, i1, j0, split, c);
            if (split < j1) {
              kt.gemm_tile(pack, kk, kk, a.data(), a.cols(), k0, c->data(),
                           c->cols(), i0, i1, split, j1);
            }
          }
        }
      }
    }
  });
}

}  // namespace

Matrix Multiply(const Matrix& a, const Matrix& b) {
  SRDA_CHECK_EQ(a.cols(), b.rows()) << "A*B shape mismatch";
  const int m = a.rows();
  const int kdim = a.cols();
  const int n = b.cols();
  TraceSpan span("gemm");
  if (span.recording()) {
    span.AddArg("flops", 2.0 * m * kdim * n);
    BytesTouched()->Add(8.0 * (static_cast<double>(m) * kdim +
                               static_cast<double>(kdim) * n +
                               static_cast<double>(m) * n));
  }
  AddFlops(2.0 * m * kdim * n);
  Matrix c(m, n);
  const BlockConfig& blk = GetBlockConfig();
  const simd::KernelTable& kt = simd::Dispatch();
  ParallelForRowTiles(0, m, [&](int row_begin, int row_end) {
    for (int i0 = row_begin; i0 < row_end; i0 += blk.mc) {
      const int i1 = std::min(i0 + blk.mc, row_end);
      for (int k0 = 0; k0 < kdim; k0 += blk.kc) {
        const int kk = std::min(blk.kc, kdim - k0);
        for (int j0 = 0; j0 < n; j0 += blk.nc) {
          const int j1 = std::min(j0 + blk.nc, n);
          // A's k-segment is contiguous within each row: no packing needed,
          // the row stride stands in for a packed panel.
          kt.gemm_tile(a.RowPtr(i0) + k0, a.cols(), kk, b.data(), b.cols(),
                       k0, c.data(), c.cols(), i0, i1, j0, j1);
        }
      }
    }
  });
  return c;
}

Matrix MultiplyTransposedA(const Matrix& a, const Matrix& b) {
  SRDA_CHECK_EQ(a.rows(), b.rows()) << "A^T*B shape mismatch";
  const int m = a.rows();
  const int p = a.cols();
  const int n = b.cols();
  TraceSpan span("gemm_at_b");
  if (span.recording()) {
    span.AddArg("flops", 2.0 * m * p * n);
    BytesTouched()->Add(8.0 * (static_cast<double>(m) * p +
                               static_cast<double>(m) * n +
                               static_cast<double>(p) * n));
  }
  AddFlops(2.0 * m * p * n);
  Matrix c(p, n);
  GemmAtBInto(a, b, &c);
  return c;
}

void MultiplyTransposedAAccumulate(const Matrix& a, const Matrix& b,
                                   Matrix* c) {
  SRDA_CHECK_EQ(a.rows(), b.rows()) << "A^T*B shape mismatch";
  SRDA_CHECK(c->rows() == a.cols() && c->cols() == b.cols())
      << "A^T*B accumulate output shape mismatch";
  const int m = a.rows();
  const int p = a.cols();
  const int n = b.cols();
  TraceSpan span("gemm_at_b");
  if (span.recording()) {
    span.AddArg("flops", 2.0 * m * p * n);
    BytesTouched()->Add(8.0 * (static_cast<double>(m) * p +
                               static_cast<double>(m) * n +
                               static_cast<double>(p) * n));
  }
  AddFlops(2.0 * m * p * n);
  GemmAtBInto(a, b, c);
}

Matrix MultiplyTransposedB(const Matrix& a, const Matrix& b) {
  SRDA_CHECK_EQ(a.cols(), b.cols()) << "A*B^T shape mismatch";
  const int m = a.rows();
  const int n = b.rows();
  const int kdim = a.cols();
  TraceSpan span("gemm_a_bt");
  if (span.recording()) {
    span.AddArg("flops", 2.0 * m * n * kdim);
    BytesTouched()->Add(8.0 * (static_cast<double>(m) * kdim +
                               static_cast<double>(n) * kdim +
                               static_cast<double>(m) * n));
  }
  AddFlops(2.0 * m * n * kdim);
  Matrix c(m, n);
  const BlockConfig& blk = GetBlockConfig();
  const simd::KernelTable& kt = simd::Dispatch();
  ParallelFor(0, m, [&](int row_begin, int row_end) {
    for (int i0 = row_begin; i0 < row_end; i0 += blk.mc) {
      const int i1 = std::min(i0 + blk.mc, row_end);
      for (int k0 = 0; k0 < kdim; k0 += blk.kc) {
        const int kk = std::min(blk.kc, kdim - k0);
        for (int j0 = 0; j0 < n; j0 += blk.nc) {
          const int j1 = std::min(j0 + blk.nc, n);
          kt.dot_tile(a.data(), a.cols(), b.data(), b.cols(), k0, kk,
                      c.data(), c.cols(), i0, i1, j0, j1);
        }
      }
    }
  });
  return c;
}

Matrix Gram(const Matrix& a) {
  // Computes the upper triangle in tiles, then mirrors. Element (i, j)
  // accumulates over the sample index k in ascending order exactly as the
  // serial formulation did, so any thread count produces the same bits.
  const int m = a.rows();
  const int n = a.cols();
  TraceSpan span("gram");
  if (span.recording()) {
    span.AddArg("flops", static_cast<double>(m) * n * (n + 1));
    BytesTouched()->Add(8.0 * (static_cast<double>(m) * n +
                               static_cast<double>(n) * n));
  }
  AddFlops(static_cast<double>(m) * n * (n + 1));
  Matrix c(n, n);
  GramUpperInto(a, &c);
  MirrorUpperToLower(&c);
  return c;
}

void GramAccumulateUpper(const Matrix& a, Matrix* c) {
  const int m = a.rows();
  const int n = a.cols();
  SRDA_CHECK(c->rows() == n && c->cols() == n)
      << "Gram accumulate output shape mismatch";
  TraceSpan span("gram");
  if (span.recording()) {
    span.AddArg("flops", static_cast<double>(m) * n * (n + 1));
    BytesTouched()->Add(8.0 * (static_cast<double>(m) * n +
                               static_cast<double>(n) * n));
  }
  AddFlops(static_cast<double>(m) * n * (n + 1));
  GramUpperInto(a, c);
}

void SymmetrizeFromUpper(Matrix* c) {
  SRDA_CHECK_EQ(c->rows(), c->cols()) << "SymmetrizeFromUpper needs square";
  MirrorUpperToLower(c);
}

Matrix OuterGram(const Matrix& a) {
  const int m = a.rows();
  const int n = a.cols();
  TraceSpan span("outer_gram");
  if (span.recording()) {
    span.AddArg("flops", static_cast<double>(n) * m * (m + 1));
    BytesTouched()->Add(8.0 * (static_cast<double>(m) * n +
                               static_cast<double>(m) * m));
  }
  AddFlops(static_cast<double>(n) * m * (m + 1));
  Matrix c(m, m);
  const BlockConfig& blk = GetBlockConfig();
  const simd::KernelTable& kt = simd::Dispatch();
  ParallelFor(0, m, [&](int row_begin, int row_end) {
    for (int i0 = row_begin; i0 < row_end; i0 += blk.mc) {
      const int i1 = std::min(i0 + blk.mc, row_end);
      for (int k0 = 0; k0 < n; k0 += blk.kc) {
        const int kk = std::min(blk.kc, n - k0);
        for (int j0 = i0; j0 < m; j0 += blk.nc) {
          const int j1 = std::min(j0 + blk.nc, m);
          if (j0 >= i1) {
            kt.dot_tile(a.data(), a.cols(), a.data(), a.cols(), k0, kk,
                        c.data(), c.cols(), i0, i1, j0, j1);
          } else {
            const int split = std::min(j1, i1);
            DotTileUpdateUpper(a, a, k0, kk, i0, i1, j0, split, &c);
            if (split < j1) {
              kt.dot_tile(a.data(), a.cols(), a.data(), a.cols(), k0, kk,
                          c.data(), c.cols(), i0, i1, split, j1);
            }
          }
        }
      }
    }
  });
  MirrorUpperToLower(&c);
  return c;
}

void AddDiagonal(double alpha, Matrix* m) {
  SRDA_CHECK(m != nullptr);
  SRDA_CHECK_EQ(m->rows(), m->cols()) << "AddDiagonal needs a square matrix";
  for (int i = 0; i < m->rows(); ++i) (*m)(i, i) += alpha;
}

Vector ColumnMeans(const Matrix& a) {
  SRDA_CHECK(a.rows() > 0) << "ColumnMeans of an empty matrix";
  Vector mean(a.cols());
  ColumnSumsAccumulate(a, &mean);
  double* pm = mean.data();
  const double inv = 1.0 / a.rows();
  for (int j = 0; j < a.cols(); ++j) pm[j] *= inv;
  return mean;
}

void ColumnSumsAccumulate(const Matrix& a, Vector* sums) {
  SRDA_CHECK_EQ(a.cols(), sums->size()) << "ColumnSums size mismatch";
  double* pm = sums->data();
  for (int i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    for (int j = 0; j < a.cols(); ++j) pm[j] += row[j];
  }
}

void SubtractRowVector(const Vector& center, Matrix* a) {
  SRDA_CHECK(a != nullptr);
  SRDA_CHECK_EQ(center.size(), a->cols()) << "SubtractRowVector size mismatch";
  const double* pc = center.data();
  ParallelFor(0, a->rows(), [&](int row_begin, int row_end) {
    for (int i = row_begin; i < row_end; ++i) {
      double* row = a->RowPtr(i);
      for (int j = 0; j < a->cols(); ++j) row[j] -= pc[j];
    }
  });
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  SRDA_CHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << "MaxAbsDiff shape mismatch";
  double max_diff = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  const size_t total = static_cast<size_t>(a.rows()) * a.cols();
  for (size_t i = 0; i < total; ++i) {
    max_diff = std::max(max_diff, std::fabs(pa[i] - pb[i]));
  }
  return max_diff;
}

double MaxAbsDiff(const Vector& x, const Vector& y) {
  SRDA_CHECK_EQ(x.size(), y.size()) << "MaxAbsDiff size mismatch";
  double max_diff = 0.0;
  for (int i = 0; i < x.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(x[i] - y[i]));
  }
  return max_diff;
}

}  // namespace srda
