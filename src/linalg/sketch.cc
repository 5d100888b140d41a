#include "linalg/sketch.h"

#include <algorithm>

#include "common/check.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "matrix/blas.h"
#include "obs/trace.h"

namespace srda {
namespace {

void ValidateOptions(const SketchOptions& options) {
  SRDA_CHECK_GT(options.sketch_rows, 0) << "sketch_rows must be positive";
}

// Seed of row i's private draw stream. The golden-ratio multiply decorrelates
// consecutive rows before splitmix64 expands the value into Rng state; the
// +1 keeps row 0 from colliding with the bare seed.
uint64_t RowSeed(uint64_t seed, int global_row) {
  return seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(global_row + 1);
}

struct CountSketchDraw {
  int bucket;
  double sign;
};

// Count-sketch hash of one global row: a bucket in [0, s) and a +-1 sign,
// both pure functions of (seed, row). Rejection-sampled bucket, so every
// s divides the draw space evenly.
CountSketchDraw DrawCountSketch(const SketchOptions& options, int global_row) {
  Rng rng(RowSeed(options.seed, global_row));
  CountSketchDraw draw;
  draw.bucket = static_cast<int>(
      rng.NextUint64Bounded(static_cast<uint64_t>(options.sketch_rows)));
  draw.sign = (rng.NextUint64() & 1) ? 1.0 : -1.0;
  return draw;
}

}  // namespace

void SketchAccumulate(const Matrix& x, int row_offset,
                      const SketchOptions& options, Matrix* sketch) {
  ValidateOptions(options);
  SRDA_CHECK(sketch != nullptr);
  SRDA_CHECK_EQ(sketch->rows(), options.sketch_rows) << "sketch row mismatch";
  SRDA_CHECK_EQ(sketch->cols(), x.cols()) << "sketch column mismatch";
  SRDA_CHECK_GE(row_offset, 0);
  const int m = x.rows();
  const int n = x.cols();
  if (m == 0 || n == 0) return;
  // Threads own disjoint COLUMN stripes; every thread walks the input rows
  // in ascending order, so each sketch element's accumulation chain is the
  // serial ascending-row chain no matter how the stripes land. The per-row
  // draws are regenerated per stripe — a few splitmix64 steps, cheap next
  // to the row traffic.
  AddFlops(2.0 * m * n);
  ParallelFor(0, n, [&](int col_begin, int col_end) {
    for (int i = 0; i < m; ++i) {
      const CountSketchDraw draw = DrawCountSketch(options, row_offset + i);
      const double* src = x.RowPtr(i);
      double* out = sketch->RowPtr(draw.bucket);
      if (draw.sign > 0.0) {
        for (int j = col_begin; j < col_end; ++j) out[j] += src[j];
      } else {
        for (int j = col_begin; j < col_end; ++j) out[j] -= src[j];
      }
    }
  });
}

void SketchAccumulate(const SparseMatrix& x, int row_offset,
                      const SketchOptions& options, Matrix* sketch) {
  ValidateOptions(options);
  SRDA_CHECK(sketch != nullptr);
  SRDA_CHECK_EQ(sketch->rows(), options.sketch_rows) << "sketch row mismatch";
  SRDA_CHECK_EQ(sketch->cols(), x.cols()) << "sketch column mismatch";
  SRDA_CHECK_GE(row_offset, 0);
  const int m = x.rows();
  const int n = x.cols();
  if (m == 0 || n == 0) return;
  AddFlops(2.0 * static_cast<double>(x.NumNonZeros()));
  // Same column-stripe partition as the dense kernel; each stripe
  // binary-searches its entry range inside every row's sorted indices.
  ParallelFor(0, n, [&](int col_begin, int col_end) {
    for (int i = 0; i < m; ++i) {
      const int nnz = x.RowNonZeros(i);
      if (nnz == 0) continue;
      const int* indices = x.RowIndices(i);
      const double* values = x.RowValues(i);
      const int* begin =
          std::lower_bound(indices, indices + nnz, col_begin);
      const CountSketchDraw draw = DrawCountSketch(options, row_offset + i);
      double* out = sketch->RowPtr(draw.bucket);
      for (const int* p = begin; p != indices + nnz && *p < col_end; ++p) {
        out[*p] += draw.sign * values[p - indices];
      }
    }
  });
}

namespace {

// TraceSpan is scope-bound, so call sites construct it and hand it here for
// the shared args (a span carries at most two).
void AddBuildArgs(TraceSpan* span, int rows, const SketchOptions& options) {
  if (!span->recording()) return;
  span->AddArg("rows", static_cast<double>(rows));
  span->AddArg("sketch_rows", static_cast<double>(options.sketch_rows));
}

}  // namespace

Matrix SketchRows(const Matrix& x, const SketchOptions& options) {
  ValidateOptions(options);
  TraceSpan span("sketch.build");
  AddBuildArgs(&span, x.rows(), options);
  Matrix sketch(options.sketch_rows, x.cols());
  SketchAccumulate(x, 0, options, &sketch);
  return sketch;
}

Matrix SketchRows(const SparseMatrix& x, const SketchOptions& options) {
  ValidateOptions(options);
  TraceSpan span("sketch.build");
  AddBuildArgs(&span, x.rows(), options);
  Matrix sketch(options.sketch_rows, x.cols());
  SketchAccumulate(x, 0, options, &sketch);
  return sketch;
}

Matrix SketchShards(RowShardSource* source, const SketchOptions& options) {
  ValidateOptions(options);
  SRDA_CHECK(source != nullptr);
  TraceSpan span("sketch.build");
  AddBuildArgs(&span, source->rows(), options);
  Matrix sketch(options.sketch_rows, source->cols());
  ForEachShard(source, [&](const RowShard& shard) {
    if (shard.sparse != nullptr) {
      SketchAccumulate(*shard.sparse, shard.first_row, options, &sketch);
    } else {
      SketchAccumulate(*shard.dense, shard.first_row, options, &sketch);
    }
  });
  return sketch;
}

Vector SketchOnes(int rows, const SketchOptions& options) {
  ValidateOptions(options);
  SRDA_CHECK_GE(rows, 0);
  Vector ones(options.sketch_rows);
  for (int i = 0; i < rows; ++i) {
    const CountSketchDraw draw = DrawCountSketch(options, i);
    ones[draw.bucket] += draw.sign;
  }
  return ones;
}

bool FactorSketchedGram(const Matrix& sketch, double alpha, Cholesky* chol) {
  SRDA_CHECK(chol != nullptr);
  SRDA_CHECK_GE(alpha, 0.0) << "alpha must be non-negative";
  TraceSpan span("sketch.factor");
  if (span.recording()) {
    span.AddArg("sketch_rows", static_cast<double>(sketch.rows()));
    span.AddArg("alpha", alpha);
  }
  Matrix gram = Gram(sketch);
  AddDiagonal(alpha, &gram);
  return chol->Factor(gram);
}

}  // namespace srda
