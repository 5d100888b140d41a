#include "linalg/sharded_operator.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "matrix/blas.h"
#include "obs/trace.h"

namespace srda {
namespace {

// Folds one finished chunk partial into the output and clears it for the
// next chunk. The first chunk is a straight copy — matching the in-RAM
// fold's `y = std::move(partials[0])` bit for bit (0.0 + v would flip a
// negative zero) — later chunks add elementwise in ascending chunk order.
void FoldChunk(int folded, Matrix* partial, Matrix* y) {
  double* py = y->data();
  double* pp = partial->data();
  const int64_t total = static_cast<int64_t>(y->rows()) * y->cols();
  if (folded == 0) {
    std::memcpy(py, pp, static_cast<size_t>(total) * sizeof(double));
  } else {
    for (int64_t e = 0; e < total; ++e) py[e] += pp[e];
  }
  std::memset(pp, 0, static_cast<size_t>(total) * sizeof(double));
}

}  // namespace

ShardedOperator::ShardedOperator(RowShardSource* source) : source_(source) {
  SRDA_CHECK(source != nullptr);
  SRDA_CHECK(source->rows() > 0 && source->cols() > 0)
      << "empty shard source";
}

int ShardedOperator::rows() const { return source_->rows(); }
int ShardedOperator::cols() const { return source_->cols(); }

Matrix ShardedOperator::ApplyMulti(const Matrix& x) const {
  SRDA_CHECK_EQ(x.rows(), cols()) << "sharded A*X shape mismatch";
  TraceSpan span("sharded.apply");
  Matrix y(rows(), x.cols());
  source_->Reset();
  RowShard shard;
  int next_row = 0;
  while (source_->Next(&shard)) {
    SRDA_CHECK_EQ(shard.first_row, next_row) << "shard stream out of order";
    const Matrix part = shard.dense != nullptr
                            ? Multiply(*shard.dense, x)
                            : shard.sparse->MultiplyDense(x);
    std::memcpy(y.RowPtr(next_row), part.data(),
                static_cast<size_t>(part.rows()) * part.cols() *
                    sizeof(double));
    next_row += shard.rows();
  }
  SRDA_CHECK_EQ(next_row, rows()) << "shard stream ended early";
  return y;
}

Matrix ShardedOperator::ApplyTransposedMulti(const Matrix& x) const {
  SRDA_CHECK_EQ(x.rows(), rows()) << "sharded A^T*X shape mismatch";
  TraceSpan span("sharded.apply_t");
  const int d = x.cols();
  Matrix y(cols(), d);
  source_->Reset();
  RowShard shard;
  int next_row = 0;
  if (!source_->sparse()) {
    while (source_->Next(&shard)) {
      SRDA_CHECK_EQ(shard.first_row, next_row) << "shard stream out of order";
      const Matrix segment = x.Block(next_row, 0, shard.rows(), d);
      MultiplyTransposedAAccumulate(*shard.dense, segment, &y);
      next_row += shard.rows();
    }
    SRDA_CHECK_EQ(next_row, rows()) << "shard stream ended early";
    return y;
  }

  // Sparse: accumulate on the global chunk grid, folding each finished
  // chunk in ascending order (see the header). With a single chunk the
  // in-RAM kernel accumulates straight into y; target aliases y to match.
  const int num_chunks = FixedChunkCount(rows(), kSparseTransposeChunkRows);
  const bool fold = num_chunks > 1;
  Matrix partial(fold ? cols() : 0, fold ? d : 0);
  Matrix* target = fold ? &partial : &y;
  int folded = 0;
  while (source_->Next(&shard)) {
    SRDA_CHECK_EQ(shard.first_row, next_row) << "shard stream out of order";
    const SparseMatrix& s = *shard.sparse;
    AddFlops(2.0 * static_cast<double>(s.NumNonZeros()) * d);
    for (int i = 0; i < s.rows(); ++i) {
      const int g = next_row + i;
      if (fold) {
        const int chunk = g / kSparseTransposeChunkRows;
        while (folded < chunk) {
          FoldChunk(folded, &partial, &y);
          ++folded;
        }
      }
      const double* brow = x.RowPtr(g);
      const int nnz = s.RowNonZeros(i);
      const int* idx = s.RowIndices(i);
      const double* values = s.RowValues(i);
      for (int k = 0; k < nnz; ++k) {
        double* trow = target->RowPtr(idx[k]);
        const double value = values[k];
        for (int j = 0; j < d; ++j) {
          // Same per-entry zero skip as MultiplyTransposedDense, keeping
          // the accumulation chains equal column by column.
          if (brow[j] == 0.0) continue;
          trow[j] += brow[j] * value;
        }
      }
    }
    next_row += s.rows();
  }
  SRDA_CHECK_EQ(next_row, rows()) << "shard stream ended early";
  while (fold && folded < num_chunks) {
    FoldChunk(folded, &partial, &y);
    ++folded;
  }
  return y;
}

DenseMatrixShardSource::DenseMatrixShardSource(const Matrix* matrix,
                                               int shard_rows)
    : matrix_(matrix), shard_rows_(shard_rows) {
  SRDA_CHECK(matrix != nullptr);
  SRDA_CHECK_GT(shard_rows, 0) << "shard_rows must be positive";
}

int DenseMatrixShardSource::rows() const { return matrix_->rows(); }
int DenseMatrixShardSource::cols() const { return matrix_->cols(); }

bool DenseMatrixShardSource::Next(RowShard* shard) {
  if (next_row_ >= matrix_->rows()) return false;
  const int end = std::min(matrix_->rows(), next_row_ + shard_rows_);
  buffer_ = matrix_->Block(next_row_, 0, end - next_row_, matrix_->cols());
  shard->first_row = next_row_;
  shard->dense = &buffer_;
  shard->sparse = nullptr;
  next_row_ = end;
  return true;
}

SparseMatrixShardSource::SparseMatrixShardSource(const SparseMatrix* matrix,
                                                 int shard_rows)
    : matrix_(matrix), shard_rows_(shard_rows) {
  SRDA_CHECK(matrix != nullptr);
  SRDA_CHECK_GT(shard_rows, 0) << "shard_rows must be positive";
}

int SparseMatrixShardSource::rows() const { return matrix_->rows(); }
int SparseMatrixShardSource::cols() const { return matrix_->cols(); }

bool SparseMatrixShardSource::Next(RowShard* shard) {
  if (next_row_ >= matrix_->rows()) return false;
  const int end = std::min(matrix_->rows(), next_row_ + shard_rows_);
  buffer_ = matrix_->RowSlice(next_row_, end);
  shard->first_row = next_row_;
  shard->dense = nullptr;
  shard->sparse = &buffer_;
  next_row_ = end;
  return true;
}

}  // namespace srda
