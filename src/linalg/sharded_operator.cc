#include "linalg/sharded_operator.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "matrix/blas.h"
#include "obs/trace.h"

namespace srda {

void ForEachShard(RowShardSource* source,
                  const std::function<void(const RowShard&)>& visit) {
  source->Reset();
  RowShard shard;
  int next_row = 0;
  while (source->Next(&shard)) {
    SRDA_CHECK_EQ(shard.first_row, next_row)
        << "shard stream out of order: shard at row " << shard.first_row
        << ", expected row " << next_row;
    const bool sparse = shard.sparse != nullptr;
    SRDA_CHECK(sparse != (shard.dense != nullptr) && sparse == source->sparse())
        << "shard at row " << next_row << " is not the "
        << (source->sparse() ? "sparse" : "dense") << " kind its source streams";
    const int width = sparse ? shard.sparse->cols() : shard.dense->cols();
    SRDA_CHECK_EQ(width, source->cols())
        << "shard at row " << next_row << " has width " << width
        << ", the source " << source->cols();
    SRDA_CHECK_LE(shard.rows(), source->rows() - next_row)
        << "shard at row " << next_row << " holds " << shard.rows()
        << " rows, past the source's " << source->rows();
    visit(shard);
    next_row += shard.rows();
  }
  SRDA_CHECK_EQ(next_row, source->rows())
      << "shard stream ended early at row " << next_row << " of "
      << source->rows();
}

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
  Matrix y;
  ForEachShard(source_, [&](const RowShard& shard) {
    Matrix part = shard.dense != nullptr ? Multiply(*shard.dense, x)
                                         : shard.sparse->MultiplyDense(x);
    // A shard of every row (in-RAM data) is the whole product.
    if (part.rows() == rows()) {
      y = std::move(part);
      return;
    }
    if (y.rows() == 0) y = Matrix(rows(), x.cols());
    std::memcpy(y.RowPtr(shard.first_row), part.data(),
                static_cast<size_t>(part.rows()) * part.cols() *
                    sizeof(double));
  });
  return y;
}

Matrix ShardedOperator::ApplyTransposedMulti(const Matrix& x) const {
  SRDA_CHECK_EQ(x.rows(), rows()) << "sharded A^T*X shape mismatch";
  TraceSpan span("sharded.apply_t");
  if (source_->sparse()) {
    SparseTransposeAccumulator accumulator(cols(), &x);
    ForEachShard(source_, [&](const RowShard& shard) {
      accumulator.Add(*shard.sparse, shard.first_row);
    });
    return std::move(accumulator).Finish();
  }
  Matrix y(cols(), x.cols());
  ForEachShard(source_, [&](const RowShard& shard) {
    MultiplyTransposedAAccumulate(
        *shard.dense, x.Block(shard.first_row, 0, shard.rows(), x.cols()),
        &y);
  });
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
  shard->first_row = next_row_;
  if (next_row_ == 0 && end == matrix_->rows()) {
    shard->dense = matrix_;
  } else {
    buffer_ = matrix_->Block(next_row_, 0, end - next_row_, matrix_->cols());
    shard->dense = &buffer_;
  }
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
  shard->first_row = next_row_;
  shard->dense = nullptr;
  if (next_row_ == 0 && end == matrix_->rows()) {
    shard->sparse = matrix_;
  } else {
    buffer_ = matrix_->RowSlice(next_row_, end);
    shard->sparse = &buffer_;
  }
  next_row_ = end;
  return true;
}

}  // namespace srda
