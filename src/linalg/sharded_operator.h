// Row-shard streaming: the one row-level view of training data, in RAM or
// out of core.
//
// A RowShardSource yields the rows of an m x n matrix as consecutive
// contiguous blocks ("shards"), each presented as a small dense Matrix or
// CSR SparseMatrix that stays valid only until the next shard is fetched.
// ShardedOperator adapts such a source to the LinearOperator interface by
// making one streaming pass over the shards per product, holding one shard
// plus the product's accumulator (for sparse A^T*X, bounded as
// SparseTransposeAccumulator states) in memory at a time.
//
// Determinism: every product is bitwise identical to the in-RAM kernel on
// the concatenated matrix, at any shard size and thread count.
//  * A*X computes disjoint output rows per shard — the per-row chains are
//    untouched by the partition.
//  * Dense A^T*X continues each output element's ascending-k accumulation
//    chain across shards via the chain-continuing blas kernel
//    MultiplyTransposedAAccumulate.
//  * Sparse A^T*X feeds each shard to one SparseTransposeAccumulator, the
//    same reduction SparseMatrix::MultiplyTransposedDense runs on the whole
//    matrix as one block; its chunk grid does not depend on the shards.
//
// Unlike the other LinearOperators, a ShardedOperator is NOT thread-
// compatible: each product Reset()s and drains the source's cursor, so only
// one caller may use it at a time (LSQR issues one product at a time).

#ifndef SRDA_LINALG_SHARDED_OPERATOR_H_
#define SRDA_LINALG_SHARDED_OPERATOR_H_

#include <functional>

#include "linalg/linear_operator.h"
#include "matrix/matrix.h"
#include "matrix/vector.h"
#include "sparse/sparse_matrix.h"

namespace srda {

// One contiguous block of rows. Exactly one of `dense` / `sparse` is set;
// the pointee is owned by the source and valid until its next Next/Reset.
struct RowShard {
  int first_row = 0;
  const Matrix* dense = nullptr;
  const SparseMatrix* sparse = nullptr;

  int rows() const {
    if (dense != nullptr) return dense->rows();
    if (sparse != nullptr) return sparse->rows();
    return 0;
  }
};

// A restartable stream of row shards covering rows [0, rows()) in order.
// Implementations: DenseMatrixShardSource / SparseMatrixShardSource (in-RAM
// matrices; one whole-matrix shard is how RidgeSolver and FitSrda bind
// in-RAM data) and io/RowShardReader (files).
class RowShardSource {
 public:
  virtual ~RowShardSource() = default;

  virtual int rows() const = 0;
  virtual int cols() const = 0;
  // True when Next yields sparse shards, false for dense shards.
  virtual bool sparse() const = 0;

  // Rewinds the stream to the first shard.
  virtual void Reset() = 0;

  // Fetches the next shard; false at end of stream. Shards arrive in row
  // order with no gaps or overlaps.
  virtual bool Next(RowShard* shard) = 0;
};

// The one drain loop of every streamed pass: rewinds `source` and passes
// each shard to `visit` in row order. Before a shard is used it aborts,
// naming the shard's row, if the shard leaves a gap or overlaps, is not
// the kind source->sparse() names, has the wrong width, or runs past
// source->rows(); it aborts too if the stream ends early.
void ForEachShard(RowShardSource* source,
                  const std::function<void(const RowShard&)>& visit);

// LinearOperator over a shard stream; see the file comment. The source is
// not owned and must outlive the operator.
class ShardedOperator final : public LinearOperator {
 public:
  explicit ShardedOperator(RowShardSource* source);

  int rows() const override;
  int cols() const override;
  Matrix ApplyMulti(const Matrix& x) const override;
  Matrix ApplyTransposedMulti(const Matrix& x) const override;

 private:
  RowShardSource* source_;
};

// In-RAM shard sources: stream an existing matrix as blocks of `shard_rows`
// rows. With shard_rows >= rows() the one shard is the caller's matrix
// itself, handed out without a copy; smaller shards are copied into a
// private buffer, so consumers exercise the real transient-shard contract.
// The matrix is not owned and must outlive the source.
class DenseMatrixShardSource final : public RowShardSource {
 public:
  DenseMatrixShardSource(const Matrix* matrix, int shard_rows);

  int rows() const override;
  int cols() const override;
  bool sparse() const override { return false; }
  void Reset() override { next_row_ = 0; }
  bool Next(RowShard* shard) override;

 private:
  const Matrix* matrix_;
  int shard_rows_;
  int next_row_ = 0;
  Matrix buffer_;
};

class SparseMatrixShardSource final : public RowShardSource {
 public:
  SparseMatrixShardSource(const SparseMatrix* matrix, int shard_rows);

  int rows() const override;
  int cols() const override;
  bool sparse() const override { return true; }
  void Reset() override { next_row_ = 0; }
  bool Next(RowShard* shard) override;

 private:
  const SparseMatrix* matrix_;
  int shard_rows_;
  int next_row_ = 0;
  SparseMatrix buffer_;
};

}  // namespace srda

#endif  // SRDA_LINALG_SHARDED_OPERATOR_H_
