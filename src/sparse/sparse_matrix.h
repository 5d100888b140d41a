// Compressed sparse row (CSR) matrix and its builder.
//
// The sparse path of SRDA (Section III-C2 of the paper) only needs the
// block products A*B and A^T*B plus row access; CSR provides both in
// O(nnz * B.cols()). Rows are samples, as in the dense Matrix.

#ifndef SRDA_SPARSE_SPARSE_MATRIX_H_
#define SRDA_SPARSE_SPARSE_MATRIX_H_

#include <cstdint>
#include <vector>

#include "matrix/matrix.h"

namespace srda {

// An immutable CSR matrix of doubles.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  // Takes ownership of CSR arrays: `row_offsets` holds rows + 1 offsets
  // from 0 to nnz, `col_indices` and `values` hold nnz entries, and each
  // row's indices ascend within [0, cols). Checks the array sizes and the
  // end offsets.
  SparseMatrix(int rows, int cols, std::vector<int64_t> row_offsets,
               std::vector<int> col_indices, std::vector<double> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t NumNonZeros() const { return static_cast<int64_t>(values_.size()); }

  // Average non-zeros per row (the paper's `s`); 0 for an empty matrix.
  double AvgNonZerosPerRow() const;

  // Number of stored entries in row `i`.
  int RowNonZeros(int i) const;

  // The CSR arrays, as the constructor above takes them.
  const std::vector<int64_t>& row_offsets() const { return row_offsets_; }
  const std::vector<int>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

  // Unchecked spans over row `i`'s column indices and values.
  const int* RowIndices(int i) const {
    return col_indices_.data() + row_offsets_[static_cast<size_t>(i)];
  }
  const double* RowValues(int i) const {
    return values_.data() + row_offsets_[static_cast<size_t>(i)];
  }

  // C = A * B where B is dense cols() x k; result is rows() x k. Each
  // element of C accumulates its row's entries in ascending order, so
  // column j of C is bitwise the product on column j of B alone.
  Matrix MultiplyDense(const Matrix& b) const;

  // C = A^T * B where B is dense rows() x k; result is cols() x k. One
  // SparseTransposeAccumulator block (below), so column j of C is bitwise
  // the product on column j of B alone, at any thread count. This is what
  // lets the batched LSQR path make one pass over the matrix per iteration
  // for all right-hand sides.
  Matrix MultiplyTransposedDense(const Matrix& b) const;

  // Copies rows [row_begin, row_end) into a new CSR matrix with the same
  // width (column indices unchanged). O(rows + nnz of the slice); used to
  // present in-RAM data as row shards.
  SparseMatrix RowSlice(int row_begin, int row_end) const;

  // Densifies (tests and small examples only).
  Matrix ToDense() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int64_t> row_offsets_;  // size rows_ + 1
  std::vector<int> col_indices_;      // size nnz, sorted within each row
  std::vector<double> values_;        // size nnz
};

// C = A^T * B streamed over contiguous row blocks of A: the one reduction
// behind every sparse transpose product, in RAM (one block) and out of core
// (one block per shard). Rows fall on a fixed 512-row chunk grid anchored
// at global row 0, so the grid depends on A's row count alone. Each chunk
// sums its rows in ascending order into a zeroed partial (skipping zero
// entries of B); chunk 0 sums straight into C, which is never added to
// 0.0, and the other partials fold into C in ascending chunk order. So C
// is bitwise identical for every split of A into blocks and at every
// thread count.
//
// The whole chunks of a block reduce on the global thread pool in waves of
// one chunk per pool thread, each wave folding in parallel over the rows of
// C; a chunk cut by a block boundary is carried into the next block. Memory
// bound: at most GlobalThreadCount() + 1 chunk partials (cols x B.cols()
// each) are live besides C, one per wave slot plus the carried one, reused
// from chunk to chunk.
class SparseTransposeAccumulator {
 public:
  // `b` is B, one row per row of A; `cols` is A's width. `b` is not copied
  // and must outlive the accumulator.
  SparseTransposeAccumulator(int cols, const Matrix* b);

  // Adds rows [first_row, first_row + block.rows()) of A. Each block must
  // start where the previous one ended.
  void Add(const SparseMatrix& block, int first_row);

  // C, once every row of A has been added.
  Matrix Finish() &&;

 private:
  // Adds the partials of chunks [chunk, chunk + count) to c_, skipping
  // chunk 0, which c_ already holds.
  void Fold(Matrix* partials, int chunk, int count);

  const Matrix* b_;
  Matrix c_;
  int next_row_ = 0;
  Matrix carry_;                  // partial of a chunk cut by a block end
  std::vector<Matrix> partials_;  // one per wave slot
};

// Accumulates (row, col, value) triplets and assembles a CSR matrix.
// Duplicate coordinates are summed in the order they were added; explicit
// zeros are dropped.
class SparseMatrixBuilder {
 public:
  SparseMatrixBuilder(int rows, int cols);

  // Records `value` at (row, col). O(1); assembly happens in Build().
  void Add(int row, int col, double value);

  // Assembles the CSR matrix. The builder may not be reused afterwards.
  SparseMatrix Build() &&;

  // Assembles the same CSR arrays Build() wraps (as the SparseMatrix
  // constructor takes them), for callers that keep them apart from a
  // matrix. The builder may not be reused afterwards.
  void Build(std::vector<int64_t>* row_offsets, std::vector<int>* col_indices,
             std::vector<double>* values) &&;

 private:
  struct Triplet {
    int row;
    int col;
    double value;
  };

  int rows_;
  int cols_;
  std::vector<Triplet> triplets_;
};

// Builds a CSR copy of a dense matrix, dropping entries with
// |value| <= tolerance.
SparseMatrix SparseFromDense(const Matrix& dense, double tolerance = 0.0);

}  // namespace srda

#endif  // SRDA_SPARSE_SPARSE_MATRIX_H_
