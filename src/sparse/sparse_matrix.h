// Compressed sparse row (CSR) matrix and its builder.
//
// The sparse path of SRDA (Section III-C2 of the paper) only needs
// matrix-vector products A*x and A^T*x plus row access; CSR provides both in
// O(nnz). Rows are samples, as in the dense Matrix.

#ifndef SRDA_SPARSE_SPARSE_MATRIX_H_
#define SRDA_SPARSE_SPARSE_MATRIX_H_

#include <cstdint>
#include <vector>

#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

// Row-chunk size of the A^T*x / A^T*B reduction grid. The grid is anchored
// at global row 0 and depends only on the matrix shape, never on thread
// count — that is what makes the chunk-order fold deterministic. The
// out-of-core sharded operator replicates the same grid across shard
// boundaries (carrying a partial chunk between shards) to stay bitwise
// identical to the in-RAM kernels.
inline constexpr int kSparseTransposeChunkRows = 512;

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

  // y = A * x  (x has cols() entries, result has rows()).
  Vector Multiply(const Vector& x) const;

  // y = A^T * x  (x has rows() entries, result has cols()).
  Vector MultiplyTransposed(const Vector& x) const;

  // C = A * B where B is dense cols() x k; result is rows() x k. Used to
  // embed sparse samples with a dense projection matrix. Each column of C
  // accumulates in the same order as Multiply() on the matching column of
  // B, so the two are bitwise identical.
  Matrix MultiplyDense(const Matrix& b) const;

  // C = A^T * B where B is dense rows() x k; result is cols() x k. The
  // multi-RHS mirror of MultiplyTransposed: the same fixed 512-row chunk
  // grid and ascending chunk-order fold, so column j of the result is
  // bitwise identical to MultiplyTransposed(column j of B) at any thread
  // count. This is what lets the batched LSQR path make one pass over the
  // matrix per iteration for all right-hand sides.
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
