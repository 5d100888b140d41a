#include "sparse/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace srda {

SparseMatrix::SparseMatrix(int rows, int cols, std::vector<int64_t> row_offsets,
                           std::vector<int> col_indices,
                           std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      values_(std::move(values)) {
  SRDA_CHECK(rows_ >= 0 && cols_ >= 0)
      << "negative sparse shape " << rows_ << " x " << cols_;
  SRDA_CHECK_EQ(row_offsets_.size(), static_cast<size_t>(rows_) + 1)
      << "CSR row offsets must hold rows + 1 entries";
  SRDA_CHECK_EQ(col_indices_.size(), values_.size())
      << "CSR indices and values differ in length";
  SRDA_CHECK(row_offsets_.front() == 0 &&
             row_offsets_.back() == static_cast<int64_t>(values_.size()))
      << "CSR row offsets must run from 0 to nnz";
}

double SparseMatrix::AvgNonZerosPerRow() const {
  if (rows_ == 0) return 0.0;
  return static_cast<double>(NumNonZeros()) / rows_;
}

int SparseMatrix::RowNonZeros(int i) const {
  SRDA_CHECK(i >= 0 && i < rows_) << "row " << i << " out of " << rows_;
  return static_cast<int>(row_offsets_[static_cast<size_t>(i) + 1] -
                          row_offsets_[static_cast<size_t>(i)]);
}

namespace {

// Rows per chunk of the A^T*B reduction grid; see
// SparseTransposeAccumulator.
constexpr int kSparseTransposeChunkRows = 512;

Counter* SparseBytesTouched() {
  static Counter* counter =
      MetricsRegistry::Global().counter("bytes.touched");
  return counter;
}

// CSR traffic model: every nonzero reads an 8-byte value plus a 4-byte
// column index, and each of `vec_columns` right-hand-side columns streams
// the dense input/output rows once.
double SparseBytes(int64_t nnz, int rows, int cols, int vec_columns) {
  return 12.0 * static_cast<double>(nnz) +
         8.0 * (static_cast<double>(rows) + cols) * vec_columns;
}

// Adds global rows [row_begin, row_end) of A into `partial`, where `block`
// holds A's rows from global row first_row on.
void AddRows(const SparseMatrix& block, int first_row, int row_begin,
             int row_end, const Matrix& b, Matrix* partial) {
  const int d = b.cols();
  const int64_t* offsets = block.row_offsets().data();
  const int* indices = block.col_indices().data();
  const double* values = block.values().data();
  for (int g = row_begin; g < row_end; ++g) {
    const double* brow = b.RowPtr(g);
    const int i = g - first_row;
    for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const double value = values[k];
      double* prow = partial->RowPtr(indices[k]);
      for (int j = 0; j < d; ++j) {
        // The per-entry zero skip keeps column j's chain equal to the
        // product on column j of B alone.
        if (brow[j] == 0.0) continue;
        prow[j] += brow[j] * value;
      }
    }
  }
}

}  // namespace

Matrix SparseMatrix::MultiplyDense(const Matrix& b) const {
  SRDA_CHECK_EQ(b.rows(), cols_) << "sparse A*B shape mismatch";
  TraceSpan span("spmm");
  if (span.recording()) {
    span.AddArg("flops",
                2.0 * static_cast<double>(NumNonZeros()) * b.cols());
    SparseBytesTouched()->Add(
        SparseBytes(NumNonZeros(), rows_, cols_, b.cols()));
  }
  AddFlops(2.0 * static_cast<double>(NumNonZeros()) * b.cols());
  Matrix c(rows_, b.cols());
  ParallelFor(0, rows_, [&](int row_begin, int row_end) {
    for (int i = row_begin; i < row_end; ++i) {
      const int64_t begin = row_offsets_[static_cast<size_t>(i)];
      const int64_t end = row_offsets_[static_cast<size_t>(i) + 1];
      double* crow = c.RowPtr(i);
      for (int64_t k = begin; k < end; ++k) {
        const double value = values_[static_cast<size_t>(k)];
        const double* brow = b.RowPtr(col_indices_[static_cast<size_t>(k)]);
        for (int j = 0; j < b.cols(); ++j) crow[j] += value * brow[j];
      }
    }
  });
  return c;
}

Matrix SparseMatrix::MultiplyTransposedDense(const Matrix& b) const {
  SRDA_CHECK_EQ(b.rows(), rows_) << "sparse A^T*B shape mismatch";
  TraceSpan span("spmm_t");
  if (span.recording()) {
    span.AddArg("flops",
                2.0 * static_cast<double>(NumNonZeros()) * b.cols());
    SparseBytesTouched()->Add(
        SparseBytes(NumNonZeros(), rows_, cols_, b.cols()));
  }
  SparseTransposeAccumulator accumulator(cols_, &b);
  accumulator.Add(*this, 0);
  return std::move(accumulator).Finish();
}

SparseMatrix SparseMatrix::RowSlice(int row_begin, int row_end) const {
  SRDA_CHECK(row_begin >= 0 && row_begin <= row_end && row_end <= rows_)
      << "RowSlice [" << row_begin << ", " << row_end << ") out of " << rows_;
  SparseMatrix slice;
  slice.rows_ = row_end - row_begin;
  slice.cols_ = cols_;
  const int64_t first = row_offsets_[static_cast<size_t>(row_begin)];
  const int64_t last = row_offsets_[static_cast<size_t>(row_end)];
  slice.row_offsets_.resize(static_cast<size_t>(slice.rows_) + 1);
  for (int i = 0; i <= slice.rows_; ++i) {
    slice.row_offsets_[static_cast<size_t>(i)] =
        row_offsets_[static_cast<size_t>(row_begin + i)] - first;
  }
  slice.col_indices_.assign(col_indices_.begin() + first,
                            col_indices_.begin() + last);
  slice.values_.assign(values_.begin() + first, values_.begin() + last);
  return slice;
}

Matrix SparseMatrix::ToDense() const {
  Matrix dense(rows_, cols_);
  for (int i = 0; i < rows_; ++i) {
    const int64_t begin = row_offsets_[static_cast<size_t>(i)];
    const int64_t end = row_offsets_[static_cast<size_t>(i) + 1];
    double* row = dense.RowPtr(i);
    for (int64_t k = begin; k < end; ++k) {
      row[col_indices_[static_cast<size_t>(k)]] =
          values_[static_cast<size_t>(k)];
    }
  }
  return dense;
}

SparseTransposeAccumulator::SparseTransposeAccumulator(int cols,
                                                       const Matrix* b)
    : b_(b) {
  SRDA_CHECK(b != nullptr);
  c_ = Matrix(cols, b->cols());
}

void SparseTransposeAccumulator::Add(const SparseMatrix& block,
                                     int first_row) {
  const int rows = b_->rows();
  const int end_row = first_row + block.rows();
  SRDA_CHECK(block.cols() == c_.rows() && first_row == next_row_ &&
             block.rows() <= rows - first_row)
      << "sparse A^T*B block of rows [" << first_row << ", " << end_row
      << ") and width " << block.cols() << " does not continue row "
      << next_row_ << " of " << rows << " x " << c_.rows();
  AddFlops(2.0 * static_cast<double>(block.NumNonZeros()) * c_.cols());
  next_row_ = end_row;
  const auto chunk_end = [rows](int chunk) {
    return std::min(rows, (chunk + 1) * kSparseTransposeChunkRows);
  };
  // Where `chunk` sums: c_ for chunk 0, else `slot`, zeroed when the chunk
  // starts in this block (`fresh`) or allocated on first use.
  const auto partial = [this](int chunk, Matrix* slot, bool fresh) {
    if (chunk == 0) return &c_;
    if (slot->rows() != c_.rows()) {
      *slot = Matrix(c_.rows(), c_.cols());
    } else if (fresh) {
      slot->Fill(0.0);
    }
    return slot;
  };
  const int width = GlobalThreadCount();
  for (int row = first_row; row < end_row;) {
    const int chunk = row / kSparseTransposeChunkRows;
    if (row % kSparseTransposeChunkRows != 0 || chunk_end(chunk) > end_row) {
      // A chunk cut by a block boundary accumulates in carry_ across blocks.
      const int stop = std::min(end_row, chunk_end(chunk));
      AddRows(block, first_row, row, stop, *b_,
              partial(chunk, &carry_, row % kSparseTransposeChunkRows == 0));
      if (stop == chunk_end(chunk) && chunk > 0) Fold(&carry_, chunk, 1);
      row = stop;
      continue;
    }
    // A wave of whole chunks, at most one per pool thread.
    int count = 1;
    while (count < width &&
           (chunk + count) * kSparseTransposeChunkRows < end_row &&
           chunk_end(chunk + count) <= end_row) {
      ++count;
    }
    partials_.resize(std::max(partials_.size(), static_cast<size_t>(count)));
    ParallelFor(0, count, [&](int slot_begin, int slot_end) {
      for (int slot = slot_begin; slot < slot_end; ++slot) {
        AddRows(block, first_row, (chunk + slot) * kSparseTransposeChunkRows,
                chunk_end(chunk + slot), *b_,
                partial(chunk + slot, &partials_[static_cast<size_t>(slot)],
                        true));
      }
    });
    Fold(partials_.data(), chunk, count);
    row = chunk_end(chunk + count - 1);
  }
}

Matrix SparseTransposeAccumulator::Finish() && {
  SRDA_CHECK_EQ(next_row_, b_->rows())
      << "sparse A^T*B blocks ended at row " << next_row_ << " of "
      << b_->rows();
  return std::move(c_);
}

void SparseTransposeAccumulator::Fold(Matrix* partials, int chunk,
                                      int count) {
  const int d = c_.cols();
  ParallelFor(0, c_.rows(), [&](int row_begin, int row_end) {
    const size_t n = static_cast<size_t>(row_end - row_begin) * d;
    double* pc = c_.RowPtr(row_begin);
    for (int slot = chunk == 0 ? 1 : 0; slot < count; ++slot) {
      const double* pp = partials[slot].RowPtr(row_begin);
      for (size_t e = 0; e < n; ++e) pc[e] += pp[e];
    }
  });
}

SparseMatrixBuilder::SparseMatrixBuilder(int rows, int cols)
    : rows_(rows), cols_(cols) {
  SRDA_CHECK(rows >= 0 && cols >= 0)
      << "negative sparse shape " << rows << " x " << cols;
}

void SparseMatrixBuilder::Add(int row, int col, double value) {
  SRDA_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_)
      << "triplet (" << row << ", " << col << ") out of " << rows_ << " x "
      << cols_;
  if (value == 0.0) return;
  triplets_.push_back({row, col, value});
}

SparseMatrix SparseMatrixBuilder::Build() && {
  std::vector<int64_t> row_offsets;
  std::vector<int> col_indices;
  std::vector<double> values;
  std::move(*this).Build(&row_offsets, &col_indices, &values);
  return SparseMatrix(rows_, cols_, std::move(row_offsets),
                      std::move(col_indices), std::move(values));
}

void SparseMatrixBuilder::Build(std::vector<int64_t>* row_offsets_out,
                                std::vector<int>* col_indices_out,
                                std::vector<double>* values_out) && {
  // Stable, so duplicates sum in insertion order whatever the other rows.
  std::stable_sort(triplets_.begin(), triplets_.end(),
                   [](const Triplet& a, const Triplet& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });

  std::vector<int64_t>& row_offsets = *row_offsets_out;
  std::vector<int>& col_indices = *col_indices_out;
  std::vector<double>& values = *values_out;
  row_offsets.assign(static_cast<size_t>(rows_) + 1, 0);
  col_indices.clear();
  values.clear();
  col_indices.reserve(triplets_.size());
  values.reserve(triplets_.size());

  size_t i = 0;
  while (i < triplets_.size()) {
    // Merge duplicates at the same coordinate.
    double sum = triplets_[i].value;
    size_t j = i + 1;
    while (j < triplets_.size() && triplets_[j].row == triplets_[i].row &&
           triplets_[j].col == triplets_[i].col) {
      sum += triplets_[j].value;
      ++j;
    }
    if (sum != 0.0) {
      col_indices.push_back(triplets_[i].col);
      values.push_back(sum);
      ++row_offsets[static_cast<size_t>(triplets_[i].row) + 1];
    }
    i = j;
  }
  for (size_t r = 0; r < static_cast<size_t>(rows_); ++r) {
    row_offsets[r + 1] += row_offsets[r];
  }
  triplets_.clear();
}

SparseMatrix SparseFromDense(const Matrix& dense, double tolerance) {
  SRDA_CHECK(tolerance >= 0.0);
  SparseMatrixBuilder builder(dense.rows(), dense.cols());
  for (int i = 0; i < dense.rows(); ++i) {
    const double* row = dense.RowPtr(i);
    for (int j = 0; j < dense.cols(); ++j) {
      if (std::fabs(row[j]) > tolerance) builder.Add(i, j, row[j]);
    }
  }
  return std::move(builder).Build();
}

}  // namespace srda
