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

// Row-chunk size for the A^T*x reduction: see the determinism note on
// kSparseTransposeChunkRows in the header and in parallel.h.
constexpr int kTransposeChunkRows = kSparseTransposeChunkRows;

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

}  // namespace

Vector SparseMatrix::Multiply(const Vector& x) const {
  SRDA_CHECK_EQ(x.size(), cols_) << "sparse A*x shape mismatch";
  TraceSpan span("spmv");
  if (span.recording()) {
    span.AddArg("flops", 2.0 * static_cast<double>(NumNonZeros()));
    SparseBytesTouched()->Add(SparseBytes(NumNonZeros(), rows_, cols_, 1));
  }
  AddFlops(2.0 * static_cast<double>(NumNonZeros()));
  Vector y(rows_);
  const double* px = x.data();
  ParallelFor(0, rows_, [&](int row_begin, int row_end) {
    for (int i = row_begin; i < row_end; ++i) {
      const int64_t begin = row_offsets_[static_cast<size_t>(i)];
      const int64_t end = row_offsets_[static_cast<size_t>(i) + 1];
      double sum = 0.0;
      for (int64_t k = begin; k < end; ++k) {
        sum += values_[static_cast<size_t>(k)] *
               px[col_indices_[static_cast<size_t>(k)]];
      }
      y[i] = sum;
    }
  });
  return y;
}

Vector SparseMatrix::MultiplyTransposed(const Vector& x) const {
  SRDA_CHECK_EQ(x.size(), rows_) << "sparse A^T*x shape mismatch";
  TraceSpan span("spmv_t");
  if (span.recording()) {
    span.AddArg("flops", 2.0 * static_cast<double>(NumNonZeros()));
    SparseBytesTouched()->Add(SparseBytes(NumNonZeros(), rows_, cols_, 1));
  }
  AddFlops(2.0 * static_cast<double>(NumNonZeros()));
  Vector y(cols_);
  const int num_chunks = FixedChunkCount(rows_, kTransposeChunkRows);
  if (num_chunks <= 1) {
    // Single chunk: accumulate straight into y (the original serial path).
    double* py = y.data();
    for (int i = 0; i < rows_; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      const int64_t begin = row_offsets_[static_cast<size_t>(i)];
      const int64_t end = row_offsets_[static_cast<size_t>(i) + 1];
      for (int64_t k = begin; k < end; ++k) {
        py[col_indices_[static_cast<size_t>(k)]] +=
            xi * values_[static_cast<size_t>(k)];
      }
    }
    return y;
  }

  // Rows scatter across the whole output, so each chunk accumulates into a
  // private buffer; the buffers are folded in fixed chunk order below.
  std::vector<Vector> partials(static_cast<size_t>(num_chunks));
  ParallelFor(0, num_chunks, [&](int chunk_begin, int chunk_end) {
    for (int c = chunk_begin; c < chunk_end; ++c) {
      Vector& partial = partials[static_cast<size_t>(c)];
      partial = Vector(cols_);
      double* pp = partial.data();
      const int row_begin = c * kTransposeChunkRows;
      const int row_end = std::min(rows_, row_begin + kTransposeChunkRows);
      for (int i = row_begin; i < row_end; ++i) {
        const double xi = x[i];
        if (xi == 0.0) continue;
        const int64_t begin = row_offsets_[static_cast<size_t>(i)];
        const int64_t end = row_offsets_[static_cast<size_t>(i) + 1];
        for (int64_t k = begin; k < end; ++k) {
          pp[col_indices_[static_cast<size_t>(k)]] +=
              xi * values_[static_cast<size_t>(k)];
        }
      }
    }
  });
  y = std::move(partials[0]);
  double* py = y.data();
  for (int c = 1; c < num_chunks; ++c) {
    const double* pp = partials[static_cast<size_t>(c)].data();
    for (int j = 0; j < cols_; ++j) py[j] += pp[j];
  }
  return y;
}

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
  AddFlops(2.0 * static_cast<double>(NumNonZeros()) * b.cols());
  const int d = b.cols();
  const int num_chunks = FixedChunkCount(rows_, kTransposeChunkRows);
  if (num_chunks <= 1) {
    Matrix y(cols_, d);
    for (int i = 0; i < rows_; ++i) {
      const double* brow = b.RowPtr(i);
      const int64_t begin = row_offsets_[static_cast<size_t>(i)];
      const int64_t end = row_offsets_[static_cast<size_t>(i) + 1];
      for (int64_t k = begin; k < end; ++k) {
        const double value = values_[static_cast<size_t>(k)];
        double* yrow = y.RowPtr(col_indices_[static_cast<size_t>(k)]);
        for (int j = 0; j < d; ++j) {
          // The per-entry zero skip matches the row skip in the vector
          // kernel column by column, keeping the accumulation chains equal.
          if (brow[j] == 0.0) continue;
          yrow[j] += brow[j] * value;
        }
      }
    }
    return y;
  }

  std::vector<Matrix> partials(static_cast<size_t>(num_chunks));
  ParallelFor(0, num_chunks, [&](int chunk_begin, int chunk_end) {
    for (int c = chunk_begin; c < chunk_end; ++c) {
      Matrix& partial = partials[static_cast<size_t>(c)];
      partial = Matrix(cols_, d);
      const int row_begin = c * kTransposeChunkRows;
      const int row_end = std::min(rows_, row_begin + kTransposeChunkRows);
      for (int i = row_begin; i < row_end; ++i) {
        const double* brow = b.RowPtr(i);
        const int64_t begin = row_offsets_[static_cast<size_t>(i)];
        const int64_t end = row_offsets_[static_cast<size_t>(i) + 1];
        for (int64_t k = begin; k < end; ++k) {
          const double value = values_[static_cast<size_t>(k)];
          double* prow = partial.RowPtr(col_indices_[static_cast<size_t>(k)]);
          for (int j = 0; j < d; ++j) {
            if (brow[j] == 0.0) continue;
            prow[j] += brow[j] * value;
          }
        }
      }
    }
  });
  Matrix y = std::move(partials[0]);
  double* py = y.RowPtr(0);
  for (int c = 1; c < num_chunks; ++c) {
    const double* pp = partials[static_cast<size_t>(c)].RowPtr(0);
    const int64_t total = static_cast<int64_t>(cols_) * d;
    for (int64_t e = 0; e < total; ++e) py[e] += pp[e];
  }
  return y;
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
