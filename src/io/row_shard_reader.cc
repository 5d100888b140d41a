#include "io/row_shard_reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "io/dataset_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace srda {
namespace {

Counter* BytesStreamed() {
  static Counter* counter =
      MetricsRegistry::Global().counter("io.bytes_streamed");
  return counter;
}

// Runs `transfer` (readv or writev) until every byte `iov` describes has
// moved, resuming after short transfers and EINTR. Aborts naming `source`
// on an error, or on end of file while reading.
template <typename Transfer>
void TransferAll(Transfer transfer, int fd, iovec* iov, int count,
                 const std::string& source) {
  for (;;) {
    while (count > 0 && iov->iov_len == 0) {
      ++iov;
      --count;
    }
    if (count == 0) return;
    const ssize_t moved = transfer(fd, iov, count);
    if (moved < 0 && errno == EINTR) continue;
    SRDA_CHECK(moved > 0) << source << ": "
                          << (moved < 0 ? std::strerror(errno)
                                        : "unexpected end of file");
    for (size_t left = static_cast<size_t>(moved); left > 0;) {
      const size_t step = std::min(left, iov->iov_len);
      iov->iov_base = static_cast<char*>(iov->iov_base) + step;
      iov->iov_len -= step;
      left -= step;
      if (iov->iov_len == 0) {
        ++iov;
        --count;
      }
    }
  }
}

}  // namespace

RowShardReader::RowShardReader(const std::string& path,
                               RowStreamFormat format,
                               const RowShardReaderOptions& options)
    : path_(path), format_(format), options_(options) {
  SRDA_CHECK_GT(options.shard_rows, 0) << "shard_rows must be positive";
  if (format == RowStreamFormat::kBinary) {
    ReadBinaryMetadata();
  } else {
    ScanText();
  }
  Reset();
}

RowShardReader::~RowShardReader() {
  if (fd_ >= 0) close(fd_);
}

void RowShardReader::OpenSpill() {
  std::error_code error;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path(error);
  const char* tmpdir = std::getenv("TMPDIR");
  SRDA_CHECK(!error) << path_ << ": no temporary directory for the spill "
                     << "(TMPDIR=" << (tmpdir != nullptr ? tmpdir : "unset")
                     << "): " << error.message();
  source_ = "spill file in " + dir.string();
  std::string name = (dir / "srda-spill-XXXXXX").string();
  fd_ = mkstemp(name.data());
  SRDA_CHECK(fd_ >= 0) << path_ << ": cannot create a spill file in "
                       << dir.string() << ": " << std::strerror(errno);
  SRDA_CHECK(unlink(name.c_str()) == 0)
      << path_ << ": cannot unlink " << name << ": " << std::strerror(errno);
}

void RowShardReader::ScanText() {
  const bool libsvm = format_ == RowStreamFormat::kLibSvm;
  // Each finished shard goes to the spill in one writev: the CSR arrays
  // for LibSVM, the row-major cells for CSV. The spill opens with the
  // first shard, so an unreadable or empty file fails before TMPDIR does.
  TextScan scan = ScanTextDataset(
      path_, libsvm ? TextFormat::kLibSvm : TextFormat::kCsv,
      options_.num_features, options_.shard_rows, [&](TextShard* shard) {
        if (fd_ < 0) OpenSpill();
        if (libsvm) {
          iovec iov[3] = {
              {shard->offsets.data(), shard->offsets.size() * sizeof(int64_t)},
              {shard->indices.data(), shard->indices.size() * sizeof(int)},
              {shard->values.data(), shard->values.size() * sizeof(double)}};
          TransferAll(writev, fd_, iov, 3, source_);
          shard_nnz_.push_back(shard->offsets.back());
        } else {
          iovec iov = {shard->cells.data(),
                       shard->cells.size() * sizeof(double)};
          TransferAll(writev, fd_, &iov, 1, source_);
        }
      });
  bytes_streamed_ += scan.bytes;
  BytesStreamed()->Add(static_cast<double>(scan.bytes));
  rows_ = scan.rows;
  cols_ = scan.cols;
  labels_ = std::move(scan.labels);
  raw_labels_ = std::move(scan.raw_labels);
  num_classes_ = static_cast<int>(raw_labels_.size());
}

void RowShardReader::ReadBinaryMetadata() {
  {
    std::ifstream in(path_, std::ios::binary);
    SRDA_CHECK(in.good()) << "cannot open " << path_ << " for reading";
    DenseBinaryHeader header = ReadDenseBinaryHeader(&in, path_);
    rows_ = header.rows;
    cols_ = header.cols;
    num_classes_ = header.num_classes;
    raw_labels_ = std::move(header.raw_labels);
    labels_ = std::move(header.labels);
    data_offset_ = header.data_offset;
  }
  for (int label : labels_) {
    SRDA_CHECK(label >= 0 && label < num_classes_)
        << path_ << ": label " << label << " outside [0, " << num_classes_
        << ")";
  }
  source_ = path_;
  fd_ = open(path_.c_str(), O_RDONLY);
  SRDA_CHECK(fd_ >= 0) << "cannot open " << path_ << " for reading";
  struct stat st {};
  SRDA_CHECK(fstat(fd_, &st) == 0)
      << path_ << ": " << std::strerror(errno);
  const int64_t data_bytes = static_cast<int64_t>(rows_) * cols_ * 8;
  const int64_t present = static_cast<int64_t>(st.st_size) - data_offset_;
  SRDA_CHECK(present >= data_bytes)
      << path_ << ": truncated binary dataset (" << present
      << " data bytes, header needs " << data_bytes << ")";
  const int64_t header_bytes = data_offset_;
  bytes_streamed_ += header_bytes;
  BytesStreamed()->Add(static_cast<double>(header_bytes));
}

void RowShardReader::Reset() {
  next_row_ = 0;
  SRDA_CHECK(lseek(fd_, data_offset_, SEEK_SET) == data_offset_)
      << source_ << ": rewind failed: " << std::strerror(errno);
}

bool RowShardReader::Next(RowShard* shard) {
  if (next_row_ >= rows_) return false;
  TraceSpan span("io.shard_read");
  const int count = std::min(options_.shard_rows, rows_ - next_row_);
  const int64_t bytes = format_ == RowStreamFormat::kLibSvm
                            ? ReadSparseShard(count, shard)
                            : ReadDenseShard(count, shard);
  shard->first_row = next_row_;
  peak_shard_bytes_ = std::max(peak_shard_bytes_, bytes);
  next_row_ += count;
  bytes_streamed_ += bytes;
  BytesStreamed()->Add(static_cast<double>(bytes));
  if (span.recording()) {
    span.AddArg("rows", static_cast<double>(count));
    span.AddArg("bytes", static_cast<double>(bytes));
  }
  return true;
}

int64_t RowShardReader::ReadSparseShard(int count, RowShard* shard) {
  const int64_t nnz =
      shard_nnz_[static_cast<size_t>(next_row_ / options_.shard_rows)];
  sparse_buffer_ = SparseMatrix();  // free the previous shard first
  std::vector<int64_t> offsets(static_cast<size_t>(count) + 1);
  std::vector<int> indices(static_cast<size_t>(nnz));
  std::vector<double> values(static_cast<size_t>(nnz));
  iovec iov[3] = {{offsets.data(), offsets.size() * sizeof(int64_t)},
                  {indices.data(), indices.size() * sizeof(int)},
                  {values.data(), values.size() * sizeof(double)}};
  TransferAll(readv, fd_, iov, 3, source_);
  sparse_buffer_ = SparseMatrix(count, cols_, std::move(offsets),
                                std::move(indices), std::move(values));
  shard->sparse = &sparse_buffer_;
  shard->dense = nullptr;
  return nnz * 12 + static_cast<int64_t>(count + 1) * 8;
}

int64_t RowShardReader::ReadDenseShard(int count, RowShard* shard) {
  if (dense_buffer_.rows() != count || dense_buffer_.cols() != cols_) {
    dense_buffer_ = Matrix(count, cols_);
  }
  const int64_t bytes = static_cast<int64_t>(count) * cols_ * 8;
  iovec iov = {dense_buffer_.RowPtr(0), static_cast<size_t>(bytes)};
  TransferAll(readv, fd_, &iov, 1, source_);
  CheckFiniteRows(dense_buffer_.RowPtr(0), count, cols_, next_row_, source_);
  shard->dense = &dense_buffer_;
  shard->sparse = nullptr;
  return bytes;
}

}  // namespace srda
