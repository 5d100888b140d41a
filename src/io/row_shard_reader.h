// Chunked row streaming from dataset files: the out-of-core entry point.
//
// RowShardReader is a RowShardSource over a LibSVM, CSV, or SRDB-binary
// dataset file. Construction makes one validating pass (labels, dimensions,
// class map — O(m) memory for labels, never the whole feature matrix);
// after that each Next() materializes only `shard_rows` rows, so peak
// resident feature memory is bounded by the shard size no matter how large
// the file is. Iterative consumers (sharded LSQR) Reset() and re-stream the
// shards once per pass.
//
// Text formats are parsed exactly once. The constructor runs
// ScanTextDataset (io/dataset_io.h), the same scan the one-shot readers
// run: every line goes through the strict line_parser grammar (a malformed
// byte fails with a located path:line message before any numerics run),
// and each finished shard is appended in binary to a spill file. The
// spill is created with mkstemp under
// std::filesystem::temp_directory_path() (which honours TMPDIR) and
// unlinked at once, so nothing outlives the reader, even on abort. LibSVM shards spill as their CSR arrays (12 B per nnz plus
// 8 B per row), CSV shards as row-major doubles (8 B per cell). The text
// file is closed when the scan ends: every pass reads the spill, one read
// per shard, so all passes see exactly the rows the scan validated even if
// the file changes afterwards. SRDB files need no spill; the constructor
// checks the file size against the header and passes read each shard's
// byte range from the file. Passes use read(), not mmap, so resident
// feature memory stays bounded by peak_shard_bytes(). The shared scan
// compacts labels (sorted raw value), so an out-of-core fit sees the same
// class ids as an in-RAM ReadLibSvmFile/ReadDenseCsvFile fit.
//
// Observability: every Next() emits an `io.shard_read` span (rows + bytes
// args) and advances the global `io.bytes_streamed` counter (the scan adds
// the text bytes, each pass the shard bytes it reads); bytes_streamed()
// reports the same total for this reader alone.

#ifndef SRDA_IO_ROW_SHARD_READER_H_
#define SRDA_IO_ROW_SHARD_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/sharded_operator.h"
#include "matrix/matrix.h"
#include "sparse/sparse_matrix.h"

namespace srda {

enum class RowStreamFormat {
  kLibSvm,  // sparse shards
  kCsv,     // dense shards
  kBinary,  // dense shards, seekable (dataset_io's SRDB container)
};

struct RowShardReaderOptions {
  // Rows per shard; the last shard may be smaller.
  int shard_rows = 4096;
  // LibSVM only: fixes the feature-space width (0 infers it from the
  // largest index present, as ReadLibSvmFile does).
  int num_features = 0;
};

class RowShardReader final : public RowShardSource {
 public:
  RowShardReader(const std::string& path, RowStreamFormat format,
                 const RowShardReaderOptions& options = {});
  ~RowShardReader() override;
  RowShardReader(const RowShardReader&) = delete;
  RowShardReader& operator=(const RowShardReader&) = delete;

  // RowShardSource:
  int rows() const override { return rows_; }
  int cols() const override { return cols_; }
  bool sparse() const override { return format_ == RowStreamFormat::kLibSvm; }
  void Reset() override;
  bool Next(RowShard* shard) override;

  // Dataset metadata from the scan pass.
  int num_classes() const { return num_classes_; }
  // Compacted labels for all rows (label i belongs to global row i).
  const std::vector<int>& labels() const { return labels_; }
  // Compact id -> raw file label, strictly ascending.
  const std::vector<int>& raw_labels() const { return raw_labels_; }

  // Total bytes this reader has streamed (the scan plus all passes) and
  // the largest in-memory footprint of any single shard (features + index
  // structure).
  int64_t bytes_streamed() const { return bytes_streamed_; }
  int64_t peak_shard_bytes() const { return peak_shard_bytes_; }

 private:
  void ScanText();
  void ReadBinaryMetadata();
  // Creates the unlinked spill file the scan writes text shards to.
  void OpenSpill();
  // Read the next `count` rows from fd_ into the shard buffers and point
  // `shard` at them; return the shard's in-memory bytes.
  int64_t ReadSparseShard(int count, RowShard* shard);
  int64_t ReadDenseShard(int count, RowShard* shard);

  std::string path_;
  RowStreamFormat format_;
  RowShardReaderOptions options_;
  // The SRDB file, or the text formats' spill; passes read from it.
  int fd_ = -1;
  // What read errors name: the SRDB path or the spill's directory.
  std::string source_;

  int rows_ = 0;
  int cols_ = 0;
  int num_classes_ = 0;
  std::vector<int> labels_;
  std::vector<int> raw_labels_;
  int64_t data_offset_ = 0;  // first feature byte of fd_ (0 for a spill)
  // LibSVM spill: stored entries of each shard, in shard order.
  std::vector<int64_t> shard_nnz_;

  // Streaming cursor.
  int next_row_ = 0;
  Matrix dense_buffer_;
  SparseMatrix sparse_buffer_;

  int64_t bytes_streamed_ = 0;
  int64_t peak_shard_bytes_ = 0;
};

}  // namespace srda

#endif  // SRDA_IO_ROW_SHARD_READER_H_
