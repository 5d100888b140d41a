#include "io/dataset_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "io/line_parser.h"

namespace srda {
namespace {

std::ofstream OpenForWrite(const std::string& path) {
  std::ofstream out(path);
  SRDA_CHECK(out.good()) << "cannot open " << path << " for writing";
  out.precision(17);  // Round-trip doubles exactly.
  return out;
}

std::ifstream OpenForRead(const std::string& path) {
  std::ifstream in(path);
  SRDA_CHECK(in.good()) << "cannot open " << path << " for reading";
  return in;
}

// The label each writer emits: the preserved raw label when the dataset
// carries a raw map, otherwise the compact id (shifted to 1-based for
// LibSVM by the caller).
int RawLabelFor(const std::vector<int>& raw_labels, int label) {
  if (raw_labels.empty()) return label;
  return raw_labels[static_cast<size_t>(label)];
}

void WriteBinaryBlock(std::ofstream* out, const void* data, size_t bytes) {
  out->write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
}

void ReadBinaryBlock(std::ifstream* in, void* data, size_t bytes,
                     const std::string& path) {
  in->read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  SRDA_CHECK(in->good()) << path << ": truncated binary dataset";
}

}  // namespace

std::vector<int> CompactLabelsSorted(std::vector<int>* raw_per_row) {
  std::map<int, int> label_map;
  for (int raw : *raw_per_row) label_map.emplace(raw, 0);
  std::vector<int> raw_labels;
  raw_labels.reserve(label_map.size());
  for (auto& [raw, id] : label_map) {
    id = static_cast<int>(raw_labels.size());
    raw_labels.push_back(raw);
  }
  for (int& label : *raw_per_row) label = label_map[label];
  return raw_labels;
}

TextScan ScanTextDataset(const std::string& path, TextFormat format,
                         int num_features, int shard_rows,
                         const std::function<void(TextShard*)>& sink) {
  SRDA_CHECK_GT(shard_rows, 0) << "shard_rows must be positive";
  SRDA_CHECK_GE(num_features, 0);
  std::ifstream in = OpenForRead(path);
  const bool libsvm = format == TextFormat::kLibSvm;
  // Shards carry no width, so an inferred width (num_features == 0) need
  // not be known until the scan ends.
  const int width = num_features > 0 ? num_features
                                     : std::numeric_limits<int>::max();
  TextScan scan;
  // The open shard: its row count, and for LibSVM its entries and each
  // row's end, assembled into `shard` when it closes.
  TextShard shard;
  int open_rows = 0;
  std::vector<LibSvmEntry> entries;
  std::vector<size_t> row_ends;
  const auto finish_shard = [&] {
    if (open_rows == 0) return;
    if (libsvm) {
      SparseMatrixBuilder builder(open_rows, width);
      size_t k = 0;
      for (int i = 0; i < open_rows; ++i) {
        for (; k < row_ends[static_cast<size_t>(i)]; ++k) {
          builder.Add(i, entries[k].column, entries[k].value);
        }
      }
      std::move(builder).Build(&shard.offsets, &shard.indices,
                               &shard.values);
      entries.clear();
      row_ends.clear();
    }
    sink(&shard);
    open_rows = 0;
    shard.cells.clear();
  };

  std::string line;
  std::vector<int> raw_per_row;
  LibSvmLine parsed;
  std::vector<double> cells;
  int max_column = -1;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    scan.bytes += static_cast<int64_t>(line.size()) + 1;
    if (line.empty() || line[0] == '#') continue;
    if (libsvm) {
      ParseLibSvmLine(line, path, line_number, &parsed);
      raw_per_row.push_back(parsed.label);
      for (const LibSvmEntry& entry : parsed.entries) {
        SRDA_CHECK_LT(entry.column, width)
            << path << ":" << line_number << ": feature index "
            << entry.column + 1 << " exceeds width " << width;
        max_column = std::max(max_column, entry.column);
      }
      entries.insert(entries.end(), parsed.entries.begin(),
                     parsed.entries.end());
      row_ends.push_back(entries.size());
    } else {
      const int label = ParseCsvLine(line, path, line_number, &cells);
      SRDA_CHECK_GE(label, 0)
          << path << ":" << line_number << ": negative label";
      raw_per_row.push_back(label);
      if (scan.cols == 0) {
        scan.cols = static_cast<int>(cells.size());
        SRDA_CHECK_GT(scan.cols, 0) << path << ": no feature columns";
      }
      SRDA_CHECK_EQ(static_cast<int>(cells.size()), scan.cols)
          << path << ":" << line_number << ": ragged row";
      shard.cells.insert(shard.cells.end(), cells.begin(), cells.end());
    }
    ++scan.rows;
    if (++open_rows == shard_rows) finish_shard();
  }
  finish_shard();
  SRDA_CHECK_GT(scan.rows, 0) << path << ": no samples";
  if (libsvm) scan.cols = num_features > 0 ? num_features : max_column + 1;
  SRDA_CHECK_GT(scan.cols, 0) << path << ": no features";
  scan.raw_labels = CompactLabelsSorted(&raw_per_row);
  scan.labels = std::move(raw_per_row);
  return scan;
}

void WriteLibSvmFile(const SparseDataset& dataset, const std::string& path) {
  ValidateDataset(dataset);
  std::ofstream out = OpenForWrite(path);
  for (int i = 0; i < dataset.features.rows(); ++i) {
    const int label = dataset.labels[static_cast<size_t>(i)];
    if (dataset.raw_labels.empty()) {
      out << label + 1;  // LibSVM convention: 1-based class ids.
    } else {
      out << RawLabelFor(dataset.raw_labels, label);
    }
    const int* cols = dataset.features.RowIndices(i);
    const double* values = dataset.features.RowValues(i);
    for (int e = 0; e < dataset.features.RowNonZeros(i); ++e) {
      out << ' ' << cols[e] + 1 << ':' << values[e];
    }
    out << '\n';
  }
  SRDA_CHECK(out.good()) << "write failure on " << path;
}

SparseDataset ReadLibSvmFile(const std::string& path, int num_features) {
  TextShard all;
  TextScan scan = ScanTextDataset(
      path, TextFormat::kLibSvm, num_features, std::numeric_limits<int>::max(),
      [&](TextShard* shard) { all = std::move(*shard); });
  SparseDataset dataset;
  dataset.features =
      SparseMatrix(scan.rows, scan.cols, std::move(all.offsets),
                   std::move(all.indices), std::move(all.values));
  dataset.labels = std::move(scan.labels);
  dataset.raw_labels = std::move(scan.raw_labels);
  dataset.num_classes = static_cast<int>(dataset.raw_labels.size());
  return dataset;
}

void WriteDenseCsvFile(const DenseDataset& dataset, const std::string& path) {
  ValidateDataset(dataset);
  std::ofstream out = OpenForWrite(path);
  for (int i = 0; i < dataset.features.rows(); ++i) {
    out << RawLabelFor(dataset.raw_labels,
                       dataset.labels[static_cast<size_t>(i)]);
    const double* row = dataset.features.RowPtr(i);
    for (int j = 0; j < dataset.features.cols(); ++j) out << ',' << row[j];
    out << '\n';
  }
  SRDA_CHECK(out.good()) << "write failure on " << path;
}

DenseDataset ReadDenseCsvFile(const std::string& path) {
  std::vector<double> cells;
  TextScan scan = ScanTextDataset(
      path, TextFormat::kCsv, 0, std::numeric_limits<int>::max(),
      [&](TextShard* shard) { cells = std::move(shard->cells); });
  DenseDataset dataset;
  dataset.features = Matrix(scan.rows, scan.cols, std::move(cells));
  dataset.labels = std::move(scan.labels);
  dataset.raw_labels = std::move(scan.raw_labels);
  dataset.num_classes = static_cast<int>(dataset.raw_labels.size());
  return dataset;
}

void WriteDenseBinaryFile(const DenseDataset& dataset,
                          const std::string& path) {
  ValidateDataset(dataset);
  std::ofstream out(path, std::ios::binary);
  SRDA_CHECK(out.good()) << "cannot open " << path << " for writing";
  const char magic[4] = {'S', 'R', 'D', 'B'};
  const int32_t version = 1;
  const int32_t rows = dataset.features.rows();
  const int32_t cols = dataset.features.cols();
  const int32_t num_classes = dataset.num_classes;
  WriteBinaryBlock(&out, magic, sizeof(magic));
  WriteBinaryBlock(&out, &version, sizeof(version));
  WriteBinaryBlock(&out, &rows, sizeof(rows));
  WriteBinaryBlock(&out, &cols, sizeof(cols));
  WriteBinaryBlock(&out, &num_classes, sizeof(num_classes));
  std::vector<int32_t> raw(static_cast<size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    raw[static_cast<size_t>(k)] = RawLabelFor(dataset.raw_labels, k);
  }
  WriteBinaryBlock(&out, raw.data(), raw.size() * sizeof(int32_t));
  std::vector<int32_t> labels(dataset.labels.begin(), dataset.labels.end());
  WriteBinaryBlock(&out, labels.data(), labels.size() * sizeof(int32_t));
  for (int i = 0; i < rows; ++i) {
    WriteBinaryBlock(&out, dataset.features.RowPtr(i),
                     static_cast<size_t>(cols) * sizeof(double));
  }
  SRDA_CHECK(out.good()) << "write failure on " << path;
}

DenseDataset ReadDenseBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SRDA_CHECK(in.good()) << "cannot open " << path << " for reading";
  DenseBinaryHeader header = ReadDenseBinaryHeader(&in, path);
  DenseDataset dataset;
  dataset.num_classes = header.num_classes;
  dataset.raw_labels = std::move(header.raw_labels);
  dataset.labels = std::move(header.labels);
  dataset.features = Matrix(header.rows, header.cols);
  for (int i = 0; i < header.rows; ++i) {
    ReadBinaryBlock(&in, dataset.features.RowPtr(i),
                    static_cast<size_t>(header.cols) * sizeof(double), path);
  }
  CheckFiniteRows(dataset.features.data(), header.rows, header.cols, 0, path);
  ValidateDataset(dataset);
  return dataset;
}

DenseBinaryHeader ReadDenseBinaryHeader(std::ifstream* in,
                                        const std::string& path) {
  char magic[4] = {0, 0, 0, 0};
  int32_t version = 0;
  int32_t rows = 0;
  int32_t cols = 0;
  int32_t num_classes = 0;
  ReadBinaryBlock(in, magic, sizeof(magic), path);
  SRDA_CHECK(std::memcmp(magic, "SRDB", 4) == 0)
      << path << ": not an srda dense-binary file";
  ReadBinaryBlock(in, &version, sizeof(version), path);
  SRDA_CHECK_EQ(version, 1) << path << ": unsupported binary version";
  ReadBinaryBlock(in, &rows, sizeof(rows), path);
  ReadBinaryBlock(in, &cols, sizeof(cols), path);
  ReadBinaryBlock(in, &num_classes, sizeof(num_classes), path);
  SRDA_CHECK(rows > 0 && cols > 0 && num_classes > 0)
      << path << ": invalid binary dimensions";
  DenseBinaryHeader header;
  header.rows = rows;
  header.cols = cols;
  header.num_classes = num_classes;
  std::vector<int32_t> raw(static_cast<size_t>(num_classes));
  ReadBinaryBlock(in, raw.data(), raw.size() * sizeof(int32_t), path);
  header.raw_labels.assign(raw.begin(), raw.end());
  std::vector<int32_t> labels(static_cast<size_t>(rows));
  ReadBinaryBlock(in, labels.data(), labels.size() * sizeof(int32_t), path);
  header.labels.assign(labels.begin(), labels.end());
  header.data_offset = static_cast<int64_t>(in->tellg());
  return header;
}

void CheckFiniteRows(const double* values, int rows, int cols, int first_row,
                     const std::string& path) {
  const int64_t count = static_cast<int64_t>(rows) * cols;
  for (int64_t k = 0; k < count; ++k) {
    SRDA_CHECK(std::isfinite(values[k]))
        << path << ": row " << first_row + k / cols << ", column " << k % cols
        << ": non-finite value";
  }
}

}  // namespace srda
