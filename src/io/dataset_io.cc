#include "io/dataset_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
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
  SRDA_CHECK_GE(num_features, 0);
  std::ifstream in = OpenForRead(path);

  struct Entry {
    int column;
    double value;
  };
  std::vector<std::vector<Entry>> rows;
  std::vector<int> raw_labels;
  int max_column = -1;

  std::string line;
  int line_number = 0;
  LibSvmLine parsed;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    ParseLibSvmLine(line, path, line_number, &parsed);
    raw_labels.push_back(parsed.label);
    rows.emplace_back();
    for (const LibSvmEntry& entry : parsed.entries) {
      rows.back().push_back({entry.column, entry.value});
      max_column = std::max(max_column, entry.column);
    }
  }
  SRDA_CHECK(!rows.empty()) << path << ": no samples";

  // Compact raw labels to [0, c) by sorted raw value, so a write -> read
  // round trip preserves class identities regardless of row order.
  SparseDataset dataset;
  dataset.raw_labels = CompactLabelsSorted(&raw_labels);
  dataset.labels = std::move(raw_labels);
  dataset.num_classes = static_cast<int>(dataset.raw_labels.size());

  const int width = num_features > 0 ? num_features : max_column + 1;
  SRDA_CHECK_GT(width, 0) << path << ": no features";
  SRDA_CHECK_GT(width, max_column)
      << path << ": feature index " << max_column + 1 << " exceeds width "
      << width;
  SparseMatrixBuilder builder(static_cast<int>(rows.size()), width);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const Entry& entry : rows[i]) {
      builder.Add(static_cast<int>(i), entry.column, entry.value);
    }
  }
  dataset.features = std::move(builder).Build();
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
  std::ifstream in = OpenForRead(path);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  int width = -1;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    rows.emplace_back();
    const int label = ParseCsvLine(line, path, line_number, &rows.back());
    SRDA_CHECK_GE(label, 0) << path << ":" << line_number
                            << ": negative label";
    labels.push_back(label);
    if (width < 0) {
      width = static_cast<int>(rows.back().size());
      SRDA_CHECK_GT(width, 0) << path << ": no feature columns";
    }
    SRDA_CHECK_EQ(static_cast<int>(rows.back().size()), width)
        << path << ":" << line_number << ": ragged row";
  }
  SRDA_CHECK(!rows.empty()) << path << ": no samples";

  DenseDataset dataset;
  // Compact by sorted raw value (matching the LibSVM reader) so gapped label
  // ids like {0, 2} cannot fabricate an empty class.
  dataset.raw_labels = CompactLabelsSorted(&labels);
  dataset.num_classes = static_cast<int>(dataset.raw_labels.size());
  dataset.labels = std::move(labels);
  dataset.features = Matrix(static_cast<int>(rows.size()), width);
  for (size_t i = 0; i < rows.size(); ++i) {
    double* dst = dataset.features.RowPtr(static_cast<int>(i));
    for (int j = 0; j < width; ++j) dst[j] = rows[i][static_cast<size_t>(j)];
  }
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

}  // namespace srda
