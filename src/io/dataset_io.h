// Dataset file I/O.
//
// Lets downstream users run the library on real data: sparse datasets in
// the LibSVM text format (the de-facto standard for sparse classification
// data, including the real 20Newsgroups distribution), dense datasets as
// label-first CSV or the SRDB binary layout. Trained models live in the
// versioned model store, src/model/codec.h.

#ifndef SRDA_IO_DATASET_IO_H_
#define SRDA_IO_DATASET_IO_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "dataset/dataset.h"

namespace srda {

// Sorted label compaction, shared by every reader (one-shot and streaming):
// rewrites `raw_per_row` in place to compact ids in [0, c) assigned by
// ascending raw value, and returns the compact -> raw table. The mapping
// depends only on the SET of labels present, never on row order, which is
// what makes write -> read round trips and shard streams stable.
std::vector<int> CompactLabelsSorted(std::vector<int>* raw_per_row);

// --- The text scan behind every LibSVM and CSV read. ---
//
// ScanTextDataset is the only loop that reads dataset text: ReadLibSvmFile
// and ReadDenseCsvFile run it with one shard holding every row and keep
// that shard in memory; RowShardReader runs it with its shard size and
// spills each shard to disk. Both therefore accept the same grammar, abort
// with the same located "path:line" messages, and assemble the same bits.

enum class TextFormat {
  kLibSvm,
  kCsv,
};

// One finished shard as plain arrays. LibSVM fills `offsets`, `indices`
// and `values` — the CSR arrays the SparseMatrix constructor takes, built
// by SparseMatrixBuilder (rows sorted by index, duplicates summed, zeros
// dropped); CSV fills `cells` with rows * width doubles, row-major. The
// sink may move the arrays out.
struct TextShard {
  std::vector<int64_t> offsets;
  std::vector<int> indices;
  std::vector<double> values;
  std::vector<double> cells;
};

struct TextScan {
  int rows = 0;
  int cols = 0;
  std::vector<int> labels;      // compact ids, one per row
  std::vector<int> raw_labels;  // compact id -> raw file label, ascending
  int64_t bytes = 0;            // text bytes read, newlines included
};

// Parses every line of `path` through io/line_parser.h, skipping blank and
// '#' lines, and hands `sink` each run of `shard_rows` rows (the last run
// may be shorter) in file order. Checks, each located at its line: LibSVM
// indices below `num_features` when it is positive (0 infers the width
// from the largest index; CSV ignores it), CSV labels non-negative and
// every CSV row as wide as the first. Labels compact as
// CompactLabelsSorted does. Aborts on an unreadable file, a malformed
// field, or a file with no samples or no features.
TextScan ScanTextDataset(const std::string& path, TextFormat format,
                         int num_features, int shard_rows,
                         const std::function<void(TextShard*)>& sink);

// --- LibSVM sparse format: "<label> <index>:<value> ..." per line. ---
//
// Labels in the file are arbitrary integer class ids; they are compacted to
// [0, num_classes) by SORTED raw value on read, and the compact -> raw map
// is exposed as SparseDataset::raw_labels. Sorted compaction makes the
// mapping depend only on the label set, so write -> read round trips (and
// shard-order changes) never permute class identities. Feature indices are
// 1-based in the file, 0-based in memory. All malformed numeric fields
// abort with a located "path:line" diagnostic (std::from_chars, no
// exceptions escape).

// Writes the dataset. When the dataset carries raw_labels the original file
// labels are preserved; otherwise compact ids are written as (label + 1),
// the LibSVM 1-based convention. Indices are written as (column + 1).
// Aborts on I/O failure.
void WriteLibSvmFile(const SparseDataset& dataset, const std::string& path);

// Reads a LibSVM file. `num_features` fixes the feature-space width; pass 0
// to infer it from the largest index present. Aborts on parse or I/O errors.
SparseDataset ReadLibSvmFile(const std::string& path, int num_features = 0);

// --- Dense CSV: "label,x_1,x_2,...,x_n" per line. ---
//
// Labels compact exactly like the LibSVM reader (sorted raw value, map in
// DenseDataset::raw_labels), so gapped ids like {0, 2} yield 2 classes, not
// a fabricated empty class.

void WriteDenseCsvFile(const DenseDataset& dataset, const std::string& path);

DenseDataset ReadDenseCsvFile(const std::string& path);

// --- Dense binary: native-endian "SRDB" v1 container. ---
//
// Layout: magic "SRDB", int32 version, rows, cols, num_classes; int32
// raw_labels[num_classes]; int32 labels[rows]; float64 row-major features.
// Row i starts at data_offset + i*cols*8, so RowShardReader can stream
// shards with O(1) seeks and no whole-file scan.

void WriteDenseBinaryFile(const DenseDataset& dataset,
                          const std::string& path);

DenseDataset ReadDenseBinaryFile(const std::string& path);

// Parsed header + label block of an "SRDB" file; `data_offset` is the byte
// offset of the first feature row. Aborts on malformed headers. The stream
// is left positioned at data_offset.
struct DenseBinaryHeader {
  int rows = 0;
  int cols = 0;
  int num_classes = 0;
  std::vector<int> raw_labels;  // always populated (identity if none stored)
  std::vector<int> labels;
  int64_t data_offset = 0;
};

DenseBinaryHeader ReadDenseBinaryHeader(std::ifstream* in,
                                        const std::string& path);

// Aborts with "path: row r, column c: non-finite value" (0-based) at the
// first NaN or Inf among `rows` row-major rows of `cols` features whose
// first row is row `first_row` of the file. Raw binary features get the
// check the text grammar applies while parsing.
void CheckFiniteRows(const double* values, int rows, int cols, int first_row,
                     const std::string& path);

}  // namespace srda

#endif  // SRDA_IO_DATASET_IO_H_
