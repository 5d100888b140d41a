// Tests for dataset and model file I/O.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/dataset_io.h"
#include "io/row_shard_reader.h"
#include "matrix/blas.h"

namespace srda {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

SparseDataset MakeSparseDataset() {
  SparseDataset dataset;
  dataset.num_classes = 2;
  SparseMatrixBuilder builder(3, 5);
  builder.Add(0, 0, 1.5);
  builder.Add(0, 4, -2.25);
  builder.Add(1, 2, 0.125);
  // Row 2 intentionally empty.
  dataset.features = std::move(builder).Build();
  dataset.labels = {0, 1, 0};
  return dataset;
}

TEST(LibSvmIoTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.libsvm");
  const SparseDataset original = MakeSparseDataset();
  WriteLibSvmFile(original, path);
  const SparseDataset loaded = ReadLibSvmFile(path, 5);
  EXPECT_EQ(loaded.num_classes, 2);
  EXPECT_EQ(loaded.labels, original.labels);
  EXPECT_EQ(
      MaxAbsDiff(loaded.features.ToDense(), original.features.ToDense()),
      0.0);
  std::remove(path.c_str());
}

TEST(LibSvmIoTest, InfersWidthFromIndices) {
  const std::string path = TempPath("width.libsvm");
  {
    std::ofstream out(path);
    out << "1 3:2.5\n2 7:1.0\n";
  }
  const SparseDataset loaded = ReadLibSvmFile(path);
  EXPECT_EQ(loaded.features.cols(), 7);
  EXPECT_EQ(loaded.features.rows(), 2);
  EXPECT_EQ(loaded.num_classes, 2);
  EXPECT_DOUBLE_EQ(loaded.features.ToDense()(0, 2), 2.5);
  EXPECT_DOUBLE_EQ(loaded.features.ToDense()(1, 6), 1.0);
  std::remove(path.c_str());
}

TEST(LibSvmIoTest, SkipsCommentsAndBlankLines) {
  const std::string path = TempPath("comments.libsvm");
  {
    std::ofstream out(path);
    out << "# header comment\n\n1 1:1.0\n\n2 2:2.0\n";
  }
  const SparseDataset loaded = ReadLibSvmFile(path);
  EXPECT_EQ(loaded.features.rows(), 2);
  std::remove(path.c_str());
}

TEST(LibSvmIoTest, LabelsCompactedBySortedRawValue) {
  const std::string path = TempPath("labels.libsvm");
  {
    std::ofstream out(path);
    out << "7 1:1\n3 1:1\n7 1:1\n9 1:1\n";
  }
  const SparseDataset loaded = ReadLibSvmFile(path);
  EXPECT_EQ(loaded.num_classes, 3);
  // Compact ids follow ascending raw value {3, 7, 9}, independent of the
  // order rows appear in the file.
  EXPECT_EQ(loaded.labels, (std::vector<int>{1, 0, 1, 2}));
  EXPECT_EQ(loaded.raw_labels, (std::vector<int>{3, 7, 9}));
  std::remove(path.c_str());
}

// Regression: first-appearance compaction used to permute class ids on a
// write -> read round trip whenever row order did not match label order
// (labels {2, 0, 1} came back as {0, 1, 2}).
TEST(LibSvmIoTest, RoundTripPreservesLabelIdentities) {
  const std::string path = TempPath("permuted.libsvm");
  SparseDataset original;
  original.num_classes = 3;
  SparseMatrixBuilder builder(3, 2);
  builder.Add(0, 0, 1.0);
  builder.Add(1, 1, 2.0);
  builder.Add(2, 0, 3.0);
  original.features = std::move(builder).Build();
  original.labels = {2, 0, 1};
  WriteLibSvmFile(original, path);
  const SparseDataset loaded = ReadLibSvmFile(path, 2);
  EXPECT_EQ(loaded.labels, original.labels);
  EXPECT_EQ(loaded.raw_labels, (std::vector<int>{1, 2, 3}));

  // A second round trip (now carrying raw_labels) is a fixed point.
  WriteLibSvmFile(loaded, path);
  const SparseDataset again = ReadLibSvmFile(path, 2);
  EXPECT_EQ(again.labels, original.labels);
  EXPECT_EQ(again.raw_labels, loaded.raw_labels);
  std::remove(path.c_str());
}

TEST(LibSvmIoDeathTest, MalformedPairAborts) {
  const std::string path = TempPath("bad.libsvm");
  {
    std::ofstream out(path);
    out << "1 nonsense\n";
  }
  EXPECT_DEATH(ReadLibSvmFile(path), "malformed pair");
  std::remove(path.c_str());
}

TEST(LibSvmIoDeathTest, MissingFileAborts) {
  EXPECT_DEATH(ReadLibSvmFile(TempPath("does-not-exist.libsvm")),
               "cannot open");
}

// Regression: these malformed fields used to escape as uncaught
// std::invalid_argument / std::out_of_range from std::stoi/std::stod;
// every one must now die with a located path:line SRDA_CHECK message.
TEST(LibSvmIoDeathTest, EmptyIndexAborts) {
  const std::string path = TempPath("empty-index.libsvm");
  {
    std::ofstream out(path);
    out << "1 :3\n";
  }
  EXPECT_DEATH(ReadLibSvmFile(path), "empty-index.libsvm:1: malformed "
                                     "feature index in pair ':3'");
  std::remove(path.c_str());
}

TEST(LibSvmIoDeathTest, NonNumericIndexAborts) {
  const std::string path = TempPath("bad-index.libsvm");
  {
    std::ofstream out(path);
    out << "1 x:1\n";
  }
  EXPECT_DEATH(ReadLibSvmFile(path),
               "bad-index.libsvm:1: malformed feature index in pair 'x:1'");
  std::remove(path.c_str());
}

TEST(LibSvmIoDeathTest, NonNumericValueAborts) {
  const std::string path = TempPath("bad-value.libsvm");
  {
    std::ofstream out(path);
    out << "1 1:1.0\n2 2:abc\n";
  }
  EXPECT_DEATH(ReadLibSvmFile(path),
               "bad-value.libsvm:2: malformed feature value in pair '2:abc'");
  std::remove(path.c_str());
}

TEST(LibSvmIoDeathTest, OutOfRangeIndexAborts) {
  const std::string path = TempPath("overflow.libsvm");
  {
    std::ofstream out(path);
    out << "1 99999999999999999999:1.0\n";
  }
  EXPECT_DEATH(ReadLibSvmFile(path), "malformed feature index");
  std::remove(path.c_str());
}

TEST(LibSvmIoDeathTest, NonNumericLabelAborts) {
  const std::string path = TempPath("bad-label.libsvm");
  {
    std::ofstream out(path);
    out << "abc 1:1.0\n";
  }
  EXPECT_DEATH(ReadLibSvmFile(path),
               "bad-label.libsvm:1: malformed label 'abc'");
  std::remove(path.c_str());
}

TEST(LibSvmIoDeathTest, IndexBeyondFixedWidthAbortsAtItsLine) {
  // One scan serves both readers, so the one-shot read names the line of
  // the offending index exactly as the streaming reader does.
  const std::string path = TempPath("wide.libsvm");
  {
    std::ofstream out(path);
    out << "1 1:1.0 3:2.0\n2 5:1.0\n";
  }
  const char kWant[] = "wide.libsvm:2: feature index 5 exceeds width 3";
  EXPECT_DEATH(ReadLibSvmFile(path, 3), kWant);
  RowShardReaderOptions options;
  options.num_features = 3;
  EXPECT_DEATH(RowShardReader(path, RowStreamFormat::kLibSvm, options),
               kWant);
  std::remove(path.c_str());
}

TEST(TextIoTest, InRamReadsNeedNoTempDir) {
  // The one-shot readers keep their single shard in memory; only the
  // streaming reader spills under TMPDIR.
  const std::string libsvm = TempPath("notmp.libsvm");
  const std::string csv = TempPath("notmp.csv");
  {
    std::ofstream out(libsvm);
    out << "1 1:0.5 3:2\n2 2:1.5\n";
  }
  {
    std::ofstream out(csv);
    out << "0,1.0,2.0\n1,3.0,4.0\n";
  }
  const char* saved = std::getenv("TMPDIR");
  const std::string saved_tmpdir = saved != nullptr ? saved : "";
  ::setenv("TMPDIR", TempPath("no-such-tmpdir").c_str(), 1);
  const SparseDataset sparse = ReadLibSvmFile(libsvm);
  const DenseDataset dense = ReadDenseCsvFile(csv);
  if (saved != nullptr) {
    ::setenv("TMPDIR", saved_tmpdir.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  EXPECT_EQ(sparse.features.rows(), 2);
  EXPECT_EQ(sparse.features.cols(), 3);
  EXPECT_EQ(sparse.features.NumNonZeros(), 3);
  EXPECT_EQ(dense.features.rows(), 2);
  EXPECT_EQ(dense.features(1, 1), 4.0);
  std::remove(libsvm.c_str());
  std::remove(csv.c_str());
}

TEST(DenseCsvIoTest, RoundTrip) {
  const std::string path = TempPath("dense.csv");
  DenseDataset original;
  original.num_classes = 3;
  original.features = Matrix::FromRows({{1.5, -2.0}, {0.0, 3.25}, {7.0, 8.0}});
  original.labels = {0, 2, 1};
  WriteDenseCsvFile(original, path);
  const DenseDataset loaded = ReadDenseCsvFile(path);
  EXPECT_EQ(loaded.num_classes, 3);
  EXPECT_EQ(loaded.labels, original.labels);
  EXPECT_EQ(MaxAbsDiff(loaded.features, original.features), 0.0);
  std::remove(path.c_str());
}

// Regression: gapped label ids used to fabricate empty classes
// (num_classes = max_label + 1); they now compact like the LibSVM reader.
TEST(DenseCsvIoTest, GappedLabelsCompact) {
  const std::string path = TempPath("gapped.csv");
  {
    std::ofstream out(path);
    out << "0,1.0\n2,2.0\n0,3.0\n";
  }
  const DenseDataset loaded = ReadDenseCsvFile(path);
  EXPECT_EQ(loaded.num_classes, 2);
  EXPECT_EQ(loaded.labels, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(loaded.raw_labels, (std::vector<int>{0, 2}));

  // Writing preserves the raw ids, so the round trip is stable.
  WriteDenseCsvFile(loaded, path);
  const DenseDataset again = ReadDenseCsvFile(path);
  EXPECT_EQ(again.labels, loaded.labels);
  EXPECT_EQ(again.raw_labels, loaded.raw_labels);
  EXPECT_EQ(MaxAbsDiff(again.features, loaded.features), 0.0);
  std::remove(path.c_str());
}

TEST(DenseCsvIoDeathTest, RaggedRowAborts) {
  const std::string path = TempPath("ragged.csv");
  {
    std::ofstream out(path);
    out << "0,1.0,2.0\n1,3.0\n";
  }
  EXPECT_DEATH(ReadDenseCsvFile(path), "ragged");
  std::remove(path.c_str());
}

// Regression: a non-numeric cell used to raise std::invalid_argument.
TEST(DenseCsvIoDeathTest, NonNumericCellAborts) {
  const std::string path = TempPath("bad-cell.csv");
  {
    std::ofstream out(path);
    out << "0,1.0,2.0\n1,abc,4.0\n";
  }
  EXPECT_DEATH(ReadDenseCsvFile(path), "bad-cell.csv:2: malformed cell 'abc'");
  std::remove(path.c_str());
}

TEST(DenseCsvIoDeathTest, NonNumericLabelAborts) {
  const std::string path = TempPath("bad-csv-label.csv");
  {
    std::ofstream out(path);
    out << "x,1.0\n";
  }
  EXPECT_DEATH(ReadDenseCsvFile(path),
               "bad-csv-label.csv:1: malformed label 'x'");
  std::remove(path.c_str());
}

TEST(DenseBinaryIoTest, RoundTripExact) {
  const std::string path = TempPath("dense.bin");
  Rng rng(41);
  DenseDataset original;
  original.num_classes = 2;
  original.raw_labels = {3, 8};
  original.features = Matrix(5, 3);
  for (int i = 0; i < 5; ++i) {
    original.labels.push_back(i % 2);
    for (int j = 0; j < 3; ++j) original.features(i, j) = rng.NextGaussian();
  }
  WriteDenseBinaryFile(original, path);
  const DenseDataset loaded = ReadDenseBinaryFile(path);
  EXPECT_EQ(loaded.num_classes, 2);
  EXPECT_EQ(loaded.labels, original.labels);
  EXPECT_EQ(loaded.raw_labels, original.raw_labels);
  EXPECT_EQ(MaxAbsDiff(loaded.features, original.features), 0.0);
  std::remove(path.c_str());
}

TEST(DenseBinaryIoDeathTest, WrongMagicAborts) {
  const std::string path = TempPath("not-binary.bin");
  {
    std::ofstream out(path);
    out << "something else entirely, long enough for a header\n";
  }
  EXPECT_DEATH(ReadDenseBinaryFile(path), "not an srda dense-binary file");
  std::remove(path.c_str());
}

// Non-finite values: std::from_chars parses "nan" and "inf", but the
// dataset grammar rejects them with the located malformed-field abort, in
// the one-shot readers and in RowShardReader's scan alike.
TEST(NonFiniteIoDeathTest, LibSvmNanValueAborts) {
  const std::string path = TempPath("nan.libsvm");
  {
    std::ofstream out(path);
    out << "0 1:2 2:1\n1 1:nan 2:1\n";
  }
  const char kWant[] = "nan.libsvm:2: malformed feature value in pair '1:nan'";
  EXPECT_DEATH(ReadLibSvmFile(path), kWant);
  EXPECT_DEATH(RowShardReader(path, RowStreamFormat::kLibSvm, {}), kWant);
  std::remove(path.c_str());
}

TEST(NonFiniteIoDeathTest, LibSvmInfValueAborts) {
  const std::string path = TempPath("inf.libsvm");
  {
    std::ofstream out(path);
    out << "1 1:1 2:-inf\n";
  }
  const char kWant[] = "inf.libsvm:1: malformed feature value in pair '2:-inf'";
  EXPECT_DEATH(ReadLibSvmFile(path), kWant);
  EXPECT_DEATH(RowShardReader(path, RowStreamFormat::kLibSvm, {}), kWant);
  std::remove(path.c_str());
}

TEST(NonFiniteIoDeathTest, CsvNanCellAborts) {
  const std::string path = TempPath("nan.csv");
  {
    std::ofstream out(path);
    out << "0,1.0,2.0\n1,NaN,1.0\n";
  }
  const char kWant[] = "nan.csv:2: malformed cell 'NaN'";
  EXPECT_DEATH(ReadDenseCsvFile(path), kWant);
  EXPECT_DEATH(RowShardReader(path, RowStreamFormat::kCsv, {}), kWant);
  std::remove(path.c_str());
}

TEST(NonFiniteIoDeathTest, CsvInfCellAborts) {
  const std::string path = TempPath("inf.csv");
  {
    std::ofstream out(path);
    out << "0,1.0,infinity\n";
  }
  const char kWant[] = "inf.csv:1: malformed cell 'infinity'";
  EXPECT_DEATH(ReadDenseCsvFile(path), kWant);
  EXPECT_DEATH(RowShardReader(path, RowStreamFormat::kCsv, {}), kWant);
  std::remove(path.c_str());
}

// SRDB features are raw doubles with no grammar, so both binary readers
// check them: the one-shot read names the first non-finite cell, and the
// shard stream names it by its row in the file, not in the shard.
std::string WriteBinaryWithNonFinite(const std::string& name, int row,
                                     int col, double value) {
  const std::string path = TempPath(name);
  DenseDataset dataset;
  dataset.num_classes = 2;
  dataset.features = Matrix(5, 3);
  for (int i = 0; i < 5; ++i) {
    dataset.labels.push_back(i % 2);
    for (int j = 0; j < 3; ++j) dataset.features(i, j) = i - j;
  }
  dataset.features(row, col) = value;
  WriteDenseBinaryFile(dataset, path);
  return path;
}

void DrainInShardsOfTwo(const std::string& path) {
  RowShardReaderOptions options;
  options.shard_rows = 2;
  RowShardReader reader(path, RowStreamFormat::kBinary, options);
  ForEachShard(&reader, [](const RowShard&) {});
}

TEST(NonFiniteIoDeathTest, BinaryNanFeatureAbortsOneShotRead) {
  const std::string path = WriteBinaryWithNonFinite(
      "nan-read.bin", 3, 1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_DEATH(ReadDenseBinaryFile(path),
               "nan-read.bin: row 3, column 1: non-finite value");
  std::remove(path.c_str());
}

TEST(NonFiniteIoDeathTest, BinaryInfFeatureAbortsOneShotRead) {
  const std::string path = WriteBinaryWithNonFinite(
      "inf-read.bin", 0, 2, -std::numeric_limits<double>::infinity());
  EXPECT_DEATH(ReadDenseBinaryFile(path),
               "inf-read.bin: row 0, column 2: non-finite value");
  std::remove(path.c_str());
}

TEST(NonFiniteIoDeathTest, BinaryNanFeatureAbortsShardStream) {
  const std::string path = WriteBinaryWithNonFinite(
      "nan-shards.bin", 3, 1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_DEATH(DrainInShardsOfTwo(path),
               "nan-shards.bin: row 3, column 1: non-finite value");
  std::remove(path.c_str());
}

TEST(NonFiniteIoDeathTest, BinaryInfFeatureAbortsShardStream) {
  const std::string path = WriteBinaryWithNonFinite(
      "inf-shards.bin", 4, 0, std::numeric_limits<double>::infinity());
  EXPECT_DEATH(DrainInShardsOfTwo(path),
               "inf-shards.bin: row 4, column 0: non-finite value");
  std::remove(path.c_str());
}

// Property sweep: random sparse datasets survive the LibSVM round trip
// bit-for-bit (values are written with 17 significant digits).
class LibSvmRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(LibSvmRoundTripTest, RandomDatasetsExact) {
  Rng rng(800 + GetParam());
  const int rows = 3 + GetParam() * 2;
  const int cols = 5 + GetParam() * 3;
  const int classes = 2 + GetParam() % 3;
  SparseDataset original;
  original.num_classes = classes;
  SparseMatrixBuilder builder(rows, cols);
  for (int i = 0; i < rows; ++i) {
    original.labels.push_back(i % classes);
    for (int j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.3) builder.Add(i, j, rng.NextGaussian());
    }
  }
  original.features = std::move(builder).Build();
  // Guarantee every class appears (labels cycle) — required by validation.
  const std::string path =
      TempPath("sweep-" + std::to_string(GetParam()) + ".libsvm");
  WriteLibSvmFile(original, path);
  const SparseDataset loaded = ReadLibSvmFile(path, cols);
  EXPECT_EQ(loaded.labels, original.labels);
  EXPECT_EQ(loaded.features.NumNonZeros(), original.features.NumNonZeros());
  EXPECT_EQ(
      MaxAbsDiff(loaded.features.ToDense(), original.features.ToDense()),
      0.0);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Shapes, LibSvmRoundTripTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace srda
