// Tests for the out-of-core sharded training path: shard sources, the
// ShardedOperator, the RidgeSolver sharded binding, RowShardReader file
// streaming, and the IncrementalSrda bulk tail.
//
// The load-bearing property throughout is BITWISE equality with the in-RAM
// path — not tolerance agreement — at adversarial shard sizes (one row,
// m-1 rows, a size straddling the 512-row sparse transpose chunk grid) and
// across thread counts. The one deliberate exception is AddShard, whose
// blocked rank-k Cholesky update reassociates rotations and is specified
// to match AddSample only to solver tolerance.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/incremental_srda.h"
#include "core/srda.h"
#include "io/dataset_io.h"
#include "io/row_shard_reader.h"
#include "linalg/linear_operator.h"
#include "linalg/sharded_operator.h"
#include "matrix/blas.h"
#include "solver/ridge_solver.h"
#include "sparse/sparse_matrix.h"

namespace srda {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng.NextGaussian();
  }
  return m;
}

// ~25% fill with a few empty rows, so chunk folds see zero entries too.
SparseMatrix RandomSparse(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  SparseMatrixBuilder builder(rows, cols);
  for (int i = 0; i < rows; ++i) {
    if (i % 11 == 3) continue;  // empty row
    for (int j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.25) builder.Add(i, j, rng.NextGaussian());
    }
  }
  return std::move(builder).Build();
}

std::vector<int> RandomLabels(int rows, int num_classes, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> labels(static_cast<size_t>(rows));
  // First rows cover every class so centroid fits never see an empty one.
  for (int i = 0; i < rows; ++i) {
    labels[static_cast<size_t>(i)] =
        i < num_classes ? i : rng.NextInt(0, num_classes - 1);
  }
  return labels;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

void ExpectBitwiseEqual(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "at " << i;
}

// Shard sizes exercising the adversarial corners for `rows` total rows:
// single-row shards, one short of everything, everything, and (for tall
// matrices) a size that straddles the 512-row sparse chunk grid.
std::vector<int> AdversarialShardSizes(int rows) {
  std::vector<int> sizes = {1, rows - 1, rows};
  if (rows > 512) sizes.push_back(300);  // shards cross the 512 grid line
  return sizes;
}

// --- ShardedOperator vs. the in-RAM operators, both block products. ---

TEST(ShardedOperatorTest, DenseProductsMatchAtEveryShardSize) {
  const Matrix x = RandomMatrix(37, 9, 1);
  const DenseOperator reference(&x);
  const Matrix vm = RandomMatrix(9, 4, 4);
  const Matrix um = RandomMatrix(37, 4, 5);
  for (int shard_rows : AdversarialShardSizes(37)) {
    DenseMatrixShardSource source(&x, shard_rows);
    ShardedOperator sharded(&source);
    ExpectBitwiseEqual(reference.ApplyMulti(vm), sharded.ApplyMulti(vm));
    ExpectBitwiseEqual(reference.ApplyTransposedMulti(um),
                       sharded.ApplyTransposedMulti(um));
  }
}

TEST(ShardedOperatorTest, SparseProductsMatchAcrossChunkGrid) {
  // 700 rows puts shard boundaries both inside and across the 512-row
  // transpose chunk grid, the hardest case for the carry-partial fold.
  const SparseMatrix x = RandomSparse(700, 23, 6);
  const SparseOperator reference(&x);
  const Matrix vm = RandomMatrix(23, 3, 9);
  const Matrix um = RandomMatrix(700, 3, 10);
  for (int shard_rows : AdversarialShardSizes(700)) {
    SparseMatrixShardSource source(&x, shard_rows);
    ShardedOperator sharded(&source);
    ExpectBitwiseEqual(reference.ApplyMulti(vm), sharded.ApplyMulti(vm));
    ExpectBitwiseEqual(reference.ApplyTransposedMulti(um),
                       sharded.ApplyTransposedMulti(um));
  }
}

// --- RidgeSolver sharded binding vs. the dense binding. ---

TEST(ShardedRidgeTest, NormalEquationsMatchDenseBitwise) {
  const Matrix x = RandomMatrix(41, 7, 11);
  const Matrix responses = RandomMatrix(41, 3, 12);
  RidgeSolver dense(&x, GramSide::kPrimal);
  const RidgeSolution reference = dense.Solve(responses, 0.5);
  ASSERT_TRUE(reference.ok);
  for (int shard_rows : AdversarialShardSizes(41)) {
    DenseMatrixShardSource source(&x, shard_rows);
    RidgeSolver sharded(&source);
    const RidgeSolution solution = sharded.Solve(responses, 0.5);
    ASSERT_TRUE(solution.ok);
    ExpectBitwiseEqual(reference.coefficients, solution.coefficients);
    ExpectBitwiseEqual(reference.bias, solution.bias);
  }
}

TEST(ShardedRidgeTest, MeanMatchesDenseBitwise) {
  const Matrix x = RandomMatrix(29, 5, 13);
  RidgeSolver dense(&x);
  for (int shard_rows : AdversarialShardSizes(29)) {
    DenseMatrixShardSource source(&x, shard_rows);
    RidgeSolver sharded(&source);
    ExpectBitwiseEqual(dense.mean(), sharded.mean());
  }
}

TEST(ShardedRidgeTest, AlphaSweepReusesStreamedGram) {
  const Matrix x = RandomMatrix(23, 6, 14);
  const Matrix responses = RandomMatrix(23, 2, 15);
  RidgeSolver dense(&x, GramSide::kPrimal);
  DenseMatrixShardSource source(&x, 5);
  RidgeSolver sharded(&source);
  for (double alpha : {0.01, 0.1, 1.0, 10.0}) {
    const RidgeSolution reference = dense.Solve(responses, alpha);
    const RidgeSolution solution = sharded.Solve(responses, alpha);
    ASSERT_TRUE(reference.ok);
    ASSERT_TRUE(solution.ok);
    ExpectBitwiseEqual(reference.coefficients, solution.coefficients);
    ExpectBitwiseEqual(reference.bias, solution.bias);
  }
}

TEST(ShardedRidgeTest, LsqrMatchesDenseBitwise) {
  const Matrix x = RandomMatrix(41, 7, 16);
  const Matrix responses = RandomMatrix(41, 3, 17);
  RidgeSolver dense(&x);
  RidgeSolveOptions options;
  options.method = RidgeMethod::kLsqr;
  const RidgeSolution reference = dense.Solve(responses, 0.5, options);
  ASSERT_TRUE(reference.ok);
  for (int shard_rows : AdversarialShardSizes(41)) {
    DenseMatrixShardSource source(&x, shard_rows);
    RidgeSolver sharded(&source);
    const RidgeSolution solution = sharded.Solve(responses, 0.5, options);
    ASSERT_TRUE(solution.ok);
    ExpectBitwiseEqual(reference.coefficients, solution.coefficients);
    ExpectBitwiseEqual(reference.bias, solution.bias);
  }
}

TEST(ShardedRidgeTest, SparseLsqrMatchesOperatorBitwise) {
  const SparseMatrix x = RandomSparse(700, 19, 18);
  const Matrix responses = RandomMatrix(700, 2, 19);
  const SparseOperator reference_op(&x);
  RidgeSolver reference_solver(&reference_op);
  const RidgeSolution reference = reference_solver.Solve(responses, 1.0);
  ASSERT_TRUE(reference.ok);
  for (int shard_rows : AdversarialShardSizes(700)) {
    SparseMatrixShardSource source(&x, shard_rows);
    RidgeSolver sharded(&source);
    // kAuto on a sparse shard stream must route to LSQR by itself.
    const RidgeSolution solution = sharded.Solve(responses, 1.0);
    ASSERT_TRUE(solution.ok);
    ExpectBitwiseEqual(reference.coefficients, solution.coefficients);
    ExpectBitwiseEqual(reference.bias, solution.bias);
  }
}

TEST(ShardedRidgeTest, ResultsIndependentOfThreadCount) {
  const Matrix x = RandomMatrix(67, 8, 20);
  const Matrix responses = RandomMatrix(67, 3, 21);
  const int saved = GlobalThreadCount();
  Matrix coefficients[2];
  for (int pass = 0; pass < 2; ++pass) {
    SetGlobalThreadCount(pass == 0 ? 1 : 4);
    DenseMatrixShardSource source(&x, 13);
    RidgeSolver sharded(&source);
    const RidgeSolution solution = sharded.Solve(responses, 0.25);
    ASSERT_TRUE(solution.ok);
    coefficients[pass] = solution.coefficients;
  }
  SetGlobalThreadCount(saved);
  ExpectBitwiseEqual(coefficients[0], coefficients[1]);
}

// --- Whole-model agreement through FitSrda. ---

TEST(ShardedRidgeTest, FitSrdaMatchesInRamModel) {
  const Matrix x = RandomMatrix(53, 6, 22);
  const std::vector<int> labels = RandomLabels(53, 3, 23);
  SrdaOptions options;
  options.alpha = 0.7;
  const SrdaModel reference = FitSrda(x, labels, 3, options);
  ASSERT_TRUE(reference.converged);
  for (int shard_rows : AdversarialShardSizes(53)) {
    DenseMatrixShardSource source(&x, shard_rows);
    RidgeSolver sharded(&source);
    const SrdaModel model = FitSrda(&sharded, labels, 3, options);
    ASSERT_TRUE(model.converged);
    ExpectBitwiseEqual(reference.embedding.projection(),
                       model.embedding.projection());
    ExpectBitwiseEqual(reference.embedding.bias(), model.embedding.bias());
  }
}

// --- RowShardReader: file streams reassemble the one-shot readers. ---

TEST(RowShardReaderTest, LibSvmShardsReassembleOneShotReader) {
  const std::string path = TempPath("shards.libsvm");
  {
    std::ofstream out(path);
    Rng rng(24);
    for (int i = 0; i < 9; ++i) {
      out << (i % 2 == 0 ? 7 : 3);  // raw labels sort to {3, 7}
      for (int j = 0; j < 5; ++j) {
        if (rng.NextDouble() < 0.5) {
          out << " " << j + 1 << ":" << rng.NextInt(-4, 4);
        }
      }
      out << "\n";
    }
  }
  const SparseDataset oneshot = ReadLibSvmFile(path, 5);
  RowShardReaderOptions options;
  options.shard_rows = 4;
  options.num_features = 5;
  RowShardReader reader(path, RowStreamFormat::kLibSvm, options);
  EXPECT_EQ(reader.rows(), 9);
  EXPECT_EQ(reader.cols(), 5);
  EXPECT_EQ(reader.num_classes(), oneshot.num_classes);
  EXPECT_EQ(reader.labels(), oneshot.labels);
  EXPECT_EQ(reader.raw_labels(), oneshot.raw_labels);
  Matrix assembled(9, 5);
  RowShard shard;
  while (reader.Next(&shard)) {
    ASSERT_NE(shard.sparse, nullptr);
    const Matrix block = shard.sparse->ToDense();
    for (int i = 0; i < block.rows(); ++i) {
      for (int j = 0; j < 5; ++j) {
        assembled(shard.first_row + i, j) = block(i, j);
      }
    }
  }
  ExpectBitwiseEqual(oneshot.features.ToDense(), assembled);
  EXPECT_GT(reader.bytes_streamed(), 0);
  EXPECT_GT(reader.peak_shard_bytes(), 0);
  std::remove(path.c_str());
}

TEST(RowShardReaderTest, CsvShardsReassembleOneShotReader) {
  const std::string path = TempPath("shards.csv");
  DenseDataset dataset;
  dataset.features = RandomMatrix(11, 4, 25);
  dataset.labels = RandomLabels(11, 3, 26);
  dataset.num_classes = 3;
  WriteDenseCsvFile(dataset, path);
  const DenseDataset oneshot = ReadDenseCsvFile(path);
  RowShardReaderOptions options;
  options.shard_rows = 3;
  RowShardReader reader(path, RowStreamFormat::kCsv, options);
  EXPECT_EQ(reader.labels(), oneshot.labels);
  EXPECT_EQ(reader.raw_labels(), oneshot.raw_labels);
  Matrix assembled(11, 4);
  RowShard shard;
  while (reader.Next(&shard)) {
    ASSERT_NE(shard.dense, nullptr);
    for (int i = 0; i < shard.dense->rows(); ++i) {
      for (int j = 0; j < 4; ++j) {
        assembled(shard.first_row + i, j) = (*shard.dense)(i, j);
      }
    }
  }
  ExpectBitwiseEqual(oneshot.features, assembled);
  std::remove(path.c_str());
}

TEST(RowShardReaderTest, BinaryShardsReassembleOneShotReader) {
  const std::string path = TempPath("shards.srdb");
  DenseDataset dataset;
  dataset.features = RandomMatrix(10, 6, 27);
  dataset.labels = RandomLabels(10, 2, 28);
  dataset.num_classes = 2;
  dataset.raw_labels = {4, 9};
  WriteDenseBinaryFile(dataset, path);
  const DenseDataset oneshot = ReadDenseBinaryFile(path);
  RowShardReaderOptions options;
  options.shard_rows = 4;
  RowShardReader reader(path, RowStreamFormat::kBinary, options);
  EXPECT_EQ(reader.labels(), oneshot.labels);
  EXPECT_EQ(reader.raw_labels(), oneshot.raw_labels);
  Matrix assembled(10, 6);
  RowShard shard;
  while (reader.Next(&shard)) {
    ASSERT_NE(shard.dense, nullptr);
    for (int i = 0; i < shard.dense->rows(); ++i) {
      for (int j = 0; j < 6; ++j) {
        assembled(shard.first_row + i, j) = (*shard.dense)(i, j);
      }
    }
  }
  ExpectBitwiseEqual(oneshot.features, assembled);
  std::remove(path.c_str());
}

TEST(RowShardReaderTest, MmapShardsBitwiseEqualReadShards) {
  // The binary reader serves shards straight out of an mmap by default;
  // they must be bitwise identical to the seekg+read fallback, at shard
  // sizes that do and do not divide the row count.
  const std::string path = TempPath("mmap.srdb");
  DenseDataset dataset;
  dataset.features = RandomMatrix(23, 5, 33);
  dataset.labels = RandomLabels(23, 2, 34);
  dataset.num_classes = 2;
  WriteDenseBinaryFile(dataset, path);
  for (int shard_rows : {1, 7, 23}) {
    RowShardReaderOptions mapped_options;
    mapped_options.shard_rows = shard_rows;
    RowShardReader mapped(path, RowStreamFormat::kBinary, mapped_options);
    EXPECT_TRUE(mapped.mmap_active());
    RowShardReaderOptions read_options;
    read_options.shard_rows = shard_rows;
    read_options.use_mmap = false;
    RowShardReader unmapped(path, RowStreamFormat::kBinary, read_options);
    EXPECT_FALSE(unmapped.mmap_active());
    RowShard mapped_shard;
    RowShard unmapped_shard;
    while (mapped.Next(&mapped_shard)) {
      ASSERT_TRUE(unmapped.Next(&unmapped_shard));
      ASSERT_EQ(mapped_shard.first_row, unmapped_shard.first_row);
      ASSERT_NE(mapped_shard.dense, nullptr);
      ASSERT_NE(unmapped_shard.dense, nullptr);
      ExpectBitwiseEqual(*mapped_shard.dense, *unmapped_shard.dense);
    }
    EXPECT_FALSE(unmapped.Next(&unmapped_shard));
    EXPECT_EQ(mapped.bytes_streamed(), unmapped.bytes_streamed());
  }
  std::remove(path.c_str());
}

TEST(RowShardReaderTest, FileStreamTrainsIdenticalToInRamFit) {
  const std::string path = TempPath("train.csv");
  DenseDataset dataset;
  dataset.features = RandomMatrix(31, 5, 29);
  dataset.labels = RandomLabels(31, 3, 30);
  dataset.num_classes = 3;
  WriteDenseCsvFile(dataset, path);
  const DenseDataset loaded = ReadDenseCsvFile(path);
  SrdaOptions options;
  const SrdaModel reference =
      FitSrda(loaded.features, loaded.labels, loaded.num_classes, options);
  ASSERT_TRUE(reference.converged);
  RowShardReaderOptions reader_options;
  reader_options.shard_rows = 7;
  RowShardReader reader(path, RowStreamFormat::kCsv, reader_options);
  RidgeSolver sharded(&reader);
  const SrdaModel model =
      FitSrda(&sharded, reader.labels(), reader.num_classes(), options);
  ASSERT_TRUE(model.converged);
  ExpectBitwiseEqual(reference.embedding.projection(),
                     model.embedding.projection());
  ExpectBitwiseEqual(reference.embedding.bias(), model.embedding.bias());
  std::remove(path.c_str());
}

// --- IncrementalSrda bulk tail: AddShard then AddSample. ---

TEST(IncrementalShardTest, AddShardMatchesAddSampleToTolerance) {
  const int n = 6;
  const int c = 3;
  const Matrix x = RandomMatrix(40, n, 31);
  const std::vector<int> labels = RandomLabels(40, c, 32);
  IncrementalSrda by_sample(n, c, 0.5);
  IncrementalSrda by_shard(n, c, 0.5);
  for (int i = 0; i < 30; ++i) {
    Vector row(n);
    for (int j = 0; j < n; ++j) row[j] = x(i, j);
    by_sample.AddSample(row, labels[static_cast<size_t>(i)]);
  }
  // Bulk-load the same 30 rows in two uneven shards.
  Matrix shard_a(13, n);
  Matrix shard_b(17, n);
  std::vector<int> labels_a(labels.begin(), labels.begin() + 13);
  std::vector<int> labels_b(labels.begin() + 13, labels.begin() + 30);
  for (int i = 0; i < 13; ++i) {
    for (int j = 0; j < n; ++j) shard_a(i, j) = x(i, j);
  }
  for (int i = 0; i < 17; ++i) {
    for (int j = 0; j < n; ++j) shard_b(i, j) = x(13 + i, j);
  }
  by_shard.AddShard(shard_a, labels_a);
  by_shard.AddShard(shard_b, labels_b);
  // Online tail: both streams keep accepting single samples afterwards.
  for (int i = 30; i < 40; ++i) {
    Vector row(n);
    for (int j = 0; j < n; ++j) row[j] = x(i, j);
    by_sample.AddSample(row, labels[static_cast<size_t>(i)]);
    by_shard.AddSample(row, labels[static_cast<size_t>(i)]);
  }
  ASSERT_TRUE(by_sample.ready());
  ASSERT_TRUE(by_shard.ready());
  EXPECT_EQ(by_sample.num_samples(), by_shard.num_samples());
  const LinearEmbedding a = by_sample.Solve();
  const LinearEmbedding b = by_shard.Solve();
  ASSERT_EQ(a.projection().rows(), b.projection().rows());
  ASSERT_EQ(a.projection().cols(), b.projection().cols());
  EXPECT_LE(MaxAbsDiff(a.projection(), b.projection()), 1e-8);
  for (int j = 0; j < a.bias().size(); ++j) {
    EXPECT_NEAR(a.bias()[j], b.bias()[j], 1e-8);
  }
}

TEST(IncrementalShardDeathTest, RejectsMismatchedLabels) {
  IncrementalSrda trainer(3, 2, 1.0);
  Matrix shard(2, 3);
  EXPECT_DEATH(trainer.AddShard(shard, {0}), "label count mismatch");
}

}  // namespace
}  // namespace srda
