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

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
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

// --- ShardedOperator vs. the in-RAM kernels, both block products. ---

TEST(ShardedOperatorTest, DenseProductsMatchAtEveryShardSize) {
  const Matrix x = RandomMatrix(37, 9, 1);
  const Matrix vm = RandomMatrix(9, 4, 4);
  const Matrix um = RandomMatrix(37, 4, 5);
  const Matrix reference = Multiply(x, vm);
  const Matrix reference_t = MultiplyTransposedA(x, um);
  for (int shard_rows : AdversarialShardSizes(37)) {
    DenseMatrixShardSource source(&x, shard_rows);
    ShardedOperator sharded(&source);
    EXPECT_EQ(37, sharded.rows());
    EXPECT_EQ(9, sharded.cols());
    ExpectBitwiseEqual(reference, sharded.ApplyMulti(vm));
    ExpectBitwiseEqual(reference_t, sharded.ApplyTransposedMulti(um));
  }
}

// A source whose one shard covers every row hands out the caller's matrix
// itself; smaller shards are private copies, valid until the next fetch.
TEST(ShardedOperatorTest, WholeMatrixSourcesHandOutTheCallersMatrix) {
  const Matrix x = RandomMatrix(12, 4, 2);
  const SparseMatrix s = RandomSparse(12, 4, 3);
  for (int shard_rows : {12, 13, 1000}) {
    DenseMatrixShardSource dense(&x, shard_rows);
    SparseMatrixShardSource sparse(&s, shard_rows);
    RowShard shard;
    ASSERT_TRUE(dense.Next(&shard));
    EXPECT_EQ(&x, shard.dense);
    EXPECT_FALSE(dense.Next(&shard));
    ASSERT_TRUE(sparse.Next(&shard));
    EXPECT_EQ(&s, shard.sparse);
    EXPECT_FALSE(sparse.Next(&shard));
  }
  for (int shard_rows : {1, 5, 11}) {
    DenseMatrixShardSource dense(&x, shard_rows);
    SparseMatrixShardSource sparse(&s, shard_rows);
    RowShard shard;
    while (dense.Next(&shard)) {
      EXPECT_NE(&x, shard.dense);
      EXPECT_EQ(shard.dense->RowPtr(0)[0], x(shard.first_row, 0));
    }
    while (sparse.Next(&shard)) EXPECT_NE(&s, shard.sparse);
  }
}

TEST(ShardedOperatorTest, SparseProductsMatchAcrossChunkGrid) {
  // 1,700 rows span four 512-row transpose chunks, the last one short.
  // 300-row shards cut chunks and carry them; 1,100-row shards also hold
  // whole chunks, which reduce on the pool; m-row shards hold every chunk.
  const SparseMatrix x = RandomSparse(1700, 23, 6);
  const SparseOperator reference(&x);
  const Matrix vm = RandomMatrix(23, 3, 9);
  const Matrix um = RandomMatrix(1700, 3, 10);
  const int saved = GlobalThreadCount();
  SetGlobalThreadCount(1);
  const Matrix forward = reference.ApplyMulti(vm);
  const Matrix transposed = reference.ApplyTransposedMulti(um);
  std::vector<int> shard_sizes = AdversarialShardSizes(1700);
  shard_sizes.push_back(1100);
  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    ExpectBitwiseEqual(transposed, reference.ApplyTransposedMulti(um));
    for (int shard_rows : shard_sizes) {
      SCOPED_TRACE(testing::Message() << threads << " threads, "
                                      << shard_rows << "-row shards");
      SparseMatrixShardSource source(&x, shard_rows);
      ShardedOperator sharded(&source);
      ExpectBitwiseEqual(forward, sharded.ApplyMulti(vm));
      ExpectBitwiseEqual(transposed, sharded.ApplyTransposedMulti(um));
    }
  }
  SetGlobalThreadCount(saved);
}

// A RowShardSource that replays a fixed list of shards, faulty ones
// included, to check that every pass rejects a broken stream.
class ScriptedShardSource final : public RowShardSource {
 public:
  ScriptedShardSource(int rows, int cols, bool sparse,
                      std::vector<RowShard> shards)
      : rows_(rows), cols_(cols), sparse_(sparse), shards_(std::move(shards)) {}

  int rows() const override { return rows_; }
  int cols() const override { return cols_; }
  bool sparse() const override { return sparse_; }
  void Reset() override { next_ = 0; }
  bool Next(RowShard* shard) override {
    if (next_ == shards_.size()) return false;
    *shard = shards_[next_++];
    return true;
  }

 private:
  int rows_;
  int cols_;
  bool sparse_;
  std::vector<RowShard> shards_;
  size_t next_ = 0;
};

RowShard DenseShard(int first_row, const Matrix* rows) {
  RowShard shard;
  shard.first_row = first_row;
  shard.dense = rows;
  return shard;
}

RowShard SparseShard(int first_row, const SparseMatrix* rows) {
  RowShard shard;
  shard.first_row = first_row;
  shard.sparse = rows;
  return shard;
}

// Runs both products of a ShardedOperator over `source`; each must abort
// with `message` before it touches memory the stream does not cover.
void ExpectBothProductsDie(ScriptedShardSource* source,
                           const std::string& message) {
  ShardedOperator sharded(source);
  const Matrix v(source->cols(), 2, 1.0);
  const Matrix u(source->rows(), 2, 1.0);
  EXPECT_DEATH(sharded.ApplyMulti(v), message);
  EXPECT_DEATH(sharded.ApplyTransposedMulti(u), message);
}

TEST(ShardedOperatorDeathTest, GapInStreamAborts) {
  const Matrix four = RandomMatrix(4, 3, 40);
  ScriptedShardSource source(
      10, 3, false, {DenseShard(0, &four), DenseShard(5, &four)});
  ExpectBothProductsDie(&source, "out of order: shard at row 5, expected "
                                 "row 4");
}

TEST(ShardedOperatorDeathTest, OverlappingShardAborts) {
  const SparseMatrix four = RandomSparse(4, 3, 41);
  ScriptedShardSource source(
      10, 3, true, {SparseShard(0, &four), SparseShard(2, &four)});
  ExpectBothProductsDie(&source, "out of order: shard at row 2");
}

TEST(ShardedOperatorDeathTest, ShardPastRowsAborts) {
  const Matrix four = RandomMatrix(4, 3, 42);
  ScriptedShardSource dense(6, 3, false,
                            {DenseShard(0, &four), DenseShard(4, &four)});
  ExpectBothProductsDie(&dense, "shard at row 4 holds 4 rows, past the "
                                "source's 6");
  const SparseMatrix sparse_four = RandomSparse(4, 3, 43);
  ScriptedShardSource sparse(
      6, 3, true, {SparseShard(0, &sparse_four), SparseShard(4, &sparse_four)});
  ExpectBothProductsDie(&sparse, "shard at row 4 holds 4 rows");
}

TEST(ShardedOperatorDeathTest, WrongWidthAborts) {
  const Matrix three = RandomMatrix(3, 3, 44);
  const Matrix wide = RandomMatrix(3, 5, 45);
  ScriptedShardSource dense(6, 3, false,
                            {DenseShard(0, &three), DenseShard(3, &wide)});
  ExpectBothProductsDie(&dense, "shard at row 3 has width 5, the source 3");
  const SparseMatrix sparse_wide = RandomSparse(6, 5, 46);
  ScriptedShardSource sparse(6, 3, true, {SparseShard(0, &sparse_wide)});
  ExpectBothProductsDie(&sparse, "shard at row 0 has width 5");
}

TEST(ShardedOperatorDeathTest, WrongKindAborts) {
  const Matrix dense_rows = RandomMatrix(6, 3, 47);
  const SparseMatrix sparse_rows = RandomSparse(6, 3, 48);
  ScriptedShardSource sparse(6, 3, true, {DenseShard(0, &dense_rows)});
  ExpectBothProductsDie(&sparse,
                        "shard at row 0 is not the sparse kind its source");
  ScriptedShardSource dense(6, 3, false, {SparseShard(0, &sparse_rows)});
  ExpectBothProductsDie(&dense,
                        "shard at row 0 is not the dense kind its source");
  RowShard both = DenseShard(0, &dense_rows);
  both.sparse = &sparse_rows;
  ScriptedShardSource ambiguous(6, 3, false, {both});
  ExpectBothProductsDie(&ambiguous, "is not the dense kind");
}

TEST(ShardedOperatorDeathTest, StreamEndingEarlyAborts) {
  const Matrix four = RandomMatrix(4, 3, 49);
  ScriptedShardSource source(6, 3, false, {DenseShard(0, &four)});
  ExpectBothProductsDie(&source, "ended early at row 4 of 6");
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

// A DenseMatrixShardSource that counts its passes (rewinds).
class CountingShardSource final : public RowShardSource {
 public:
  CountingShardSource(const Matrix* matrix, int shard_rows)
      : inner_(matrix, shard_rows) {}

  int rows() const override { return inner_.rows(); }
  int cols() const override { return inner_.cols(); }
  bool sparse() const override { return false; }
  void Reset() override {
    ++passes_;
    inner_.Reset();
  }
  bool Next(RowShard* shard) override { return inner_.Next(shard); }

  int passes() const { return passes_; }

 private:
  DenseMatrixShardSource inner_;
  int passes_ = 0;
};

// The cached X̄ᵀY is keyed on the responses' bytes: an alpha sweep over Y,
// Y changed in place (same object, same alpha, so only the sides rebuild),
// and Y restored must each give bitwise what a fresh solver gives, in RAM
// (shard_rows 0 below) and over every shard size, at 1 and 4 threads. A
// streamed solver reads its rows once for the mean, once for the Gram with
// the first Y's sides, and once more only when Y's bytes change.
TEST(ShardedRidgeTest, RhsCacheFollowsTheResponsesBytes) {
  const Matrix x = RandomMatrix(31, 6, 30);
  const Matrix original = RandomMatrix(31, 3, 31);
  const int saved = GlobalThreadCount();
  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    for (int shard_rows : {0, 1, 5, 31}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", shard_rows " +
                   std::to_string(shard_rows));
      std::unique_ptr<CountingShardSource> source;
      std::unique_ptr<RidgeSolver> solver;
      if (shard_rows == 0) {
        solver = std::make_unique<RidgeSolver>(&x);
      } else {
        source = std::make_unique<CountingShardSource>(&x, shard_rows);
        solver = std::make_unique<RidgeSolver>(source.get());
      }
      Matrix y = original;
      const auto expect_fresh = [&](double alpha) {
        const RidgeSolution solution = solver->Solve(y, alpha);
        RidgeSolver fresh(&x);
        const RidgeSolution reference = fresh.Solve(y, alpha);
        ASSERT_TRUE(solution.ok);
        ASSERT_TRUE(reference.ok);
        ExpectBitwiseEqual(reference.coefficients, solution.coefficients);
        ExpectBitwiseEqual(reference.bias, solution.bias);
      };
      const auto expect_passes = [&](int passes) {
        if (source != nullptr) {
          EXPECT_EQ(passes, source->passes());
        }
      };
      for (double alpha : {0.1, 10.0, 1.0}) expect_fresh(alpha);
      expect_passes(2);
      y(7, 1) += 0.5;
      for (double alpha : {1.0, 0.3}) expect_fresh(alpha);
      expect_passes(3);
      y(7, 1) = original(7, 1);
      for (double alpha : {0.3, 0.1}) expect_fresh(alpha);
      expect_passes(4);
    }
  }
  SetGlobalThreadCount(saved);
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

// --- RowShardReader spill: text is parsed once, passes read the spill. ---

// Points TMPDIR at a fresh, empty directory for the scope (unique per
// process, since ctest runs tests concurrently), then restores TMPDIR and
// removes the directory.
class ScopedSpillDir {
 public:
  explicit ScopedSpillDir(const std::string& name)
      : dir_(std::filesystem::path(
                 TempPath(name + "." + std::to_string(::getpid())))
                 .lexically_normal()
                 .string()) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directory(dir_);
    const char* old = std::getenv("TMPDIR");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv("TMPDIR", dir_.c_str(), 1);
  }
  ~ScopedSpillDir() {
    if (had_old_) {
      ::setenv("TMPDIR", old_.c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
    std::filesystem::remove_all(dir_);
  }
  ScopedSpillDir(const ScopedSpillDir&) = delete;
  ScopedSpillDir& operator=(const ScopedSpillDir&) = delete;

  const std::string& dir() const { return dir_; }
  bool empty() const { return std::filesystem::is_empty(dir_); }

 private:
  std::string dir_;
  std::string old_;
  bool had_old_ = false;
};

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                           0);
}

// A LibSVM file exercising the grammar's corners: comment and blank lines,
// CRLF endings, explicit zeros, duplicate indices (up to three, so the sum
// order matters), unsorted indices, label-only rows. Indices stay in
// [1, 12]; `value_shift` changes every value but not the shape.
void WriteAwkwardLibSvm(const std::string& path, int rows,
                        double value_shift) {
  std::ofstream out(path, std::ios::binary);
  Rng rng(61);
  out << "# awkward libsvm\n";
  for (int i = 0; i < rows; ++i) {
    const char* eol = i % 3 == 0 ? "\r\n" : "\n";
    if (i % 9 == 4) out << "# comment" << eol;
    if (i % 13 == 6) out << "\n";
    out << (i % 3 == 0 ? 2 : i % 3 == 1 ? 5 : 9);
    if (i % 17 != 8) {
      const int entries = rng.NextInt(1, 6);
      for (int e = 0; e < entries; ++e) {
        const int column = rng.NextInt(1, 12);
        const double value = rng.NextGaussian() + value_shift;
        const int copies = e == 0 && i % 4 == 1 ? 3 : e == 1 ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          char field[64];
          std::snprintf(field, sizeof(field), " %d:%.17g", column,
                        value / (c + 3));
          out << field;
        }
      }
      if (i % 5 == 2) out << " " << rng.NextInt(1, 12) << ":0";
    }
    out << eol;
  }
}

// The CSV counterpart: five feature cells, explicit zeros, CRLF, comments
// and blank lines.
void WriteAwkwardCsv(const std::string& path, int rows, double value_shift) {
  std::ofstream out(path, std::ios::binary);
  Rng rng(62);
  out << "# awkward csv\n";
  for (int i = 0; i < rows; ++i) {
    const char* eol = i % 3 == 0 ? "\r\n" : "\n";
    if (i % 9 == 4) out << "# comment" << eol;
    if (i % 13 == 6) out << "\n";
    out << i % 4;
    for (int j = 0; j < 5; ++j) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), ",%.17g",
                    (i + j) % 7 == 0 ? 0.0 : rng.NextGaussian() + value_shift);
      out << cell;
    }
    out << eol;
  }
}

// Drains `passes` passes (the constructor's Reset opens the first) and
// checks every shard bitwise against the matching RowSlice of `full`, the
// one-shot reader's matrix.
void ExpectSparsePassesMatch(RowShardReader* reader, const SparseMatrix& full,
                             int shard_rows, int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    if (pass > 0) reader->Reset();
    RowShard shard;
    int next_row = 0;
    while (reader->Next(&shard)) {
      ASSERT_NE(shard.sparse, nullptr);
      ASSERT_EQ(shard.first_row, next_row);
      const int rows = std::min(shard_rows, full.rows() - next_row);
      const SparseMatrix expected = full.RowSlice(next_row, next_row + rows);
      ASSERT_EQ(shard.sparse->rows(), rows);
      ASSERT_EQ(shard.sparse->cols(), full.cols());
      ASSERT_TRUE(SameBytes(shard.sparse->row_offsets(),
                            expected.row_offsets()));
      ASSERT_TRUE(SameBytes(shard.sparse->col_indices(),
                            expected.col_indices()));
      ASSERT_TRUE(SameBytes(shard.sparse->values(), expected.values()))
          << "pass " << pass << ", shard at row " << next_row;
      next_row += rows;
    }
    ASSERT_EQ(next_row, full.rows());
  }
}

// The dense counterpart: each shard's rows bitwise equal `full`'s.
void ExpectDensePassesMatch(RowShardReader* reader, const Matrix& full,
                            int shard_rows, int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    if (pass > 0) reader->Reset();
    RowShard shard;
    int next_row = 0;
    while (reader->Next(&shard)) {
      ASSERT_NE(shard.dense, nullptr);
      ASSERT_EQ(shard.first_row, next_row);
      const int rows = std::min(shard_rows, full.rows() - next_row);
      ASSERT_EQ(shard.dense->rows(), rows);
      ASSERT_EQ(shard.dense->cols(), full.cols());
      ASSERT_EQ(std::memcmp(shard.dense->RowPtr(0), full.RowPtr(next_row),
                            sizeof(double) * rows * full.cols()),
                0)
          << "pass " << pass << ", shard at row " << next_row;
      next_row += rows;
    }
    ASSERT_EQ(next_row, full.rows());
  }
}

TEST(RowShardReaderTest, SpillShardsMatchOneShotReaderOnEveryPass) {
  const int m = 70;
  const ScopedSpillDir spill("spill-property");
  const std::string libsvm = TempPath("awkward.libsvm");
  const std::string csv = TempPath("awkward.csv");
  WriteAwkwardLibSvm(libsvm, m, 0.0);
  WriteAwkwardCsv(csv, m, 0.0);
  const DenseDataset dense = ReadDenseCsvFile(csv);
  for (int shard_rows : {1, 7, 64, m, m + 1}) {
    SCOPED_TRACE("shard_rows " + std::to_string(shard_rows));
    for (int num_features : {0, 15}) {
      const SparseDataset sparse = ReadLibSvmFile(libsvm, num_features);
      ASSERT_EQ(sparse.features.rows(), m);
      RowShardReaderOptions options;
      options.shard_rows = shard_rows;
      options.num_features = num_features;
      RowShardReader reader(libsvm, RowStreamFormat::kLibSvm, options);
      EXPECT_EQ(reader.cols(), sparse.features.cols());
      EXPECT_EQ(reader.labels(), sparse.labels);
      EXPECT_EQ(reader.raw_labels(), sparse.raw_labels);
      ExpectSparsePassesMatch(&reader, sparse.features, shard_rows, 3);
    }
    RowShardReaderOptions options;
    options.shard_rows = shard_rows;
    RowShardReader reader(csv, RowStreamFormat::kCsv, options);
    EXPECT_EQ(reader.labels(), dense.labels);
    ExpectDensePassesMatch(&reader, dense.features, shard_rows, 3);
  }
  EXPECT_TRUE(spill.empty());
  std::remove(libsvm.c_str());
  std::remove(csv.c_str());
}

TEST(RowShardReaderTest, PassesReadTheScannedRowsAfterTheFileChanges) {
  // Every pass must serve the rows the constructor validated: rewriting
  // the text file afterwards (same shape, different values) changes
  // nothing a later LSQR iteration sees.
  const int m = 30;
  const ScopedSpillDir spill("spill-rewrite");
  const std::string libsvm = TempPath("rewritten.libsvm");
  const std::string csv = TempPath("rewritten.csv");
  WriteAwkwardLibSvm(libsvm, m, 0.0);
  WriteAwkwardCsv(csv, m, 0.0);
  const SparseDataset sparse = ReadLibSvmFile(libsvm, 12);
  const DenseDataset dense = ReadDenseCsvFile(csv);
  RowShardReaderOptions options;
  options.shard_rows = 7;
  options.num_features = 12;
  RowShardReader sparse_reader(libsvm, RowStreamFormat::kLibSvm, options);
  RowShardReader dense_reader(csv, RowStreamFormat::kCsv, options);
  WriteAwkwardLibSvm(libsvm, m, 100.0);
  WriteAwkwardCsv(csv, m, 100.0);
  ASSERT_NE(ReadDenseCsvFile(csv).features(1, 1), dense.features(1, 1));
  ExpectSparsePassesMatch(&sparse_reader, sparse.features, 7, 2);
  ExpectDensePassesMatch(&dense_reader, dense.features, 7, 2);
  std::remove(libsvm.c_str());
  std::remove(csv.c_str());
}

TEST(RowShardReaderTest, SpillLeavesNoFileBehind) {
  const ScopedSpillDir spill("spill-cleanup");
  const std::string path = TempPath("cleanup.libsvm");
  WriteAwkwardLibSvm(path, 20, 0.0);
  {
    RowShardReaderOptions options;
    options.shard_rows = 3;
    RowShardReader reader(path, RowStreamFormat::kLibSvm, options);
    RowShard shard;
    while (reader.Next(&shard)) {
    }
    // Unlinked at creation: the directory is empty while the reader lives,
    // yet (where /proc shows it) the open spill sits in TMPDIR.
    EXPECT_TRUE(spill.empty());
    if (std::filesystem::exists("/proc/self/fd")) {
      bool spill_open = false;
      for (const auto& fd :
           std::filesystem::directory_iterator("/proc/self/fd")) {
        std::error_code error;
        const std::string target =
            std::filesystem::read_symlink(fd.path(), error).string();
        spill_open |= target.rfind(spill.dir() + "/srda-spill-", 0) == 0;
      }
      EXPECT_TRUE(spill_open);
    }
  }
  EXPECT_TRUE(spill.empty());
  std::remove(path.c_str());
}

TEST(RowShardReaderDeathTest, MissingSpillDirectoryAborts) {
  const std::string path = TempPath("nospill.csv");
  WriteAwkwardCsv(path, 5, 0.0);
  const std::string missing = TempPath("no-such-spill-dir");
  std::filesystem::remove_all(missing);
  EXPECT_DEATH(
      {
        ::setenv("TMPDIR", missing.c_str(), 1);
        RowShardReader reader(path, RowStreamFormat::kCsv, {});
      },
      "no-such-spill-dir");
  std::remove(path.c_str());
}

TEST(RowShardReaderDeathTest, MalformedLineAbortsInConstructor) {
  const std::string libsvm = TempPath("malformed.libsvm");
  const std::string csv = TempPath("malformed.csv");
  {
    std::ofstream out(libsvm);
    out << "1 1:0.5\n# comment\n2 3:abc\n";
  }
  {
    std::ofstream out(csv);
    out << "0,1.0,2.0\n\n1,2.0,x\n";
  }
  EXPECT_DEATH(RowShardReader(libsvm, RowStreamFormat::kLibSvm, {}),
               "malformed.libsvm:3: malformed feature value in pair '3:abc'");
  EXPECT_DEATH(RowShardReader(csv, RowStreamFormat::kCsv, {}),
               "malformed.csv:3: malformed cell 'x'");
  std::remove(libsvm.c_str());
  std::remove(csv.c_str());
}

TEST(RowShardReaderDeathTest, TruncatedBinaryAbortsInConstructor) {
  // A 3 x 4 SRDB holding 16 of its 96 data bytes: the reader must refuse
  // it up front, not partway through a fit.
  const std::string path = TempPath("truncated.srdb");
  DenseDataset dataset;
  dataset.features = RandomMatrix(3, 4, 35);
  dataset.labels = {0, 1, 0};
  dataset.num_classes = 2;
  WriteDenseBinaryFile(dataset, path);
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 96 + 16);
  RowShardReaderOptions options;
  options.shard_rows = 2;
  EXPECT_DEATH(RowShardReader(path, RowStreamFormat::kBinary, options),
               "truncated.srdb: truncated binary dataset \\(16 data bytes, "
               "header needs 96\\)");
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
