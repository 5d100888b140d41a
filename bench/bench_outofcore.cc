// Out-of-core sharded training: streams the synthetic 20Newsgroups-style
// sparse workload from a LibSVM file in bounded-memory shards and proves
// the streamed SRDA fit is BITWISE identical to the in-RAM fit — at every
// shard size and thread count — while peak resident dataset memory stays
// bounded by the shard size, not the corpus.
//
// Three stages:
//   in-RAM reference  — ReadLibSvmFile + sparse FitSrda (LSQR), the
//                       existing everything-resident path.
//   sharded fits      — RowShardReader -> RidgeSolver shard binding; the
//                       reader parses the file once into a binary spill,
//                       then LSQR makes one streaming pass over the spill
//                       per operator product.
//                       Run at several shard sizes and at 1 vs. 4 threads,
//                       each compared bitwise against the reference.
//   incremental tail  — dense binary shards bulk-loaded into
//                       IncrementalSrda::AddShard, then an online AddSample
//                       tail; agrees with the all-AddSample stream to
//                       solver tolerance (the blocked rank-k update
//                       reassociates rotations, so this one is not bitwise).
//
// Pass --smoke for a seconds-long run without shape checks.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/incremental_srda.h"
#include "core/srda.h"
#include "dataset/spoken_letter_generator.h"
#include "dataset/text_generator.h"
#include "io/dataset_io.h"
#include "io/row_shard_reader.h"
#include "matrix/blas.h"
#include "solver/ridge_solver.h"

namespace srda {
namespace bench {
namespace {

struct ShardedRun {
  int shard_rows = 0;
  int num_threads = 0;
  double scan_seconds = 0.0;  // the reader's parse + spill write
  double seconds = 0.0;       // the fit, passes over the spill
  int64_t bytes_streamed = 0;
  int64_t peak_shard_bytes = 0;
  bool bitwise_identical = false;
};

// One sharded fit through the file; bitwise-compared to the reference.
ShardedRun RunSharded(const std::string& path, int num_features,
                      int shard_rows, int num_threads,
                      const SrdaOptions& options,
                      const SrdaModel& reference) {
  const int saved_threads = GlobalThreadCount();
  SetGlobalThreadCount(num_threads);
  RowShardReaderOptions reader_options;
  reader_options.shard_rows = shard_rows;
  reader_options.num_features = num_features;
  ShardedRun run;
  Stopwatch scan_watch;
  RowShardReader reader(path, RowStreamFormat::kLibSvm, reader_options);
  run.scan_seconds = scan_watch.ElapsedSeconds();
  RidgeSolver solver(&reader);
  Stopwatch watch;
  const SrdaModel model =
      FitSrda(&solver, reader.labels(), reader.num_classes(), options);
  run.seconds = watch.ElapsedSeconds();
  SetGlobalThreadCount(saved_threads);
  SRDA_CHECK(model.converged) << "sharded SRDA failed";
  run.shard_rows = shard_rows;
  run.num_threads = num_threads;
  run.bytes_streamed = reader.bytes_streamed();
  run.peak_shard_bytes = reader.peak_shard_bytes();
  run.bitwise_identical =
      MaxAbsDiff(model.embedding.projection(),
                 reference.embedding.projection()) == 0.0 &&
      MaxAbsDiff(model.embedding.bias(), reference.embedding.bias()) == 0.0;
  return run;
}

int Main(int argc, char** argv) {
  BenchObservability obs(argc, argv);
  const bool smoke = HasFlag(argc, argv, "--smoke");

  // Reduced 20news-style corpus: large enough that shards are a small
  // fraction of the file, small enough that the in-RAM reference and the
  // five sharded fits (one parse each, then ~30 spill passes) stay in
  // seconds.
  TextGeneratorOptions text;
  text.num_topics = smoke ? 4 : 10;
  text.docs_per_topic = smoke ? 25 : 200;
  text.vocabulary_size = smoke ? 400 : 4000;
  text.topic_vocabulary_size = smoke ? 40 : 300;
  const SparseDataset generated = GenerateTextDataset(text);
  const int m = generated.features.rows();
  const int n = generated.features.cols();
  const int64_t nnz = generated.features.NumNonZeros();
  const int64_t dataset_bytes = nnz * 12 + static_cast<int64_t>(m + 1) * 8;

  const std::string path = "outofcore_bench.libsvm";
  WriteLibSvmFile(generated, path);

  std::cout << "Experiment: out-of-core sharded SRDA vs. in-RAM\n"
            << "Profile: " << (smoke ? "smoke (tiny sizes, no checks)" : "full")
            << "\n"
            << "Dataset: " << m << " docs x " << n << " terms, " << nnz
            << " nnz (" << dataset_bytes / 1024 << " KiB resident in RAM)\n";

  SrdaOptions options;
  options.alpha = 1.0;
  options.solver = SrdaSolver::kLsqr;
  options.lsqr_iterations = 15;

  // In-RAM reference: load the same file the shards stream from, so both
  // paths see identical bits.
  const SparseDataset inram = ReadLibSvmFile(path, n);
  Stopwatch inram_watch;
  const SrdaModel reference =
      FitSrda(inram.features, inram.labels, inram.num_classes, options);
  const double inram_seconds = inram_watch.ElapsedSeconds();
  SRDA_CHECK(reference.converged) << "in-RAM SRDA failed";

  // Shard sizes on both sides of the 512-row transpose chunk grid, plus a
  // 1-vs-4-thread pair at a fixed size.
  std::vector<ShardedRun> runs;
  const std::vector<int> shard_sizes =
      smoke ? std::vector<int>{16, 64} : std::vector<int>{64, 317, 997};
  for (int shard_rows : shard_sizes) {
    runs.push_back(RunSharded(path, n, shard_rows, GlobalThreadCount(),
                              options, reference));
  }
  const int threads_shard = shard_sizes[shard_sizes.size() / 2];
  for (int num_threads : {1, 4}) {
    runs.push_back(
        RunSharded(path, n, threads_shard, num_threads, options, reference));
  }

  TablePrinter table({"fit", "shard rows", "threads", "scan s", "seconds",
                      "peak shard KiB", "bitwise"});
  table.AddRow({"in-RAM", "-", std::to_string(GlobalThreadCount()), "-",
                FormatDouble(inram_seconds, 3),
                std::to_string(dataset_bytes / 1024), "-"});
  bool all_bitwise = true;
  int64_t min_peak_shard = dataset_bytes;
  for (const ShardedRun& run : runs) {
    all_bitwise &= run.bitwise_identical;
    min_peak_shard = std::min(min_peak_shard, run.peak_shard_bytes);
    table.AddRow({"sharded", std::to_string(run.shard_rows),
                  std::to_string(run.num_threads),
                  FormatDouble(run.scan_seconds, 3),
                  FormatDouble(run.seconds, 3),
                  std::to_string(run.peak_shard_bytes / 1024),
                  run.bitwise_identical ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "each sharded fit streamed " << runs.back().bytes_streamed
            << " bytes; smallest-shard fit peaked at " << min_peak_shard / 1024
            << " KiB resident (" << dataset_bytes / 1024
            << " KiB if in RAM)\n";

  // Incremental tail: bulk-load dense binary shards with AddShard, keep
  // streaming single samples, and compare against the all-AddSample stream.
  SpokenLetterGeneratorOptions dense_options;
  dense_options.examples_per_class = smoke ? 6 : 40;
  dense_options.num_features = smoke ? 24 : 128;
  const DenseDataset dense = GenerateSpokenLetterDataset(dense_options);
  const std::string dense_path = "outofcore_bench.srdb";
  WriteDenseBinaryFile(dense, dense_path);
  const int bulk_rows = dense.features.rows() - dense.num_classes;
  const double incr_alpha = 0.5;

  IncrementalSrda by_shard(dense.features.cols(), dense.num_classes,
                           incr_alpha);
  Stopwatch shard_watch;
  {
    RowShardReaderOptions reader_options;
    reader_options.shard_rows = smoke ? 16 : 128;
    RowShardReader reader(dense_path, RowStreamFormat::kBinary,
                          reader_options);
    RowShard shard;
    while (reader.Next(&shard) && shard.first_row < bulk_rows) {
      const int take =
          std::min(shard.dense->rows(), bulk_rows - shard.first_row);
      Matrix block(take, dense.features.cols());
      std::vector<int> labels(static_cast<size_t>(take));
      for (int i = 0; i < take; ++i) {
        const double* src = shard.dense->RowPtr(i);
        std::copy(src, src + dense.features.cols(), block.RowPtr(i));
        labels[static_cast<size_t>(i)] =
            reader.labels()[static_cast<size_t>(shard.first_row + i)];
      }
      by_shard.AddShard(block, labels);
    }
  }
  const double bulk_seconds = shard_watch.ElapsedSeconds();

  IncrementalSrda by_sample(dense.features.cols(), dense.num_classes,
                            incr_alpha);
  Stopwatch sample_watch;
  for (int i = 0; i < bulk_rows; ++i) {
    Vector row(dense.features.cols());
    for (int j = 0; j < dense.features.cols(); ++j) {
      row[j] = dense.features(i, j);
    }
    by_sample.AddSample(row, dense.labels[static_cast<size_t>(i)]);
  }
  const double sample_seconds = sample_watch.ElapsedSeconds();

  // Online tail on both: the bulk-loaded trainer keeps accepting samples.
  for (int i = bulk_rows; i < dense.features.rows(); ++i) {
    Vector row(dense.features.cols());
    for (int j = 0; j < dense.features.cols(); ++j) {
      row[j] = dense.features(i, j);
    }
    by_shard.AddSample(row, dense.labels[static_cast<size_t>(i)]);
    by_sample.AddSample(row, dense.labels[static_cast<size_t>(i)]);
  }
  SRDA_CHECK(by_shard.ready() && by_sample.ready());
  const LinearEmbedding shard_embedding = by_shard.Solve();
  const LinearEmbedding sample_embedding = by_sample.Solve();
  const double incr_diff = MaxAbsDiff(shard_embedding.projection(),
                                      sample_embedding.projection());
  std::cout << "incremental bulk load: AddShard " << FormatDouble(bulk_seconds, 3)
            << " s vs per-sample " << FormatDouble(sample_seconds, 3)
            << " s; |embedding diff| " << incr_diff << "\n";

  std::remove(path.c_str());
  std::remove(dense_path.c_str());

  if (smoke) {
    std::cout << "\n[SMOKE] shape checks skipped\n";
    return 0;
  }

  std::ofstream json("BENCH_outofcore.json");
  json << "{\n  \"experiment\": \"outofcore_sharded_training\",\n"
       << "  \"documents\": " << m << ",\n"
       << "  \"terms\": " << n << ",\n"
       << "  \"nnz\": " << nnz << ",\n"
       << "  \"dataset_resident_bytes\": " << dataset_bytes << ",\n"
       << "  \"inram_seconds\": " << inram_seconds << ",\n"
       << "  \"sharded_runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const ShardedRun& run = runs[i];
    json << "    {\"shard_rows\": " << run.shard_rows
         << ", \"threads\": " << run.num_threads
         << ", \"scan_seconds\": " << run.scan_seconds
         << ", \"seconds\": " << run.seconds
         << ", \"streamed_over_inram\": " << run.seconds / inram_seconds
         << ", \"bytes_streamed\": " << run.bytes_streamed
         << ", \"peak_shard_bytes\": " << run.peak_shard_bytes
         << ", \"bitwise_identical\": "
         << (run.bitwise_identical ? "true" : "false") << "}"
         << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"incremental_bulk_seconds\": " << bulk_seconds << ",\n"
       << "  \"incremental_per_sample_seconds\": " << sample_seconds << ",\n"
       << "  \"incremental_embedding_diff\": " << incr_diff << "\n}\n";
  std::cout << "wrote BENCH_outofcore.json\n";

  bool ok = true;
  ok &= ShapeCheck(all_bitwise,
                   "sharded fits bitwise identical to in-RAM at every shard "
                   "size and thread count");
  ok &= ShapeCheck(min_peak_shard * 10 <= dataset_bytes,
                   "smallest-shard fit keeps the peak resident shard under "
                   "a tenth of the in-RAM dataset footprint");
  ok &= ShapeCheck(incr_diff <= 1e-8,
                   "bulk AddShard agrees with the per-sample stream within "
                   "1e-8");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace srda

int main(int argc, char** argv) { return srda::bench::Main(argc, argv); }
