// Serving-path benchmark: model-store load cost and micro-batched
// prediction throughput.
//
// Two measurements against one SRDA model trained on synthetic gaussian
// blobs:
//
//   model load  — repeated LoadText (parse every coefficient) vs LoadBinary
//                 (one file read + section memcpys). The binary codec's
//                 claim is zero parse cost, so its per-load time must beat
//                 the text parser's; both loaded models must equal the
//                 trained one bit for bit.
//
//   serving     — concurrent client threads push query blocks through the
//                 micro-batching PredictionService (serve/serving.h) at
//                 several client counts; sustained predictions/s and
//                 p50/p99 request latency per configuration (the
//                 serve.latency_us histogram's nearest-rank quantiles,
//                 within 1% relative error). One ordered
//                 pass is compared row-for-row against direct scoring —
//                 batching must never change a prediction.
//
// Full mode writes BENCH_serving.json and asserts the headline shape
// checks (>100k predictions/s, binary load faster than text, served ==
// direct). Pass --smoke for a seconds-long run without shape checks;
// --json-out=FILE writes the measurement JSON in either mode (the smoke
// JSON feeds the srda_bench_diff regression gate under ctest).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/trainers.h"
#include "matrix/blas.h"
#include "model/codec.h"
#include "model/model.h"
#include "obs/metrics.h"
#include "serve/serving.h"

namespace srda {
namespace bench {
namespace {

struct Blobs {
  Matrix features;
  std::vector<int> labels;
  int num_classes = 0;
};

// Well-separated gaussian blobs: class k's mean puts 4.0 in coordinates
// k and (k + 1) % cols, so centroids stay distinct at any class count.
Blobs MakeBlobs(int rows, int cols, int num_classes, uint64_t seed) {
  Rng rng(seed);
  Blobs blobs;
  blobs.features = Matrix(rows, cols);
  blobs.num_classes = num_classes;
  for (int i = 0; i < rows; ++i) {
    const int k = i % num_classes;
    blobs.labels.push_back(k);
    for (int j = 0; j < cols; ++j) {
      const bool hot = j == k % cols || j == (k + 1) % cols;
      blobs.features(i, j) = (hot ? 4.0 : 0.0) + rng.NextGaussian();
    }
  }
  return blobs;
}

std::vector<Matrix> SliceBlocks(const Matrix& features, int block_rows) {
  std::vector<Matrix> blocks;
  for (int start = 0; start < features.rows(); start += block_rows) {
    const int rows = std::min(block_rows, features.rows() - start);
    Matrix block(rows, features.cols());
    std::memcpy(block.RowPtr(0), features.RowPtr(start),
                static_cast<size_t>(rows) * features.cols() * sizeof(double));
    blocks.push_back(std::move(block));
  }
  return blocks;
}

// Mean seconds per load over `repeats` loads of `path`.
double TimeLoads(const std::string& path, int repeats, double* checksum) {
  Stopwatch watch;
  for (int r = 0; r < repeats; ++r) {
    const model::SrdaModel loaded = model::Load(path);
    // Touch the payload so the load cannot be optimized away.
    *checksum += loaded.centroids(0, 0);
  }
  return watch.ElapsedSeconds() / repeats;
}

bool BitwiseEqual(const model::SrdaModel& a, const model::SrdaModel& b) {
  return MaxAbsDiff(a.embedding.projection(), b.embedding.projection()) == 0 &&
         MaxAbsDiff(a.embedding.bias(), b.embedding.bias()) == 0 &&
         MaxAbsDiff(a.centroids, b.centroids) == 0 &&
         a.raw_labels == b.raw_labels;
}

struct ServeRun {
  int clients = 0;
  int client_block = 0;
  int64_t requests = 0;
  double seconds = 0.0;
  double predictions_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
  int max_batch_seen = 0;
};

// Drives `requests` rows through a fresh service with `clients` threads,
// each cycling over `blocks` (different start offsets, so concurrent
// clients' blocks coalesce into shared batches).
ServeRun RunServing(const model::SrdaModel& model,
                    const std::vector<Matrix>& blocks, int clients,
                    int client_block, int64_t requests,
                    const serve::ServeOptions& options) {
  WindowedHistogram* const latency_us =
      MetricsRegistry::Global().windowed_histogram("serve.latency_us");
  latency_us->Reset();
  serve::PredictionService service(&model, options);
  std::atomic<int64_t> budget{requests};
  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&service, &blocks, &budget, c] {
      size_t next = static_cast<size_t>(c) % blocks.size();
      while (true) {
        const Matrix& block = blocks[next];
        next = (next + 1) % blocks.size();
        if (budget.fetch_sub(block.rows(), std::memory_order_relaxed) <= 0) {
          return;
        }
        service.Predict(block);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = watch.ElapsedSeconds();
  const serve::ServeStats stats = service.Stats();
  ServeRun run;
  run.clients = clients;
  run.client_block = client_block;
  run.requests = stats.requests;
  run.seconds = seconds;
  run.predictions_per_s = static_cast<double>(stats.requests) / seconds;
  run.p50_us = latency_us->total().ApproxQuantile(0.50);
  run.p99_us = latency_us->total().ApproxQuantile(0.99);
  run.mean_batch = stats.mean_batch();
  run.max_batch_seen = stats.max_batch_seen;
  return run;
}

int Main(int argc, char** argv) {
  BenchObservability obs(argc, argv);
  const bool smoke = HasFlag(argc, argv, "--smoke");

  // Serving-sized problem: modest input width keeps per-query flops small
  // (the regime where batching policy, not GEMM width, decides throughput).
  const int rows = smoke ? 120 : 2000;
  const int cols = smoke ? 8 : 32;
  const int num_classes = smoke ? 4 : 10;
  const Blobs blobs = MakeBlobs(rows, cols, num_classes, 42);

  std::cout << "Experiment: model-store load cost + serving throughput\n"
            << "Profile: " << (smoke ? "smoke (tiny sizes, no checks)" : "full")
            << "\n"
            << "Dataset: " << rows << " x " << cols << ", " << num_classes
            << " classes\n";

  TrainerOptions train_options;
  train_options.alpha = 1.0;
  const TrainResult trained =
      TrainDenseByName("srda", blobs.features, blobs.labels, num_classes,
                       train_options);
  model::Provenance provenance;
  provenance.trainer = "srda";
  provenance.alpha = train_options.alpha;
  const model::SrdaModel model = model::BuildModel(
      trained.embedding, trained.embedding.Transform(blobs.features),
      blobs.labels, num_classes, {}, provenance);

  // --- Model-store load cost: text parse vs binary read. ---
  // Paths embed the pid: ctest runs several of this binary's smoke
  // variants concurrently in one directory, and a shared name races.
  const std::string stem =
      "bench_serving_model." + std::to_string(::getpid());
  const std::string text_path = stem + ".txt";
  const std::string binary_path = stem + ".srdm";
  model::SaveText(model, text_path);
  model::SaveBinary(model, binary_path);
  const bool text_bitwise = BitwiseEqual(model, model::LoadText(text_path));
  const bool binary_bitwise =
      BitwiseEqual(model, model::LoadBinary(binary_path));
  const int load_repeats = smoke ? 3 : 200;
  double checksum = 0.0;
  const double text_load_s = TimeLoads(text_path, load_repeats, &checksum);
  const double binary_load_s = TimeLoads(binary_path, load_repeats, &checksum);
  std::cout << "model " << model.input_dim() << " -> " << model.output_dim()
            << ": text load " << text_load_s * 1e6 << " us, binary load "
            << binary_load_s * 1e6 << " us (x"
            << FormatRatio(text_load_s, binary_load_s, 1)
            << " faster), round trips bitwise: text "
            << (text_bitwise ? "yes" : "NO") << ", binary "
            << (binary_bitwise ? "yes" : "NO") << "\n";

  // --- Batching exactness: one ordered pass vs direct scoring. ---
  CentroidClassifier direct;
  direct.SetCentroids(model.centroids);
  const std::vector<int> expected = model.ToRawLabels(
      direct.ScoreBatch(model.embedding.Transform(blobs.features)));
  const int client_block = smoke ? 16 : 64;
  const std::vector<Matrix> blocks = SliceBlocks(blobs.features, client_block);
  serve::ServeOptions options;
  std::vector<int> served;
  {
    serve::PredictionService service(&model, options);
    for (const Matrix& block : blocks) {
      for (int raw : service.Predict(block)) served.push_back(raw);
    }
  }
  const bool exact = served == expected;
  std::cout << "served predictions equal direct scoring: "
            << (exact ? "yes" : "NO") << "\n";

  // --- Throughput/latency sweep over client counts. ---
  const int64_t requests = smoke ? 2000 : 300000;
  const std::vector<int> client_counts = smoke ? std::vector<int>{2}
                                               : std::vector<int>{1, 4, 8};
  std::vector<ServeRun> runs;
  for (int clients : client_counts) {
    runs.push_back(RunServing(model, blocks, clients, client_block, requests,
                              options));
  }

  TablePrinter table({"clients", "block", "requests", "seconds", "preds/s",
                      "p50 us", "p99 us", "mean batch", "max batch"});
  for (const ServeRun& run : runs) {
    table.AddRow({std::to_string(run.clients),
                  std::to_string(run.client_block),
                  std::to_string(run.requests), FormatDouble(run.seconds, 3),
                  FormatDouble(run.predictions_per_s, 0),
                  FormatDouble(run.p50_us, 1), FormatDouble(run.p99_us, 1),
                  FormatDouble(run.mean_batch, 1),
                  std::to_string(run.max_batch_seen)});
  }
  table.Print(std::cout);

  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());

  double best_throughput = 0.0;
  for (const ServeRun& run : runs) {
    best_throughput = std::max(best_throughput, run.predictions_per_s);
  }

  const std::string json_out = GetFlagValue(argc, argv, "--json-out");
  const std::string json_path =
      !json_out.empty() ? json_out : std::string("BENCH_serving.json");
  if (smoke && json_out.empty()) {
    std::cout << "\n[SMOKE] shape checks skipped\n";
    return 0;
  }

  std::ofstream json(json_path);
  json << "{\n  \"experiment\": \"model_store_and_serving\",\n"
       << "  \"rows\": " << rows << ",\n"
       << "  \"cols\": " << cols << ",\n"
       << "  \"num_classes\": " << num_classes << ",\n"
       << "  \"trainer\": \"srda\",\n"
       << "  \"model_load\": {\"repeats\": " << load_repeats
       << ", \"text_seconds\": " << text_load_s
       << ", \"binary_seconds\": " << binary_load_s
       << ", \"binary_speedup\": " << text_load_s / binary_load_s
       << ", \"text_bitwise\": " << (text_bitwise ? "true" : "false")
       << ", \"binary_bitwise\": " << (binary_bitwise ? "true" : "false")
       << "},\n"
       << "  \"served_equals_direct\": " << (exact ? "true" : "false")
       << ",\n"
       << "  \"max_batch\": " << options.max_batch << ",\n"
       << "  \"client_block\": " << client_block << ",\n"
       << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const ServeRun& run = runs[i];
    json << "    {\"clients\": " << run.clients
         << ", \"requests\": " << run.requests
         << ", \"seconds\": " << run.seconds
         << ", \"predictions_per_s\": " << run.predictions_per_s
         << ", \"latency_p50_us\": " << run.p50_us
         << ", \"latency_p99_us\": " << run.p99_us
         << ", \"mean_batch\": " << run.mean_batch
         << ", \"max_batch_seen\": " << run.max_batch_seen << "}"
         << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"best_predictions_per_s\": " << best_throughput << "\n}\n";
  std::cout << "wrote " << json_path << "\n";

  if (smoke) {
    std::cout << "\n[SMOKE] shape checks skipped\n";
    return 0;
  }

  bool ok = true;
  ok &= ShapeCheck(text_bitwise && binary_bitwise,
                   "both codecs reload the trained model bit for bit");
  ok &= ShapeCheck(binary_load_s < text_load_s,
                   "binary model load is faster than the text parser");
  ok &= ShapeCheck(exact,
                   "micro-batched serving reproduces direct scoring exactly");
  ok &= ShapeCheck(best_throughput > 100000.0,
                   "peak sustained throughput exceeds 100k predictions/s");
  bool latencies_sane = true;
  for (const ServeRun& run : runs) {
    latencies_sane = latencies_sane && run.p50_us > 0.0 &&
                     run.p99_us >= run.p50_us;
  }
  ok &= ShapeCheck(latencies_sane,
                   "every configuration reports p50 <= p99 request latency");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace srda

int main(int argc, char** argv) { return srda::bench::Main(argc, argv); }
