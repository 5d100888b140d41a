// Telemetry overhead benchmark: what does live observability cost the
// serving hot path?
//
// Drives the same micro-batched serving workload twice against one SRDA
// model:
//
//   plain      — PredictionService alone. The two windowed histograms
//                are still fed (they always are: one serve.batch_size
//                observation per batch, one serve.latency_us observation
//                per request, each a few relaxed atomic updates to the
//                all-time view and the current second's slot), so this
//                is the shipping configuration with nobody watching.
//   telemetry  — the same traffic while a TelemetryServer answers
//                /metrics scrapes at 1 Hz from a client thread AND a
//                background Exporter snapshots the registry to a file at
//                1 Hz — a fully observed process.
//
// The claim under test: a scrape reads the same lock-free instruments the
// dispatcher writes, so full observation costs at most a few percent of
// throughput, and the instruments themselves are free at the noise level.
// Configurations alternate (plain, telemetry, plain, ...) and each takes
// its best of `reps` so scheduler drift hits both evenly. Every pass runs
// for a fixed wall-clock window (4 s in full mode) and reports the
// requests served per second over it, so each observed pass spans several
// scrapes and exporter snapshots instead of landing one by chance.
//
// Full mode writes BENCH_telemetry_overhead.json and asserts the shape
// checks (overhead below 10%, scrapes well-formed, at least 3 scrapes and
// 3 exporter snapshots in every observed pass). Pass --smoke for a
// sub-second run without checks; --json-out=FILE writes the JSON in either
// mode.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/trainers.h"
#include "model/model.h"
#include "obs/exporter.h"
#include "obs/http.h"
#include "serve/serving.h"
#include "serve/telemetry.h"
#include "tools/obs_check.h"

namespace srda {
namespace bench {
namespace {

struct Blobs {
  Matrix features;
  std::vector<int> labels;
  int num_classes = 0;
};

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

// One serving pass: `clients` threads push blocks until `seconds` have
// passed. Returns sustained predictions/s over the pass.
double RunTraffic(const model::SrdaModel& model,
                  const std::vector<Matrix>& blocks, int clients,
                  double seconds) {
  serve::PredictionService service(&model);
  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&service, &blocks, &watch, seconds, c] {
      size_t next = static_cast<size_t>(c) % blocks.size();
      while (watch.ElapsedSeconds() < seconds) {
        service.Predict(blocks[next]);
        next = (next + 1) % blocks.size();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return static_cast<double>(service.Stats().requests) /
         watch.ElapsedSeconds();
}

int Main(int argc, char** argv) {
  BenchObservability obs(argc, argv);
  const bool smoke = HasFlag(argc, argv, "--smoke");

  const int rows = smoke ? 120 : 2000;
  const int cols = smoke ? 8 : 32;
  const int num_classes = smoke ? 4 : 10;
  const int clients = smoke ? 2 : 4;
  const double pass_seconds = smoke ? 0.02 : 4.0;
  const int reps = smoke ? 1 : 3;
  const Blobs blobs = MakeBlobs(rows, cols, num_classes, 7);

  std::cout << "Experiment: telemetry overhead on the serving hot path\n"
            << "Profile: " << (smoke ? "smoke (tiny sizes, no checks)" : "full")
            << "\n"
            << "Dataset: " << rows << " x " << cols << ", " << num_classes
            << " classes, " << clients << " clients, " << pass_seconds
            << " s/pass\n";

  TrainerOptions train_options;
  train_options.alpha = 1.0;
  const TrainResult trained = TrainDenseByName(
      "srda", blobs.features, blobs.labels, num_classes, train_options);
  const model::SrdaModel model = model::BuildModel(
      trained.embedding, trained.embedding.Transform(blobs.features),
      blobs.labels, num_classes, {}, {});
  const std::vector<Matrix> blocks =
      SliceBlocks(blobs.features, smoke ? 16 : 64);

  // --- Plain vs fully observed, alternating reps. ---
  double plain_best = 0.0;
  double telemetry_best = 0.0;
  int64_t scrapes_total = 0;
  int64_t snapshots_total = 0;
  // Fewest scrapes and snapshots any observed pass saw; -1 until one runs.
  int64_t min_pass_scrapes = -1;
  int64_t min_pass_snapshots = -1;
  bool scrapes_valid = true;
  const std::string snapshot_path =
      "bench_telemetry_metrics." + std::to_string(::getpid()) + ".prom";
  for (int rep = 0; rep < reps; ++rep) {
    plain_best = std::max(plain_best,
                          RunTraffic(model, blocks, clients, pass_seconds));

    serve::TelemetryServer telemetry(10);
    if (!telemetry.Start(0)) {
      std::cout << "telemetry bind failed; skipping observed pass\n";
      continue;
    }
    telemetry.SetReady(true);
    srda::obs::ExporterOptions exporter_options;
    exporter_options.path = snapshot_path;
    exporter_options.interval_s = 1.0;
    srda::obs::Exporter exporter(exporter_options);
    exporter.Start();
    // 1 Hz scrape client, the Prometheus-server stand-in. Every response
    // must be a well-formed exposition page.
    std::atomic<bool> stop_scraper{false};
    std::thread scraper([&telemetry, &stop_scraper, &scrapes_valid] {
      while (!stop_scraper.load(std::memory_order_relaxed)) {
        int status = 0;
        std::string body;
        if (srda::obs::ParseHttpResponse(
                srda::obs::HttpGet(telemetry.port(), "/metrics"), &status,
                &body)) {
          std::string error;
          if (status != 200 ||
              !ValidatePrometheusText(body, {"srda_up"}, &error)) {
            scrapes_valid = false;
          }
        } else {
          scrapes_valid = false;
        }
        for (int i = 0; i < 10 && !stop_scraper.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      }
    });
    telemetry_best = std::max(
        telemetry_best, RunTraffic(model, blocks, clients, pass_seconds));
    stop_scraper.store(true);
    scraper.join();
    exporter.Stop();
    const int64_t scrapes = telemetry.scrapes();
    const int64_t snapshots = exporter.snapshots_written();
    scrapes_total += scrapes;
    snapshots_total += snapshots;
    min_pass_scrapes = min_pass_scrapes < 0
                           ? scrapes
                           : std::min(min_pass_scrapes, scrapes);
    min_pass_snapshots = min_pass_snapshots < 0
                             ? snapshots
                             : std::min(min_pass_snapshots, snapshots);
    telemetry.Stop();
  }
  std::remove(snapshot_path.c_str());
  std::remove((snapshot_path + ".tmp").c_str());

  const double overhead_percent =
      plain_best > 0.0
          ? (plain_best - telemetry_best) / plain_best * 100.0
          : 0.0;

  TablePrinter table({"config", "preds/s", "scrapes", "snapshots"});
  table.AddRow({"plain", FormatDouble(plain_best, 0), "-", "-"});
  table.AddRow({"telemetry (1 Hz scrape + 1 Hz export)",
                FormatDouble(telemetry_best, 0),
                std::to_string(scrapes_total),
                std::to_string(snapshots_total)});
  table.Print(std::cout);
  std::cout << "observed-vs-plain throughput overhead: "
            << FormatDouble(overhead_percent, 2) << "% (negative = noise)\n"
            << "all scrapes well-formed: " << (scrapes_valid ? "yes" : "NO")
            << "\n";

  const std::string json_out = GetFlagValue(argc, argv, "--json-out");
  const std::string json_path =
      !json_out.empty() ? json_out
                        : std::string("BENCH_telemetry_overhead.json");
  if (smoke && json_out.empty()) {
    std::cout << "\n[SMOKE] shape checks skipped\n";
    return 0;
  }

  std::ofstream json(json_path);
  json << "{\n  \"experiment\": \"telemetry_overhead\",\n"
       << "  \"rows\": " << rows << ",\n"
       << "  \"cols\": " << cols << ",\n"
       << "  \"clients\": " << clients << ",\n"
       << "  \"seconds_per_pass\": " << pass_seconds << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"plain_predictions_per_s\": " << plain_best << ",\n"
       << "  \"telemetry_predictions_per_s\": " << telemetry_best << ",\n"
       << "  \"overhead_percent\": " << overhead_percent << ",\n"
       << "  \"scrapes\": " << scrapes_total << ",\n"
       << "  \"exporter_snapshots\": " << snapshots_total << ",\n"
       << "  \"min_scrapes_per_pass\": " << min_pass_scrapes << ",\n"
       << "  \"min_snapshots_per_pass\": " << min_pass_snapshots << ",\n"
       << "  \"scrapes_well_formed\": " << (scrapes_valid ? "true" : "false")
       << "\n}\n";
  std::cout << "wrote " << json_path << "\n";

  if (smoke) {
    std::cout << "\n[SMOKE] shape checks skipped\n";
    return 0;
  }

  bool ok = true;
  ok &= ShapeCheck(scrapes_valid,
                   "every live /metrics scrape is well-formed Prometheus text");
  ok &= ShapeCheck(min_pass_scrapes >= 3,
                   "every observed pass saw >= 3 live /metrics scrapes");
  ok &= ShapeCheck(min_pass_snapshots >= 3,
                   "every observed pass saw >= 3 exporter snapshots");
  // "A few percent" headline with slack for machine noise: the gate is
  // 10%, the measured number is in the JSON for the paper table.
  ok &= ShapeCheck(overhead_percent < 10.0,
                   "1 Hz scraping + export costs < 10% throughput");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace srda

int main(int argc, char** argv) { return srda::bench::Main(argc, argv); }
