// srda_serve: batched prediction serving against a saved model.
//
// Usage:
//   srda_serve --model=FILE --data=FILE [--format=csv|binary]
//              [--clients=4] [--client-block=64] [--requests=100000]
//              [--max-batch=256] [--max-delay-ms=0.2]
//              [--predictions-out=FILE] [--json-out=FILE]
//              [--trace-out=FILE] [--metrics]
//              [--http-port=N] [--metrics-window=10]
//              [--metrics-out=FILE] [--metrics-interval=SEC]
//              [--linger=SEC]
//
// Loads a model-store file (text or SRDM binary, sniffed), then
// drives synthetic traffic through the micro-batching PredictionService
// (serve/serving.h): --clients threads each submit blocks of
// --client-block query rows drawn from the data file, cycling until
// --requests total rows are served. Blocks from different clients coalesce
// into shared batches closed by the --max-batch / --max-delay-ms policy.
// Reported: sustained predictions/s, p50/p99 request latency (nearest-rank
// quantiles of the serve.latency_us histogram, within 1% relative error;
// the figures /metrics exposes), and the realized batch-size distribution.
//
// Because per-row scoring is independent of batch composition, the served
// predictions are exactly the ones srda_predict produces on the same data.
// --predictions-out runs one ordered pass through the service and writes
// one raw label per line — byte-identical to srda_predict's output.
//
// --json-out writes the measurements as JSON (the serving bench's format);
// --trace-out / --metrics record serve.batch / model.load spans and the
// serve.* counters through the obs layer.
//
// Live telemetry (serve/telemetry.h): --http-port binds an embedded
// loopback HTTP listener (0 = ephemeral; the chosen port is printed as
// "telemetry listening on PORT") exposing /metrics (Prometheus text with
// windowed QPS and latency quantiles over --metrics-window seconds),
// /healthz (503 until the model is loaded), and /buildz (model path,
// shape and SIMD level).
// --linger keeps the process (and the endpoint) alive that many seconds
// after the traffic drains, so a scraper can observe a quiescing server.
// --metrics-out snapshots the registry to a file every --metrics-interval
// seconds, as Prometheus text whatever the file extension.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/arg_parser.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "io/dataset_io.h"
#include "matrix/simd/simd.h"
#include "model/codec.h"
#include "model/model.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/serving.h"
#include "serve/telemetry.h"

namespace srda {
namespace {

constexpr char kUsage[] =
    "usage: srda_serve --model=FILE --data=FILE [--format=csv|binary]\n"
    "                  [--clients=4] [--client-block=64]\n"
    "                  [--requests=100000] [--max-batch=256]\n"
    "                  [--max-delay-ms=0.2] [--predictions-out=FILE]\n"
    "                  [--json-out=FILE] [--trace-out=FILE] [--metrics]\n"
    "                  [--http-port=N] [--metrics-window=10]\n"
    "                  [--metrics-out=FILE] [--metrics-interval=SEC]\n"
    "                  [--linger=SEC]\n"
    "--metrics-out writes Prometheus text whatever the file extension.\n";

// Slices the dataset into contiguous blocks of `block_rows` query rows
// (last block may be short). Blocks are what clients submit.
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

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string model_path = args.GetString("model", "");
  const std::string data_path = args.GetString("data", "");
  const std::string format = args.GetString("format", "csv");
  const int clients = args.GetInt("clients", 4);
  const int client_block = args.GetInt("client-block", 64);
  const int64_t requests = args.GetInt("requests", 100000);
  const int max_batch = args.GetInt("max-batch", 256);
  const double max_delay_ms = args.GetDouble("max-delay-ms", 0.2);
  const std::string predictions_path = args.GetString("predictions-out", "");
  const std::string json_path = args.GetString("json-out", "");
  const std::string trace_path = args.GetString("trace-out", "");
  const bool print_metrics = args.GetBool("metrics");
  const bool http_port_set = args.Has("http-port");
  const int http_port = args.GetInt("http-port", 0);
  const int metrics_window = args.GetInt("metrics-window", 10);
  const std::string metrics_out = args.GetString("metrics-out", "");
  const double metrics_interval = args.GetDouble("metrics-interval", 1.0);
  const double linger_s = args.GetDouble("linger", 0.0);
  SRDA_CHECK(args.UnusedFlags().empty())
      << "unknown flag --" << args.UnusedFlags().front() << "\n" << kUsage;
  SRDA_CHECK(!model_path.empty() && !data_path.empty())
      << "--model and --data are required\n" << kUsage;
  SRDA_CHECK(format == "csv" || format == "binary")
      << "unknown --format=" << format << "\n" << kUsage;
  SRDA_CHECK_GT(clients, 0) << "--clients must be positive";
  SRDA_CHECK_GT(client_block, 0) << "--client-block must be positive";
  SRDA_CHECK_GE(requests, 0) << "--requests must be non-negative";
  SRDA_CHECK_GT(metrics_window, 0) << "--metrics-window must be positive";
  SRDA_CHECK(linger_s >= 0.0 && linger_s <= 1e6)
      << "--linger must be in [0, 1e6] seconds, got " << linger_s;

  const bool observe = !trace_path.empty() || print_metrics || TraceEnabled();
  if (observe) {
    TraceRecorder::Global().SetEnabled(true);
    TraceRecorder::Global().Clear();
    MetricsRegistry::Global().ResetAll();
  }

  // Telemetry comes up BEFORE the model loads so /healthz honestly reports
  // the not-ready window; it flips ready only once serving can answer.
  serve::TelemetryServer telemetry(metrics_window);
  if (http_port_set) {
    SRDA_CHECK(telemetry.Start(http_port))
        << "cannot bind --http-port=" << http_port;
    // Flushed immediately: orchestrators parse this line to find the
    // ephemeral port while the process is still running.
    std::cout << "telemetry listening on " << telemetry.port() << std::endl;
  }
  obs::ExporterOptions exporter_options;
  exporter_options.path = metrics_out;
  exporter_options.interval_s = metrics_interval;
  exporter_options.window_s = metrics_window;
  obs::Exporter exporter(exporter_options);
  if (!metrics_out.empty()) {
    SRDA_CHECK(exporter.Start())
        << "cannot write --metrics-out=" << metrics_out;
  }

  const model::SrdaModel model = model::Load(model_path);
  std::cout << "loaded " << model.provenance.trainer << " model: "
            << model.input_dim() << " -> " << model.output_dim() << ", "
            << model.num_classes() << " classes\n";
  telemetry.SetBuildInfo("model", model_path);
  telemetry.SetBuildInfo("trainer", model.provenance.trainer);
  telemetry.SetBuildInfo("input_dim", std::to_string(model.input_dim()));
  telemetry.SetBuildInfo("classes", std::to_string(model.num_classes()));
  // Dispatch is resolved here, not lazily on the first batch, so /buildz
  // is truthful from the moment the server flips ready.
  telemetry.SetBuildInfo("simd_level",
                         simd::CpuLevelName(simd::ActiveLevel()));
  telemetry.SetReady(true);

  const DenseDataset dataset = format == "binary"
                                   ? ReadDenseBinaryFile(data_path)
                                   : ReadDenseCsvFile(data_path);
  SRDA_CHECK_EQ(dataset.features.cols(), model.input_dim())
      << "data width does not match the model";
  const std::vector<Matrix> blocks =
      SliceBlocks(dataset.features, client_block);

  serve::ServeOptions options;
  options.max_batch = max_batch;
  options.max_delay_ms = max_delay_ms;

  if (!predictions_path.empty()) {
    // One ordered pass: blocks submitted in dataset order from one client,
    // so the output lines up row-for-row with srda_predict on this file.
    serve::PredictionService service(&model, options);
    std::ofstream out(predictions_path);
    SRDA_CHECK(out.good()) << "cannot open " << predictions_path;
    for (const Matrix& block : blocks) {
      for (int raw : service.Predict(block)) out << raw << '\n';
    }
    SRDA_CHECK(out.good()) << "write failure on " << predictions_path;
    std::cout << "predictions written to " << predictions_path << "\n";
  }

  // The traffic's latency quantiles come from this histogram; drop what
  // the --predictions-out pass fed it.
  Histogram* const latency_us =
      MetricsRegistry::Global().histogram("serve.latency_us");
  latency_us->Reset();
  double seconds = 0.0;
  serve::ServeStats stats;
  if (requests > 0) {
    serve::PredictionService service(&model, options);
    // Remaining-row budget shared by every client; a client claims one
    // block at a time until the budget is gone.
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
          if (budget.fetch_sub(block.rows(), std::memory_order_relaxed) <=
              0) {
            return;
          }
          service.Predict(block);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    seconds = watch.ElapsedSeconds();
    stats = service.Stats();
  }

  if (stats.requests > 0) {
    const double throughput = static_cast<double>(stats.requests) / seconds;
    const double p50 = latency_us->ApproxQuantile(0.50);
    const double p99 = latency_us->ApproxQuantile(0.99);
    std::cout << "served " << stats.requests << " predictions in " << seconds
              << " s: " << throughput << " predictions/s\n";
    std::cout << "latency p50 " << p50 << " us, p99 " << p99 << " us; "
              << stats.batches << " batches, mean " << stats.mean_batch()
              << " rows, max " << stats.max_batch_seen << "\n";
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      SRDA_CHECK(out.good()) << "cannot open " << json_path;
      out << "{\n"
          << "  \"clients\": " << clients << ",\n"
          << "  \"client_block\": " << client_block << ",\n"
          << "  \"max_batch\": " << max_batch << ",\n"
          << "  \"max_delay_ms\": " << max_delay_ms << ",\n"
          << "  \"requests\": " << stats.requests << ",\n"
          << "  \"seconds\": " << seconds << ",\n"
          << "  \"predictions_per_s\": " << throughput << ",\n"
          << "  \"latency_p50_us\": " << p50 << ",\n"
          << "  \"latency_p99_us\": " << p99 << ",\n"
          << "  \"batches\": " << stats.batches << ",\n"
          << "  \"mean_batch\": " << stats.mean_batch() << ",\n"
          << "  \"max_batch_seen\": " << stats.max_batch_seen << "\n"
          << "}\n";
      SRDA_CHECK(out.good()) << "write failure on " << json_path;
      std::cout << "measurements written to " << json_path << "\n";
    }
  }

  if (linger_s > 0.0 && telemetry.running()) {
    // Keep the endpoint answering after the traffic drains (scrapers poll
    // on their own schedule, not ours).
    std::cout << "lingering " << linger_s << " s for scrapers\n";
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
  }
  if (!metrics_out.empty()) {
    exporter.Stop();
    std::cout << "wrote metrics to " << metrics_out << " ("
              << exporter.snapshots_written() << " snapshots)\n";
  }
  if (telemetry.running()) {
    telemetry.SetReady(false);
    telemetry.Stop();
  }

  if (observe) {
    PrintRunSummary(std::cout);
    if (!trace_path.empty()) {
      if (TraceRecorder::Global().WriteJsonFile(trace_path)) {
        std::cout << "wrote trace to " << trace_path << "\n";
      } else {
        std::cout << "failed to write trace to " << trace_path << "\n";
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace srda

int main(int argc, char** argv) { return srda::Main(argc, argv); }
