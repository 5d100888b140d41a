// Metrics serialization and the background snapshot exporter.
//
// PrometheusText() turns the process-wide MetricsRegistry (cumulative AND
// trailing-window instruments) into Prometheus text exposition format
// 0.0.4. Metric names are sanitized ('.' -> '_', "srda_" prefix);
// histograms export as summaries with quantile labels plus _sum/_count (a
// windowed histogram's all-time view among them), and each windowed
// histogram adds a second summary, "<name>_window", labeled with its
// window ({window="10"}). Quantile samples are omitted when the histogram
// is empty — a scrape never invents a latency from zero observations.
//
// The Exporter wraps the serializer in a background thread that writes a
// fresh snapshot to a file every interval (write-to-temp + rename, so a
// reader never sees a torn file). This is the file-based export path
// (srda_train/srda_predict/srda_serve --metrics-out, Prometheus text
// whatever the file extension); the live HTTP path in serve/telemetry.h
// calls PrometheusText() directly per scrape.
//
// The output validates against ValidatePrometheusText
// (tools/obs_check.h) — the unit tests hold it to it.

#ifndef SRDA_OBS_EXPORTER_H_
#define SRDA_OBS_EXPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace srda {
namespace obs {

// Sanitizes an instrument name for Prometheus: every character outside
// [a-zA-Z0-9_:] becomes '_', and the result is prefixed with "srda_"
// ("serve.latency_us" -> "srda_serve_latency_us").
std::string PrometheusName(const std::string& name);

// Serializes `registry` to Prometheus text exposition format. Windowed
// instruments report their trailing `window_s` view; the *At overload
// injects the clock for tests.
std::string PrometheusText(const MetricsRegistry& registry, int window_s);
std::string PrometheusTextAt(const MetricsRegistry& registry, int window_s,
                             int64_t now_s);

struct ExporterOptions {
  std::string path;                 // snapshot file (required)
  double interval_s = 1.0;          // time between snapshots, (0, 1e6]
  int window_s = 10;                // trailing window for windowed rows
};

// Background snapshot thread: every interval_s, serialize the global
// registry and atomically replace options.path with the result. Start()
// verifies the path is writable by writing the first snapshot
// synchronously; Stop() (or the destructor) joins the thread and writes
// one final snapshot so the file always reflects process exit.
class Exporter {
 public:
  explicit Exporter(ExporterOptions options);
  ~Exporter();

  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  // Writes the first snapshot and spawns the thread. Returns false (and
  // stays stopped) when the snapshot file cannot be written. Calling
  // Start() twice is an error.
  bool Start();

  // Signals the thread, joins it, and writes a final snapshot. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  int64_t snapshots_written() const {
    return snapshots_written_.load(std::memory_order_relaxed);
  }

  // One synchronous serialize-and-rename; returns false on I/O failure.
  // Called by the background thread; exposed for tests and for tools that
  // want an exit-time snapshot without the thread.
  bool WriteSnapshot();

 private:
  void Loop();

  ExporterOptions options_;
  std::atomic<bool> running_{false};
  std::atomic<int64_t> snapshots_written_{0};
  bool started_ = false;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  // guarded by mutex_
  std::thread thread_;
};

}  // namespace obs
}  // namespace srda

#endif  // SRDA_OBS_EXPORTER_H_
