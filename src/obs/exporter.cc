#include "obs/exporter.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace srda {
namespace obs {
namespace {

// Shortest round-trip-ish formatting: integral values print bare, others
// with %.17g.
std::string FormatNumber(double value) {
  char buffer[40];
  if (!std::isfinite(value)) {
    // Prometheus spells these +Inf / -Inf / NaN.
    if (std::isnan(value)) return "NaN";
    return value > 0 ? "+Inf" : "-Inf";
  }
  if (value >= -9.0e18 && value <= 9.0e18 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return buffer;
}

void AppendSample(std::string* out, const std::string& name,
                  const std::string& labels, double value) {
  *out += name;
  *out += labels;
  *out += ' ';
  *out += FormatNumber(value);
  *out += '\n';
}

void AppendTyped(std::string* out, const std::string& name, const char* type) {
  *out += "# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out = "srda_";
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += legal ? c : '_';
  }
  return out;
}

std::string PrometheusText(const MetricsRegistry& registry, int window_s) {
  return PrometheusTextAt(registry, window_s, EpochSeconds());
}

std::string PrometheusTextAt(const MetricsRegistry& registry, int window_s,
                             int64_t now_s) {
  std::string out;
  AppendTyped(&out, "srda_up", "gauge");
  AppendSample(&out, "srda_up", "", 1.0);
  for (const MetricSnapshot& row : registry.Snapshot()) {
    const std::string name = PrometheusName(row.name);
    switch (row.kind) {
      case MetricSnapshot::Kind::kCounter:
        AppendTyped(&out, name, "counter");
        AppendSample(&out, name, "", row.value);
        break;
      case MetricSnapshot::Kind::kGauge:
        AppendTyped(&out, name, "gauge");
        AppendSample(&out, name, "", row.value);
        break;
      case MetricSnapshot::Kind::kHistogram:
        AppendTyped(&out, name, "summary");
        // A summary never reports quantiles it has no samples for.
        if (row.count > 0) {
          AppendSample(&out, name, "{quantile=\"0.5\"}", row.p50);
          AppendSample(&out, name, "{quantile=\"0.99\"}", row.p99);
        }
        AppendSample(&out, name + "_sum", "", row.value);
        AppendSample(&out, name + "_count", "",
                     static_cast<double>(row.count));
        break;
    }
  }
  const std::string window = "window=\"" + std::to_string(window_s) + "\"";
  for (const WindowedMetricSnapshot& row :
       registry.WindowedSnapshotAt(window_s, now_s)) {
    const std::string name = PrometheusName(row.name) + "_window";
    AppendTyped(&out, name, "summary");
    if (row.count > 0) {
      AppendSample(&out, name, "{" + window + ",quantile=\"0.5\"}", row.p50);
      AppendSample(&out, name, "{" + window + ",quantile=\"0.99\"}",
                   row.p99);
    }
    AppendSample(&out, name + "_sum", "{" + window + "}", row.sum);
    AppendSample(&out, name + "_count", "{" + window + "}",
                 static_cast<double>(row.count));
  }
  return out;
}

Exporter::Exporter(ExporterOptions options) : options_(std::move(options)) {
  // Loop() converts the interval to a clock duration; a non-finite or huge
  // value would overflow that conversion.
  if (!(options_.interval_s > 0.0 && options_.interval_s <= 1e6)) {
    std::fprintf(stderr,
                 "ExporterOptions::interval_s (--metrics-interval) must be "
                 "in (0, 1e6] seconds, got %g\n",
                 options_.interval_s);
    std::abort();
  }
}

Exporter::~Exporter() { Stop(); }

bool Exporter::Start() {
  if (started_) std::abort();
  started_ = true;
  if (!WriteSnapshot()) {
    started_ = false;
    return false;
  }
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread(&Exporter::Loop, this);
  return true;
}

void Exporter::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final snapshot so the file reflects the full run, not the last tick.
  WriteSnapshot();
  running_.store(false, std::memory_order_relaxed);
  started_ = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = false;
  }
}

bool Exporter::WriteSnapshot() {
  const std::string text =
      PrometheusText(MetricsRegistry::Global(), options_.window_s);
  // Write-to-temp + rename: a concurrent reader sees the old snapshot or
  // the new one, never a prefix.
  const std::string tmp = options_.path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "w");
  if (file == nullptr) return false;
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool flushed = std::fclose(file) == 0 && written == text.size();
  if (!flushed || std::rename(tmp.c_str(), options_.path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Exporter::Loop() {
  const auto interval = std::chrono::duration<double>(options_.interval_s);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, interval, [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    WriteSnapshot();
    lock.lock();
  }
}

}  // namespace obs
}  // namespace srda
