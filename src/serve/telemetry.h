// Live telemetry endpoints for a serving process.
//
// TelemetryServer wires the obs layer into an embedded HTTP listener so a
// running srda_serve can be observed from outside the process:
//
//   /metrics       Prometheus text exposition: every cumulative counter,
//                  gauge, and histogram in the global registry plus the
//                  trailing-window view of the serving histograms (batch
//                  size, whose sum is the request count, and latency
//                  p50/p99 over the last window_s seconds).
//   /healthz       200 "ok" once SetReady(true) — i.e. after the model is
//                  loaded and the service can answer — 503 before that and
//                  after SetReady(false). Load balancers key on this.
//   /buildz        JSON build/provenance info: compiler, build date, plus
//                  any key/value pairs the tool registers (model path,
//                  model shape, flags).
//
// The server binds loopback only and handles scrapes serially on one
// background thread (obs/http.h); it never touches the serving hot path —
// a scrape reads the same lock-free instruments the dispatcher writes.

#ifndef SRDA_SERVE_TELEMETRY_H_
#define SRDA_SERVE_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/http.h"

namespace srda {
namespace serve {

class TelemetryServer {
 public:
  // window_s: trailing window for the windowed rows on /metrics.
  explicit TelemetryServer(int window_s = 10);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  // Binds 127.0.0.1:port (0 = ephemeral) and starts serving. Returns
  // false on bind failure.
  bool Start(int port);
  void Stop();

  int port() const { return http_.port(); }
  bool running() const { return http_.running(); }

  // /healthz readiness. Starts false; flip true after the model loads.
  void SetReady(bool ready) {
    ready_.store(ready, std::memory_order_relaxed);
  }
  bool ready() const { return ready_.load(std::memory_order_relaxed); }

  // Adds a key/value row to /buildz (call before or after Start).
  void SetBuildInfo(const std::string& key, const std::string& value);

  int64_t scrapes() const { return http_.requests_served(); }

 private:
  std::string BuildzJson() const;

  const int window_s_;
  std::atomic<bool> ready_{false};
  mutable std::mutex build_info_mutex_;
  std::vector<std::pair<std::string, std::string>> build_info_;
  obs::HttpServer http_;
};

}  // namespace serve
}  // namespace srda

#endif  // SRDA_SERVE_TELEMETRY_H_
