#include "serve/telemetry.h"

#include <utility>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace srda {
namespace serve {

TelemetryServer::TelemetryServer(int window_s) : window_s_(window_s) {
  build_info_.emplace_back("compiler", __VERSION__);
  build_info_.emplace_back("build_date", __DATE__);
  http_.Handle("/metrics", [this](const std::string&) {
    obs::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        obs::PrometheusText(MetricsRegistry::Global(), window_s_);
    return response;
  });
  http_.Handle("/healthz", [this](const std::string&) {
    obs::HttpResponse response;
    if (ready()) {
      response.body = "ok\n";
    } else {
      response.status = 503;
      response.body = "not ready\n";
    }
    return response;
  });
  http_.Handle("/buildz", [this](const std::string&) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = BuildzJson();
    return response;
  });
}

TelemetryServer::~TelemetryServer() { Stop(); }

bool TelemetryServer::Start(int port) { return http_.Start(port); }

void TelemetryServer::Stop() { http_.Stop(); }

void TelemetryServer::SetBuildInfo(const std::string& key,
                                   const std::string& value) {
  std::lock_guard<std::mutex> lock(build_info_mutex_);
  for (auto& [existing_key, existing_value] : build_info_) {
    if (existing_key == key) {
      existing_value = value;
      return;
    }
  }
  build_info_.emplace_back(key, value);
}

std::string TelemetryServer::BuildzJson() const {
  std::lock_guard<std::mutex> lock(build_info_mutex_);
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : build_info_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(key, &out);
    out += "\":\"";
    AppendJsonEscaped(value, &out);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace serve
}  // namespace srda
