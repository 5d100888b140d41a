#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <utility>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans the calling thread has open, innermost last, and its operation id.
thread_local std::vector<int> open_spans;
thread_local int64_t current_operation = -1;

std::string FormatDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

double Now() { return static_cast<double>(NowNs()) * 1e-9; }

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    std::cerr << "perfbench: median of no samples\n";
    std::abort();
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q <= 1.0)) {
    std::cerr << "perfbench: bad percentile request\n";
    std::abort();
  }
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  return samples[std::max<size_t>(rank, 1) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = std::max<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)), 1);
  return n - rank;
}

bool PercentileReportable(size_t n, double q, size_t min_beyond) {
  return n > 0 && SamplesBeyond(n, q) >= min_beyond;
}

int Tracer::Begin(const char* layer, const char* name, bool replay,
                  int parent) {
  if (!enabled_) return -1;
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = parent >= 0 ? parent
                            : (open_spans.empty() ? -1 : open_spans.back());
  span.operation = current_operation;
  span.replay = replay;
  span.start_ns = NowNs();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (index < 0) return;
  const int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].end_ns = end;
  }
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
}

void Tracer::SetOperation(int64_t operation) { current_operation = operation; }

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfTimes(all);
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"id\": " << i << ", \"layer\": \"" << JsonEscape(s.layer)
        << "\", \"name\": \"" << JsonEscape(s.name)
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"operation\": " << s.operation
        << ", \"replay\": " << (s.replay ? "true" : "false")
        << ", \"self_s\": " << FormatDouble(self[i]) << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t begin = std::max(span.start_ns, parent.start_ns);
    const int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > begin) {
      children[static_cast<size_t>(span.parent)].emplace_back(begin, end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_begin = 0;
    int64_t run_end = -1;
    bool open = false;
    for (const auto& [begin, end] : intervals) {
      if (!open || begin > run_end) {
        if (open) covered += run_end - run_begin;
        run_begin = begin;
        run_end = end;
        open = true;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (open) covered += run_end - run_begin;
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = static_cast<double>(duration - covered) * 1e-9;
  }
  return self;
}

double LayerSelfSeconds(const std::vector<Span>& spans,
                        const std::vector<double>& self_times,
                        const std::string& layer, const std::string& name) {
  double total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].replay || layer != spans[i].layer) continue;
    if (!name.empty() && name != spans[i].name) continue;
    total += self_times[i];
  }
  return total;
}

void OpLedger::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void OpLedger::CheckMany(int64_t attempted, int64_t failed,
                         const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::cerr << "perfbench: " << failed << " of " << attempted
              << " checks failed: " << what << "\n";
  }
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::ResultLine(bool correct, int64_t attempted,
                               int64_t failed) const {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) line += ", ";
    line += '"';
    line += JsonEscape(metrics_[i].name);
    line += "\": {\"value\": ";
    line += FormatDouble(metrics_[i].value);
    line += ", \"unit\": \"";
    line += JsonEscape(metrics_[i].unit);
    line += "\"}";
  }
  line += "}}";
  return line;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
