// Measurement harness of the end-to-end benchmark: the percentile rule,
// an in-memory span recorder with self-time accounting, the operation
// ledger that counts output checks, input digests, and the result line.
//
// Nothing here depends on the SRDA library, so the rules can be tested
// in isolation (tests/harness_test.cc).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the steady clock.
double Now();

// Median of the samples (mean of the two middle ones for even counts).
// Requires at least one sample.
double Median(std::vector<double> samples);

// Nearest-rank percentile: the ceil(q * n)-th smallest sample, q in (0, 1].
double NearestRank(std::vector<double> samples, double q);

// Number of samples strictly above the nearest-rank position of q.
size_t SamplesBeyond(size_t n, double q);

// A percentile is reported only when at least `min_beyond` samples lie
// beyond it; otherwise the tail is too thin to mean anything.
bool PercentileReportable(size_t n, double q, size_t min_beyond = 10);

// One timed scope recorded by the benchmark around a public call.
struct Span {
  const char* layer = "";  // src/ module the call belongs to (a literal)
  const char* name = "";   // the public call (a literal)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;         // index of the enclosing span, -1 for a root
  int64_t operation = -1;  // operation id shared by one operation's spans
  bool replay = false;     // re-timing of an inner layer on the same operands
};

// Records spans in memory while enabled; a disabled recorder costs one
// branch per span. Thread-safe: serving clients record concurrently.
class Tracer {
 public:
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Opens a span and returns its index (-1 when disabled). `parent` < 0
  // means the innermost span open on the calling thread.
  int Begin(const char* layer, const char* name, bool replay,
            int parent = -1);
  void End(int index);

  // Operation id stamped on spans the calling thread opens from now on.
  static void SetOperation(int64_t operation);

  std::vector<Span> spans() const;
  void Clear();

  // Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// RAII span. Nests under the calling thread's innermost open span unless
// an explicit parent index is given (spans opened on other threads).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const char* name,
             bool replay = false, int parent = -1)
      : tracer_(tracer),
        index_(tracer->Begin(layer, name, replay, parent)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

// Self time of every span, in seconds: its duration minus the part of its
// interval covered by the union of its children (children may overlap
// each other, e.g. concurrent clients under one phase span).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// Sum of self times of the non-replay spans of one layer, or of one span
// name when `name` is non-empty.
double LayerSelfSeconds(const std::vector<Span>& spans,
                        const std::vector<double>& self_times,
                        const std::string& layer,
                        const std::string& name = "");

// Output checks counted as operations; a failed check names itself on
// stderr.
class OpLedger {
 public:
  void Check(bool ok, const std::string& what);
  // Records `attempted` operations of one kind, `failed` of which failed.
  void CheckMany(int64_t attempted, int64_t failed, const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// FNV-1a over raw bytes, chainable.
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t hash = 14695981039346656037ULL);

// Named metric values printed as the benchmark's result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

  // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
  // every value printed with all 17 significant digits.
  std::string ResultLine(bool correct, int64_t attempted,
                         int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// Escapes a string for a JSON string literal.
std::string JsonEscape(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
