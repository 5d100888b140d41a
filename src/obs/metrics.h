// Named counters, gauges, and histograms for the SRDA training pipeline.
//
// The MetricsRegistry is the process-wide home of the runtime accounting
// that used to live in scattered statics: the kernel flop counter
// (common/flops.h forwards here), bytes touched by the dense/sparse
// kernels, LSQR iteration counts, Cholesky refactor counts, the ridge
// engine's Gram/factor cache hit rates, and the thread pool's busy/idle
// split. Instruments are created on first lookup and live forever, so hot
// call sites cache the returned pointer in a function-local static and pay
// one relaxed atomic update per event; ResetAll() zeroes values without
// invalidating pointers.
//
// Alongside the cumulative instruments, the registry carries *windowed*
// histograms: an all-time histogram plus a ring of per-second slots, so
// batch size and latency (their counts and sums included) are queryable
// over the trailing N seconds while the process runs (the live read path
// behind obs/exporter.h and the /metrics endpoint), not just at exit.
// Observing is lock-free; a slot is recycled with a short CAS claim the
// first time a new second touches it.
//
// Like obs/trace.h, this sits below src/common and depends only on the
// standard library.

#ifndef SRDA_OBS_METRICS_H_
#define SRDA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace srda {
namespace obs {

// Adds `delta` to an atomic double with a relaxed CAS loop
// (atomic<double>::fetch_add is C++20 but not yet universal across
// standard libraries).
inline void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

// Whole seconds since the process-wide metrics epoch (steady clock,
// anchored on first use). Windowed instruments slot observations by this
// clock; tests inject explicit epochs instead.
int64_t EpochSeconds();

}  // namespace obs

// Monotonically increasing sum (flops, bytes, iterations, cache hits).
class Counter {
 public:
  void Add(double delta) { obs::AtomicAdd(&value_, delta); }
  void Increment() { Add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Last-written value (configuration knobs, sizes).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Relative-error bucketed distribution with count/sum/min/max: the
// DDSketch layout (Masson, Rim & Lee, VLDB 2019) over a fixed index range.
// With gamma = (1 + a) / (1 - a), bucket index i = ceil(log_gamma v)
// counts values in (gamma^(i-1), gamma^i] and reports 2 gamma^i /
// (gamma + 1), which lies within relative error a of every value in the
// bucket. Bucket 0 is the zero bucket (values below the range, 0,
// negatives, NaN; reported as 0); values above the range are clamped into
// the top bucket. Observe() is lock-free (relaxed atomics), so concurrent
// observations from pool workers never serialize.
class Histogram {
 public:
  // The relative error a of every reported quantile.
  static constexpr double kRelativeError = 0.01;
  // Index range [kMinIndex, kMaxIndex] spans (gamma^-347, gamma^1387],
  // about [2^-10, 2^40): ~1 ns to ~13 days in microseconds.
  static constexpr int kMinIndex = -346;
  static constexpr int kMaxIndex = 1387;
  static constexpr int kNumBuckets = kMaxIndex - kMinIndex + 2;

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const int64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  // 0 when empty.
  double min() const;
  double max() const;
  // Nearest-rank quantile: the representative value of the bucket holding
  // the observation of 0-based rank min(n - 1, floor(q n)) in sorted
  // order, n being the number of observations in the buckets walked.
  // Within kRelativeError of that observation when it lies in the range;
  // 0 when it is in the zero bucket. q outside [0, 1] is clamped into it.
  // Quiet NaN when empty — callers check count() before printing (a report
  // must never invent a quantile from zero samples).
  double ApproxQuantile(double q) const;
  int64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  // min/max start at +-infinity so concurrent first observations race
  // safely; the accessors report 0 until something has been observed.
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
};

// One row of a windowed snapshot: the trailing-window view of a windowed
// histogram (count/sum + nearest-rank quantiles).
struct WindowedMetricSnapshot {
  std::string name;
  int window_s = 0;
  double sum = 0.0;
  int64_t count = 0;
  double p50 = 0.0;  // NaN when count == 0
  double p99 = 0.0;
};

// Sliding-window histogram: an all-time Histogram (total()) beside a ring
// of per-second Histogram slots. One Observe feeds both views: total() is
// what the run summary, srda_serve and BENCH_serving.json read, and the
// slots whose second lies in (now - window_s, now] are merged at query time
// so CountOverAt / SumOverAt / QuantileOverAt report the trailing window
// only. Stale slots age out without a sweeper thread; the first touch of a
// new second recycles its slot behind a CAS claim (concurrent observers
// briefly spin on the claim, never block). QuantileOverAt runs
// Histogram::ApproxQuantile's walk over the merged buckets, so the two
// views answer identically on the same observations (and the empty window
// gives quiet NaN). Windows longer than kMaxWindowSeconds are clamped.
class WindowedHistogram {
 public:
  static constexpr int kSlots = 128;
  // One guard slot: the slot being recycled for the new second must never
  // also be inside the queryable window.
  static constexpr int kMaxWindowSeconds = kSlots - 1;

  void Observe(double value) { ObserveAt(obs::EpochSeconds(), value); }
  // Test seam: observe as-of an explicit epoch second.
  void ObserveAt(int64_t epoch_s, double value);

  // Every observation since construction or the last Reset().
  const Histogram& total() const { return total_; }

  // The trailing `window_s` seconds as of epoch second `now_s` (including
  // that second); 0 / NaN when nothing was observed in the window.
  int64_t CountOverAt(int window_s, int64_t now_s) const;
  double SumOverAt(int window_s, int64_t now_s) const;
  double QuantileOverAt(int window_s, double q, int64_t now_s) const;
  // Count, sum, p50 and p99 from one merge, so the row stays consistent
  // under concurrent observers; `name` is left empty.
  WindowedMetricSnapshot SnapshotAt(int window_s, int64_t now_s) const;

  // Clears both views.
  void Reset();

 private:
  struct Slot {
    // Epoch second this slot currently represents; -1 when empty, kBusy
    // while a recycling thread clears it.
    std::atomic<int64_t> epoch{-1};
    Histogram histogram;
  };
  static constexpr int64_t kBusy = -2;

  // Claims `slot` for `epoch_s` (clearing it) unless already current.
  static void EnsureSlot(Slot* slot, int64_t epoch_s);
  // Folds the window's buckets into `merged`; returns their total count.
  int64_t MergeWindow(int window_s, int64_t now_s,
                      int64_t merged[Histogram::kNumBuckets],
                      double* sum) const;

  Histogram total_;
  Slot slots_[kSlots];
};

// One row of a metrics snapshot, for programmatic consumers and tests.
struct MetricSnapshot {
  std::string name;
  enum class Kind { kCounter, kGauge, kHistogram } kind;
  double value = 0.0;     // counter/gauge value, histogram sum
  int64_t count = 0;      // histogram observation count
  double mean = 0.0;      // histogram mean
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;       // histogram quantiles; NaN when count == 0
  double p99 = 0.0;
};

// Process-wide registry. Lookup is mutex-protected (cache the pointer at
// hot call sites); the instruments themselves are lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Create-on-demand; returned pointers are stable for the process
  // lifetime. A name maps to exactly one instrument kind, windowed
  // histograms included — looking the same name up as a different kind
  // aborts.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);
  WindowedHistogram* windowed_histogram(const std::string& name);

  // Zeroes every instrument; registered pointers stay valid.
  void ResetAll();

  // Sorted-by-name snapshot / human-readable dump of non-zero instruments.
  // A windowed histogram's row is its total().
  std::vector<MetricSnapshot> Snapshot() const;
  void Print(std::ostream& os) const;

  // Trailing-window view of every windowed instrument as of epoch second
  // `now_s`, sorted by name.
  std::vector<WindowedMetricSnapshot> WindowedSnapshotAt(int window_s,
                                                         int64_t now_s) const;

 private:
  MetricsRegistry() = default;

  // The instrument named `name` in `instruments`, created on first use;
  // aborts when another kind's map holds the name.
  template <typename Instrument>
  Instrument* FindOrCreate(
      std::map<std::string, std::unique_ptr<Instrument>>* instruments,
      const std::string& name);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>>
      windowed_histograms_;
};

}  // namespace srda

#endif  // SRDA_OBS_METRICS_H_
