#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace srda {
namespace obs {

namespace {

// Anchored on first use; windowed slots only ever compare values from
// this one clock, so the anchor point is arbitrary.
std::chrono::steady_clock::time_point MetricsEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

int64_t EpochSeconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now() - MetricsEpoch())
      .count();
}

}  // namespace obs

namespace {

// Relaxed CAS "update towards" for atomic min/max.
template <typename Better>
void AtomicExtreme(std::atomic<double>* target, double value, Better better) {
  double current = target->load(std::memory_order_relaxed);
  while (better(value, current) &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

constexpr double kAlpha = Histogram::kRelativeError;
constexpr double kGamma = (1.0 + kAlpha) / (1.0 - kAlpha);
// ln gamma = 2 atanh(alpha) = 2 (alpha + alpha^3/3 + alpha^5/5 + ...):
// through alpha^7 the series is exact to double precision at alpha = 0.01
// and, unlike std::log, usable in a constant expression.
constexpr double kAlpha2 = kAlpha * kAlpha;
constexpr double kLogGamma =
    2.0 * kAlpha *
    (1.0 + kAlpha2 * (1.0 / 3.0 + kAlpha2 * (1.0 / 5.0 + kAlpha2 / 7.0)));
constexpr double kInvLogGamma = 1.0 / kLogGamma;

// Bucket of `value`: 0 below the range (and for 0, negatives, NaN), the
// top bucket above it, otherwise 1 + ceil(log_gamma value) - kMinIndex.
int BucketIndex(double value) {
  if (!(value > 0.0)) return 0;
  const double index = std::ceil(std::log(value) * kInvLogGamma);
  if (index < Histogram::kMinIndex) return 0;
  if (index > Histogram::kMaxIndex) return Histogram::kNumBuckets - 1;
  return static_cast<int>(index) - Histogram::kMinIndex + 1;
}

// The value a bucket reports: 2 gamma^i / (gamma + 1) for bucket index i,
// within relative error alpha of (gamma^(i-1), gamma^i]; 0 for the zero
// bucket.
double BucketValue(int b) {
  if (b == 0) return 0.0;
  const int index = b - 1 + Histogram::kMinIndex;
  return 2.0 * std::exp(index * kLogGamma) / (kGamma + 1.0);
}

// The quantile walk shared by the cumulative and windowed histograms:
// nearest rank min(n - 1, floor(q n)) with n the sum of the walked
// buckets, so a count that races ahead of the buckets cannot push the rank
// past the end. NaN when every bucket is empty.
double NearestRankQuantile(const int64_t* buckets, double q) {
  int64_t n = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) n += buckets[b];
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::min(1.0, std::max(0.0, q));
  const int64_t rank =
      std::min(n - 1, static_cast<int64_t>(q * static_cast<double>(n)));
  int64_t seen = 0;
  for (int b = 0;; ++b) {
    seen += buckets[b];
    if (seen > rank) return BucketValue(b);
  }
}

MetricSnapshot HistogramRow(const std::string& name,
                            const Histogram& histogram) {
  MetricSnapshot row;
  row.name = name;
  row.kind = MetricSnapshot::Kind::kHistogram;
  row.value = histogram.sum();
  row.count = histogram.count();
  row.mean = histogram.mean();
  row.min = histogram.min();
  row.max = histogram.max();
  row.p50 = histogram.ApproxQuantile(0.5);
  row.p99 = histogram.ApproxQuantile(0.99);
  return row;
}

}  // namespace

void Histogram::Observe(double value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  obs::AtomicAdd(&sum_, value);
  AtomicExtreme(&min_, value, [](double a, double b) { return a < b; });
  AtomicExtreme(&max_, value, [](double a, double b) { return a > b; });
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::ApproxQuantile(double q) const {
  int64_t buckets[kNumBuckets];
  for (int b = 0; b < kNumBuckets; ++b) buckets[b] = bucket(b);
  return NearestRankQuantile(buckets, q);
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

void WindowedHistogram::EnsureSlot(Slot* slot, int64_t epoch_s) {
  for (;;) {
    int64_t tag = slot->epoch.load(std::memory_order_acquire);
    if (tag == kBusy) continue;  // another thread is recycling; spin briefly
    if (tag >= epoch_s) return;  // current (or a racing newer second: the
                                 // observation lands one slot late, which a
                                 // one-second-granular window tolerates)
    if (slot->epoch.compare_exchange_weak(tag, kBusy,
                                          std::memory_order_acq_rel)) {
      slot->histogram.Reset();
      slot->epoch.store(epoch_s, std::memory_order_release);
      return;
    }
  }
}

void WindowedHistogram::ObserveAt(int64_t epoch_s, double value) {
  total_.Observe(value);
  Slot& slot = slots_[static_cast<size_t>(epoch_s % kSlots)];
  EnsureSlot(&slot, epoch_s);
  slot.histogram.Observe(value);
}

int64_t WindowedHistogram::MergeWindow(
    int window_s, int64_t now_s, int64_t merged[Histogram::kNumBuckets],
    double* sum) const {
  window_s = std::min(std::max(window_s, 1), kMaxWindowSeconds);
  std::fill(merged, merged + Histogram::kNumBuckets, 0);
  *sum = 0.0;
  for (const Slot& slot : slots_) {
    const int64_t tag = slot.epoch.load(std::memory_order_acquire);
    if (tag <= now_s - window_s || tag > now_s) continue;
    *sum += slot.histogram.sum();
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      merged[b] += slot.histogram.bucket(b);
    }
  }
  // Counted from the buckets, not the slots' counters (which an in-flight
  // Observe bumps first), so the count matches what a quantile walks.
  int64_t count = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) count += merged[b];
  return count;
}

int64_t WindowedHistogram::CountOverAt(int window_s, int64_t now_s) const {
  int64_t merged[Histogram::kNumBuckets];
  double sum = 0.0;
  return MergeWindow(window_s, now_s, merged, &sum);
}

double WindowedHistogram::SumOverAt(int window_s, int64_t now_s) const {
  int64_t merged[Histogram::kNumBuckets];
  double sum = 0.0;
  MergeWindow(window_s, now_s, merged, &sum);
  return sum;
}

double WindowedHistogram::QuantileOverAt(int window_s, double q,
                                         int64_t now_s) const {
  int64_t merged[Histogram::kNumBuckets];
  double sum = 0.0;
  MergeWindow(window_s, now_s, merged, &sum);
  return NearestRankQuantile(merged, q);
}

WindowedMetricSnapshot WindowedHistogram::SnapshotAt(int window_s,
                                                     int64_t now_s) const {
  int64_t merged[Histogram::kNumBuckets];
  WindowedMetricSnapshot row;
  row.window_s = window_s;
  row.count = MergeWindow(window_s, now_s, merged, &row.sum);
  row.p50 = NearestRankQuantile(merged, 0.50);
  row.p99 = NearestRankQuantile(merged, 0.99);
  return row;
}

void WindowedHistogram::Reset() {
  total_.Reset();
  for (Slot& slot : slots_) {
    slot.epoch.store(-1, std::memory_order_relaxed);
    slot.histogram.Reset();
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked for the same reason as TraceRecorder::Global(): instruments are
  // touched from thread destructors during static teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

template <typename Instrument>
Instrument* MetricsRegistry::FindOrCreate(
    std::map<std::string, std::unique_ptr<Instrument>>* instruments,
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t kinds = counters_.count(name) + gauges_.count(name) +
                       histograms_.count(name) +
                       windowed_histograms_.count(name);
  if (kinds != instruments->count(name)) {
    std::fprintf(stderr, "metric '%s' already registered with another kind\n",
                 name.c_str());
    std::abort();
  }
  std::unique_ptr<Instrument>& slot = (*instruments)[name];
  if (slot == nullptr) slot = std::make_unique<Instrument>();
  return slot.get();
}

Counter* MetricsRegistry::counter(const std::string& name) {
  return FindOrCreate(&counters_, name);
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  return FindOrCreate(&gauges_, name);
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  return FindOrCreate(&histograms_, name);
}

WindowedHistogram* MetricsRegistry::windowed_histogram(
    const std::string& name) {
  return FindOrCreate(&windowed_histograms_, name);
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
  for (auto& [name, windowed] : windowed_histograms_) windowed->Reset();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> rows;
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot row;
    row.name = name;
    row.kind = MetricSnapshot::Kind::kCounter;
    row.value = counter->value();
    rows.push_back(row);
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot row;
    row.name = name;
    row.kind = MetricSnapshot::Kind::kGauge;
    row.value = gauge->value();
    rows.push_back(row);
  }
  for (const auto& [name, histogram] : histograms_) {
    rows.push_back(HistogramRow(name, *histogram));
  }
  for (const auto& [name, windowed] : windowed_histograms_) {
    rows.push_back(HistogramRow(name, windowed->total()));
  }
  // std::map iteration is sorted within each kind; interleave by name.
  std::sort(rows.begin(), rows.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return rows;
}

std::vector<WindowedMetricSnapshot> MetricsRegistry::WindowedSnapshotAt(
    int window_s, int64_t now_s) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WindowedMetricSnapshot> rows;
  for (const auto& [name, histogram] : windowed_histograms_) {
    WindowedMetricSnapshot row = histogram->SnapshotAt(window_s, now_s);
    row.name = name;
    rows.push_back(row);
  }
  return rows;  // std::map iteration is already sorted by name
}

void MetricsRegistry::Print(std::ostream& os) const {
  char line[256];
  for (const MetricSnapshot& row : Snapshot()) {
    switch (row.kind) {
      case MetricSnapshot::Kind::kCounter:
      case MetricSnapshot::Kind::kGauge:
        if (row.value == 0.0) continue;  // unused instrument, skip
        std::snprintf(line, sizeof(line), "  %-34s %.6g\n", row.name.c_str(),
                      row.value);
        break;
      case MetricSnapshot::Kind::kHistogram:
        if (row.count == 0) continue;
        std::snprintf(line, sizeof(line),
                      "  %-34s count=%lld mean=%.6g min=%.6g max=%.6g\n",
                      row.name.c_str(), static_cast<long long>(row.count),
                      row.mean, row.min, row.max);
        break;
    }
    os << line;
  }
}

}  // namespace srda
