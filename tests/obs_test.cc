// Tests for the observability layer (src/obs): trace recording, per-thread
// buffer merging, metric atomicity, the JSON emitter/validator pair
// (tools/obs_check.h), and the phase-summary aggregation.
//
// The trace recorder and metrics registry are process-wide singletons, so
// every test starts from a clean slate via the fixture and restores the
// disabled state on exit (other test binaries assume tracing is off).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flops.h"
#include "common/parallel.h"
#include "gtest/gtest.h"
#include "linalg/lsqr.h"
#include "obs/exporter.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "tools/obs_check.h"

namespace srda {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().SetEnabled(false);
    TraceRecorder::Global().Clear();
  }

  void TearDown() override {
    TraceRecorder::Global().SetEnabled(false);
    TraceRecorder::Global().Clear();
    SetGlobalThreadCount(0);
  }
};

int64_t CountByName(const std::vector<TraceEvent>& events,
                    const std::string& name) {
  int64_t count = 0;
  for (const TraceEvent& event : events) {
    if (name == event.name) ++count;
  }
  return count;
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  const size_t before = TraceRecorder::Global().Collect().size();
  for (int i = 0; i < 100; ++i) {
    TraceSpan span("noop");
    EXPECT_FALSE(span.recording());
    span.AddArg("flops", 1.0);  // must be dropped, not crash
  }
  EXPECT_EQ(TraceRecorder::Global().Collect().size(), before);
}

TEST_F(ObsTest, RecordsCompleteSpansWithArgs) {
  TraceRecorder::Global().SetEnabled(true);
  {
    TraceSpan span("outer");
    ASSERT_TRUE(span.recording());
    span.AddArg("flops", 128.0);
    span.AddArg("n", 64.0);
    span.AddArg("dropped", 1.0);  // third arg is capped away
    TraceSpan inner("inner");
  }
  const std::vector<TraceEvent> events = TraceRecorder::Global().Collect();
  ASSERT_EQ(events.size(), 2u);

  // Buffers record in completion order: inner closes first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_EQ(events[1].num_args, 2);
  EXPECT_STREQ(events[1].arg_keys[0], "flops");
  EXPECT_EQ(events[1].arg_values[0], 128.0);
  EXPECT_GE(events[1].duration_ns, events[0].duration_ns);
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
}

TEST_F(ObsTest, NestingDepthRestoredAcrossSiblings) {
  TraceRecorder::Global().SetEnabled(true);
  {
    TraceSpan a("a");
    { TraceSpan child("a.child"); }
    { TraceSpan sibling("a.sibling"); }
  }
  const std::vector<TraceEvent> events = TraceRecorder::Global().Collect();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].depth, 1);  // a.child
  EXPECT_EQ(events[1].depth, 1);  // a.sibling, not 2
  EXPECT_EQ(events[2].depth, 0);  // a
}

TEST_F(ObsTest, MergesSpansAcrossPoolThreads) {
  SetGlobalThreadCount(4);
  TraceRecorder::Global().SetEnabled(true);
  TraceRecorder::Global().Clear();

  constexpr int kItems = 64;
  std::atomic<int> visited{0};
  ParallelFor(0, kItems, [&visited](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      TraceSpan span("work.item");
      visited.fetch_add(1, std::memory_order_relaxed);
    }
  });

  EXPECT_EQ(visited.load(), kItems);
  const std::vector<TraceEvent> events = TraceRecorder::Global().Collect();
  EXPECT_EQ(CountByName(events, "work.item"), kItems);
  // The pool instrumented its own dispatch too.
  EXPECT_EQ(CountByName(events, "pool.parallel_for"), 1);
  EXPECT_GT(CountByName(events, "pool.chunk"), 0);
}

TEST_F(ObsTest, ThreadsGetDistinctTids) {
  TraceRecorder::Global().SetEnabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] { TraceSpan span("tid.span"); });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<int> tids;
  for (const TraceEvent& event : TraceRecorder::Global().Collect()) {
    if (std::string(event.name) == "tid.span") tids.push_back(event.tid);
  }
  ASSERT_EQ(tids.size(), static_cast<size_t>(kThreads));
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST_F(ObsTest, EventsSurviveThreadExit) {
  TraceRecorder::Global().SetEnabled(true);
  std::thread worker([] { TraceSpan span("short.lived"); });
  worker.join();
  // The thread retired its buffer on exit; the event must still be merged.
  const std::vector<TraceEvent> events = TraceRecorder::Global().Collect();
  EXPECT_EQ(CountByName(events, "short.lived"), 1);
}

TEST_F(ObsTest, CounterMatchesSingleThreadedSum) {
  Counter* counter = MetricsRegistry::Global().counter("test.atomicity");
  counter->Reset();

  constexpr int kItems = 4096;
  for (int i = 0; i < kItems; ++i) counter->Add(1.0);
  const double serial = counter->value();
  counter->Reset();

  SetGlobalThreadCount(4);
  ParallelFor(0, kItems, [counter](int begin, int end) {
    for (int i = begin; i < end; ++i) counter->Add(1.0);
  });
  EXPECT_EQ(counter->value(), serial);
  EXPECT_EQ(counter->value(), static_cast<double>(kItems));
  counter->Reset();
}

TEST_F(ObsTest, HistogramTracksCountSumMinMax) {
  Histogram* histogram = MetricsRegistry::Global().histogram("test.histogram");
  histogram->Reset();
  EXPECT_EQ(histogram->count(), 0);
  EXPECT_EQ(histogram->min(), 0.0);
  EXPECT_EQ(histogram->max(), 0.0);

  histogram->Observe(2.0);
  histogram->Observe(8.0);
  histogram->Observe(0.5);
  EXPECT_EQ(histogram->count(), 3);
  EXPECT_EQ(histogram->sum(), 10.5);
  EXPECT_EQ(histogram->min(), 0.5);
  EXPECT_EQ(histogram->max(), 8.0);
  EXPECT_DOUBLE_EQ(histogram->mean(), 3.5);
  histogram->Reset();
  EXPECT_EQ(histogram->count(), 0);
}

// ---- Histogram quantiles: within the relative error of nearest rank. ----

// The observation of 0-based rank min(n - 1, floor(q n)) in sorted order:
// the exact quantile the histograms approximate.
double ExactNearestRank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  return values[rank];
}

// |approx - exact| <= alpha |exact|, with round-off slack for a value that
// sits exactly on a bucket edge.
void ExpectWithinAlpha(double approx, double exact, const std::string& what) {
  EXPECT_LE(std::fabs(approx - exact),
            Histogram::kRelativeError * (1.0 + 1e-9) * std::fabs(exact))
      << what << ": approx " << approx << " exact " << exact;
}

struct Distribution {
  std::string name;
  std::vector<double> values;
};

std::vector<Distribution> QuantileDistributions() {
  std::vector<Distribution> out;
  Distribution bimodal{"bimodal", {}};
  for (int i = 0; i < 500; ++i) {
    bimodal.values.push_back(10.0 + 0.01 * i);
    bimodal.values.push_back(5000.0 + 3.0 * i);
  }
  out.push_back(bimodal);
  Distribution outlier{"single outlier", std::vector<double>(999, 50.0)};
  outlier.values.push_back(1e6);
  out.push_back(outlier);
  // Pareto(1.2) with x_min = 1, drawn on an inverse-CDF grid.
  Distribution pareto{"pareto(1.2)", {}};
  constexpr int kPareto = 20000;
  for (int k = 0; k < kPareto; ++k) {
    pareto.values.push_back(
        std::pow(1.0 - (k + 0.5) / kPareto, -1.0 / 1.2));
  }
  out.push_back(pareto);
  out.push_back({"constant", std::vector<double>(100, 42.0)});
  // Geometric sweep of the whole bucket range, 2^-10 .. 2^40.
  Distribution sweep{"geometric sweep", {}};
  for (int k = 0; k <= 2000; ++k) {
    sweep.values.push_back(std::exp2(-10.0 + 50.0 * k / 2000.0));
  }
  out.push_back(sweep);
  return out;
}

constexpr double kQuantiles[] = {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0};

TEST_F(ObsTest, HistogramApproxQuantile) {
  Histogram* histogram = MetricsRegistry::Global().histogram("test.quantile");
  histogram->Reset();
  // Empty histogram: NaN at every q — a quantile must never be invented
  // from zero samples (callers check count() before printing).
  for (const double q : kQuantiles) {
    EXPECT_TRUE(std::isnan(histogram->ApproxQuantile(q)));
  }

  for (const Distribution& d : QuantileDistributions()) {
    histogram->Reset();
    for (const double v : d.values) histogram->Observe(v);
    for (const double q : kQuantiles) {
      ExpectWithinAlpha(histogram->ApproxQuantile(q),
                        ExactNearestRank(d.values, q),
                        d.name + " q=" + std::to_string(q));
    }
  }

  // A single observation is reported within alpha of itself at every q.
  histogram->Reset();
  histogram->Observe(7.0);
  for (const double q : kQuantiles) {
    ExpectWithinAlpha(histogram->ApproxQuantile(q), 7.0, "single");
  }

  // 0, negatives, NaN and values below the range land in the zero bucket
  // and report 0.
  histogram->Reset();
  for (const double v : {0.0, -3.0, std::nan(""), 1e-5}) histogram->Observe(v);
  EXPECT_EQ(histogram->bucket(0), 4);
  EXPECT_EQ(histogram->ApproxQuantile(0.0), 0.0);
  EXPECT_EQ(histogram->ApproxQuantile(1.0), 0.0);

  // Values above the range are clamped into the top bucket, whose value
  // is within alpha of its upper edge gamma^kMaxIndex (~2^40).
  histogram->Reset();
  histogram->Observe(1e300);
  histogram->Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(histogram->bucket(Histogram::kNumBuckets - 1), 2);
  const double gamma =
      (1.0 + Histogram::kRelativeError) / (1.0 - Histogram::kRelativeError);
  ExpectWithinAlpha(histogram->ApproxQuantile(0.5),
                    std::pow(gamma, Histogram::kMaxIndex), "top bucket");
  histogram->Reset();
}

// A sparse tail at the p99 rank: 1,600 observations (25 rounds of 64
// requests) with 15, 16 or 17 of them at 1354 and the rest in [100, 199].
// At 16 the nearest-rank p99 is the tail, one rank past the body; both
// histogram views must report it within alpha, not a body value.
TEST_F(ObsTest, HistogramP99TracksSparseTailAtNearestRank) {
  auto windowed = std::make_unique<WindowedHistogram>();
  for (const int tail : {15, 16, 17}) {
    windowed->Reset();
    std::vector<double> values;
    for (int i = 0; i < 1600 - tail; ++i) values.push_back(100.0 + i % 100);
    for (int i = 0; i < tail; ++i) values.push_back(1354.0);
    for (size_t i = 0; i < values.size(); ++i) {
      windowed->ObserveAt(1000 + static_cast<int64_t>(i % 7), values[i]);
    }
    const double exact = ExactNearestRank(values, 0.99);
    EXPECT_EQ(exact, tail >= 16 ? 1354.0 : 199.0);
    const std::string what = "tail " + std::to_string(tail);
    ExpectWithinAlpha(windowed->total().ApproxQuantile(0.99), exact, what);
    ExpectWithinAlpha(windowed->QuantileOverAt(10, 0.99, 1006), exact, what);
  }
}

TEST_F(ObsTest, RegistryResetKeepsPointersValid) {
  Counter* counter = MetricsRegistry::Global().counter("test.reset");
  counter->Add(7.0);
  MetricsRegistry::Global().ResetAll();
  EXPECT_EQ(counter->value(), 0.0);
  EXPECT_EQ(MetricsRegistry::Global().counter("test.reset"), counter);
  counter->Add(1.0);
  EXPECT_EQ(counter->value(), 1.0);
  counter->Reset();
}

TEST_F(ObsTest, WrittenJsonValidates) {
  TraceRecorder::Global().SetEnabled(true);
  {
    TraceSpan span("json.span");
    span.AddArg("flops", 42.0);
  }
  { TraceSpan span("json \"quoted\\name"); }  // must be escaped, not break

  std::ostringstream out;
  TraceRecorder::Global().WriteJson(out);
  std::string error;
  EXPECT_TRUE(ValidateTraceJson(out.str(), {"json.span"}, &error)) << error;
  EXPECT_FALSE(ValidateTraceJson(out.str(), {"absent.span"}, &error));

  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(TraceRecorder::Global().WriteJsonFile(path));
  std::ifstream input(path);
  std::ostringstream contents;
  contents << input.rdbuf();
  EXPECT_EQ(contents.str(), out.str());
  std::remove(path.c_str());
}

TEST_F(ObsTest, JsonParserRejectsMalformedDocuments) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson("", &value, &error));
  EXPECT_FALSE(ParseJson("{", &value, &error));
  EXPECT_FALSE(ParseJson("{\"a\":1,}", &value, &error));
  EXPECT_FALSE(ParseJson("{\"a\":1} extra", &value, &error));
  EXPECT_FALSE(ParseJson("{\"a\":1,\"a\":2}", &value, &error));  // dup key
  EXPECT_FALSE(ParseJson("[1,2", &value, &error));
  EXPECT_FALSE(ParseJson("nul", &value, &error));

  ASSERT_TRUE(ParseJson("{\"a\":[1,true,\"x\"],\"b\":-2.5e3}", &value, &error))
      << error;
  ASSERT_NE(value.Find("a"), nullptr);
  EXPECT_EQ(value.Find("a")->array.size(), 3u);
  EXPECT_EQ(value.Find("b")->number, -2500.0);
  // ASCII \u escapes decode exactly.
  ASSERT_TRUE(ParseJson("\"\\u0001\\u0041\"", &value, &error)) << error;
  EXPECT_EQ(value.string, "\x01" "A");

  EXPECT_FALSE(ValidateTraceJson("[]", {}, &error));  // root must be object
  EXPECT_FALSE(ValidateTraceJson("{\"traceEvents\":[]}", {}, &error));
  EXPECT_FALSE(ValidateTraceJson(
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\"}]}", {}, &error));
}

TEST_F(ObsTest, AggregateTraceComputesSelfTime) {
  std::vector<TraceEvent> events;
  TraceEvent outer;
  outer.name = "solve";
  outer.start_ns = 0;
  outer.duration_ns = 10'000'000;  // 10 ms
  outer.tid = 0;
  events.push_back(outer);

  TraceEvent inner;
  inner.name = "factor";
  inner.start_ns = 2'000'000;
  inner.duration_ns = 4'000'000;  // 4 ms inside solve
  inner.tid = 0;
  inner.num_args = 1;
  inner.arg_keys[0] = "flops";
  inner.arg_values[0] = 4.0e6;
  events.push_back(inner);

  // Same names on another thread must not be attributed as children.
  TraceEvent other;
  other.name = "factor";
  other.start_ns = 1'000'000;
  other.duration_ns = 1'000'000;
  other.tid = 1;
  other.num_args = 1;
  other.arg_keys[0] = "flops";
  other.arg_values[0] = 1.0e6;
  events.push_back(other);

  const std::vector<PhaseStat> stats = AggregateTrace(events);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "solve");  // sorted by wall time descending
  EXPECT_EQ(stats[0].count, 1);
  EXPECT_DOUBLE_EQ(stats[0].wall_ms, 10.0);
  EXPECT_DOUBLE_EQ(stats[0].self_ms, 6.0);  // 10 - 4 nested
  EXPECT_DOUBLE_EQ(stats[0].flops, 0.0);
  EXPECT_EQ(stats[1].name, "factor");
  EXPECT_EQ(stats[1].count, 2);
  EXPECT_DOUBLE_EQ(stats[1].wall_ms, 5.0);
  EXPECT_DOUBLE_EQ(stats[1].self_ms, 5.0);
  EXPECT_DOUBLE_EQ(stats[1].flops, 5.0e6);
}

TEST_F(ObsTest, FlopCounterLivesInRegistry) {
  Counter* flops = MetricsRegistry::Global().counter("flops.total");
  const double before = flops->value();
  AddFlops(123.0);
  EXPECT_EQ(flops->value(), before + 123.0);
  EXPECT_EQ(FlopCount(), flops->value());
}

TEST_F(ObsTest, LsqrStopNamesAreStable) {
  EXPECT_STREQ(LsqrStopName(LsqrStop::kIterationLimit), "iteration_limit");
  EXPECT_STREQ(LsqrStopName(LsqrStop::kRhsZero), "rhs_zero");
  EXPECT_STREQ(LsqrStopName(LsqrStop::kNormalZero), "normal_zero");
  EXPECT_STREQ(LsqrStopName(LsqrStop::kResidualTol), "residual_tol");
  EXPECT_STREQ(LsqrStopName(LsqrStop::kNormalResidualTol),
               "normal_residual_tol");
  EXPECT_STREQ(LsqrStopName(LsqrStop::kBreakdown), "breakdown");
}

// ---- Windowed instruments (the live-scrape read path). ----

TEST_F(ObsTest, WindowedHistogramSlidesAndAges) {
  // ~1.8 MB of slots: keep it off the stack.
  auto histogram = std::make_unique<WindowedHistogram>();
  // Observations at explicit epoch seconds (the test seam): three seconds
  // of traffic, then a query clock that moves past them.
  histogram->ObserveAt(100, 10.0);
  histogram->ObserveAt(101, 20.0);
  histogram->ObserveAt(102, 30.0);
  EXPECT_DOUBLE_EQ(histogram->SumOverAt(3, 102), 60.0);
  EXPECT_DOUBLE_EQ(histogram->SumOverAt(1, 102), 30.0);  // current second
  EXPECT_DOUBLE_EQ(histogram->SumOverAt(2, 102), 50.0);
  EXPECT_EQ(histogram->CountOverAt(2, 102), 2);
  // The window slides: at t=104 the first two seconds have aged out of a
  // 3-second window, and at t=200 everything has. The all-time view keeps
  // them.
  EXPECT_DOUBLE_EQ(histogram->SumOverAt(3, 104), 30.0);
  EXPECT_EQ(histogram->CountOverAt(3, 200), 0);
  EXPECT_EQ(histogram->total().count(), 3);
  EXPECT_DOUBLE_EQ(histogram->total().sum(), 60.0);
  // Slot reuse: second 228 recycles the ring slot second 100 used
  // (128-slot ring), and none of the old buckets may bleed through.
  histogram->ObserveAt(228, 7.0);
  EXPECT_EQ(histogram->CountOverAt(1, 228), 1);
  EXPECT_DOUBLE_EQ(histogram->SumOverAt(1, 228), 7.0);
  ExpectWithinAlpha(histogram->QuantileOverAt(1, 1.0, 228), 7.0, "reused");
  EXPECT_EQ(histogram->total().count(), 4);
  // Reset clears both views.
  histogram->Reset();
  EXPECT_EQ(histogram->CountOverAt(WindowedHistogram::kMaxWindowSeconds, 228),
            0);
  EXPECT_EQ(histogram->total().count(), 0);
}

TEST_F(ObsTest, WindowedHistogramConcurrentObserves) {
  auto histogram = std::make_unique<WindowedHistogram>();
  constexpr int kThreads = 8;
  constexpr int kObserves = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kObserves; ++i) {
        histogram->ObserveAt(500 + (i % 3), 1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram->CountOverAt(3, 502), kThreads * kObserves);
  EXPECT_EQ(histogram->total().count(), kThreads * kObserves);
  EXPECT_DOUBLE_EQ(histogram->SumOverAt(3, 502),
                   static_cast<double>(kThreads * kObserves));
}

TEST_F(ObsTest, WindowedHistogramQuantilesAndEmptyWindow) {
  // ~1.8 MB of slots: keep it off the stack.
  auto histogram = std::make_unique<WindowedHistogram>();
  // Empty window: NaN quantiles, zero count (same contract as the
  // cumulative histogram).
  EXPECT_EQ(histogram->CountOverAt(10, 100), 0);
  EXPECT_TRUE(std::isnan(histogram->QuantileOverAt(10, 0.5, 100)));

  // Spread over five seconds, each distribution's windowed quantiles are
  // within alpha of nearest rank and equal to the all-time view's.
  for (const Distribution& d : QuantileDistributions()) {
    histogram->Reset();
    for (size_t i = 0; i < d.values.size(); ++i) {
      histogram->ObserveAt(100 + static_cast<int64_t>(i % 5), d.values[i]);
    }
    EXPECT_EQ(histogram->CountOverAt(10, 104),
              static_cast<int64_t>(d.values.size()));
    for (const double q : kQuantiles) {
      const double windowed = histogram->QuantileOverAt(10, q, 104);
      ExpectWithinAlpha(windowed, ExactNearestRank(d.values, q),
                        d.name + " q=" + std::to_string(q));
      EXPECT_EQ(windowed, histogram->total().ApproxQuantile(q)) << d.name;
    }
  }

  histogram->Reset();
  for (int i = 1; i <= 100; ++i) {
    histogram->ObserveAt(100 + (i % 5), static_cast<double>(i));
  }
  EXPECT_EQ(histogram->CountOverAt(10, 104), 100);
  EXPECT_DOUBLE_EQ(histogram->SumOverAt(10, 104), 5050.0);
  // A narrow window sees only its seconds' observations.
  EXPECT_EQ(histogram->CountOverAt(1, 104), 20);
  ExpectWithinAlpha(histogram->QuantileOverAt(1, 1.0, 104), 99.0,
                    "narrow window max");
  // Everything ages out.
  EXPECT_EQ(histogram->CountOverAt(10, 300), 0);
  EXPECT_TRUE(std::isnan(histogram->QuantileOverAt(10, 0.5, 300)));
}

TEST_F(ObsTest, RegistryWindowedSnapshot) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  WindowedHistogram* histogram =
      registry.windowed_histogram("test.win_latency");
  histogram->Reset();
  histogram->ObserveAt(1000, 3.0);
  histogram->ObserveAt(1000, 5.0);

  const std::vector<WindowedMetricSnapshot> rows =
      registry.WindowedSnapshotAt(10, 1000);
  const WindowedMetricSnapshot* windowed_row = nullptr;
  for (const WindowedMetricSnapshot& row : rows) {
    if (row.name == "test.win_latency") windowed_row = &row;
  }
  ASSERT_NE(windowed_row, nullptr);
  EXPECT_EQ(windowed_row->count, 2);
  EXPECT_DOUBLE_EQ(windowed_row->sum, 8.0);
  EXPECT_FALSE(std::isnan(windowed_row->p50));

  // The cumulative snapshot carries the same histogram's all-time row.
  const MetricSnapshot* total_row = nullptr;
  const std::vector<MetricSnapshot> totals = registry.Snapshot();
  for (const MetricSnapshot& row : totals) {
    if (row.name == "test.win_latency") total_row = &row;
  }
  ASSERT_NE(total_row, nullptr);
  EXPECT_EQ(total_row->kind, MetricSnapshot::Kind::kHistogram);
  EXPECT_EQ(total_row->count, 2);
  EXPECT_DOUBLE_EQ(total_row->value, 8.0);
  histogram->Reset();
}

// A snapshot row comes from one merge of the window; on a quiescent
// histogram it must agree exactly with the per-figure accessors, each of
// which merges on its own.
TEST_F(ObsTest, WindowedSnapshotRowMatchesAccessors) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  WindowedHistogram* histogram =
      registry.windowed_histogram("test.win_snapshot");
  histogram->Reset();
  for (int i = 1; i <= 200; ++i) {
    histogram->ObserveAt(2000 + (i % 7), 0.37 * i * i);
  }
  for (const int window_s : {1, 3, 10, WindowedHistogram::kMaxWindowSeconds}) {
    for (const int64_t now_s : {2003, 2006, 2200}) {
      const WindowedMetricSnapshot* row = nullptr;
      const std::vector<WindowedMetricSnapshot> rows =
          registry.WindowedSnapshotAt(window_s, now_s);
      for (const WindowedMetricSnapshot& r : rows) {
        if (r.name == "test.win_snapshot") row = &r;
      }
      ASSERT_NE(row, nullptr);
      const std::string where = "window " + std::to_string(window_s) +
                                " at " + std::to_string(now_s);
      EXPECT_EQ(row->window_s, window_s) << where;
      EXPECT_EQ(row->count, histogram->CountOverAt(window_s, now_s)) << where;
      EXPECT_EQ(row->sum, histogram->SumOverAt(window_s, now_s)) << where;
      const double p50 = histogram->QuantileOverAt(window_s, 0.50, now_s);
      const double p99 = histogram->QuantileOverAt(window_s, 0.99, now_s);
      if (row->count == 0) {
        EXPECT_TRUE(std::isnan(row->p50) && std::isnan(p50)) << where;
        EXPECT_TRUE(std::isnan(row->p99) && std::isnan(p99)) << where;
      } else {
        EXPECT_EQ(row->p50, p50) << where;
        EXPECT_EQ(row->p99, p99) << where;
      }
    }
  }
  // The windows above include both non-empty and aged-out views.
  EXPECT_GT(histogram->CountOverAt(3, 2006), 0);
  EXPECT_EQ(histogram->CountOverAt(10, 2200), 0);
  histogram->Reset();
}

// One namespace: a windowed histogram's name cannot be reused by another
// kind, in either lookup order.
TEST(ObsDeathTest, WindowedNameIsOneKind) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.windowed_histogram("test.one_kind");
  EXPECT_DEATH(registry.histogram("test.one_kind"),
               "already registered with another kind");
  EXPECT_DEATH(registry.counter("test.one_kind"),
               "already registered with another kind");
  registry.histogram("test.one_kind_cumulative");
  EXPECT_DEATH(registry.windowed_histogram("test.one_kind_cumulative"),
               "already registered with another kind");
}

// ---- Format validators (srda_trace_check --format=prom). ----

TEST_F(ObsTest, ValidatePrometheusTextAcceptsWellFormed) {
  const std::string text =
      "# HELP srda_requests Total requests.\n"
      "# TYPE srda_requests counter\n"
      "srda_requests 42\n"
      "# TYPE srda_latency_us summary\n"
      "srda_latency_us{quantile=\"0.5\"} 12.5\n"
      "srda_latency_us_sum 1250\n"
      "srda_latency_us_count 100\n"
      "srda_rate_window{window=\"10\"} 3.2\n"
      "srda_weird_value NaN\n"
      "srda_inf_value +Inf\n";
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(text, {}, &error)) << error;
  EXPECT_TRUE(ValidatePrometheusText(
      text, {"srda_requests", "srda_latency_us_count"}, &error))
      << error;
}

TEST_F(ObsTest, ValidatePrometheusTextRejectsMalformed) {
  std::string error;
  // Zero samples.
  EXPECT_FALSE(ValidatePrometheusText("# HELP a b\n", {}, &error));
  // Bad metric name (leading digit).
  EXPECT_FALSE(ValidatePrometheusText("9bad 1\n", {}, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  // Unparseable value.
  EXPECT_FALSE(ValidatePrometheusText("srda_x pancake\n", {}, &error));
  // Unterminated label block.
  EXPECT_FALSE(
      ValidatePrometheusText("srda_x{window=\"10\" 1\n", {}, &error));
  // Unknown TYPE keyword.
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE srda_x pie\nsrda_x 1\n", {}, &error));
  // Required name absent (suffix does not count as a match).
  EXPECT_FALSE(ValidatePrometheusText("srda_x_count 1\n", {"srda_x"}, &error));
  EXPECT_NE(error.find("srda_x"), std::string::npos) << error;
}

// ---- Exporter serializer: must satisfy our own validator. ----

TEST_F(ObsTest, PrometheusNameSanitizes) {
  EXPECT_EQ(obs::PrometheusName("serve.latency_us"), "srda_serve_latency_us");
  EXPECT_EQ(obs::PrometheusName("a-b c"), "srda_a_b_c");
}

TEST_F(ObsTest, PrometheusTextValidatesAndOmitsEmptyQuantiles) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("export.requests")->Add(17.0);
  Histogram* empty = registry.histogram("export.empty_hist");
  empty->Reset();
  Histogram* filled = registry.histogram("export.filled_hist");
  filled->Reset();
  filled->Observe(5.0);
  filled->Observe(9.0);
  WindowedHistogram* windowed = registry.windowed_histogram("export.win");
  windowed->Reset();
  windowed->ObserveAt(50, 8.0);

  const std::string text = obs::PrometheusTextAt(registry, 10, 50);
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(
      text,
      {"srda_up", "srda_export_requests", "srda_export_filled_hist_count",
       "srda_export_win_count", "srda_export_win_window_sum",
       "srda_export_win_window_count"},
      &error))
      << error << "\n" << text;
  // The empty histogram must not advertise quantiles...
  EXPECT_EQ(text.find("srda_export_empty_hist{quantile"), std::string::npos);
  // ...but the filled one must.
  EXPECT_NE(text.find("srda_export_filled_hist{quantile=\"0.5\"}"),
            std::string::npos);
  // Windowed rows carry the window label; the all-time rows do not.
  EXPECT_NE(text.find("srda_export_win_window_sum{window=\"10\"} 8"),
            std::string::npos);
  EXPECT_NE(text.find("srda_export_win_sum 8"), std::string::npos);
  windowed->Reset();
}

TEST_F(ObsTest, ExporterWritesSnapshotsAtomically) {
  MetricsRegistry::Global().counter("export.alive")->Add(1.0);
  obs::ExporterOptions options;
  options.path = ::testing::TempDir() + "/obs_test_metrics.prom";
  options.interval_s = 0.02;
  obs::Exporter exporter(options);
  ASSERT_TRUE(exporter.Start());
  EXPECT_TRUE(exporter.running());
  // First snapshot is synchronous, so the file exists right now.
  {
    std::ifstream in(options.path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    EXPECT_TRUE(ValidatePrometheusText(buffer.str(),
                                       {"srda_up", "srda_export_alive"},
                                       &error))
        << error;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  EXPECT_GE(exporter.snapshots_written(), 2);  // first + final at least
  // No torn temp file left behind.
  std::ifstream tmp(options.path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(options.path.c_str());
}

TEST_F(ObsTest, ExporterUnwritablePathFailsStart) {
  obs::ExporterOptions options;
  options.path = "/nonexistent_dir/metrics.prom";
  obs::Exporter exporter(options);
  EXPECT_FALSE(exporter.Start());
  EXPECT_FALSE(exporter.running());
}

// ---- HTTP server (the /metrics transport). ----

// Sends `request` verbatim to 127.0.0.1:`port` and returns the raw
// response; HttpGet only ever sends a well-formed GET.
std::string RawHttpRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0 &&
      ::send(fd, request.data(), request.size(), 0) ==
          static_cast<ssize_t>(request.size())) {
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      response.append(buffer, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

TEST_F(ObsTest, HttpServerServesAndRoutes) {
  obs::HttpServer server;
  server.Handle("/ping", [](const std::string&) {
    obs::HttpResponse response;
    response.content_type = "text/plain";
    response.body = "pong";
    return response;
  });
  server.Handle("/echo", [](const std::string& path) {
    obs::HttpResponse response;
    response.body = path;
    return response;
  });
  ASSERT_TRUE(server.Start(0));  // ephemeral port
  ASSERT_GT(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(obs::ParseHttpResponse(obs::HttpGet(server.port(), "/ping"),
                                     &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "pong");
  // Query strings are stripped before routing.
  ASSERT_TRUE(obs::ParseHttpResponse(
      obs::HttpGet(server.port(), "/echo?verbose=1"), &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "/echo");
  // Unknown path -> 404.
  ASSERT_TRUE(obs::ParseHttpResponse(obs::HttpGet(server.port(), "/missing"),
                                     &status, &body));
  EXPECT_EQ(status, 404);
  // A request line without method, path and version is a client error...
  const std::string malformed =
      RawHttpRequest(server.port(), "BROKEN\r\n\r\n");
  ASSERT_TRUE(obs::ParseHttpResponse(malformed, &status, &body)) << malformed;
  EXPECT_EQ(status, 400);
  EXPECT_EQ(malformed.rfind("HTTP/1.0 400 Bad Request\r\n", 0), 0u)
      << malformed;
  // ...while a well-formed request with another method is not allowed.
  ASSERT_TRUE(obs::ParseHttpResponse(
      RawHttpRequest(server.port(), "POST /ping HTTP/1.0\r\n\r\n"), &status,
      &body));
  EXPECT_EQ(status, 405);
  EXPECT_EQ(server.requests_served(), 5);
  server.Stop();
  EXPECT_FALSE(server.running());
  // After Stop, connections fail cleanly (empty raw response).
  EXPECT_TRUE(obs::HttpGet(server.port(), "/ping", 0.5).empty());
}

TEST_F(ObsTest, ParseHttpResponseHandlesStatusAndBody) {
  int status = 0;
  std::string body;
  EXPECT_TRUE(obs::ParseHttpResponse(
      "HTTP/1.0 503 Service Unavailable\r\nContent-Length: 3\r\n\r\nnot",
      &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body, "not");
  EXPECT_FALSE(obs::ParseHttpResponse("garbage", &status, &body));
}

}  // namespace
}  // namespace srda
