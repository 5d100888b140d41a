// Self-tests of the benchmark harness: the percentile rule, self-time
// accounting on nested and overlapping spans, seed plumbing, and a smoke
// run of every workload at tiny sizes.
//
//   perfbench_selftest            (or: python3 perfbench/run.py --self-test)

#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  using perfbench::NearestRank;
  using perfbench::PercentileReportable;
  using perfbench::SamplesBeyond;
  Expect(NearestRank(OneTo(100), 0.5) == 50, "p50 of 1..100 is 50");
  Expect(NearestRank(OneTo(100), 0.99) == 99, "p99 of 1..100 is 99");
  Expect(NearestRank(OneTo(100), 1.0) == 100, "p100 is the maximum");
  Expect(NearestRank(OneTo(10), 0.5) == 5, "p50 of 1..10 is rank 5");
  Expect(NearestRank(OneTo(3), 0.01) == 1, "tiny q gives rank 1");
  Expect(NearestRank({7.0}, 0.99) == 7.0, "single sample");
  Expect(perfbench::Median(OneTo(10)) == 5.5, "even-count median");
  Expect(SamplesBeyond(100, 0.99) == 1, "one sample beyond p99 of 100");
  Expect(!PercentileReportable(100, 0.99), "p99 of 100 samples withheld");
  Expect(SamplesBeyond(1000, 0.99) == 10, "ten beyond p99 of 1000");
  Expect(PercentileReportable(1000, 0.99), "p99 of 1000 samples reported");
  Expect(!PercentileReportable(999, 0.99), "p99 of 999 samples withheld");
  Expect(PercentileReportable(20, 0.5), "p50 of 20 samples reported");
  Expect(!PercentileReportable(0, 0.5), "no samples, no percentile");
}

perfbench::Span MakeSpan(int64_t start, int64_t end, int parent) {
  perfbench::Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  // 0: parent [0, 100]; 1 and 2 overlap; 3 nests in 1; 4 runs past the
  // parent's end and only its inside part counts.
  const std::vector<perfbench::Span> spans = {
      MakeSpan(0, 100, -1), MakeSpan(10, 30, 0), MakeSpan(20, 50, 0),
      MakeSpan(12, 15, 1),  MakeSpan(90, 120, 0),
  };
  const std::vector<double> self = perfbench::SelfTimes(spans);
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-15; };
  Expect(near(self[0], 50e-9), "parent self = 100 - [10,50] - [90,100]");
  Expect(near(self[1], 17e-9), "nested child self = 20 - 3");
  Expect(near(self[2], 30e-9), "leaf self = duration");
  Expect(near(self[3], 3e-9), "grandchild self = duration");
  Expect(near(self[4], 30e-9), "span past its parent keeps its duration");

  // Recorded spans nest by thread; other threads name the parent.
  perfbench::Tracer tracer;
  tracer.SetEnabled(true);
  {
    perfbench::ScopedSpan outer(&tracer, "core", "outer");
    { perfbench::ScopedSpan inner(&tracer, "matrix", "inner"); }
    std::thread other([&] {
      perfbench::ScopedSpan remote(&tracer, "serve", "remote", false,
                                   outer.index());
    });
    other.join();
    { perfbench::ScopedSpan replay(&tracer, "linalg", "replay", true); }
  }
  const std::vector<perfbench::Span> recorded = tracer.spans();
  Expect(recorded.size() == 4, "four spans recorded");
  if (recorded.size() == 4) {
    Expect(recorded[0].parent == -1, "outer is a root");
    Expect(recorded[1].parent == 0, "inner nests under outer");
    Expect(recorded[2].parent == 0, "remote names outer as parent");
    Expect(recorded[3].replay, "replay flag kept");
    const std::vector<double> s = perfbench::SelfTimes(recorded);
    Expect(perfbench::LayerSelfSeconds(recorded, s, "linalg") == 0.0,
           "replay spans excluded from layer self time");
    Expect(s[0] >= 0.0 && s[0] <= (recorded[0].end_ns - recorded[0].start_ns) *
                                      1e-9,
           "outer self time within its duration");
  }
  perfbench::Tracer off;
  Expect(off.Begin("core", "x", false) == -1, "disabled tracer records nothing");
}

void TestSeedPlumbing() {
  const perfbench::Sizes sizes = perfbench::SmokeSizes();
  for (const std::string& w : perfbench::WorkloadNames()) {
    const uint64_t a = perfbench::InputDigest(w, 5, sizes);
    const uint64_t b = perfbench::InputDigest(w, 5, sizes);
    const uint64_t c = perfbench::InputDigest(w, 6, sizes);
    Expect(a == b, w + ": same seed, same input digest");
    Expect(a != c, w + ": different seed, different input digest");
  }
}

void TestSmokeRuns() {
  for (const std::string& w : perfbench::WorkloadNames()) {
    for (const bool trace : {false, true}) {
      perfbench::RunConfig config;
      config.workload = w;
      config.seed = 3;
      config.seconds = 0.2;
      config.trace = trace;
      config.sizes = perfbench::SmokeSizes();
      const perfbench::RunOutput out = perfbench::RunWorkload(config);
      const std::string label = w + (trace ? " traced" : " untraced");
      Expect(out.ops.attempted() > 0, label + ": operations attempted");
      Expect(out.ops.failed() == 0, label + ": no failed operations");
      bool finite = true;
      bool nonzero = true;
      for (const perfbench::Metric& m : out.report.metrics()) {
        finite = finite && std::isfinite(m.value);
        nonzero = nonzero && m.value != 0.0;
      }
      Expect(finite, label + ": every metric finite");
      Expect(trace || nonzero, label + ": no end-to-end metric is zero");
      Expect(out.report.metrics().size() >= (trace ? 40u : 5u),
             label + ": every metric printed");
    }
  }
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestSeedPlumbing();
  TestSmokeRuns();
  if (g_failures > 0) {
    std::cerr << g_failures << " harness self-test check(s) failed\n";
    return 1;
  }
  std::cout << "harness self-test: all checks passed\n";
  return 0;
}
