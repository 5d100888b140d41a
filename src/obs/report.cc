#include "obs/report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

#include "obs/metrics.h"
#include "obs/runtime_info.h"

namespace srda {
namespace {

struct Interval {
  const TraceEvent* event;
  double child_ns = 0.0;  // total duration of directly nested spans
};

}  // namespace

std::vector<PhaseStat> AggregateTrace(const std::vector<TraceEvent>& events) {
  // Group by thread, then recover nesting per thread by sorting on
  // (start asc, duration desc): a span always starts before and ends after
  // its children, so a stack sweep attributes each span's duration to its
  // direct parent and the self time falls out.
  std::map<int, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& event : events) {
    by_tid[event.tid].push_back(&event);
  }

  std::map<std::string, PhaseStat> stats;
  auto fold = [&stats](const Interval& interval) {
    const TraceEvent& event = *interval.event;
    PhaseStat& stat = stats[event.name];
    if (stat.name.empty()) stat.name = event.name;
    stat.count += 1;
    stat.wall_ms += event.duration_ns / 1e6;
    stat.self_ms +=
        std::max(0.0, (event.duration_ns - interval.child_ns) / 1e6);
    for (int a = 0; a < event.num_args; ++a) {
      if (std::string_view(event.arg_keys[a]) == "flops") {
        stat.flops += event.arg_values[a];
      }
    }
  };

  for (auto& [tid, thread_events] : by_tid) {
    std::sort(thread_events.begin(), thread_events.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->start_ns != b->start_ns) {
                  return a->start_ns < b->start_ns;
                }
                return a->duration_ns > b->duration_ns;
              });
    std::vector<Interval> stack;
    for (const TraceEvent* event : thread_events) {
      while (!stack.empty() &&
             stack.back().event->start_ns +
                     stack.back().event->duration_ns <=
                 event->start_ns) {
        const Interval finished = stack.back();
        stack.pop_back();
        if (!stack.empty()) {
          stack.back().child_ns += finished.event->duration_ns;
        }
        fold(finished);
      }
      stack.push_back(Interval{event});
    }
    while (!stack.empty()) {
      const Interval finished = stack.back();
      stack.pop_back();
      if (!stack.empty()) {
        stack.back().child_ns += finished.event->duration_ns;
      }
      fold(finished);
    }
  }

  std::vector<PhaseStat> rows;
  rows.reserve(stats.size());
  for (auto& [name, stat] : stats) rows.push_back(stat);
  std::sort(rows.begin(), rows.end(),
            [](const PhaseStat& a, const PhaseStat& b) {
              return a.wall_ms > b.wall_ms;
            });
  return rows;
}

void PrintRunSummary(std::ostream& os) {
  const std::vector<PhaseStat> phases =
      AggregateTrace(TraceRecorder::Global().Collect());
  char line[256];
  if (!phases.empty()) {
    os << "\n== Phase summary (from trace spans) ==\n";
    // The SIMD level is published by the dispatch layer — the numbers
    // below are meaningless without knowing which kernels produced them.
    const std::string simd_level = obs::GetRuntimeInfo("simd.level");
    if (!simd_level.empty()) os << "  runtime: simd=" << simd_level << "\n";
    std::snprintf(line, sizeof(line), "  %-24s %8s %11s %11s %10s %9s\n",
                  "phase", "count", "wall ms", "self ms", "GFLOP",
                  "GFLOP/s");
    os << line;
    for (const PhaseStat& phase : phases) {
      // Achieved throughput only for phases that reported work, and only
      // when the clock resolved (sub-resolution wall times would print inf).
      const bool rate_ok = phase.flops > 0.0 && phase.wall_ms > 0.0;
      char gflop[32] = "-";
      char gflops[32] = "-";
      if (phase.flops > 0.0) {
        std::snprintf(gflop, sizeof(gflop), "%.4g", phase.flops / 1e9);
      }
      if (rate_ok) {
        std::snprintf(gflops, sizeof(gflops), "%.3g",
                      phase.flops / (phase.wall_ms * 1e6));
      }
      std::snprintf(line, sizeof(line), "  %-24s %8lld %11.3f %11.3f %10s %9s\n",
                    phase.name.c_str(), static_cast<long long>(phase.count),
                    phase.wall_ms, phase.self_ms, gflop, gflops);
      os << line;
    }
  }
  // Fold-downdate effectiveness, one line: cross-validation should show
  // every fold factor coming from a downdate of the parent's, with full
  // refactorizations only on the condition fallback.
  double fold_hits = 0.0;
  double fold_fallbacks = 0.0;
  bool any_metrics = false;
  for (const MetricSnapshot& snapshot : MetricsRegistry::Global().Snapshot()) {
    any_metrics = any_metrics || snapshot.value != 0.0 || snapshot.count != 0;
    if (snapshot.name == "ridge.fold_downdate_hit") {
      fold_hits = snapshot.value;
    } else if (snapshot.name == "ridge.fold_downdate_fallback") {
      fold_fallbacks = snapshot.value;
    }
  }
  if (fold_hits > 0.0 || fold_fallbacks > 0.0) {
    std::snprintf(line, sizeof(line),
                  "\n== Fold factors ==\n  %.0f downdated from the parent "
                  "factor, %.0f rebuilt (condition fallback)\n",
                  fold_hits, fold_fallbacks);
    os << line;
  }
  if (any_metrics) {
    os << "\n== Metrics ==\n";
    MetricsRegistry::Global().Print(os);
  }
}

}  // namespace srda
