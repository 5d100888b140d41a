// srda_bench_diff: perf-regression gate over two bench JSON files.
//
// Usage:
//   srda_bench_diff BASELINE CURRENT [--threshold=PCT]
//                   [--threshold:metric.path=PCT] [--quiet]
//
// Flattens every numeric leaf of both documents to a dot-joined path
// (results[2].lsqr_seconds -> "results.2.lsqr_seconds"), pairs them up,
// and classifies each metric by name:
//
//   lower is better:   *seconds*, *_us, *_ms, *_ns, *iterations*, *bytes*
//   higher is better:  *per_s*, *per_sec*, *speedup*, *gflops*, *qps*,
//                      *throughput*
//   informational:     everything else (shape fields, counts, alphas) —
//                      compared for presence, never gated.
//
// A gated metric regresses when it moves in the bad direction by more than
// the threshold (default 30%, tuned to sit above machine noise on the
// smoke benches; override per metric with --threshold:PATH=PCT, where PATH
// may also be a suffix of the full path). Metrics present in only one file
// are reported but never fatal — bench output grows fields across
// versions. Exits 0 when nothing regressed, 1 on any regression, 2 on
// unreadable/malformed input. Prints one row per gated metric:
//
//   metric                         baseline     current      delta  verdict
//   results.0.train_seconds        1.23         1.25         +1.6%  ok
//
// The ctest wiring (bench/CMakeLists.txt) runs each smoke bench, diffs its
// JSON against itself (must pass), and tools_integration_test fabricates a
// 2x-slower copy to prove the gate trips. scripts/run_all.sh ends with a
// bench-diff summary table against the repo's committed BENCH_*.json.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/obs_check.h"

namespace srda {
namespace {

constexpr char kUsage[] =
    "usage: srda_bench_diff BASELINE CURRENT [--threshold=PCT]\n"
    "       [--threshold:metric.path=PCT] [--quiet]\n";

enum class Direction { kLowerBetter, kHigherBetter, kInformational };

bool Contains(const std::string& name, const char* needle) {
  return name.find(needle) != std::string::npos;
}

bool EndsWith(const std::string& name, const char* suffix) {
  const size_t n = std::string(suffix).size();
  return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
}

// Classifies a flattened metric path by the final key's name. Checked on
// the last path segment so a parent named "throughput" does not flip the
// direction of a child named "seconds".
Direction Classify(const std::string& path) {
  const size_t dot = path.rfind('.');
  const std::string leaf =
      dot == std::string::npos ? path : path.substr(dot + 1);
  if (Contains(leaf, "per_s") || Contains(leaf, "per_sec") ||
      Contains(leaf, "speedup") || Contains(leaf, "gflops") ||
      Contains(leaf, "qps") || Contains(leaf, "throughput")) {
    return Direction::kHigherBetter;
  }
  if (Contains(leaf, "seconds") || EndsWith(leaf, "_s") ||
      EndsWith(leaf, "_us") || EndsWith(leaf, "_ms") ||
      EndsWith(leaf, "_ns") || Contains(leaf, "iterations") ||
      Contains(leaf, "bytes")) {
    return Direction::kLowerBetter;
  }
  return Direction::kInformational;
}

// Flattens numeric leaves to dot-joined paths; array indices become path
// segments ("results.2.train_seconds").
void FlattenNumbers(const JsonValue& value, const std::string& prefix,
                    std::map<std::string, double>* out) {
  switch (value.type) {
    case JsonValue::Type::kNumber:
      (*out)[prefix] = value.number;
      break;
    case JsonValue::Type::kObject:
      for (const auto& [key, child] : value.object) {
        FlattenNumbers(child, prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    case JsonValue::Type::kArray:
      for (size_t i = 0; i < value.array.size(); ++i) {
        const std::string indexed =
            (prefix.empty() ? "" : prefix + ".") + std::to_string(i);
        FlattenNumbers(value.array[i], indexed, out);
      }
      break;
    default:
      break;  // strings/bools/nulls are not gateable
  }
}

bool LoadFlattened(const std::string& path, std::map<std::string, double>* out,
                   std::string* error) {
  std::ifstream input(path);
  if (!input) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream contents;
  contents << input.rdbuf();
  JsonValue document;
  std::string parse_error;
  if (!ParseJson(contents.str(), &document, &parse_error)) {
    *error = path + ": " + parse_error;
    return false;
  }
  FlattenNumbers(document, "", out);
  if (out->empty()) {
    *error = path + ": no numeric metrics";
    return false;
  }
  return true;
}

struct Options {
  std::string baseline_path;
  std::string current_path;
  double threshold_pct = 30.0;
  // Per-metric overrides: full path or suffix -> percent.
  std::vector<std::pair<std::string, double>> overrides;
  bool quiet = false;
};

// The longest matching override wins; falls back to the global threshold.
double ThresholdFor(const Options& options, const std::string& path) {
  double best = options.threshold_pct;
  size_t best_len = 0;
  for (const auto& [pattern, pct] : options.overrides) {
    if ((path == pattern || EndsWith(path, ("." + pattern).c_str()) ||
         EndsWith(path, pattern.c_str())) &&
        pattern.size() > best_len) {
      best = pct;
      best_len = pattern.size();
    }
  }
  return best;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--quiet") {
      options.quiet = true;
      continue;
    }
    const std::string metric_prefix = "--threshold:";
    if (arg.compare(0, metric_prefix.size(), metric_prefix) == 0) {
      const size_t equals = arg.find('=', metric_prefix.size());
      if (equals == std::string::npos) {
        std::cerr << "srda_bench_diff: bad override " << arg << "\n" << kUsage;
        return 2;
      }
      const std::string pattern =
          arg.substr(metric_prefix.size(), equals - metric_prefix.size());
      options.overrides.emplace_back(pattern,
                                     std::stod(arg.substr(equals + 1)));
      continue;
    }
    const std::string threshold_prefix = "--threshold=";
    if (arg.compare(0, threshold_prefix.size(), threshold_prefix) == 0) {
      options.threshold_pct = std::stod(arg.substr(threshold_prefix.size()));
      continue;
    }
    if (options.baseline_path.empty()) {
      options.baseline_path = arg;
    } else if (options.current_path.empty()) {
      options.current_path = arg;
    } else {
      std::cerr << "srda_bench_diff: unexpected argument " << arg << "\n"
                << kUsage;
      return 2;
    }
  }
  if (options.current_path.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  std::map<std::string, double> baseline;
  std::map<std::string, double> current;
  std::string error;
  if (!LoadFlattened(options.baseline_path, &baseline, &error) ||
      !LoadFlattened(options.current_path, &current, &error)) {
    std::cerr << "srda_bench_diff: " << error << "\n";
    return 2;
  }

  int regressions = 0;
  int gated = 0;
  int only_one_side = 0;
  if (!options.quiet) {
    std::printf("%-44s %12s %12s %8s  %s\n", "metric", "baseline", "current",
                "delta", "verdict");
  }
  for (const auto& [path, base_value] : baseline) {
    const auto it = current.find(path);
    if (it == current.end()) {
      ++only_one_side;
      if (!options.quiet) {
        std::printf("%-44s %12.4g %12s %8s  missing-in-current\n",
                    path.c_str(), base_value, "-", "-");
      }
      continue;
    }
    const double current_value = it->second;
    const Direction direction = Classify(path);
    if (direction == Direction::kInformational) continue;
    ++gated;
    // Signed percent change, oriented so positive = worse.
    double worse_pct = 0.0;
    if (base_value != 0.0) {
      const double change = (current_value - base_value) / std::fabs(base_value);
      worse_pct =
          100.0 * (direction == Direction::kLowerBetter ? change : -change);
    } else if (current_value != 0.0 &&
               direction == Direction::kLowerBetter) {
      worse_pct = std::numeric_limits<double>::infinity();
    }
    const double threshold = ThresholdFor(options, path);
    const bool regressed = worse_pct > threshold;
    if (regressed) ++regressions;
    if (!options.quiet || regressed) {
      const double delta_pct =
          base_value != 0.0
              ? 100.0 * (current_value - base_value) / std::fabs(base_value)
              : 0.0;
      std::printf("%-44s %12.4g %12.4g %+7.1f%%  %s\n", path.c_str(),
                  base_value, current_value, delta_pct,
                  regressed ? "REGRESSED" : "ok");
    }
  }
  for (const auto& [path, value] : current) {
    if (baseline.count(path) == 0) {
      ++only_one_side;
      if (!options.quiet) {
        std::printf("%-44s %12s %12.4g %8s  missing-in-baseline\n",
                    path.c_str(), "-", value, "-");
      }
    }
  }
  std::printf("%d gated metric(s), %d regression(s), %d unmatched\n", gated,
              regressions, only_one_side);
  return regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace srda

int main(int argc, char** argv) { return srda::Main(argc, argv); }
