// srda_trace_check: validate the files the obs layer emits.
//
// Usage:
//   srda_trace_check FILE [--format=trace|prom] [--require=a,b,...]
//
// Formats:
//   trace   (default) Chrome trace JSON written by --trace-out
//           (TraceRecorder::WriteJsonFile); --require names spans.
//   prom    Prometheus text exposition written by --metrics-out or scraped
//           from /metrics; --require names metrics (post-sanitization,
//           e.g. srda_serve_batch_size_count).
//
// Exits 0 when FILE validates and every --require'd name appears at least
// once; prints the first violation to stderr and exits 1 otherwise. Used as
// the second half of the bench_smoke_trace / trace_schema_check ctest pair.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/obs_check.h"

namespace srda {
namespace {

constexpr char kUsage[] =
    "usage: srda_trace_check FILE [--format=trace|prom] "
    "[--require=name1,name2,...]\n";

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> names;
  std::string item;
  std::istringstream stream(list);
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) names.push_back(item);
  }
  return names;
}

int Main(int argc, char** argv) {
  std::string path;
  std::string format = "trace";
  std::vector<std::string> required_names;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::cout << kUsage;
      return 0;
    }
    const std::string require_prefix = "--require=";
    if (arg.compare(0, require_prefix.size(), require_prefix) == 0) {
      const std::vector<std::string> names =
          SplitCommaList(arg.substr(require_prefix.size()));
      required_names.insert(required_names.end(), names.begin(), names.end());
      continue;
    }
    const std::string format_prefix = "--format=";
    if (arg.compare(0, format_prefix.size(), format_prefix) == 0) {
      format = arg.substr(format_prefix.size());
      if (format != "trace" && format != "prom") {
        std::cerr << "srda_trace_check: unknown format " << format << "\n"
                  << kUsage;
        return 1;
      }
      continue;
    }
    if (!path.empty()) {
      std::cerr << "srda_trace_check: unexpected argument " << arg << "\n"
                << kUsage;
      return 1;
    }
    path = arg;
  }
  if (path.empty()) {
    std::cerr << kUsage;
    return 1;
  }

  std::ifstream input(path);
  if (!input) {
    std::cerr << "srda_trace_check: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream contents;
  contents << input.rdbuf();

  std::string error;
  const bool ok =
      format == "prom"
          ? ValidatePrometheusText(contents.str(), required_names, &error)
          : ValidateTraceJson(contents.str(), required_names, &error);
  if (!ok) {
    std::cerr << "srda_trace_check: " << path << ": " << error << "\n";
    return 1;
  }
  std::cout << path << ": ok\n";
  return 0;
}

}  // namespace
}  // namespace srda

int main(int argc, char** argv) { return srda::Main(argc, argv); }
