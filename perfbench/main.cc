// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload faces_dense|text_sparse|serve_faces --seed N
//             --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// Prints the provenance, one line per metric (name, value, unit), and as
// its last line the result object. Exits 1 when any output check failed.
// run.py builds this binary and is the usual way to run it.

#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "machine.h"
#include "workloads.h"

namespace {

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool smoke = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (!has_value) {
      return Usage("missing value for " + arg);
    } else if (arg == "--workload") {
      config.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = argv[++i];
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage("unknown workload " + config.workload);
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");
  config.sizes = smoke ? perfbench::SmokeSizes() : perfbench::FullSizes();

  std::cout << "provenance: "
            << perfbench::ProvenanceJson(config.workload, config.seed,
                                         config.trace, smoke)
            << std::endl;
  const perfbench::RunOutput out = perfbench::RunWorkload(config);
  std::cout << "input digest: " << std::hex << out.input_digest << std::dec
            << "\n";
  for (const perfbench::Metric& m : out.report.metrics()) {
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit
              << "\n";
  }
  const int64_t attempted = out.ops.attempted();
  const int64_t failed = out.ops.failed();
  std::cout << "operations: " << attempted << " attempted, " << failed
            << " failed (failed_ops_ratio "
            << (attempted > 0 ? static_cast<double>(failed) / attempted : 1.0)
            << ")\n";
  const bool correct = failed == 0 && attempted > 0;
  std::cout << out.report.ResultLine(correct, attempted, failed) << std::endl;
  return correct ? 0 : 1;
}
