// Machine ceilings measured in the same process as the workloads, the
// provenance stamped into every result, and peak memory.

#ifndef PERFBENCH_MACHINE_H_
#define PERFBENCH_MACHINE_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Ceilings {
  double gemm_gflops = 0.0;     // best blocked Multiply at n^3, all threads
  int gemm_n = 0;
  double triad_gbps = 0.0;      // best STREAM triad a = b + s*c, all threads
  int64_t triad_array_bytes = 0;
  int64_t llc_bytes = 0;        // last-level cache the array size is set from
};

// `gemm_n` is the GEMM edge; each of the three triad arrays holds
// `array_bytes` (the benchmark uses four times the last-level cache).
Ceilings MeasureCeilings(int gemm_n, int64_t array_bytes);

// Last-level cache size reported by the C library, 0 when unknown.
int64_t LastLevelCacheBytes();

// One JSON object: git revision, compiler and flags, SIMD level, threads,
// pinning, block config, nproc, LLC size, workload and seed.
std::string ProvenanceJson(const std::string& workload, uint64_t seed,
                           bool trace, bool smoke);

// Peak resident set size of this process, in MiB.
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_MACHINE_H_
