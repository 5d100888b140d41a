#include "machine.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "harness.h"
#include "matrix/blas.h"
#include "matrix/blocking.h"
#include "matrix/matrix.h"
#include "matrix/simd/simd.h"

#ifndef PERFBENCH_GIT_REVISION
#define PERFBENCH_GIT_REVISION "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

srda::Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  srda::Rng rng(seed);
  srda::Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    double* row = m.RowPtr(i);
    for (int j = 0; j < cols; ++j) row[j] = rng.NextUniform(-1.0, 1.0);
  }
  return m;
}

}  // namespace

int64_t LastLevelCacheBytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long bytes = sysconf(name);
    if (bytes > 0) return bytes;
  }
  return 0;
}

Ceilings MeasureCeilings(int gemm_n, int64_t array_bytes) {
  Ceilings ceilings;
  ceilings.gemm_n = gemm_n;
  const srda::Matrix a = RandomMatrix(gemm_n, gemm_n, 11);
  const srda::Matrix b = RandomMatrix(gemm_n, gemm_n, 12);
  const double flops = 2.0 * gemm_n * static_cast<double>(gemm_n) * gemm_n;
  double best = 1e300;
  double checksum = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = Now();
    const srda::Matrix c = srda::Multiply(a, b);
    best = std::min(best, Now() - start);
    checksum += c(0, 0);
  }
  ceilings.gemm_gflops = checksum == checksum ? flops / best * 1e-9 : 0.0;

  ceilings.llc_bytes = LastLevelCacheBytes();
  const int64_t n = array_bytes / static_cast<int64_t>(sizeof(double));
  ceilings.triad_array_bytes = n * static_cast<int64_t>(sizeof(double));
  std::vector<double> x(static_cast<size_t>(n));
  std::vector<double> y(static_cast<size_t>(n));
  std::vector<double> z(static_cast<size_t>(n));
  const int chunk = 1 << 16;
  const int chunks = static_cast<int>((n + chunk - 1) / chunk);
  // First touch from the pool, so pages land where the triad runs.
  srda::ParallelFor(0, chunks, [&](int begin, int end) {
    for (int c = begin; c < end; ++c) {
      const int64_t lo = static_cast<int64_t>(c) * chunk;
      const int64_t hi = std::min<int64_t>(n, lo + chunk);
      for (int64_t i = lo; i < hi; ++i) {
        x[static_cast<size_t>(i)] = 0.0;
        y[static_cast<size_t>(i)] = 1.0;
        z[static_cast<size_t>(i)] = 2.0;
      }
    }
  });
  best = 1e300;
  for (int rep = 0; rep < 4; ++rep) {
    const double start = Now();
    srda::ParallelFor(0, chunks, [&](int begin, int end) {
      for (int c = begin; c < end; ++c) {
        const int64_t lo = static_cast<int64_t>(c) * chunk;
        const int64_t hi = std::min<int64_t>(n, lo + chunk);
        double* xp = x.data();
        const double* yp = y.data();
        const double* zp = z.data();
        for (int64_t i = lo; i < hi; ++i) xp[i] = yp[i] + 3.0 * zp[i];
      }
    });
    best = std::min(best, Now() - start);
  }
  ceilings.triad_gbps =
      x[static_cast<size_t>(n / 2)] == 7.0
          ? 3.0 * static_cast<double>(ceilings.triad_array_bytes) / best * 1e-9
          : 0.0;
  return ceilings;
}

std::string ProvenanceJson(const std::string& workload, uint64_t seed,
                           bool trace, bool smoke) {
  const srda::BlockConfig& blocks = srda::GetBlockConfig();
  std::ostringstream out;
  out << "{\"git_revision\": \"" << JsonEscape(PERFBENCH_GIT_REVISION)
      << "\", \"compiler\": \"" << JsonEscape(__VERSION__)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"cxx_flags\": \"" << JsonEscape(PERFBENCH_CXX_FLAGS)
      << "\", \"simd_level\": \""
      << srda::simd::CpuLevelName(srda::simd::ActiveLevel())
      << "\", \"threads\": " << srda::GlobalThreadCount()
      << ", \"pinning\": \""
      << (srda::GlobalThreadPool().pinned() ? "pinned" : "free")
      << "\", \"block_config\": {\"kc\": " << blocks.kc
      << ", \"mc\": " << blocks.mc << ", \"nc\": " << blocks.nc
      << ", \"nb\": " << blocks.nb
      << "}, \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"llc_bytes\": " << LastLevelCacheBytes() << ", \"workload\": \""
      << JsonEscape(workload) << "\", \"seed\": " << seed
      << ", \"trace\": " << (trace ? 1 : 0)
      << ", \"smoke\": " << (smoke ? "true" : "false") << "}";
  return out.str();
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
