#include "matrix/simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "matrix/simd/tables.h"
#include "obs/metrics.h"
#include "obs/runtime_info.h"

namespace srda {
namespace simd {
namespace {

// Table lookup for a level this binary compiled in; null otherwise.
const KernelTable* TableFor(CpuLevel level) {
  switch (level) {
    case CpuLevel::kScalar:
      return &internal::ScalarTable();
    case CpuLevel::kAvx2:
#ifdef SRDA_SIMD_HAVE_AVX2
      return &internal::Avx2Table();
#else
      return nullptr;
#endif
    case CpuLevel::kAvx512:
#ifdef SRDA_SIMD_HAVE_AVX512
      return &internal::Avx512Table();
#else
      return nullptr;
#endif
    case CpuLevel::kNeon:
#ifdef SRDA_SIMD_HAVE_NEON
      return &internal::NeonTable();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

// Does the CPU we are running on execute this level's instructions?
// (Compiled-in availability is TableFor's job.) __builtin_cpu_supports
// performs the CPUID + XGETBV dance internally on x86-64; aarch64's NEON
// is architecturally guaranteed, no getauxval probe needed.
bool CpuExecutes(CpuLevel level) {
  switch (level) {
    case CpuLevel::kScalar:
      return true;
    case CpuLevel::kAvx2:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case CpuLevel::kAvx512:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case CpuLevel::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

// Best level this binary can both encode and execute.
CpuLevel DetectBest() {
  if (LevelSupported(CpuLevel::kAvx512)) return CpuLevel::kAvx512;
  if (LevelSupported(CpuLevel::kAvx2)) return CpuLevel::kAvx2;
  if (LevelSupported(CpuLevel::kNeon)) return CpuLevel::kNeon;
  return CpuLevel::kScalar;
}

// SRDA_CPU_LEVEL override. Unknown names and unsupported levels fall back
// to the detected best silently (a bad value never aborts a run, it just
// doesn't apply).
CpuLevel ResolveLevel() {
  CpuLevel level = DetectBest();
  const char* env = std::getenv("SRDA_CPU_LEVEL");
  if (env != nullptr && *env != '\0') {
    const CpuLevel named[] = {CpuLevel::kScalar, CpuLevel::kAvx2,
                              CpuLevel::kAvx512, CpuLevel::kNeon};
    for (const CpuLevel candidate : named) {
      if (std::strcmp(env, CpuLevelName(candidate)) == 0 &&
          LevelSupported(candidate)) {
        level = candidate;
        break;
      }
    }
  }
  return level;
}

// Publishes the active level where the reporting layers can see it.
void PublishLevel(CpuLevel level) {
  obs::SetRuntimeInfo("simd.level", CpuLevelName(level));
  MetricsRegistry::Global()
      .gauge("simd.dispatch_level")
      ->Set(static_cast<double>(level));
}

struct DispatchState {
  std::atomic<const KernelTable*> table{nullptr};
  std::atomic<CpuLevel> level{CpuLevel::kScalar};
};

DispatchState& State() {
  static DispatchState state;
  // Resolution runs exactly once (thread-safe local-static init of the
  // tag); later SetDispatchLevel calls swap the pointers atomically.
  static const bool resolved = [] {
    const CpuLevel level = ResolveLevel();
    PublishLevel(level);
    state.table.store(TableFor(level), std::memory_order_release);
    state.level.store(level, std::memory_order_release);
    return true;
  }();
  (void)resolved;
  return state;
}

}  // namespace

const KernelTable& Dispatch() {
  return *State().table.load(std::memory_order_acquire);
}

CpuLevel ActiveLevel() {
  return State().level.load(std::memory_order_acquire);
}

bool LevelSupported(CpuLevel level) {
  return TableFor(level) != nullptr && CpuExecutes(level);
}

std::vector<CpuLevel> SupportedLevels() {
  std::vector<CpuLevel> levels;
  const CpuLevel all[] = {CpuLevel::kScalar, CpuLevel::kAvx2,
                          CpuLevel::kAvx512, CpuLevel::kNeon};
  for (const CpuLevel level : all) {
    if (LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

bool SetDispatchLevel(CpuLevel level) {
  if (!LevelSupported(level)) return false;
  DispatchState& state = State();
  state.table.store(TableFor(level), std::memory_order_release);
  state.level.store(level, std::memory_order_release);
  PublishLevel(level);
  return true;
}

const char* CpuLevelName(CpuLevel level) {
  switch (level) {
    case CpuLevel::kScalar:
      return "scalar";
    case CpuLevel::kAvx2:
      return "avx2";
    case CpuLevel::kAvx512:
      return "avx512";
    case CpuLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

}  // namespace simd
}  // namespace srda
