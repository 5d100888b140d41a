// Test helper shared by the SIMD and blocking tests: forces a dispatch
// level for the duration of a scope and restores the previous one
// afterwards, so test order never leaks a forced level.

#ifndef SRDA_TESTS_SCOPED_LEVEL_H_
#define SRDA_TESTS_SCOPED_LEVEL_H_

#include "common/check.h"
#include "matrix/simd/simd.h"

namespace srda {

class ScopedLevel {
 public:
  explicit ScopedLevel(simd::CpuLevel level) : previous_(simd::ActiveLevel()) {
    SRDA_CHECK(simd::SetDispatchLevel(level));
  }
  ~ScopedLevel() { simd::SetDispatchLevel(previous_); }

  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  simd::CpuLevel previous_;
};

}  // namespace srda

#endif  // SRDA_TESTS_SCOPED_LEVEL_H_
