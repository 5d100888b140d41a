// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off (see
// src/matrix/CMakeLists.txt); only dispatch.cc calls in here, and only
// after __builtin_cpu_supports("avx2") said yes.

#include "matrix/simd/tables.h"

#ifdef SRDA_SIMD_HAVE_AVX2

#include <immintrin.h>

#include <cstddef>

#include "matrix/simd/kernel_impl.h"

namespace srda {
namespace simd {
namespace internal {
namespace {

#include "matrix/simd/kernels_x86_ymm.inl"

}  // namespace

const KernelTable& Avx2Table() {
  static const KernelTable table = {
      &GemmTileYmm,     &DotTileYmm,
      &TrsmRowsYmm,     &DowndateTileYmm, &RotatePanelYmm,
  };
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace srda

#endif  // SRDA_SIMD_HAVE_AVX2
