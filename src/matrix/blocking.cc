#include "matrix/blocking.h"

#include <algorithm>
#include <new>

#include "common/parallel.h"
#include "matrix/simd/simd.h"

namespace srda {
namespace {

BlockConfig& ActiveConfig() {
  static BlockConfig config;
  return config;
}

}  // namespace

const BlockConfig& GetBlockConfig() { return ActiveConfig(); }

void ParallelForRowTiles(int begin, int end,
                         const std::function<void(int, int)>& fn) {
  constexpr int kRows = simd::kGemmTileRows;
  ParallelFor(0, (end - begin + kRows - 1) / kRows, [&](int t0, int t1) {
    fn(begin + t0 * kRows, std::min(end, begin + t1 * kRows));
  });
}

PanelScratch::~PanelScratch() {
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t{64});
  }
}

double* PanelScratch::Acquire(size_t count) {
  if (count > capacity_) {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{64});
    }
    data_ = static_cast<double*>(
        ::operator new(count * sizeof(double), std::align_val_t{64}));
    capacity_ = count;
    // First touch: commit the pages from the calling thread.
    std::fill(data_, data_ + count, 0.0);
  }
  return data_;
}

void SetBlockConfig(const BlockConfig& config) {
  const BlockConfig defaults;
  BlockConfig resolved = config;
  if (resolved.kc <= 0) resolved.kc = defaults.kc;
  if (resolved.mc <= 0) resolved.mc = defaults.mc;
  if (resolved.nc <= 0) resolved.nc = defaults.nc;
  if (resolved.nb <= 0) resolved.nb = defaults.nb;
  ActiveConfig() = resolved;
}

}  // namespace srda
