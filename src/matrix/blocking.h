// Cache-blocking configuration for the dense kernels.
//
// All tiled kernels — the level-3 products in matrix/blas.cc and the
// blocked Cholesky factorization / triangular solves in linalg/cholesky.cc —
// read their tile shapes from one process-wide BlockConfig. The defaults
// target a typical 32 KB L1 / 512 KB L2 cache; the autotune sweep
// (bench_table1_complexity --sweep-blocks) tries others and prints new
// defaults, and tests shrink them with SetBlockConfig to exercise tile
// boundaries on small matrices.
//
// Tile shapes never affect results: every blocked kernel accumulates each
// output element in a fixed k-ascending order regardless of the tiling (see
// DESIGN.md, "Blocking layer"), so the knobs are pure performance tuning.

#ifndef SRDA_MATRIX_BLOCKING_H_
#define SRDA_MATRIX_BLOCKING_H_

#include <cstddef>
#include <functional>

namespace srda {

struct BlockConfig {
  // K-panel depth of the level-3 products: the reduction dimension is cut
  // into panels of kc iterations that stream through cache while an output
  // tile stays resident.
  int kc = 128;
  // Output row-tile height: rows of C updated against one K-panel before
  // the panel is released.
  int mc = 32;
  // Output column-stripe width, sized so a stripe of the operand panel and
  // the C rows it updates fit in L1 together.
  int nc = 256;
  // Panel width of the blocked right-looking Cholesky factorization and of
  // the blocked triangular solves.
  int nb = 64;
};

// The active configuration: the defaults above until SetBlockConfig.
const BlockConfig& GetBlockConfig();

// Replaces the active configuration; fields <= 0 reset to their defaults.
// Not safe to call concurrently with running kernels — intended for tests
// and benchmark sweeps, mirroring SetGlobalThreadCount.
void SetBlockConfig(const BlockConfig& config);

// ParallelFor over the output rows [begin, end) of a gemm_tile product,
// cut only at multiples of simd::kGemmTileRows from `begin`: every chunk
// but the last hands the kernel whole register tiles. A 4-row product then
// runs as one tile on one thread instead of four one-row chunks.
void ParallelForRowTiles(int begin, int end,
                         const std::function<void(int, int)>& fn);

// Scratch buffer for packed K-panels and kernel workspaces, owned by the
// thread that consumes it. Acquire() allocates 64-byte-aligned storage
// (full-cacheline vector loads) and zero-fills it on growth — the
// zero-fill is the first touch, so under the first-touch NUMA policy the
// pages land on the node of the worker that will stream the panel.
// Declare one inside each ParallelFor chunk lambda.
class PanelScratch {
 public:
  PanelScratch() = default;
  ~PanelScratch();
  PanelScratch(const PanelScratch&) = delete;
  PanelScratch& operator=(const PanelScratch&) = delete;

  // A buffer of at least `count` doubles; contents unspecified after a
  // growth reallocation, zeroed on first use.
  double* Acquire(size_t count);

 private:
  double* data_ = nullptr;
  size_t capacity_ = 0;
};

}  // namespace srda

#endif  // SRDA_MATRIX_BLOCKING_H_
