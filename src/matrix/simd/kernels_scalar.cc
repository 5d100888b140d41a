// Scalar (autovec) kernel table: the generic implementations compiled at
// the project baseline, exactly what the blocked kernels ran before the
// explicit vector paths existed. Always compiled, at every architecture —
// this is both the fallback and the reference the vector tables are
// tested bitwise against.

#include "matrix/simd/kernel_impl.h"
#include "matrix/simd/tables.h"

namespace srda {
namespace simd {
namespace internal {

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      &generic::GemmTile,     &generic::DotTile,      &generic::SyrkRow,
      &generic::TrsmRows,     &generic::DowndateTile, &generic::RotatePanel,
  };
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace srda
