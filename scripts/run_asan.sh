#!/bin/sh
# Builds the LSQR, operator, solver, sketch, sharded and sparse test
# binaries with AddressSanitizer and runs them with a multi-thread pool.
# Catches out-of-bounds reads and writes, use-after-free and leaks in the
# block products, the packed LSQR passes and the shard streaming.
set -e
cd "$(dirname "$0")/.."

cmake -B build-asan -S . -DSRDA_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan --target \
  linalg_lsqr_test solver_test sketch_test sharded_test core_srda_test \
  sparse_test

export SRDA_NUM_THREADS=4
for t in linalg_lsqr_test solver_test sketch_test sharded_test \
         core_srda_test sparse_test; do
  echo "== ASan: $t =="
  ./build-asan/tests/"$t"
done
echo "ASan suite passed."
