#!/bin/sh
# Builds the concurrency-sensitive test binaries with ThreadSanitizer and
# runs them with a multi-thread pool. Catches data races in the parallel
# execution layer (common/parallel.h) and the kernels built on it.
#
# Death tests fork under TSan and produce noisy false positives, so they
# are filtered out.
set -e
cd "$(dirname "$0")/.."

cmake -B build-tsan -S . -DSRDA_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan --target \
  parallel_test matrix_test sparse_test linalg_lsqr_test core_srda_test \
  blocking_test simd_test linalg_cholesky_test linalg_cholesky_update_test \
  solver_test obs_test io_test sharded_test classify_test \
  model_test serving_test

export SRDA_NUM_THREADS=4
for t in parallel_test matrix_test sparse_test linalg_lsqr_test \
         core_srda_test blocking_test simd_test linalg_cholesky_test \
         linalg_cholesky_update_test solver_test obs_test io_test \
         sharded_test classify_test model_test \
         serving_test; do
  echo "== TSan: $t =="
  ./build-tsan/tests/"$t" --gtest_filter='-*DeathTest*'
done

echo "TSan suite passed."
