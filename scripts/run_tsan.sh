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

# Second pass under chunk->thread pinning: the residue scheduler replaces
# the atomic chunk cursor, so its claim/retire handshake needs its own
# race coverage. The blocked triangular solves (blocking_test) run a
# ParallelFor per panel and the batched LSQR passes (linalg_lsqr_test) run
# the operator products, so they ride along, as do the sparse A^T*B
# accumulator's chunk waves and folds, in RAM (sparse_test) and on
# streamed shards (sharded_test).
export SRDA_PIN_THREADS=1
for t in parallel_test simd_test core_srda_test blocking_test \
         linalg_lsqr_test sparse_test sharded_test; do
  echo "== TSan (pinned): $t =="
  ./build-tsan/tests/"$t" --gtest_filter='-*DeathTest*'
done
echo "TSan suite passed."
