#!/bin/sh
# Builds the LSQR, operator, solver, sharded and sparse test
# binaries, plus the Cholesky/triangular-sweep, rank-1 update, eigen, SVD,
# LDA, RLDA, IDR/QR, incremental, PCA/Fisherfaces, kernel, graph and
# semi-supervised, model-selection, determinism, dataset-IO, model-codec,
# obs and serving tests, plus the SIMD dispatch test, with
# AddressSanitizer and UndefinedBehaviorSanitizer
# (-DSRDA_SANITIZE=address builds both; any UB report aborts the binary),
# and runs them with a multi-thread pool. Catches out-of-bounds reads and
# writes, use-after-free, leaks and undefined behaviour (signed overflow,
# misaligned or null accesses, bad shifts and casts) in the
# block products, the packed LSQR passes, the blocked triangular sweeps,
# the Givens updates, the QL rotation panels, every kernel table's
# hand-written vector kernels (downdate_tile, rotate_panel, trsm_rows),
# the parsers (data files, JSON, Prometheus
# text, HTTP request lines) and the shard streaming. The tools
# integration test runs the sanitized command-line tools (its CMake
# dependencies build them), so the CLI read paths run under both
# sanitizers in RAM and with --shard-rows.
set -e
cd "$(dirname "$0")/.."

TESTS="linalg_lsqr_test solver_test sharded_test core_srda_test
  sparse_test linalg_cholesky_test linalg_cholesky_update_test blocking_test
  linalg_eigen_test linalg_svd_test core_lda_test core_rlda_test
  core_idr_qr_test core_incremental_test select_test parallel_test
  io_test model_test obs_test serving_test simd_test tools_integration_test
  graph_test kernel_test core_pca_test"

cmake -B build-asan -S . -DSRDA_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086
cmake --build build-asan --target $TESTS

export SRDA_NUM_THREADS=4
for t in $TESTS; do
  echo "== ASan+UBSan: $t =="
  ./build-asan/tests/"$t"
done
echo "ASan+UBSan suite passed."
