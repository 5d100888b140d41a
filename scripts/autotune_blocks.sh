#!/bin/sh
# Re-tunes the cache-blocking knobs (BlockConfig kc/mc/nc/nb) for this
# machine: builds the complexity bench and runs its coordinate-descent
# sweep (bench_table1_complexity --sweep-blocks), which prints the
# winning configuration as BlockConfig defaults to paste into
# src/matrix/blocking.h and refreshes BENCH_kernel_blocking.json at the
# repository root with blocked-vs-naive numbers measured under the tuned
# shapes.
#
# Pass --full to sweep at n=1024 (the size the committed numbers use);
# the default n=512 sweep finishes in well under a minute.
set -e
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build --target bench_table1_complexity -j
./build/bench/bench_table1_complexity --sweep-blocks "$@"
