#!/bin/sh
# Builds the tree and repeats the serving and observability tests 50
# times each under a 4-way parallel ctest, stopping at the first failure.
# These tests share process-wide instruments and a live HTTP listener
# with the rest of the suite's load, so a flaky assertion shows up here
# long before it shows up in a single tier-1 run.
set -e
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j4
ctest --test-dir build -j4 --repeat until-fail:50 -R 'ServingTest|ObsTest'
echo "Flake check passed."
