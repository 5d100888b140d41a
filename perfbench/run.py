#!/usr/bin/env python3
"""End-to-end benchmark of the SRDA library.

Builds the benchmark package in perfbench/ (which compiles the library from
../src) with CMake into .bench_build/perfbench inside the checkout, then
runs one workload and passes its output through:

  python3 perfbench/run.py --workload faces_dense --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

Workloads: faces_dense, text_sparse, serve_faces (see BENCHMARK.json for
why each exists). With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run. Exit status is 0 when every output check passed, 1
when a check failed, and 2 when the benchmark could not be built or run.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under " + os.path.join(ROOT, "src"))
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def run(command, work_dir):
    """Runs one benchmark process to completion; returns its exit status."""
    os.makedirs(work_dir, exist_ok=True)
    with subprocess.Popen(command, cwd=work_dir) as process:
        try:
            return process.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            log("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
            return 2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; a run takes seconds")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 2
    work_dir = os.path.join(BUILD, "work")
    if args.self_test:
        return run([os.path.join(BUILD, "perfbench_selftest")], work_dir)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return run(command, work_dir)


if __name__ == "__main__":
    sys.exit(main())
