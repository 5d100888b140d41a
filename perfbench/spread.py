#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's figures.

Runs the benchmark once per seed on each workload (--trace 0, the run
length from BENCHMARK.json) and prints, per end-to-end metric, the median
and the quartile spread (Q3 - Q1) / median, with the quartiles taken by
statistics.quantiles(values, n=4), next to the metric's bound. A spread
above a third of its bound is flagged. The figures of single operations
that the run prints as "info" lines (train_s, select_s, ...) get the same
spread, without a bound.

With --sets 2 the same seeds run twice; each set is summarised on its own
and the second set's median of every end-to-end metric must not be worse
than the first's by more than the metric's bound.

  python3 perfbench/spread.py --workloads serve_faces --seeds 1 2 3 4 5
  python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --sets 2 \\
      --json-out spread.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit("%s seed %d failed with status %d"
                         % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit("%s seed %d: output checks failed" % (workload, seed))
    info = {}
    for line in lines:
        # info NAME = VALUE UNIT
        parts = line.split()
        if len(parts) == 5 and parts[0] == "info" and parts[2] == "=":
            info[parts[1]] = float(parts[3])
    return result, info, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def run_set(workload, seeds, seconds, bounds):
    """Runs one set of seeds and prints its summary; returns (report, steady)."""
    values = {name: [] for name in bounds}
    info = {}
    walls = []
    for seed in seeds:
        result, run_info, wall = run_once(workload, seed, seconds)
        walls.append(wall)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        for name, value in run_info.items():
            info.setdefault(name, []).append(value)
        print("%s seed %d: %.1f s; %s" % (
            workload, seed, wall,
            ", ".join("%s %.6g" % (name, values[name][-1]) for name in bounds)),
            flush=True)
    print("\n%s (%d seeds, median run %.1f s)" %
          (workload, len(seeds), statistics.median(walls)))
    print("%-20s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
    report = {"walls_s": walls, "metrics": {}, "info": {}}
    steady = True
    for name, bound in bounds.items():
        median, s = spread(values[name])
        flag = ""
        if s > bound / 3:
            flag = "  <-- above bound/3" if s <= bound else "  <-- ABOVE BOUND"
            steady = False
        print("%-20s %14.6g %9.4f %7.2f%s" % (name, median, s, bound, flag))
        report["metrics"][name] = {"values": values[name], "median": median,
                                   "spread": s, "bound": bound}
    for name, v in sorted(info.items()):
        if len(v) == len(seeds) and statistics.median(v) != 0:
            median, s = spread(v)
            print("%-20s %14.6g %9.4f %7s" % (name, median, s, "info"))
            report["info"][name] = {"values": v, "median": median, "spread": s}
    print(flush=True)
    return report, steady


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--json-out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    report = {}
    steady = True
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            set_report, set_steady = run_set(workload, args.seeds,
                                             spec["run_seconds"], bounds)
            sets.append(set_report)
            steady = steady and set_steady
        report[workload] = sets
        for later in sets[1:]:
            print("%s: later set against the first" % workload)
            for name, bound in bounds.items():
                first = sets[0]["metrics"][name]["median"]
                now = later["metrics"][name]["median"]
                worse = (now - first) / first if lower[name] else \
                    (first - now) / first
                flag = "  <-- WORSE THAN BOUND" if worse > bound else ""
                steady = steady and worse <= bound
                print("%-20s %+9.4f %7.2f%s" % (name, worse, bound, flag))
            print(flush=True)
    if args.json_out:
        with open(args.json_out, "w") as out:
            json.dump(report, out, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
