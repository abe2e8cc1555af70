#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: the table in bench/README.md.

    python3 bench/spread.py --first-seed 1

Runs ``bench/run.py`` ten times, seeds first-seed .. first-seed + 9, on each
workload of BENCHMARK.json for its ``run_seconds``, one run at a time, and
prints for every end-to-end metric
the median and the interquartile range (``statistics.quantiles(values,
n=4)``) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    print("| workload | metric | median | IQR/median | runs |")
    print("|---|---|---|---|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in names}
        walls, shares = [], set()
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
            walls.append(time.perf_counter() - t)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false", file=sys.stderr)
            shares.add(result["failed"] / result["attempted"])
            for name in names:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {json.dumps(result)}", file=sys.stderr)
        for name in names:
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            print(f"| {workload} | {name} | {med:.4g} | {(q3 - q1) / med:.3f} | {len(values[name])} |")
        print(f"| {workload} | wall per run (s) | {statistics.median(walls):.1f} | max {max(walls):.1f} | "
              f"failed share {sorted(shares)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
