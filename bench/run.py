#!/usr/bin/env python3
"""xustat benchmark: one command for every workload and metric.

    python3 bench/run.py --workload {trajectory,montecarlo} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# fresh processes that only set up, this many before the worker and as many
# after it, so that setup_s samples the whole run, not one moment of it
SETUP_PROBES_EACH_SIDE = 2
WORKER_TIMEOUT_S = 150


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, *extra) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("trajectory", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    package = os.path.join(ROOT, "src", "xustat")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no xustat sources under {package}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # bytecode is written once here, not inside a timed set-up
    compileall.compile_dir(package, quiet=1)

    if args.trace:
        result = run_worker(args, "--trace")
        wanted = spec["per_layer"]
    else:
        setups = [run_worker(args, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES_EACH_SIDE)]
        result = run_worker(args)
        setups += [run_worker(args, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES_EACH_SIDE)]
        result["metrics"]["setup_s"] = statistics.median(setups + [result["metrics"]["setup_s"]])
        wanted = spec["end_to_end"]
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
