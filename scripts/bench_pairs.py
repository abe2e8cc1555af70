#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised as a BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload trajectory --workload montecarlo --seeds 201-210 \\
        [--holdout 212] [--traced 211] [--claim trajectory:ops_per_s:0.15] \\
        [--note TEXT] --out BENCH_N.json

DIR is the root of a source checkout with its own ``bench/run.py``.  Every
run lasts the ``run_seconds`` of the change's BENCHMARK.json.  For each
workload and seed the two sides run ``bench/run.py --trace 0`` one after the
other, the parent first on even pair indices and the change first on odd
ones; holdout and traced pairs continue the same alternation.  Per side and
end-to-end metric of BENCHMARK.json the output holds the runs, their median
and quartiles (``statistics.quantiles(values, n=4)``, as ``bench/spread.py``
computes them), and how many of all pairs run the change won in the metric's
better direction; a pair in which either side reported no value is lost.  A
holdout seed runs one extra pair reported on its own; a traced seed runs
``--trace 1`` once per side and keeps its per-layer metrics.  A claim
``W:METRIC:GAIN`` is met when every run of both sides exited 0 and was
``correct``, the change's share of failed operations is not above the
parent's, the change wins at least 9 of 10 pairs (the same share of other
counts) and every holdout pair, its median is better by at least GAIN (a
fraction), and the gap between the medians exceeds the parent's
interquartile range.  Every workload also gets a no-regression verdict per
end-to-end metric (:func:`bound_verdict`): "within bound", "worse beyond
bound" or "unresolved", with the margin left to the metric's ``bound`` in
BENCHMARK.json.  Per workload, ``rss_against_attempted`` is the
least-squares line of ``peak_rss_mb`` against ``attempted`` over every pair
and holdout run of both sides (:func:`rss_slope`): a workload whose runs
keep per-operation data shows a positive slope, so a faster program also
reads as a larger one.  The file is rewritten after every run, so an
interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` call in ``root``: its exit code and, when it
    printed one, its result object."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    return {"exit": proc.returncode, "result": result}


def run_pair(roots: Dict[str, str], workload: str, seed: int, seconds: float, trace: int,
             index: int) -> Dict[str, dict]:
    """Both sides on one seed, the parent first when ``index`` is even."""
    pair = {}
    for side in (SIDES if index % 2 == 0 else SIDES[::-1]):
        pair[side] = run_bench(roots[side], workload, seed, seconds, trace)
        print(f"{workload} seed {seed} trace {trace} {side}: exit {pair[side]['exit']} "
              f"ops_per_s {value(pair[side], 'ops_per_s')}", file=sys.stderr)
    return pair


def value(run: dict, metric: str) -> Optional[float]:
    metrics = run["result"].get("metrics", {})
    return metrics[metric]["value"] if metric in metrics else None


def health(runs: List[dict]) -> dict:
    return {
        "runs": len(runs),
        "exit_codes": sorted({r["exit"] for r in runs}),
        "correct": all(r["result"].get("correct", False) for r in runs),
        "attempted": sum(r["result"].get("attempted", 0) for r in runs),
        "failed": sum(r["result"].get("failed", 0) for r in runs),
    }


def summary(runs: List[dict], metrics: List[str]) -> dict:
    out = health(runs)
    for m in metrics:
        vals = [v for v in (value(r, m) for r in runs) if v is not None]
        if not vals:
            continue
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        out[m] = {"median": round(statistics.median(vals), 4), "q1": round(q[0], 4),
                  "q3": round(q[2], 4), "runs": [round(v, 4) for v in vals]}
    return out


def better(a: Optional[float], b: Optional[float], direction: str) -> bool:
    """True when ``b`` is strictly better than ``a``; False when either is missing."""
    if a is None or b is None:
        return False
    return b > a if direction == "higher" else b < a


def pairs_won(pairs: List[Dict[str, dict]], metric: str, direction: str) -> List[int]:
    """(won, run) over every pair run."""
    won = sum(better(value(p["parent"], metric), value(p["change"], metric), direction) for p in pairs)
    return [won, len(pairs)]


def failed_share(h: dict) -> float:
    return h["failed"] / h["attempted"] if h["attempted"] else 1.0


def claim_verdict(entry: dict, pairs: List[Dict[str, dict]], holdouts: List[Dict[str, dict]],
                  metric: str, direction: str, gain: float) -> dict:
    p, c = entry["parent"].get(metric), entry["change"].get(metric)
    if not p or not c:
        return {"met": False, "reason": "metric missing"}
    every = pairs + holdouts
    healthy = {side: health([pair[side] for pair in every]) for side in SIDES}
    sound = (all(h["exit_codes"] == [0] and h["correct"] for h in healthy.values())
             and failed_share(healthy["change"]) <= failed_share(healthy["parent"]))
    won, run = pairs_won(pairs, metric, direction)
    held_won, held_run = pairs_won(holdouts, metric, direction)
    rel = (c["median"] - p["median"]) / p["median"]
    if direction == "lower":
        rel = -rel
    iqr = p["q3"] - p["q1"]
    return {
        "parent_median": p["median"],
        "change_median": c["median"],
        "gain": round(rel, 4),
        "target": gain,
        "parent_interquartile_range": round(iqr, 4),
        "pairs_won": f"{won} of {run}",
        "holdout_pairs_won": f"{held_won} of {held_run}",
        "all_runs_exit_0_and_correct_no_larger_failed_share": sound,
        "met": (sound and won * 10 >= 9 * run and held_won == held_run and rel >= gain
                and abs(c["median"] - p["median"]) > iqr),
    }


def bound_verdict(entry: dict, metric: str, direction: str, bound: float) -> dict:
    """The change's median against the parent's, for a metric that may worsen
    by at most ``bound`` (a fraction of the parent's median).

    ``worse_by`` is the relative change in the worse direction and ``margin``
    what is left of the bound.  The verdict is "unresolved" when the parent's
    quartile spread, relative to its median, is wider than the bound and not
    every run of the change is better than every run of the parent: such a
    spread cannot tell a change within the bound from one beyond it.
    Otherwise it is "worse beyond bound" when ``worse_by`` exceeds the bound,
    else "within bound".
    """
    p, c = entry.get("parent", {}).get(metric), entry.get("change", {}).get(metric)
    if not p or not c or not p["median"]:
        return {"bound": bound, "verdict": "unresolved", "reason": "metric missing or zero"}
    worse = (c["median"] - p["median"]) / p["median"]
    if direction == "higher":
        worse = -worse
    spread = (p["q3"] - p["q1"]) / p["median"]
    clear = (min(c["runs"]) > max(p["runs"]) if direction == "higher"
             else max(c["runs"]) < min(p["runs"]))
    if spread > bound and not clear:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "worse beyond bound"
    else:
        verdict = "within bound"
    return {
        "parent_median": p["median"],
        "change_median": c["median"],
        "worse_by": round(worse, 4),
        "bound": bound,
        "margin": round(bound - worse, 4),
        "parent_quartile_spread": round(spread, 4),
        "every_change_run_better": clear,
        "verdict": verdict,
    }


def rss_slope(runs: List[dict]) -> dict:
    """The least-squares line of ``peak_rss_mb`` (MiB) against ``attempted``
    (operations) over the runs that report both: its slope in MiB per
    operation, its intercept and the correlation.  Slope and intercept are
    None with fewer than two distinct ``attempted`` counts, the correlation
    also when ``peak_rss_mb`` does not vary."""
    points = [(r["result"]["attempted"], value(r, "peak_rss_mb")) for r in runs
              if "attempted" in r["result"] and value(r, "peak_rss_mb") is not None]
    out = {"runs": len(points), "slope_mib_per_op": None, "intercept_mib": None, "correlation": None}
    if len({ops for ops, _ in points}) < 2:
        return out
    ops, rss = zip(*points)
    slope, intercept = statistics.linear_regression(ops, rss)
    out.update(slope_mib_per_op=round(slope, 6), intercept_mib=round(intercept, 4))
    if len(set(rss)) > 1:
        out["correlation"] = round(statistics.correlation(ops, rss), 4)
    return out


def machine() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "numpy": numpy_version}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True, choices=("trajectory", "montecarlo"))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 201-210 or 201,203")
    parser.add_argument("--holdout", type=int, action="append", default=[])
    parser.add_argument("--traced", type=int, action="append", default=[])
    parser.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC:GAIN")
    parser.add_argument("--note", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    metrics = list(directions)
    doc = {
        "change": args.note,
        "machine": machine(),
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": "scripts/bench_pairs.py: parent and change each run from their own checkout; pairs "
                  "alternate which side runs first; medians and quartiles (statistics.quantiles, n=4) "
                  "over the runs of each side",
        "workloads": {},
    }

    def save() -> None:
        with open(args.out + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(args.out + ".tmp", args.out)

    claims = {}
    for workload in args.workload:
        pairs: List[Dict[str, dict]] = []
        holdouts: List[Dict[str, dict]] = []
        entry: dict = {"seeds": args.seeds,
                       "order": "alternating: parent first on even pair index, change first on odd"}
        doc["workloads"][workload] = entry

        schedule = [(seed, "pair") for seed in args.seeds] + [(seed, "holdout") for seed in args.holdout] \
            + [(seed, "traced") for seed in args.traced]
        for index, (seed, kind) in enumerate(schedule):
            pair = run_pair(roots, workload, seed, seconds, int(kind == "traced"), index)
            if kind == "pair":
                pairs.append(pair)
                for side in SIDES:
                    entry[side] = summary([p[side] for p in pairs], metrics)
                entry["change_better_pairs"] = {
                    m: "{} of {}".format(*pairs_won(pairs, m, directions[m])) for m in metrics}
                entry["bounds"] = {m: bound_verdict(entry, m, directions[m], bounds[m]) for m in metrics}
            elif kind == "holdout":
                holdouts.append(pair)
                entry[f"holdout_seed_{seed}"] = {
                    side: {**{m: value(pair[side], m) for m in metrics}, **health([pair[side]])}
                    for side in SIDES
                }
            else:
                entry[f"traced_seed_{seed}"] = {
                    side: {"exit": pair[side]["exit"],
                           "correct": pair[side]["result"].get("correct", False),
                           "per_layer": {k: round(v["value"], 6) for k, v in
                                         pair[side]["result"].get("metrics", {}).items()}}
                    for side in SIDES
                }
            if kind != "traced":
                entry["rss_against_attempted"] = rss_slope([p[side] for p in pairs + holdouts for side in SIDES])
            save()
        for text in args.claim:
            claim_workload, metric, gain = text.split(":")
            if claim_workload == workload:
                claims[f"{workload} {metric}"] = claim_verdict(
                    entry, pairs, holdouts, metric, directions[metric], float(gain))
                doc["claims"] = claims
                save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
