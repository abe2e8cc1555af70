"""One workload in one process: set up, warm up, run the timed loop, check.

Started by ``run.py``; prints one JSON object as its last line.  Imports
nothing from numpy or xustat before the set-up clock starts.

  --setup-only   time the set-up alone (a fresh process per sample)
  --trace        the traced run: traced rounds of the workload, then one
                 traced operation of the other workload and the cli probes,
                 and report the per-layer figures
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


def timed_loop(wl, seconds, tracer=None, package=None):
    """Whole rounds, stopping at the round boundary nearest to ``seconds``;
    with a tracer, every operation is traced."""
    records = []
    start = time.perf_counter()
    i = rnd = 0
    traced = tracer is not None
    while True:
        if traced:
            tracer.install(package)
        for _ in range(wl.round_size):
            if traced:
                tracer.op = f"{wl.name}:{i}"
            t = time.perf_counter()
            try:
                out, ok = wl.op(i), True
            except Exception:  # an operation that fails is counted, the run goes on
                traceback.print_exc()
                out, ok = None, False
            records.append({"i": i, "latency": time.perf_counter() - t, "ok": ok, "out": out})
            i += 1
        if traced:
            tracer.uninstall()
            tracer.op = None
        rnd += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rnd >= seconds:
            return records, elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def checked(wl, outputs) -> list:
    """The workload's output checks; a check that raises is a failed check."""
    try:
        return wl.check(outputs)
    except Exception:
        return [f"{wl.name} check raised:\n{traceback.format_exc()}"]


def make_workload(name, seed, scratch):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, scratch)


def run_plain(args, scratch) -> dict:
    t0 = time.perf_counter()  # the benchmark's own modules import numpy: counted too
    wl = make_workload(args.workload, args.seed, scratch)
    wl.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        return {"setup_s": setup_s}
    wl.warmup()
    records, elapsed = timed_loop(wl, args.seconds)
    rss = peak_rss_mb()
    import reference

    errors = reference.self_test() + checked(wl, {r["i"]: r["out"] for r in records if r["ok"]})
    ok = [r["latency"] for r in records if r["ok"]]
    return {
        "errors": errors,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {
            "ops_per_s": len(ok) / elapsed,
            "latency_p50_s": statistics.median(ok) if ok else float("nan"),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        },
    }


def run_traced(args, scratch) -> dict:
    import layers
    import reference
    import xustat
    from tracer import Tracer, span_cost_s

    tracer = Tracer()
    wl = make_workload(args.workload, args.seed, scratch)
    wl.setup()
    wl.warmup()
    records, _ = timed_loop(wl, args.seconds, tracer, xustat)
    errors = reference.self_test() + checked(wl, {r["i"]: r["out"] for r in records if r["ok"]})
    groups = {args.workload: [(f"{wl.name}:{r['i']}", r["latency"]) for r in records if r["ok"]]}

    # one traced operation of the other workload, then the cli probes
    for name in ("trajectory", "montecarlo"):
        if name == args.workload:
            continue
        other = make_workload(name, args.seed, scratch)
        other.setup()
        tracer.install(xustat)
        tracer.op = f"{name}:0"
        t = time.perf_counter()
        out = other.op(0)
        groups[name] = [(tracer.op, time.perf_counter() - t)]
        tracer.uninstall()
        errors += checked(other, {0: out})
    from workloads import CliInputs

    probes, cli_ops, cli_errors = layers.cli_probes(CliInputs(args.seed, scratch), tracer, xustat)
    groups["cli"] = cli_ops
    errors += cli_errors

    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.dump(spans_path)
    metrics = layers.merge(args.workload, groups, tracer.spans)
    metrics.update(probes)
    metrics["roofline.np_log_ns"] = layers.np_log_ns()
    # spans per operation of the named workload times the cost of one span
    per_op = {op: 0 for op, _ in groups[args.workload]}
    for s in tracer.spans:
        if s["op"] in per_op:
            per_op[s["op"]] += 1
    metrics["trace.overhead_s"] = statistics.median(per_op.values()) * span_cost_s()
    coverage = layers.top_span_coverage(tracer.spans, [op for ops in groups.values() for op in ops])
    metrics["trace.top_span_coverage"] = coverage
    if coverage < 0.9:
        errors.append(f"top-level spans cover only {coverage:.3f} of an operation")
    return {
        "errors": errors,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result = run_traced(args, scratch) if args.trace else run_plain(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
