"""Per-layer figures of the traced run, computed from spans and probes."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

import reference
from tracer import self_times
from workloads import CLI_M, N_TRAJ

# "<span>_s": seconds per operation, the summed duration of these spans in
# one operation, median over operations
PER_OP_SECONDS = (
    "core.sort_sample",
    "dist.sample",
    "dist.h_gamma",
    "ustat.pickands_weights",
    "ustat.log_spacing_sums",
    "ustat.pickands_ustat",
    "ustat.pickands_ustat_grid",
    "ustat.pickands_ustat_batch",
    "estimators.gp_ml_fit",
    "asymptotics.parametric_bootstrap",
    "asymptotics.sigma2_kvar_mc",
    "harness.write_csv",
)
# "<span>.self_s": the same for time outside the span's wrapped children
PER_OP_SELF_SECONDS = ("asymptotics.parametric_bootstrap", "asymptotics.sigma2_kvar_mc")
EXPERIMENTS = ("VarianceTable", "BiasBurr", "MseSweep", "BootstrapCoverage")
NS_PER_LOG = ("ustat.log_spacing_sums", "ustat.pickands_ustat_batch")

Ops = List[Tuple[str, float]]  # (operation id, latency in s)


def group_metrics(ops: Ops, spans: List[dict], own: Dict[int, float]) -> Dict[str, float]:
    by_op = {op: [] for op, _ in ops}
    for s in spans:
        if s["op"] in by_op:
            by_op[s["op"]].append(s)
    names = {s["name"] for op_spans in by_op.values() for s in op_spans}

    def per_op(pick, value=lambda s: s["end"] - s["start"]):
        return [sum(value(s) for s in op_spans if pick(s)) for op_spans in by_op.values()]

    def all_spans(name):
        return [s for op_spans in by_op.values() for s in op_spans if s["name"] == name]

    out = {}
    for name in names.intersection(PER_OP_SECONDS):
        out[f"{name}_s"] = statistics.median(per_op(lambda s: s["name"] == name))
    for name in names.intersection(PER_OP_SELF_SECONDS):
        out[f"{name}.self_s"] = statistics.median(per_op(lambda s: s["name"] == name, lambda s: own[s["id"]]))
    for exp in EXPERIMENTS:
        picked = per_op(lambda s: s["name"] == "harness.run_experiment" and s.get("experiment") == exp)
        if any(picked):
            out[f"harness.run_experiment.{exp}_s"] = statistics.median(picked)
    for name in NS_PER_LOG:
        spans_ = all_spans(name)
        if spans_:
            logs = sum(s["logs"] for s in spans_)
            out[f"{name}.ns_per_log"] = 1e9 * sum(s["end"] - s["start"] for s in spans_) / logs
    if names & set(NS_PER_LOG):
        out["ustat.logs_per_op"] = statistics.mean(per_op(lambda s: s["name"] in NS_PER_LOG, lambda s: s["logs"]))
    fits = all_spans("estimators.gp_ml_fit")
    if fits:
        out["estimators.gp_ml_fit.calls"] = len(fits) / len(ops)
        out["estimators.gp_ml_fit.iterations_mean"] = statistics.mean(s["iterations"] for s in fits)
        out["estimators.gp_ml_fit.converged_ratio"] = sum(s["converged"] for s in fits) / len(fits)
    boots = all_spans("asymptotics.parametric_bootstrap")
    if boots:
        out["asymptotics.parametric_bootstrap.kept_ratio"] = sum(s["kept"] for s in boots) / sum(
            s["boot_reps"] for s in boots
        )
    if "harness.write_csv" in names:
        out["harness.write_csv.bytes"] = statistics.mean(
            per_op(lambda s: s["name"] == "harness.write_csv", lambda s: s["bytes"])
        )
    return out


def merge(workload: str, groups: Dict[str, Ops], spans: List[dict]) -> Dict[str, float]:
    """Figures from the named workload's own operations first; layers it does
    not reach are filled from the traced operations of the other workloads."""
    own = self_times(spans)
    metrics: Dict[str, float] = {}
    for name in [workload] + [w for w in ("trajectory", "montecarlo", "cli") if w != workload]:
        if name in groups:
            for key, value in group_metrics(groups[name], spans, own).items():
                metrics.setdefault(key, value)
    return metrics


def top_span_coverage(spans: List[dict], ops: Ops) -> float:
    """Smallest share of an operation's time covered by its top-level spans."""
    covered = {op: 0.0 for op, _ in ops}
    for s in spans:
        if s["parent"] is None and s["op"] in covered:
            covered[s["op"]] += s["end"] - s["start"]
    return min(covered[op] / latency for op, latency in ops)


def _median_process_s(cmd: List[str], env, times: int) -> float:
    out = []
    for _ in range(times):
        t = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60, env=env)
        out.append(time.perf_counter() - t)
    return statistics.median(out)


def cli_probes(cli, tracer, package):
    """The one-shot cli call and its parts: python.start_s, cli.import_s,
    cli.main_s and cli.process_s, plus one traced round of in-process
    ``cli.main`` calls whose spans give the cli layer figures."""
    start = _median_process_s([sys.executable, "-c", "pass"], cli.env, 5)
    imp = _median_process_s([sys.executable, "-c", "import xustat.cli"], cli.env, 3)
    combos = [(f, m) for f in range(len(cli.files)) for m in CLI_M]
    errors = []
    proc = []
    for f, m in combos[::4]:
        t = time.perf_counter()
        value = cli.process(cli.files[f], m)
        proc.append(time.perf_counter() - t)
        errors += cli.check(f, m, value, "process")
    plain = []
    for f, m in combos:
        t = time.perf_counter()
        value = cli.in_process(cli.files[f], m)
        plain.append(time.perf_counter() - t)
        errors += cli.check(f, m, value, "in-process")
    affine, original = cli.in_process(cli.affine_file, 20), cli.in_process(cli.files[0], 20)
    if not abs(affine - original) <= 1e-9:
        errors.append(f"cli affine image 3x+7: {affine!r} vs {original!r}")
    ops = []
    tracer.install(package)
    for f, m in combos:
        tracer.op = f"cli-main:{f}:{m}"
        t = time.perf_counter()
        cli.in_process(cli.files[f], m)
        ops.append((tracer.op, time.perf_counter() - t))
    tracer.uninstall()
    tracer.op = None
    probes = {
        "python.start_s": start,
        "cli.import_s": imp - start,
        "cli.main_s": statistics.median(plain),
        "cli.process_s": statistics.median(proc),
    }
    return probes, ops, errors


def np_log_ns(reps: int = 15) -> float:
    """Bare np.log per element on an array the size of the single-sample
    kernel's largest tile at n = 10^4 (n x 512 doubles)."""
    x = np.random.default_rng(0).random(N_TRAJ * 512) + 0.5
    y = np.empty_like(x)
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        np.log(x, out=y)
        times.append(time.perf_counter() - t)
    return 1e9 * statistics.median(times) / x.size
