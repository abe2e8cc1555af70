"""Deterministic, parallel experiment runner producing CSV artifacts.

Every experiment is a pure function of its :class:`ExperimentConfig`:
replication r always uses substream r of the master seed, parallel workers
only change scheduling, and rows are merged in replication order, so the
output file is byte-identical across thread counts.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import BlockSizeOutOfRange, SortedSample, TailInferenceError, read_sample_file
from . import dist
from .asymptotics import parametric_bootstrap, sigma2_kvar_mc
from .estimators import gp_ml_fit, excesses_over_threshold, paired_k
from .ustat import pickands_ustat_grid

CONFIG_KEYS = ("experiment", "family", "params", "n", "reps", "m_grid", "seed", "out", "threads")

# BootstrapCoverage defaults; full control is available via the CLI `bootstrap` subcommand
BOOT_REPS_DEFAULT = 200
BOOT_LEVEL_DEFAULT = 0.95


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    family: str
    params: Tuple[float, ...]
    n: int
    reps: int
    m_grid: Tuple[int, ...]
    master_seed: int
    out: str
    threads: int  # 0 means auto

    def __post_init__(self):
        if self.experiment not in _RUNNERS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not self.m_grid:
            raise ValueError("m_grid must not be empty")
        if not self.family.startswith("file:"):
            for m in self.m_grid:
                if not 3 <= m <= self.n:
                    raise ValueError(f"block size {m} outside [3, n={self.n}]")
        if self.experiment == "BiasBurr":
            if self.family != "Burr":
                raise ValueError("BiasBurr requires family = Burr")
            if len(self.params) < 2:
                raise ValueError("BiasBurr params must be gamma,rho1[,rho2,...]")
        if self.experiment == "VarianceTable":
            if self.family != "GP":
                raise ValueError("VarianceTable requires family = GP")
            if not self.params:
                raise ValueError("VarianceTable params must list the gamma grid")

    def effective_threads(self) -> int:
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    dist: str
    n: int
    m: int
    k: int
    rep: str  # replication index or "agg"
    estimator: str
    gamma_hat: float
    failed: int
    bias: float
    variance: float
    mse: float
    extra: str


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _fmt(value) -> str:
    if isinstance(value, float):
        value = float(value)
        if math.isnan(value):
            return "NaN"
        return repr(value)
    return str(value)


def write_csv(rows: Sequence[ResultRow], path: str) -> None:
    """Header plus one line per row; LF endings, UTF-8, NaN spelled "NaN".

    Written to a temporary file beside ``path`` and renamed onto it, so an
    interrupted write leaves any earlier file intact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in rows:
                writer.writerow([_fmt(x) for x in astuple(r)])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def parse_m_grid(text: str) -> Tuple[int, ...]:
    """Comma list of block sizes; "a..b" and "a..b..step" expand to ranges."""
    out: List[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ".." in piece:
            parts = piece.split("..")
            if len(parts) == 2:
                lo, hi, step = int(parts[0]), int(parts[1]), 1
            elif len(parts) == 3:
                lo, hi, step = int(parts[0]), int(parts[1]), int(parts[2])
            else:
                raise ValueError(f"bad m_grid range {piece!r}")
            out.extend(range(lo, hi + 1, step))
        else:
            out.append(int(piece))
    if not out:
        raise ValueError("empty m_grid")
    return tuple(out)


def parse_params(text: str) -> Tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(p) for p in text.split(","))


def parse_config(text: str) -> ExperimentConfig:
    """Flat key/value config; '#' starts a comment, '=' separates key and value."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val.strip()

    for req in ("experiment", "family", "n", "m_grid", "seed", "out"):
        if req not in values:
            raise ValueError(f"missing required key {req!r}")
    threads_raw = values.get("threads", "1")
    threads = 0 if threads_raw == "auto" else int(threads_raw)
    return ExperimentConfig(
        experiment=values["experiment"],
        family=values["family"],
        params=parse_params(values.get("params", "")),
        n=int(values["n"]),
        reps=int(values.get("reps", "1")),
        m_grid=parse_m_grid(values["m_grid"]),
        master_seed=int(values["seed"], 0),
        out=values["out"],
        threads=threads,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def rescale_to_full(config: ExperimentConfig) -> ExperimentConfig:
    """Full-scale variant: n = 10^4 with the study's replication counts."""
    reps = 100 if config.experiment in ("MseSweep", "Trajectory") else 1000
    if config.experiment == "BootstrapCoverage":
        reps = config.reps
    return replace(config, n=10_000, reps=reps)


def _map_reps(worker: Callable, args: Sequence, threads: int) -> List:
    if threads <= 1 or len(args) <= 1:
        return [worker(a) for a in args]
    chunk = max(1, len(args) // (threads * 4))
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, args, chunksize=chunk))


def _aggregate(
    estimates: Sequence[float], true_gamma: Optional[float]
) -> Tuple[float, int, float, float, float]:
    """(mean, failures, bias, variance, mse) over the successful replications.

    Population-style variance so mse = bias^2 + variance holds exactly.
    """
    arr = np.asarray(estimates, dtype=float)
    ok = arr[np.isfinite(arr)]
    failures = int(arr.size - ok.size)
    if ok.size == 0:
        return float("nan"), failures, float("nan"), float("nan"), float("nan")
    mean = float(ok.mean())
    var = float(np.mean((ok - mean) ** 2))
    if true_gamma is None:
        return mean, failures, float("nan"), var, float("nan")
    bias = mean - true_gamma
    mse = float(np.mean((ok - true_gamma) ** 2))
    return mean, failures, bias, var, mse


def _pickands_and_gpml(
    sample: SortedSample, m_grid: Sequence[int]
) -> List[Tuple[int, int, str, float, int]]:
    """Both estimators over the grid on one sample.

    Returns (m, k, estimator, gamma_hat, failed) tuples; failures come back
    as NaN with the flag set instead of raising.
    """
    n = sample.n
    rows: List[Tuple[int, int, str, float, int]] = []
    pick = pickands_ustat_grid(sample, m_grid)
    for m in m_grid:
        k = paired_k(n, m)
        est = pick[m]
        rows.append((m, k, "ExtremePickands", est, int(not math.isfinite(est))))
        if k < 5:
            rows.append((m, k, "GpMl", float("nan"), 1))
            continue
        try:
            fit = gp_ml_fit(excesses_over_threshold(sample, k))
            if fit.converged:
                rows.append((m, k, "GpMl", fit.gamma_hat, 0))
            else:
                rows.append((m, k, "GpMl", float("nan"), 1))
        except TailInferenceError:
            rows.append((m, k, "GpMl", float("nan"), 1))
    return rows


def _rep_rows(
    config: ExperimentConfig, label: str, n: int, rep: int, cells, extra: str
) -> List[ResultRow]:
    """Per-replication rows from the (m, k, estimator, gamma_hat, failed) cells
    of :func:`_pickands_and_gpml`; bias, variance and mse stay NaN."""
    nan = float("nan")
    return [
        ResultRow(
            config.experiment, label, n, m, k, str(rep), est_name,
            gamma_hat, failed, nan, nan, nan, extra,
        )
        for m, k, est_name, gamma_hat, failed in cells
    ]


def _paired_rep_worker(args):
    spec, n, m_grid, seed, path, r = args
    sample = dist.sample(spec, n, dist.RngStream(seed, r, path))
    return _pickands_and_gpml(sample, m_grid)


def _paired_sweep(
    config: ExperimentConfig,
    spec: dist.DistributionSpec,
    path: Tuple[int, ...],
    extra: str,
    per_rep: bool,
) -> List[ResultRow]:
    """Both estimators over the m grid on ``config.reps`` samples from ``spec``.

    Replication r draws from stream (master_seed, r, *path) and reuses its
    sample across the whole grid.  Per-replication rows, when asked for,
    come first, then one aggregate row per (m, estimator).
    """
    args = [
        (spec, config.n, config.m_grid, config.master_seed, path, r)
        for r in range(config.reps)
    ]
    per_rep_rows = _map_reps(_paired_rep_worker, args, config.effective_threads())
    rows: List[ResultRow] = []
    if per_rep:
        for r, cells in enumerate(per_rep_rows):
            rows.extend(_rep_rows(config, spec.label, config.n, r, cells, extra))
    for m in config.m_grid:
        k = paired_k(config.n, m)
        for est_name in ("ExtremePickands", "GpMl"):
            ests = [
                cell[3]
                for cells in per_rep_rows
                for cell in cells
                if cell[0] == m and cell[2] == est_name
            ]
            mean, failures, bias, var, mse = _aggregate(ests, spec.true_gamma)
            rows.append(
                ResultRow(
                    config.experiment, spec.label, config.n, m, k, "agg",
                    est_name, mean, failures, bias, var, mse, extra,
                )
            )
    return rows


def run_mse_sweep(config: ExperimentConfig, per_rep: bool = False) -> List[ResultRow]:
    """Bias/variance/MSE of both estimators over the block-size grid."""
    spec = dist.make_spec(config.family, config.params)
    return _paired_sweep(config, spec, (), "", per_rep)


def run_bias_burr(config: ExperimentConfig, per_rep: bool = False) -> List[ResultRow]:
    """Burr bias sweep: gamma fixed, rho varied; params = gamma,rho1,...,rhoK."""
    gamma = config.params[0]
    rows: List[ResultRow] = []
    for rho_idx, rho in enumerate(config.params[1:]):
        spec = dist.burr_from_gamma_rho(gamma, rho)
        rows.extend(_paired_sweep(config, spec, (rho_idx,), f"rho={rho:g}", per_rep))
    return rows


def _variance_gamma_worker(args):
    gamma, n, m, reps, seed, gi = args
    return sigma2_kvar_mc(gamma, n, m, reps, dist.RngStream(seed, gi))


def run_variance_table(config: ExperimentConfig) -> List[ResultRow]:
    """k * var of the Pickands estimator per gamma; params = the gamma grid.

    Gamma number gi draws from stream (master_seed, gi), so the rows do not
    depend on ``threads``.  The extra column carries sigma2, its stderr, and
    the normalized GP ML comparison value (1+gamma)^2/3.
    """
    m = config.m_grid[0]
    args = [
        (gamma, config.n, m, config.reps, config.master_seed, gi)
        for gi, gamma in enumerate(config.params)
    ]
    ests = _map_reps(_variance_gamma_worker, args, config.effective_threads())
    rows: List[ResultRow] = []
    for gamma, est in zip(config.params, ests):
        label = dist.gp(gamma).label
        k = config.n // m
        gpml_norm = (1.0 + gamma) ** 2 / 3.0
        extra = (
            f"sigma2={est.sigma2!r};stderr={est.stderr!r};gpml_norm={gpml_norm!r}"
        )
        failures = config.reps - est.reps
        bias = float("nan")
        rows.append(
            ResultRow(
                config.experiment, label, config.n, m, k, "agg",
                "ExtremePickands", gamma, failures, bias, est.sigma2 / k,
                float("nan"), extra,
            )
        )
    return rows


def run_trajectory(config: ExperimentConfig) -> List[ResultRow]:
    """Single-sample trajectories of both estimators over the m grid."""
    if config.family.startswith("file:"):
        sample = read_sample_file(config.family[len("file:"):])
        label = config.family
        true_gamma = None
    else:
        spec = dist.make_spec(config.family, config.params)
        sample = dist.sample(spec, config.n, dist.RngStream(config.master_seed, 0))
        label = spec.label
        true_gamma = spec.true_gamma
    n = sample.n
    m_grid = [m for m in config.m_grid if 3 <= m <= n]
    if not m_grid:
        raise BlockSizeOutOfRange(f"m_grid has no entries in [3, n={n}]")
    extra = "" if true_gamma is None else f"true_gamma={true_gamma:g}"
    return _rep_rows(config, label, n, 0, _pickands_and_gpml(sample, m_grid), extra)


def _coverage_rep_worker(args):
    spec, n, m_grid, boot_reps, level, seed, r = args
    sample = dist.sample(spec, n, dist.RngStream(seed, r))
    out = []
    for mi, m in enumerate(m_grid):
        try:
            boot = parametric_bootstrap(
                sample, m, boot_reps, level, dist.RngStream(seed, r, (1, mi))
            )
            out.append((m, boot.gamma_hat, boot.ci_low, boot.ci_high, boot.dropped, 0))
        except TailInferenceError:
            out.append((m, float("nan"), float("nan"), float("nan"), 0, 1))
    return out


def run_bootstrap_coverage(config: ExperimentConfig, per_rep: bool = False) -> List[ResultRow]:
    """Nominal-vs-realized CI coverage of the parametric bootstrap."""
    spec = dist.make_spec(config.family, config.params)
    if spec.true_gamma is None:
        raise ValueError("BootstrapCoverage needs a distribution with known gamma")
    boot_reps, level = BOOT_REPS_DEFAULT, BOOT_LEVEL_DEFAULT
    args = [
        (spec, config.n, config.m_grid, boot_reps, level, config.master_seed, r)
        for r in range(config.reps)
    ]
    per_rep_rows = _map_reps(_coverage_rep_worker, args, config.effective_threads())

    rows: List[ResultRow] = []
    if per_rep:
        for r, cells in enumerate(per_rep_rows):
            for m, gamma_hat, lo, hi, dropped, failed in cells:
                covered = int(failed == 0 and lo <= spec.true_gamma <= hi)
                extra = f"ci_low={_fmt(lo)};ci_high={_fmt(hi)};covered={covered};dropped={dropped}"
                rows.append(
                    ResultRow(
                        config.experiment, spec.label, config.n, m,
                        paired_k(config.n, m), str(r), "ExtremePickands",
                        gamma_hat, failed,
                        float("nan"), float("nan"), float("nan"), extra,
                    )
                )
    for mi, m in enumerate(config.m_grid):
        cells = [c for rep in per_rep_rows for c in rep if c[0] == m]
        ests = [c[1] for c in cells]
        ok = [c for c in cells if c[5] == 0]
        covered = sum(1 for c in ok if c[2] <= spec.true_gamma <= c[3])
        coverage = covered / len(ok) if ok else float("nan")
        mean, failures, bias, var, mse = _aggregate(ests, spec.true_gamma)
        extra = f"coverage={_fmt(coverage)};level={level:g};boot_reps={boot_reps}"
        rows.append(
            ResultRow(
                config.experiment, spec.label, config.n, m, paired_k(config.n, m),
                "agg", "ExtremePickands", mean, failures, bias, var, mse, extra,
            )
        )
    return rows


# experiment name -> runner(config, per_rep)
_RUNNERS = {
    "MseSweep": run_mse_sweep,
    "BiasBurr": run_bias_burr,
    "VarianceTable": lambda config, per_rep: run_variance_table(config),
    "Trajectory": lambda config, per_rep: run_trajectory(config),
    "BootstrapCoverage": run_bootstrap_coverage,
}


def run_experiment(config: ExperimentConfig, per_rep: bool = False) -> List[ResultRow]:
    return _RUNNERS[config.experiment](config, per_rep)


def run_to_csv(config: ExperimentConfig, per_rep: bool = False) -> str:
    rows = run_experiment(config, per_rep)
    out_dir = os.path.dirname(config.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    write_csv(rows, config.out)
    return config.out
