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
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

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
        if len(set(self.m_grid)) != len(self.m_grid):
            raise ValueError("m_grid repeats a block size")
        if self.master_seed < 0:
            raise ValueError("seed must be >= 0")
        if self.threads < 0:
            raise ValueError("threads must be >= 0")
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
            if len(self.m_grid) != 1:
                raise ValueError("VarianceTable takes one block size in m_grid")
            if self.reps < 100:
                raise ValueError("VarianceTable needs reps >= 100")
        try:  # a family or parameter no sampler takes is a bad config, not a data error
            if self.experiment == "BiasBurr":
                for rho in self.params[1:]:
                    dist.burr_from_gamma_rho(self.params[0], rho)
            elif self.experiment != "VarianceTable" and not self.family.startswith("file:"):
                dist.make_spec(self.family, self.params)
        except TailInferenceError as exc:
            raise ValueError(str(exc)) from exc

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
                writer.writerow([_fmt(getattr(r, name)) for name in CSV_COLUMNS])
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
    """Comma list of finite floats; an empty text is the empty tuple."""
    text = text.strip()
    if not text:
        return ()
    params = tuple(float(p) for p in text.split(","))
    if not all(map(math.isfinite, params)):
        raise ValueError(f"non-finite value in {text!r}")
    return params


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


def _map_reps(worker: Callable, args: Sequence, threads: int) -> List:
    if threads <= 1 or len(args) <= 1:
        return [worker(a) for a in args]
    chunk = max(1, len(args) // (threads * 4))
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, args, chunksize=chunk))


def _aggregate(
    estimates: Sequence[float], true_gamma: float
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
    bias = mean - true_gamma
    mse = float(np.mean((ok - true_gamma) ** 2))
    return mean, failures, bias, var, mse


@dataclass(frozen=True)
class _Estimate:
    """One estimate in one replication; a NaN ``gamma_hat`` is a failure.  A
    bootstrap estimate also carries its CI as per-replication ``extra`` text
    and whether that interval covers the true gamma."""

    m: int
    k: int
    estimator: str
    gamma_hat: float
    extra: str = ""
    covered: bool = False


def _pickands_and_gpml(sample: SortedSample, m_grid: Sequence[int]) -> List[_Estimate]:
    """Both estimators over the grid on one sample; failures come back as NaN."""
    pick = pickands_ustat_grid(sample, m_grid)
    out: List[_Estimate] = []
    for m in m_grid:
        k = paired_k(sample.n, m)
        out.append(_Estimate(m, k, "ExtremePickands", pick[m]))
        gamma_hat = float("nan")
        try:  # fewer than 5 excesses raise TooFewObservations
            fit = gp_ml_fit(excesses_over_threshold(sample, k))
            if fit.converged:
                gamma_hat = fit.gamma_hat
        except TailInferenceError:
            pass
        out.append(_Estimate(m, k, "GpMl", gamma_hat))
    return out


def _replication(
    config: ExperimentConfig, spec: dist.DistributionSpec, path: Tuple[int, ...], r: int
) -> List[_Estimate]:
    """Replication r draws one sample from stream (master_seed, r, *path) and
    reuses it across the m grid; the bootstrap at block size number mi
    resamples from stream (master_seed, r, 1, mi)."""
    sample = dist.sample(spec, config.n, dist.RngStream(config.master_seed, r, path))
    if config.experiment != "BootstrapCoverage":
        return _pickands_and_gpml(sample, config.m_grid)
    out: List[_Estimate] = []
    for mi, m in enumerate(config.m_grid):
        try:
            boot = parametric_bootstrap(
                sample, m, BOOT_REPS_DEFAULT, BOOT_LEVEL_DEFAULT,
                dist.RngStream(config.master_seed, r, (1, mi)),
            )
            gamma_hat, lo, hi, dropped = boot.gamma_hat, boot.ci_low, boot.ci_high, boot.dropped
        except TailInferenceError:
            gamma_hat = lo = hi = float("nan")
            dropped = 0
        covered = lo <= spec.true_gamma <= hi
        ci = f"ci_low={_fmt(lo)};ci_high={_fmt(hi)};covered={int(covered)};dropped={dropped}"
        out.append(_Estimate(m, paired_k(config.n, m), "ExtremePickands", gamma_hat, ci, covered))
    return out


def _rows(
    config: ExperimentConfig, label: str, n: int, reps: Sequence[List[_Estimate]], extra: str,
    per_rep: bool, aggregate: bool = True, true_gamma: float = math.nan,
) -> List[ResultRow]:
    """Per-replication rows (if ``per_rep``) in replication order, with NaN
    bias, variance and mse and the estimate's own extra text if it has one;
    then (if ``aggregate``) one row per (m, estimator) in first-seen order."""
    nan = float("nan")
    rows = [
        ResultRow(
            config.experiment, label, n, e.m, e.k, str(r), e.estimator, e.gamma_hat,
            int(not math.isfinite(e.gamma_hat)), nan, nan, nan, e.extra or extra,
        )
        for r, estimates in enumerate(reps if per_rep else ())
        for e in estimates
    ]
    cells: Dict[Tuple[int, str], List[_Estimate]] = {}
    for estimates in reps if aggregate else ():
        for e in estimates:
            cells.setdefault((e.m, e.estimator), []).append(e)
    for (m, estimator), cell in cells.items():
        mean, failures, bias, var, mse = _aggregate([e.gamma_hat for e in cell], true_gamma)
        summary = extra
        if config.experiment == "BootstrapCoverage":  # share of successes whose CI covers
            ok = len(cell) - failures
            coverage = sum(e.covered for e in cell) / ok if ok else float("nan")
            level, boot_reps = BOOT_LEVEL_DEFAULT, BOOT_REPS_DEFAULT
            summary = f"coverage={_fmt(coverage)};level={level:g};boot_reps={boot_reps}"
        rows.append(
            ResultRow(
                config.experiment, label, n, m, cell[0].k, "agg", estimator,
                mean, failures, bias, var, mse, summary,
            )
        )
    return rows


def _sweep(
    config: ExperimentConfig, spec: dist.DistributionSpec, per_rep: bool,
    path: Tuple[int, ...] = (), extra: str = "",
) -> List[ResultRow]:
    """``config.reps`` replications from ``spec``, as rows."""
    work = partial(_replication, config, spec, path)
    reps = _map_reps(work, range(config.reps), config.effective_threads())
    return _rows(config, spec.label, config.n, reps, extra, per_rep, True, spec.true_gamma)


def run_mse_sweep(config: ExperimentConfig, per_rep: bool = False) -> List[ResultRow]:
    """Bias/variance/MSE of both estimators over the block-size grid; for a
    BootstrapCoverage config, the CI coverage of the parametric bootstrap."""
    return _sweep(config, dist.make_spec(config.family, config.params), per_rep)


def run_bias_burr(config: ExperimentConfig, per_rep: bool = False) -> List[ResultRow]:
    """Burr bias sweep: gamma fixed, rho varied; params = gamma,rho1,...,rhoK."""
    gamma = config.params[0]
    rows: List[ResultRow] = []
    for rho_idx, rho in enumerate(config.params[1:]):
        spec = dist.burr_from_gamma_rho(gamma, rho)
        rows.extend(_sweep(config, spec, per_rep, (rho_idx,), f"rho={rho:g}"))
    return rows


def _variance_gamma(config: ExperimentConfig, gi: int):
    rng = dist.RngStream(config.master_seed, gi)
    return sigma2_kvar_mc(config.params[gi], config.n, config.m_grid[0], config.reps, rng)


def run_variance_table(config: ExperimentConfig, per_rep: bool = False) -> List[ResultRow]:
    """k * var of the Pickands estimator per gamma; params = the gamma grid.

    Gamma number gi draws from stream (master_seed, gi), so the rows do not
    depend on ``threads``.  The extra column carries sigma2, its stderr, and
    the normalized GP ML comparison value (1+gamma)^2/3.
    """
    m = config.m_grid[0]
    work = partial(_variance_gamma, config)
    ests = _map_reps(work, range(len(config.params)), config.effective_threads())
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


def run_trajectory(config: ExperimentConfig, per_rep: bool = False) -> List[ResultRow]:
    """Single-sample trajectories of both estimators over the m grid."""
    if config.family.startswith("file:"):
        sample = read_sample_file(config.family[len("file:"):])
        label = config.family
        extra = ""
    else:
        spec = dist.make_spec(config.family, config.params)
        sample = dist.sample(spec, config.n, dist.RngStream(config.master_seed, 0))
        label = spec.label
        extra = f"true_gamma={spec.true_gamma:g}"
    n = sample.n
    m_grid = [m for m in config.m_grid if 3 <= m <= n]
    if not m_grid:
        raise BlockSizeOutOfRange(f"m_grid has no entries in [3, n={n}]")
    return _rows(config, label, n, [_pickands_and_gpml(sample, m_grid)], extra, True, False)


# experiment name -> runner(config, per_rep)
_RUNNERS = {
    "MseSweep": run_mse_sweep,
    "BiasBurr": run_bias_burr,
    "VarianceTable": run_variance_table,
    "Trajectory": run_trajectory,
    "BootstrapCoverage": run_mse_sweep,
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
