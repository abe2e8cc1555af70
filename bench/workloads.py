"""The workloads: how each sets up, runs one operation and checks its outputs.

Every workload is a closed loop with one caller.  Operations come in rounds
of identical make-up (one per family, or one per gamma/rho setting), and a
run always attempts whole rounds.  ``setup`` imports the package and builds
the inputs; everything a check needs beyond the program's outputs is
computed afterwards, outside the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from typing import Dict, List

import numpy as np

import reference

N_CLI = 2000
N_TRAJ = 10_000
TRAJ_M = tuple(range(3, 201))
# GP ML fits from m = 4 (k = 7500) on.  At m = 3 the threshold is the sample
# minimum, where gp_ml_fit misses the maximum on some seeds; that case is
# the fixed-input operation that closes every trajectory round.
FIT_M = TRAJ_M[1:]
CLI_M = (3, 20, 100)
# (gamma, rho) cycle of the montecarlo operations
MC_CYCLE = ((-0.5, -2.0), (0.0, -1.0), (0.5, -0.5))
# m values of each checked trajectory sample whose GP ML fit is compared with
# the best log-likelihood inside gamma > -1
SCIPY_M = (4, 20, 100, 200)
# The fixed-input GP ML fit: the n - 1 excesses over the minimum of the
# Student-t(4) sample of RngStream(13, 2), where gp_ml_fit stops far below
# the constrained maximum (CHANGES.md, FOUND on gp_ml_fit).
DEFECT_STREAM = (13, 2)


def family_specs(dist):
    """GP(0.5), Student-t(4), Burr(gamma=0.5, rho=-1), GP(-0.3)."""
    return [dist.gp(0.5), dist.student_t(4.0), dist.burr_from_gamma_rho(0.5, -1.0), dist.gp(-0.3)]


class Workload:
    name = ""
    round_size = 1

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, outputs: Dict[int, object]) -> List[str]:
        raise NotImplementedError


class CliInputs:
    """n = 2000 sample files for ``xustat.cli estimate``, one per family, plus
    the affine image 3x+7 of file 0; used by the traced run's cli probes."""

    def __init__(self, seed: int, scratch: str):
        from xustat import dist

        self.files = []
        for f, spec in enumerate(family_specs(dist)):
            values = dist.draw(spec, N_CLI, dist.RngStream(seed, f))
            self.files.append(self._write(scratch, f"cli-{f}.txt", values))
        self.affine_file = self._write(scratch, "cli-affine.txt", 3.0 * values_of(self.files[0]) + 7.0)
        self.env = dict(os.environ)
        self.references = [reference.ReferenceSample(values_of(p), min(CLI_M)) for p in self.files]

    @staticmethod
    def _write(scratch: str, name: str, values) -> str:
        path = os.path.join(scratch, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{float(x)!r}\n" for x in values))
        return path

    def process(self, path: str, m: int) -> float:
        """One ``python -m xustat.cli estimate`` process."""
        cmd = [sys.executable, "-m", "xustat.cli", "estimate", "--input", path, "--m", str(m)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=self.env)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return parse_gamma_hat(proc.stdout)

    def in_process(self, path: str, m: int) -> float:
        """The same call through ``xustat.cli.main`` in this process."""
        from xustat import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["estimate", "--input", path, "--m", str(m)])
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        return parse_gamma_hat(buf.getvalue())

    def check(self, f: int, m: int, value: float, how: str) -> List[str]:
        ref = self.references[f].ustat(m)
        if reference.close(value, ref):
            return []
        return [f"{how} cli estimate file {f} m={m}: {value!r} vs reference {ref!r}"]


class TrajectoryWorkload(Workload):
    """Both estimators over m = 3..200 on a fresh n = 10^4 sample per operation."""

    name = "trajectory"
    # one per family, then the fixed-input GP ML fit, which fails every time
    # while gp_ml_fit misses the constrained maximum on it
    round_size = 5

    def setup(self) -> None:
        from xustat import dist, estimators, ustat

        self.dist, self.estimators, self.ustat = dist, estimators, ustat
        self.specs = family_specs(dist)
        self.samples = {}
        sample = dist.sample(dist.student_t(4.0), N_TRAJ, dist.RngStream(*DEFECT_STREAM))
        self.defect_x = estimators.excesses_over_threshold(sample, N_TRAJ - 1)

    def run_one(self, spec, stream):
        d, est = self.dist, self.estimators
        sample = d.sample(spec, N_TRAJ, stream)
        grid = self.ustat.pickands_ustat_grid(sample, TRAJ_M)
        fits = []
        for m in FIT_M:
            fit = est.gp_ml_fit(est.excesses_over_threshold(sample, est.paired_k(sample.n, m)))
            fits.append((fit.gamma_hat, fit.sigma_hat, fit.loglik, fit.converged))
        return sample.values, [grid[m] for m in TRAJ_M], fits

    def warmup(self) -> None:
        self.run_one(self.specs[0], self.dist.RngStream(self.seed, 0))
        self.defect_best = reference.gp_best_loglik(self.defect_x)

    def op(self, i: int):
        f = i % self.round_size
        if f == len(self.specs):
            fit = self.estimators.gp_ml_fit(self.defect_x)
            if fit.loglik < self.defect_best - reference.LOGLIK_TOL * (1.0 + abs(self.defect_best)):
                raise RuntimeError(f"gp_ml_fit loglik {fit.loglik!r} below {self.defect_best!r} inside gamma > -1")
            return fit
        values, grid, fits = self.run_one(self.specs[f], self.dist.RngStream(self.seed, i + 1))
        self.samples[i] = values
        return grid, fits

    def check(self, outputs: Dict[int, object]) -> List[str]:
        errors = []
        # The reference sweep costs ~2 s per sample, so two samples of the
        # first round are compared with it: families 0 and 2 on even seeds,
        # 1 and 3 on odd ones.
        first = [i for i in range(len(self.specs)) if i % 2 == self.seed % 2]
        for i, out in outputs.items():
            if i % self.round_size == len(self.specs):
                # the fixed-input fit succeeded: the op compared its loglik already
                ll_ref = reference.gp_loglik(self.defect_x, out.gamma_hat, out.sigma_hat)
                if not (out.gamma_hat > -1.0 and abs(out.loglik - ll_ref) <= 1e-9 * (1.0 + abs(ll_ref))):
                    errors.append(f"trajectory op {i} fixed-input fit {out} vs loglik {ll_ref!r}")
                continue
            grid, fits = out
            spec = self.specs[i % self.round_size]
            desc = self.samples[i]
            ref = reference.ReferenceSample(desc) if i in first else None
            for m, g in zip(TRAJ_M, grid):
                where = f"trajectory op {i} {spec.label} m={m}"
                if not (math.isfinite(g) and abs(g - spec.true_gamma) < 1.5):
                    errors.append(f"{where}: Pickands estimate {g!r}")
                if ref is not None and not reference.close(g, ref.ustat(m)):
                    errors.append(f"{where}: {g!r} vs reference {ref.ustat(m)!r}")
            for m, fit in zip(FIT_M, fits):
                where = f"trajectory op {i} {spec.label} m={m}"
                gam, sig, ll, _ = fit
                k = min(3 * N_TRAJ // m, N_TRAJ - 1)
                x = desc[:k] - desc[k]
                if not (gam > -1.0 and sig > 0.0):
                    errors.append(f"{where}: GP ML gamma={gam!r} sigma={sig!r}")
                    continue
                ll_ref = reference.gp_loglik(x, gam, sig)
                if not abs(ll - ll_ref) <= 1e-9 * (1.0 + abs(ll_ref)):
                    errors.append(f"{where}: reported loglik {ll!r} vs {ll_ref!r} at the fit")
                if i in first and m in SCIPY_M:
                    best = reference.gp_best_loglik(x)
                    if ll < best - reference.LOGLIK_TOL * (1.0 + abs(best)):
                        errors.append(f"{where}: loglik {ll!r} below {best!r} reached inside gamma > -1")
        return errors


class MonteCarloWorkload(Workload):
    """One pass of a miniature desk study through ``harness.run_to_csv``, threads = 1."""

    name = "montecarlo"
    round_size = len(MC_CYCLE)
    experiments = ("VarianceTable", "BiasBurr", "MseSweep", "BootstrapCoverage")

    def setup(self) -> None:
        from xustat import harness

        self.harness = harness

    def master_seed(self, i: int) -> int:
        return self.seed * 100_000 + i + 1

    def configs(self, i: int) -> Dict[str, str]:
        gamma, rho = MC_CYCLE[i % self.round_size]
        common = f"n = 2000\nthreads = 1\nseed = {self.master_seed(i)}\n"
        bodies = {
            "VarianceTable": f"family = GP\nparams = {gamma}\nreps = 100\nm_grid = 100\n",
            "BiasBurr": f"family = Burr\nparams = 0.5,{rho}\nreps = 10\nm_grid = 40\n",
            "MseSweep": "family = GP\nparams = 0.5\nreps = 10\nm_grid = 3,10,50,200\n",
            "BootstrapCoverage": "family = GP\nparams = 0.5\nreps = 1\nm_grid = 20\n",
        }
        return {
            name: f"experiment = {name}\n{body}{common}out = {self.scratch}/op{i}-{name}.csv\n"
            for name, body in bodies.items()
        }

    def op(self, i: int):
        h = self.harness
        paths = {}
        for name, text in self.configs(i).items():
            paths[name] = h.run_to_csv(h.parse_config(text), per_rep=True)
        return paths

    def warmup(self) -> None:
        self.warm = self.op(-1)

    def check(self, outputs: Dict[int, object]) -> List[str]:
        from xustat import dist

        errors = []
        mse_groups: Dict[int, list] = {}
        items = dict(outputs)
        if hasattr(self, "warm"):
            items[-1] = self.warm
        for i, paths in sorted(items.items()):
            gamma = MC_CYCLE[i % self.round_size][0]
            seed = self.master_seed(i)
            try:
                rows = {name: reference.read_csv(paths[name], name) for name in self.experiments}
            except (OSError, ValueError) as exc:
                errors.append(f"montecarlo op {i}: {exc}")
                continue
            for name, table in rows.items():
                for row in table:
                    if row["rep"] == "agg" and not reference.check_mse_identity(row):
                        errors.append(f"montecarlo op {i} {name}: mse != bias^2 + variance in {row}")
            # replication 0 of MseSweep and BootstrapCoverage is the same GP(0.5) sample
            ref = reference.ReferenceSample(dist.sample(dist.gp(0.5), 2000, dist.RngStream(seed, 0)).values)
            errors += self._check_variance_table(i, gamma, rows["VarianceTable"])
            errors += self._check_per_rep_means(i, rows)
            errors += self._check_bootstrap(i, seed, ref.ustat(20), rows["BootstrapCoverage"], dist)
            for row in rows["MseSweep"]:
                if row["rep"] == "agg" and row["estimator"] == "ExtremePickands":
                    mse_groups.setdefault(int(row["m"]), []).append(row)
            for row in rows["MseSweep"]:
                if row["rep"] == "0" and row["estimator"] == "ExtremePickands":
                    value, m = reference.parse_float(row["gamma_hat"]), int(row["m"])
                    if not reference.close(value, ref.ustat(m)):
                        errors.append(f"montecarlo op {i} MseSweep rep 0 m={m}: {value!r} vs {ref.ustat(m)!r}")
        errors += self._check_pooled_bias(mse_groups)
        return errors

    def _check_variance_table(self, i, gamma, table) -> List[str]:
        errors = []
        for row in table:
            extra = reference.extra_fields(row)
            s2, se = float(extra["sigma2"]), float(extra["stderr"])
            k = int(row["k"])
            var = reference.parse_float(row["variance"])
            if not (math.isfinite(s2) and s2 > 0 and math.isfinite(se) and se > 0):
                errors.append(f"montecarlo op {i} VarianceTable: sigma2={s2!r} stderr={se!r}")
            if not abs(var * k - s2) <= 1e-12 * s2:
                errors.append(f"montecarlo op {i} VarianceTable: variance*k {var * k!r} != sigma2 {s2!r}")
            if float(row["gamma_hat"]) != gamma or int(row["failed"]) != 0:
                errors.append(f"montecarlo op {i} VarianceTable row {row}")
        return errors

    def _check_per_rep_means(self, i, rows) -> List[str]:
        """Each aggregate mean is the mean of the per-replication estimates."""
        errors = []
        for name in ("MseSweep", "BiasBurr"):
            reps: Dict[tuple, list] = {}
            for row in rows[name]:
                key = (row["m"], row["estimator"], row["extra"])
                if row["rep"] != "agg":
                    reps.setdefault(key, []).append(reference.parse_float(row["gamma_hat"]))
            for row in rows[name]:
                if row["rep"] != "agg":
                    continue
                vals = [v for v in reps.get((row["m"], row["estimator"], row["extra"]), []) if math.isfinite(v)]
                mean = math.fsum(vals) / len(vals) if vals else math.nan
                agg = reference.parse_float(row["gamma_hat"])
                if not (vals and abs(agg - mean) <= 1e-12 * (1.0 + abs(mean))):
                    errors.append(f"montecarlo op {i} {name} m={row['m']} {row['estimator']}: mean {agg!r} vs {mean!r}")
                if row["estimator"] == "ExtremePickands" and int(row["failed"]) != 0:
                    errors.append(f"montecarlo op {i} {name} m={row['m']}: {row['failed']} failed replications")
        return errors

    def _check_bootstrap(self, i, seed, point, table, dist) -> List[str]:
        """CI centred on the reference point estimate, half-width ndtri((1+level)/2)*stderr."""
        from scipy.special import ndtri

        errors = []
        for row in table:
            if row["rep"] == "agg":
                continue
            extra = reference.extra_fields(row)
            lo, hi = float(extra["ci_low"]), float(extra["ci_high"])
            centre = 0.5 * (lo + hi)
            if not (hi > lo and reference.close(centre, point) and reference.close(float(row["gamma_hat"]), point)):
                errors.append(f"montecarlo op {i} bootstrap: [{lo!r}, {hi!r}] around {point!r}")
            if i == -1:
                stderr, batch_errors = bootstrap_stderr(seed, point, self.harness, dist)
                errors += batch_errors
                half = float(ndtri(0.5 * (1.0 + self.harness.BOOT_LEVEL_DEFAULT))) * stderr
                if not abs(0.5 * (hi - lo) - half) <= 1e-9 * half:
                    errors.append(f"montecarlo warm-up bootstrap half-width {0.5 * (hi - lo)!r} vs {half!r}")
        return errors

    def _check_pooled_bias(self, groups) -> List[str]:
        """GP Pickands bias within 5 standard errors of 0, pooling the run's operations.

        Each operation holds only 10 replications, and a 10-replication t
        statistic exceeds 5 with probability 7e-4, so the test pools all
        of a run's operations (at least 30 replications per m).
        """
        errors = []
        for m, rows in sorted(groups.items()):
            if len(rows) < 3:
                continue
            r = 10
            means = [float(row["gamma_hat"]) for row in rows]
            grand = math.fsum(means) / len(means)
            ss = math.fsum(r * (float(row["variance"]) + (mu - grand) ** 2) for row, mu in zip(rows, means))
            total = r * len(rows)
            se = math.sqrt(ss / (total - 1) / total)
            if not abs(grand - 0.5) <= 5.0 * se:
                errors.append(f"montecarlo MseSweep m={m}: pooled bias {grand - 0.5!r} exceeds 5 se {se!r}")
        return errors


def bootstrap_stderr(seed: int, point: float, harness, dist) -> float:
    """Spread of the B GP(point) resample estimates of replication 0, recomputed.

    The resamples follow the harness stream layout (replication 0, block
    size index 0); the batch kernel evaluates them and four of its rows are
    compared with the reference evaluator.  Returns (stderr, check errors).
    """
    from xustat import ustat

    b, n = harness.BOOT_REPS_DEFAULT, 2000
    u = dist.RngStream(seed, 0, (1, 0)).generator().random((b, n))
    z = np.sort(np.expm1(point * -np.log1p(-u)) / point, axis=1)[:, ::-1]
    est = ustat.pickands_ustat_batch(np.ascontiguousarray(z), 20)
    errors = []
    for row in range(4):
        ref = reference.ReferenceSample(z[row], 20).ustat(20)
        if not reference.close(float(est[row]), ref):
            errors.append(f"batch kernel row {row}: {est[row]!r} vs reference {ref!r}")
    return float(np.std(est, ddof=1)), errors


def values_of(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.array([float(line) for line in fh if line.strip()])


def parse_gamma_hat(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("gamma_hat="):
            return float(line.split("=", 1)[1])
    raise RuntimeError(f"no gamma_hat in output {stdout!r}")


WORKLOADS = {w.name: w for w in (TrajectoryWorkload, MonteCarloWorkload)}
