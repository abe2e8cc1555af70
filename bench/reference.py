"""Computations made apart from xustat, used to check its outputs.

Nothing here imports xustat.  The Pickands U-statistic is evaluated from
its order-statistic formula with exact log-binomial weights (``math.lgamma``)
and per-j log-spacing sums accumulated with ``math.fsum``; it is itself
checked against an enumeration of every size-m subset at small n.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

# Column contract of the harness CSV files, written out here on purpose
# rather than read from the program.
CSV_COLUMNS = [
    "experiment", "dist", "n", "m", "k", "rep", "estimator",
    "gamma_hat", "failed", "bias", "variance", "mse", "extra",
]

# |U - ref| <= PICKANDS_TOL * (1 + |ref|); the acceptance tolerance of the
# program's own oracle tests.
PICKANDS_TOL = 1e-10
# The program's GP ML log-likelihood may fall short of scipy's optimum by at
# most this share of |loglik| (scipy's optimizer stops at ~1e-8 relative).
LOGLIK_TOL = 1e-8


def pickands_kernel(y1: float, y2: float, y3: float) -> float:
    """ln((y1-y2)^2 / ((y1-y3)(y2-y3))) for y1 > y2 > y3, straight from the definition."""
    return math.log((y1 - y2) ** 2 / ((y1 - y3) * (y2 - y3)))


def enumerate_ustat(values: Sequence[float], m: int) -> float:
    """Average of the kernel on the top three of every size-m subset."""
    v = sorted(values, reverse=True)
    terms = [pickands_kernel(v[a], v[b], v[c]) for a, b, c, *_ in itertools.combinations(range(len(v)), m)]
    return math.fsum(terms) / len(terms)


def _log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def weights(n: int, m: int, log_fact: Optional[np.ndarray] = None) -> np.ndarray:
    """w_j = C(n-j, m-3)/C(n, m) * (2(n-j+1)/(m-2) - j) for j = 2..n-m+3."""
    lf = _log_factorials(n) if log_fact is None else log_fact
    j = np.arange(2, n - m + 4)
    log_cnm = lf[n] - lf[m] - lf[n - m]
    log_c = lf[n - j] - lf[m - 3] - lf[n - j - m + 3]
    return np.exp(log_c - log_cnm) * (2.0 * (n - j + 1) / (m - 2) - j)


def spacing_sums(desc: np.ndarray, j_hi: int) -> List[float]:
    """s_j = fsum_{i<j} ln(X_(i) - X_(j)) for j = 2..j_hi; X_(1) the largest."""
    v = np.asarray(desc, dtype=float)
    with np.errstate(divide="raise", invalid="raise"):
        return [math.fsum(np.log(v[: j - 1] - v[j - 1]).tolist()) for j in range(2, j_hi + 1)]


class ReferenceSample:
    """Reference Pickands estimates of one sample for any block size m."""

    def __init__(self, values, min_m: int = 3):
        self.desc = np.sort(np.asarray(values, dtype=float))[::-1]
        self.n = self.desc.size
        self.s = spacing_sums(self.desc, self.n - min_m + 3)
        self._lf = _log_factorials(self.n)

    def ustat(self, m: int) -> float:
        w = weights(self.n, m, self._lf)
        return math.fsum((w * np.asarray(self.s[: w.size])).tolist())


def close(value: float, ref: float, tol: float = PICKANDS_TOL) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * (1.0 + abs(ref))


def gp_loglik(x: np.ndarray, gamma: float, sigma: float) -> float:
    """GP(gamma, sigma) log-likelihood of excesses x >= 0."""
    if gamma == 0.0:
        return float(-x.size * math.log(sigma) - x.sum() / sigma)
    z = 1.0 + gamma * x / sigma
    if np.any(z <= 0.0):
        return -math.inf
    return float(-x.size * math.log(sigma) - (1.0 + 1.0 / gamma) * np.log(z).sum())


def scipy_gp_fit(x: np.ndarray):
    """(shape, log-likelihood) of scipy's genpareto maximum likelihood fit, location fixed at 0."""
    from scipy.stats import genpareto

    c, _, scale = genpareto.fit(x, floc=0)
    return float(c), float(genpareto.logpdf(x, c, 0, scale).sum())


def gp_best_loglik(x: np.ndarray) -> float:
    """The largest GP log-likelihood of x found inside gamma > -1, sigma > 0.

    scipy's genpareto fit where its shape is above -1.  Otherwise the
    optimum lies on the gamma = -1 edge, and the best of a gamma grid in
    (-1, 0], sigma maximised for each, stands for it: every grid value is
    reached by a feasible point, so a fit below it is not a maximum.
    """
    from scipy.optimize import minimize_scalar

    c_sp, ll_sp = scipy_gp_fit(x)
    if c_sp > -1.0:
        return ll_sp
    xmax = float(x.max())
    best = -math.inf
    for gamma in (-1.0 + 1e-6, -0.999, -0.99, -0.95, -0.9, -0.8, -0.6, -0.4, -0.2, 0.0):
        # log sigma above the support edge log(-gamma * xmax) for gamma < 0
        lo = math.log(-gamma * xmax) + 1e-12 if gamma < 0.0 else math.log(xmax) - 12.0
        res = minimize_scalar(lambda ls: -gp_loglik(x, gamma, math.exp(ls)), bounds=(lo, math.log(xmax) + 12.0),
                              method="bounded", options={"xatol": 1e-10})
        best = max(best, -float(res.fun))
    return best


def self_test() -> List[str]:
    """The reference evaluator against subset enumeration at n <= 12."""
    rng = np.random.default_rng(20260809)
    errors = []
    for n in (5, 8, 12):
        for law in ("uniform", "pareto"):
            raw = rng.random(n) * 10.0 if law == "uniform" else 1.0 / (1.0 - rng.random(n))
            ref = ReferenceSample(raw)
            for m in range(3, n + 1):
                brute = enumerate_ustat(raw.tolist(), m)
                if not close(ref.ustat(m), brute):
                    errors.append(f"reference U n={n} m={m} {law}: {ref.ustat(m)!r} vs enumeration {brute!r}")
    return errors


def parse_float(text: str) -> float:
    return float("nan") if text == "NaN" else float(text)


def read_csv(path: str, experiment: str) -> List[Dict[str, str]]:
    """Rows of a harness CSV after checking the column contract; raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if b"\r" in raw:
        raise ValueError(f"{path}: CR in line endings")
    text = raw.decode("utf-8")
    if not text.endswith("\n"):
        raise ValueError(f"{path}: no final LF")
    records = list(csv.reader(io.StringIO(text)))
    if records[0] != CSV_COLUMNS:
        raise ValueError(f"{path}: header {records[0]}")
    rows = []
    for cells in records[1:]:
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"{path}: {len(cells)} cells in {cells!r}")
        row = dict(zip(CSV_COLUMNS, cells))
        if row["experiment"] != experiment:
            raise ValueError(f"{path}: experiment {row['experiment']!r}")
        for key in ("gamma_hat", "bias", "variance", "mse"):
            if row[key].lower() in ("nan", "inf", "-inf") and row[key] != "NaN":
                raise ValueError(f"{path}: {key} spelled {row[key]!r}")
            parse_float(row[key])
        int(row["n"]), int(row["m"]), int(row["k"]), int(row["failed"])
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no rows")
    return rows


def check_mse_identity(row: Dict[str, str]) -> bool:
    """mse = bias^2 + variance within 1e-12 relative, where all three are numbers."""
    bias, var, mse = (parse_float(row[k]) for k in ("bias", "variance", "mse"))
    if not all(math.isfinite(x) for x in (bias, var, mse)):
        return True
    return abs(mse - (bias * bias + var)) <= 1e-12 * max(abs(mse), 1e-300)


def extra_fields(row: Dict[str, str]) -> Dict[str, str]:
    return dict(kv.split("=", 1) for kv in row["extra"].split(";") if kv)
