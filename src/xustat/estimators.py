"""The generalized Pareto maximum likelihood comparison estimator.

A location-scale invariant profile-likelihood fit on threshold excesses,
paired with the extreme U-Pickands estimator at block size m through
k = 3n/m so both see the same number of tail observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import (
    ArgumentOutOfRange,
    DegenerateSpacing,
    SortedSample,
    ThresholdOutOfRange,
    TooFewObservations,
)

_PROFILE_GRID = 400
# first-pass stride of the pruned scan, and the relative margin by which a
# pruned grid value's bound clears the best evaluated one
_SCAN_STEP = 16
_SCAN_MARGIN = 1e-9
# gamma_hat = -1 + _EDGE_STEP when the fit reports the gamma -> -1 edge
_EDGE_STEP = 1e-12
_GOLDEN_TOL = 1e-12
_GOLDEN_CAP = 200

_HALF = _PROFILE_GRID // 2
_GRID_I = np.arange(_HALF, dtype=float)  # i of the log10-space step i * step + log10(start)
# the scan's first-pass indices, and the first-pass neighbours a <= i <= b of every index i
_FIRST = np.append(np.arange(0, _PROFILE_GRID - 1, _SCAN_STEP), _PROFILE_GRID - 1)
_POS = np.searchsorted(_FIRST, np.arange(_PROFILE_GRID), side="right") - 1
_A, _B = _FIRST[_POS], _FIRST[np.minimum(_POS + 1, _FIRST.size - 1)]


@dataclass(frozen=True)
class GpMlFit:
    """Maximum likelihood GP fit on excesses.

    The profile algorithm constrains gamma_hat > -1; sigma_hat is the scale.
    """

    gamma_hat: float
    sigma_hat: float
    loglik: float
    converged: bool
    iterations: int

    def __post_init__(self):
        if self.gamma_hat <= -1.0:
            raise ArgumentOutOfRange("GP ML estimate constrained to gamma > -1")
        if self.sigma_hat <= 0.0:
            raise ArgumentOutOfRange("scale must be positive")


def excesses_over_threshold(sample: SortedSample, k: int) -> np.ndarray:
    """The k excesses over the (k+1)-largest order statistic, largest first."""
    if not 1 <= k <= sample.n - 1:
        raise ThresholdOutOfRange(f"need 1 <= k <= n-1, got k={k}, n={sample.n}")
    v = sample.values
    return v[:k] - v[k]


def _profile_objective(theta: float, x: np.ndarray) -> Tuple[float, float]:
    """Negative profile log-likelihood per observation, up to the constant 1.

    For theta = gamma/sigma the inner maximization gives
    gamma(theta) = mean(log1p(theta x)) and the objective
    f(theta) = ln(gamma/theta) + gamma; theta = 0 is the exponential model
    with f = ln(mean(x)).
    """
    if theta == 0.0:
        return math.log(float(np.add.reduce(x)) / x.size), 0.0
    gam = float(np.add.reduce(np.log1p(theta * x))) / x.size
    if gam <= -1.0 or gam == 0.0:
        return math.inf, gam
    ratio = gam / theta
    if ratio <= 0.0:
        return math.inf, gam
    return math.log(ratio) + gam, gam


def _profile_score(theta: float, x: np.ndarray) -> float:
    """Derivative of the profile objective.

    Value-only minimization can localize the flat optimum only to sqrt(eps);
    the score root pins it to machine precision, which keeps the fit
    scale-equivariant to ~1e-15.
    """
    k = x.size
    if theta == 0.0:
        xbar = float(np.add.reduce(x)) / k
        return xbar - float(np.add.reduce(x * x)) / k / (2.0 * xbar)
    tx = theta * x
    gam = float(np.add.reduce(np.log1p(tx))) / k
    if gam <= -1.0 or gam == 0.0:
        return math.nan
    tx += 1.0
    dgam = float(np.add.reduce(np.divide(x, tx, out=tx))) / k
    return dgam * (1.0 / gam + 1.0) - 1.0 / theta


def _profile_columns(grid, x, idx) -> Tuple[np.ndarray, np.ndarray]:
    """f(theta) and gamma(theta) at grid[idx], +inf where f is infeasible.

    Two or more columns are summed row by row, bit for bit as in a scan of
    the whole grid; numpy sums a single column pairwise, so a lone column is
    evaluated next to a neighbour.
    """
    cols = idx if idx.size != 1 else np.append(idx, idx[0] - 1 if idx[0] else 1)
    theta = grid[cols]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.multiply.outer(x, theta)
        g = np.add.reduce(np.log1p(t, out=t), axis=0) / x.size
        f = np.log(g / theta) + g
    f[(g <= -1.0) | (g == 0.0) | ~np.isfinite(f)] = np.inf
    return f[: idx.size], g[: idx.size]


def _theta_grid(lo: float, mid: float, hi: float) -> np.ndarray:
    """``-np.geomspace(lo, mid, 200)`` followed by ``np.geomspace(mid, hi, 200)``,
    bit for bit, without their per-call overhead.

    Both halves in one 2 x 200 array as numpy computes them: 10 to the power
    i * step + log10(start), step = (log10(stop) - log10(start)) / 199, with
    the end points pinned to start and stop.
    """
    ends = np.array([[lo, mid], [mid, hi]])
    logs = np.log10(ends)
    step = (logs[:, 1:] - logs[:, :1]) / (_HALF - 1)
    g = np.power(10.0, _GRID_I * step + logs[:, :1])
    g[:, 0], g[:, -1] = ends[:, 0], ends[:, 1]
    g[0] *= -1.0
    return g.ravel()


def _profile_scan(x: np.ndarray, xmax: float, xbar: float) -> Tuple[np.ndarray, np.ndarray]:
    """The increasing theta grid and the profile objective f on it, +inf
    where f is infeasible or provably above its grid minimum.

    A first pass evaluates every _SCAN_STEP-th index and the last.  gamma is
    increasing and concave in theta and r = gamma/theta decreasing, so at a
    feasible theta strictly between evaluated indices a < b, gamma(theta) >=
    c(theta) = max(chord from a to b, gamma(a), -1) and f(theta) >= max(ln
    r(b), ln(c/theta) where theta, c > 0) + c; every theta < b is infeasible
    when gamma(b) <= -1.  The second pass evaluates each point whose bound is
    not above the best by the margin, so every pruned value exceeds the grid
    minimum and argmin, ties included, is the full scan's.  The grid is
    :func:`_theta_grid`'s; the first-pass indices and each index's
    neighbours a, b among them are module constants.
    """
    grid = _theta_grid((1.0 - 1e-9) / xmax, 1e-8 / xbar, 1e7 / xmax)
    f, gams = np.full(grid.size, np.inf), np.full(grid.size, np.nan)
    f[_FIRST], gams[_FIRST] = _profile_columns(grid, x, _FIRST)
    best = float(f.min())

    a, b = _A, _B
    ga, gb = gams[a], gams[b]
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = ga + (gb - ga) * (grid - grid[a]) / (grid[b] - grid[a])
        c = np.maximum(chord, np.maximum(ga, -1.0))
        lr = np.log(gb / grid[b])
        lr = np.where((grid > 0.0) & (c > 0.0), np.maximum(lr, np.log(c / grid)), lr)
        bound = np.where(gb <= -1.0, np.inf, lr + c)
    pruned = bound > best + _SCAN_MARGIN * (1.0 + abs(best))
    rest = np.flatnonzero(np.isnan(gams) & ~pruned)
    f[rest], gams[rest] = _profile_columns(grid, x, rest)
    return grid, f


def gp_ml_fit(excesses: Sequence[float]) -> GpMlFit:
    """Fit GP(gamma, sigma) to nonnegative excesses by profile likelihood.

    Scans a grid of 400 log-spaced values of theta = gamma/sigma on the
    feasible interval (-1/max(x), inf), evaluating only the points that a
    concavity bound cannot rule out (:func:`_profile_scan`; the argmin is the
    full scan's), refines the best bracket by a score root (golden section
    when the score does not change sign), and compares against two boundary
    models: the exponential (theta -> 0), and the gamma -> -1 edge, whose
    log-likelihood tends to -k ln(max x) as sigma -> max x.  The profile
    cannot reach that edge, so where it is higher the fit returns the point
    gamma = -1 + 1e-12, sigma = -gamma max(x) (1 + 1e-12), with the
    log-likelihood at that point and ``converged=False``: the constrained
    supremum is not attained.  Otherwise ``converged=False`` means that the
    bracket refinement did not converge or that no grid point was feasible.

    Apart from the k x columns ``log1p`` work, a fit costs a few dozen numpy
    calls: every mean is ``np.add.reduce`` divided by k, the bits ``np.mean``
    gives, the theta grid is built in one expression, the scan's index arrays
    are constants, and one min/max pair validates the input.  The result is
    the same, field for field, as with ``np.mean`` and ``np.geomspace``
    (``tests/test_estimators.py`` keeps that path as its oracle).
    """
    x = np.asarray(excesses, dtype=float)
    k = x.size
    if k < 5:
        raise TooFewObservations(f"need at least 5 excesses, got {k}")
    xmin, xmax = float(x.min()), float(x.max())
    if not (xmin >= 0.0 and xmax < math.inf):  # NaN fails both
        raise ArgumentOutOfRange("excesses must be finite and nonnegative")
    if xmin == xmax:
        raise DegenerateSpacing("excesses have zero spread; no interior maximizer")
    xbar = float(np.add.reduce(x)) / k
    grid, f = _profile_scan(x, xmax, xbar)

    if not np.isfinite(f).any():
        # nothing feasible on the grid; report the exponential boundary model
        return GpMlFit(0.0, xbar, -k * (math.log(xbar) + 1.0), False, 0)

    i = int(np.argmin(f))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, grid.size - 1)]

    theta, converged, iters = _refine_bracket(a, b, x)
    f_star, gam = _profile_objective(theta, x)
    f_exp = math.log(xbar)  # the exponential model, theta = 0
    if math.log(xmax) - 1.0 < min(f_star, f_exp):
        # the gamma -> -1 edge beats both: step just inside it, sigma just above -gamma * xmax
        gam = -1.0 + _EDGE_STEP
        sigma = -gam * xmax * (1.0 + _EDGE_STEP)
        loglik = -k * math.log(sigma) - (1.0 + 1.0 / gam) * float(np.log1p(gam * x / sigma).sum())
        return GpMlFit(gam, sigma, loglik, False, iters)
    if f_exp <= f_star:
        return GpMlFit(0.0, xbar, -k * (f_exp + 1.0), converged, iters)
    return GpMlFit(gam, gam / theta, -k * (f_star + 1.0), converged, iters)


def _refine_bracket(a: float, b: float, x: np.ndarray) -> Tuple[float, bool, int]:
    """Score-root refinement inside [a, b], golden-section fallback.

    The score changes sign across an interior maximum; if it does not
    (optimum pinned at a grid edge, or score undefined) fall back to a
    value-only golden section.
    """
    sa = _profile_score(a, x)
    sb = _profile_score(b, x)
    if math.isfinite(sa) and math.isfinite(sb) and sa * sb < 0.0:
        from scipy.optimize import brentq

        theta, res = brentq(
            _profile_score,
            a,
            b,
            args=(x,),
            xtol=_GOLDEN_TOL * (1.0 + min(abs(a), abs(b))),
            maxiter=_GOLDEN_CAP,
            full_output=True,
            disp=False,
        )
        return float(theta), bool(res.converged), int(res.iterations)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, _ = _profile_objective(c, x)
    fd, _ = _profile_objective(d, x)
    iters = 0
    while abs(b - a) > _GOLDEN_TOL * (1.0 + abs(a)) and iters < _GOLDEN_CAP:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc, _ = _profile_objective(c, x)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd, _ = _profile_objective(d, x)
        iters += 1
    converged = abs(b - a) <= _GOLDEN_TOL * (1.0 + abs(a))
    return 0.5 * (a + b), converged, iters


def paired_k(n: int, m: int) -> int:
    """Threshold count paired with block size m: k = floor(3n/m), capped at n-1."""
    return min(3 * n // m, n - 1)
