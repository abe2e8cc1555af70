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
_GOLDEN_TOL = 1e-12
_GOLDEN_CAP = 200


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
        return math.log(float(x.mean())), 0.0
    gam = float(np.mean(np.log1p(theta * x)))
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
    if theta == 0.0:
        xbar = float(x.mean())
        return xbar - float(np.mean(x * x)) / (2.0 * xbar)
    gam = float(np.mean(np.log1p(theta * x)))
    if gam <= -1.0 or gam == 0.0:
        return math.nan
    dgam = float(np.mean(x / (1.0 + theta * x)))
    return dgam * (1.0 / gam + 1.0) - 1.0 / theta


def gp_ml_fit(excesses: Sequence[float]) -> GpMlFit:
    """Fit GP(gamma, sigma) to nonnegative excesses by profile likelihood.

    Scans ~400 log-spaced values of theta = gamma/sigma on the feasible
    interval (-1/max(x), inf), refines the best bracket by a score root
    (golden section when the score does not change sign), and compares
    against the exponential (theta -> 0) boundary model.  Non-convergence
    is reported through the flag, not an exception.
    """
    x = np.asarray(excesses, dtype=float)
    if x.size < 5:
        raise TooFewObservations(f"need at least 5 excesses, got {x.size}")
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ArgumentOutOfRange("excesses must be finite and nonnegative")
    xmax = float(x.max())
    if xmax <= 0.0 or x.min() == xmax:
        raise DegenerateSpacing("excesses have zero spread; no interior maximizer")
    xbar = float(x.mean())

    half = _PROFILE_GRID // 2
    theta_lo = -(1.0 - 1e-9) / xmax
    grid = np.concatenate(
        [
            -np.geomspace(-theta_lo, 1e-8 / xbar, half),
            np.geomspace(1e-8 / xbar, 1e7 / xmax, half),
        ]
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gams = np.log1p(grid[None, :] * x[:, None]).mean(axis=0)
        f = np.log(gams / grid) + gams
    f[(gams <= -1.0) | (gams == 0.0) | ~np.isfinite(f)] = np.inf

    k = x.size
    if not np.isfinite(f).any():
        # nothing feasible on the grid; report the exponential boundary model
        return GpMlFit(0.0, xbar, -k * (math.log(xbar) + 1.0), False, 0)

    i = int(np.argmin(f))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, grid.size - 1)]

    theta, converged, iters = _refine_bracket(a, b, x)
    f_star, gam = _profile_objective(theta, x)
    f_exp, _ = _profile_objective(0.0, x)
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
