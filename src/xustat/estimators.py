"""The generalized Pareto maximum likelihood comparison estimator.

A location-scale invariant profile-likelihood fit on threshold excesses,
paired with the extreme U-Pickands estimator at block size m through
k = 3n/m so both see the same number of tail observations.
"""

from __future__ import annotations

import math
import threading
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
from .ustat import _spacing_kernel

_PROFILE_GRID = 400
# first-pass stride of the pruned scan, the strides of the indices each later
# pass may evaluate, and the relative margin by which a pruned grid value's
# bound clears the best evaluated one
_SCAN_STEP = 16
_SCAN_STRIDES = (4, 1)
_SCAN_MARGIN = 1e-9
_SCAN_BUFFER = 2**14  # doubles of log1p(theta x) that the scan holds at once
# gamma_hat = -1 + _EDGE_STEP when the fit reports the gamma -> -1 edge
_EDGE_STEP = 1e-12
_GOLDEN_TOL = 1e-12
_GOLDEN_CAP = 200

_HALF = _PROFILE_GRID // 2
_GRID_I = np.arange(_HALF, dtype=float)  # i of the log10-space step i * step + log10(start)
# the scan's first-pass indices, the grid's two ends among them
_FIRST = np.append(np.arange(0, _PROFILE_GRID - 1, _SCAN_STEP), _PROFILE_GRID - 1)


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
        if not self.gamma_hat > -1.0:  # NaN fails too
            raise ArgumentOutOfRange("GP ML estimate constrained to gamma > -1")
        if not self.sigma_hat > 0.0:
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


def _profile_score(theta: float, x: np.ndarray, buf: np.ndarray, xp: int, bp: int) -> float:
    """Derivative of the profile objective.

    Value-only minimization can localize the flat optimum only to sqrt(eps);
    the score root pins it to machine precision, which keeps the fit
    scale-equivariant to ~1e-15.  ``buf`` is the fit's buffer of k doubles
    and ``xp``, ``bp`` the addresses of x and ``buf``, taken once per fit
    (:func:`_refine_bracket`): C fills ``buf`` with theta x
    (``profile_scale``), numpy's ``log1p`` runs in place, and one C pass
    (``profile_sums``) gives the sums of log1p(theta x) and x / (theta x +
    1) in the order of numpy's pairwise summation, the bits
    ``np.add.reduce`` gives; each is divided by k as the numpy score did.
    """
    k = x.size
    if theta == 0.0:
        xbar = float(np.add.reduce(x)) / k
        return xbar - float(np.add.reduce(x * x)) / k / (2.0 * xbar)
    lib, space = _spacing_kernel(), _SPACE
    lib.profile_scale(xp, k, theta, bp)
    np.log1p(buf, out=buf)
    lib.profile_sums(xp, bp, k, theta, space.ptr["sums"])
    logs, quotients = space.sums.tolist()
    gam = logs / k
    if gam <= -1.0 or gam == 0.0:
        return math.nan
    return quotients / k * (1.0 / gam + 1.0) - 1.0 / theta


def _scan_pass(lib, xp: int, k: int, gp: int, ip: int, c: int) -> None:
    """Evaluate f(theta) and gamma(theta) at the c grid points idx[0..c), for
    the k excesses at address xp, the grid at gp and the int64 indices at ip:
    in the thread's :class:`_ScanSpace` they land in ``f`` and ``gam``, and
    at their indices in ``grid_f`` and ``grid_gam``.

    The k x c values log1p(theta x) pass through the thread's buffer of
    ``_SCAN_BUFFER`` doubles, a block of rows at a time: C fills it with
    theta x (``profile_fill``), numpy's ``log1p`` runs in place, and C adds
    each column in row order onto a running sum from 0 (``profile_add``), the
    sum ``np.add.reduce`` gives along axis 0 of a matrix of two or more
    columns, so a lone column, too, has the bits of a scan of the whole grid.
    C divides by k for gamma and by theta for the ratio (``profile_ratio``),
    numpy takes the log, and C adds gamma, masks the infeasible values and
    stores both at their grid indices (``profile_objective``).  The two
    transcendental functions, ``log1p`` and ``log``, stay numpy's.
    """
    space = _SPACE
    bp, sp, fp = space.ptr["buf"], space.ptr["gam"], space.ptr["f"]
    rows = _SCAN_BUFFER // c
    for r0 in range(0, k, rows):
        n = min(rows, k - r0)
        lib.profile_fill(xp + 8 * r0, n, gp, ip, c, bp)  # 8 bytes per float64 excess
        t = space.buf[: n * c]
        np.log1p(t, out=t)
        lib.profile_add(bp, n, c, r0 == 0, sp)
    lib.profile_ratio(gp, ip, c, k, sp, fp)
    f = space.f[:c]
    np.log(f, out=f)
    lib.profile_objective(gp, ip, c, sp, fp, space.ptr["grid_f"], space.ptr["grid_gam"])


class _ScanSpace(threading.local):
    """One thread's arrays for the profile scan and score, allocated once,
    and their addresses for the C calls, which would otherwise cost more
    than the calls: the block buffer, one pass's column sums (then gamma)
    and ratios (then f), f and gamma over the whole grid, the first pass's
    indices and each later pass's, and the score's two sums."""

    def __init__(self):
        self.buf = np.empty(_SCAN_BUFFER)
        self.gam, self.f, self.grid_f, self.grid_gam = (np.empty(_PROFILE_GRID) for _ in range(4))
        self.first = _FIRST
        self.rest = np.empty(_PROFILE_GRID, dtype=np.int64)
        self.sums = np.empty(2)
        self.ptr = {name: a.ctypes.data for name, a in vars(self).items()}


_SPACE = _ScanSpace()


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
    when gamma(b) <= -1.  Each later pass evaluates the points, at the
    indices that are multiples of its stride in ``_SCAN_STRIDES`` (every
    4th, then all), whose bound is not above the best so far by the margin,
    a and b being the nearest evaluated indices on either side: the second
    pass's points tighten the chords and the best for the third.  Every
    pruned value thus exceeds the grid minimum, and argmin, ties included,
    is the full scan's.  The grid is :func:`_theta_grid`'s.  The addresses
    of x (contiguous) and the grid are taken once; each pass works through
    the thread's buffer of ``_SCAN_BUFFER`` doubles (:func:`_scan_pass`),
    and one C call (``profile_prune``) finds each point's neighbours,
    computes every bound and lists the points left.
    The bound takes libm's ``log``, which may differ from numpy's by an ulp:
    it only prunes, and the margin is far above that.  Excesses so small
    that twice a grid end overflows (max(x) below about 1.1e-301: the end
    1e7/max(x), and the golden section's a + b) raise ArgumentOutOfRange;
    they would give an all-NaN fit.
    """
    ends = ((1.0 - 1e-9) / xmax, 1e-8 / xbar, 1e7 / xmax)
    if not 2.0 * max(ends) < math.inf:  # the golden section adds two grid points: 0.5 (a + b)
        raise ArgumentOutOfRange(
            f"excesses too small for the theta grid: max(x) = {xmax!r}"
        )
    grid = _theta_grid(*ends)
    lib, space = _spacing_kernel(), _SPACE
    ptr, xp, gp, k = space.ptr, x.ctypes.data, grid.ctypes.data, x.size
    space.grid_f.fill(np.inf)
    space.grid_gam.fill(np.nan)
    _scan_pass(lib, xp, k, gp, ptr["first"], _FIRST.size)
    for every in _SCAN_STRIDES:
        count = lib.profile_prune(gp, ptr["grid_f"], ptr["grid_gam"], grid.size, _SCAN_MARGIN,
                                  every, ptr["rest"])
        if count:
            _scan_pass(lib, xp, k, gp, ptr["rest"], count)
    return grid, space.grid_f.copy()


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

    Apart from the k x columns ``log1p`` work (about 47 columns per fit, 26
    of them the first pass's, on the trajectory samples of n = 10^4), a fit
    makes a few dozen calls: the scan's three passes are C loops around
    numpy's ``log1p`` and ``log`` (:func:`_scan_pass`, :func:`_profile_scan`),
    each score is a C fill, one in-place ``log1p`` and one C pass of pairwise
    sums in a buffer made once per fit (:func:`_profile_score`), every other
    mean is ``np.add.reduce`` divided by k, the bits ``np.mean`` gives, the
    theta grid is built in one expression, and one min/max pair validates
    the input.
    The result is the same, field for field, as with ``np.mean``,
    ``np.geomspace`` and the numpy scan (``tests/test_estimators.py`` keeps
    those paths as its oracles), and its fields are Python floats, a bool and
    an int on every path.
    """
    x = np.ascontiguousarray(excesses, dtype=float)
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
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, grid.size - 1)])

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
    value-only golden section.  Every score of the fit shares one buffer of
    k doubles, passed with its address and x's in ``brentq``'s ``args``.
    """
    buf = np.empty(x.size)
    args = (x, buf, x.ctypes.data, buf.ctypes.data)
    sa = _profile_score(a, *args)
    sb = _profile_score(b, *args)
    if math.isfinite(sa) and math.isfinite(sb) and sa * sb < 0.0:
        from scipy.optimize import brentq

        theta, res = brentq(
            _profile_score,
            a,
            b,
            args=args,
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
