"""Asymptotic variance and bias quantities, bootstrap, and analytic oracles.

sigma2 of the extreme U-Pickands estimator is computed by two independent
routes: k times the Monte Carlo sample variance of the estimator on GP
samples, and quadrature of the squared inner expectation over the Erlang
mixing variable.  The bias constant couples the kernel partial derivatives
with the second-order limit function H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ArgumentOutOfRange,
    DegenerateSpacing,
    SortedSample,
    pickands_g_prime,
    pickands_kernel_vec,
)
from .dist import RngStream, _h_gamma_inplace, h_gamma
from .ustat import pickands_ustat, pickands_ustat_batch

_EULER_GAMMA = 0.5772156649015328606
_SIGMA2_BATCHES = 20  # sigma2_integral_mc: batches whose spread gives its stderr
_RESAMPLE_BUDGET = 6_250_000  # doubles (50 MB) of _gp_resample_estimates' sample buffer


@dataclass(frozen=True)
class VarianceEstimate:
    sigma2: float
    reps: int
    stderr: float

    def __post_init__(self):
        if not self.sigma2 >= 0 or not self.stderr >= 0:  # NaN fails too
            raise ArgumentOutOfRange("variance and stderr must be nonnegative")


@dataclass(frozen=True)
class BiasEstimate:
    b_k: float
    stderr: float


def h_gamma_rho(x, gamma: float, rho: float):
    """Second-order limit function: the double integral of s^(gamma-1) u^(rho-1).

    Closed form (h_{gamma+rho}(x) - h_gamma(x)) / rho for rho < 0; the
    rho -> 0 limit is the gamma-derivative of the h family.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1.0):
        raise ArgumentOutOfRange("H is defined for x >= 1")
    if rho > 0.0:
        raise ArgumentOutOfRange("second-order parameter rho must be <= 0")
    if rho < -1e-8:
        out = (h_gamma(gamma + rho, x) - h_gamma(gamma, x)) / rho
    else:
        lx = np.log(x)
        if gamma == 0.0:
            out = 0.5 * lx * lx
        else:
            xg = np.exp(gamma * lx)
            out = (gamma * xg * lx - xg + 1.0) / gamma**2
    return float(out) if np.ndim(out) == 0 else out


def erlang_neg_rho_moment(rho: float, q: int) -> float:
    """E[S_q^(-rho)] for an Erlang(q) variable: Gamma(q - rho)/Gamma(q)."""
    if rho > 0.0:
        raise ArgumentOutOfRange("rho must be <= 0 so the moment is positive order")
    if q < 1:
        raise ArgumentOutOfRange("q must be a positive integer")
    from scipy.special import gammaln

    return math.exp(gammaln(q - rho) - gammaln(q))


@dataclass(frozen=True)
class DigammaMoments:
    """Closed-form log-moments of GP order statistics from a pair of draws.

    kernel_mean = 2*u1 - u2 is the mean of the Pickands kernel applied to
    (Z_{2:2}, Z_{1:2}, 0) and equals gamma identically.
    """

    e_ln_z: float
    e_ln_z22: float
    e_ln_z12: float
    u1: float
    u2: float
    kernel_mean: float


def digamma_moments(gamma: float) -> DigammaMoments:
    """Digamma expressions for E[ln Z], E[ln Z_{2:2}], E[ln Z_{1:2}] and the
    derived spacing moments u1, u2.

    Branches on the sign of gamma; |gamma| < 1e-10 uses the gamma = 0 forms.
    """
    psi1 = -_EULER_GAMMA  # digamma(1)
    if abs(gamma) < 1e-10:
        ln2 = math.log(2.0)  # the psi-type difference shared by u1 and u2
        return DigammaMoments(psi1, psi1 + ln2, psi1 - ln2, ln2, 2.0 * ln2, 0.0)
    from scipy.special import digamma

    if gamma > 0:
        a1 = float(digamma(1.0 / gamma))
        a2 = float(digamma(2.0 / gamma))
        lg = math.log(1.0 / gamma)
    else:
        a1 = float(digamma(1.0 - 1.0 / gamma))
        a2 = float(digamma(1.0 - 2.0 / gamma))
        lg = math.log(-1.0 / gamma)
    e_ln_z = lg + psi1 - a1
    e_ln_z22 = lg + psi1 + a2 - 2.0 * a1
    e_ln_z12 = lg + psi1 - a2
    diff = a2 - a1
    u1 = 0.5 * gamma + diff
    u2 = 2.0 * diff
    kernel_mean = 2.0 * u1 - u2  # the psi terms cancel, leaving gamma
    return DigammaMoments(e_ln_z, e_ln_z22, e_ln_z12, u1, u2, kernel_mean)


def _h_finite(gamma: float, y) -> np.ndarray:
    z = h_gamma(gamma, y)
    if np.isinf(z).any():
        raise ArgumentOutOfRange(f"h_gamma overflows on a draw at gamma={gamma!r}")
    return z


def bias_bk_mc(gamma: float, rho: float, reps: int, rng: RngStream) -> BiasEstimate:
    """Monte Carlo evaluation of the asymptotic bias constant B_K(rho, gamma).

    Draws pairs of Pareto(1) variables, evaluates the Pickands kernel
    partials at (h_gamma(Y_{2:2}), h_gamma(Y_{1:2}), 0), weights them with
    H_{gamma,rho} at the Pareto points, and scales by the Erlang moment
    E[S_3^(-rho)] = Gamma(3 - rho)/Gamma(3).  A draw on which h_gamma
    overflows raises ArgumentOutOfRange.
    """
    if not rho < 0.0:
        raise ArgumentOutOfRange("need rho < 0")
    if not math.isfinite(gamma):
        raise ArgumentOutOfRange("need a finite gamma")
    if reps < 10_000:
        raise ArgumentOutOfRange("need at least 1e4 replications")
    g = rng.generator()
    y = 1.0 / (1.0 - g.random((reps, 2)))
    y22 = np.maximum(y[:, 0], y[:, 1])
    y12 = np.minimum(y[:, 0], y[:, 1])
    x1 = _h_finite(gamma, y22)
    x2 = _h_finite(gamma, y12)
    gp = pickands_g_prime(np.log(x1 - x2) - np.log(x2))
    h22 = h_gamma_rho(y22, gamma, rho)
    h12 = h_gamma_rho(y12, gamma, rho)
    # K1*H22 + K2*H12 rearranged: K2 = -K1 - K3 and the common g' factored out
    w = gp * ((h22 - h12) / (x1 - x2) - h12 / x2)
    scale = erlang_neg_rho_moment(rho, 3)
    return BiasEstimate(
        b_k=scale * float(w.mean()),
        stderr=scale * float(w.std(ddof=1)) / math.sqrt(reps),
    )


def _gp_resample_estimates(
    gamma: float, n: int, m: int, reps: int, rng: RngStream
) -> np.ndarray:
    """Pickands estimates at block size m on ``reps`` fresh GP(gamma) samples of size n.

    The samples pass through one buffer of at most ``_RESAMPLE_BUDGET``
    doubles, allocated once and reused chunk by chunk: ``Generator.random``
    fills it, 1/(1 - u), h_gamma (:func:`~xustat.dist._h_gamma_inplace`) and
    the row sort run in place, and the batch kernel reads the rows' reversed
    view.  Each step applies the numpy ufunc, in the same order, that the
    out-of-place ``np.sort(h_gamma(gamma, 1 / (1 - u)))[:, ::-1]`` applies,
    so the estimates keep its bits.  A sample with a tie in the touched index
    range gives NaN.
    """
    g = rng.generator()
    est = np.empty(reps)
    chunk = max(1, min(reps, _RESAMPLE_BUDGET // n))
    buf = np.empty((chunk, n))
    for start in range(0, reps, chunk):
        z = buf[: min(chunk, reps - start)]
        g.random(out=z)
        np.subtract(1.0, z, out=z)
        np.divide(1.0, z, out=z)
        _h_gamma_inplace(gamma, z)
        z.sort(axis=1)
        est[start : start + z.shape[0]] = pickands_ustat_batch(z[:, ::-1], m)
    return est


def sigma2_kvar_mc(
    gamma: float, n: int, m: int, reps: int, rng: RngStream
) -> VarianceEstimate:
    """k times the sample variance of the estimator over fresh GP(gamma) samples.

    k = n/m.  The stderr comes from the asymptotic variance of a sample
    variance, using the empirical fourth central moment.
    """
    if reps < 100:
        raise ArgumentOutOfRange("need at least 100 replications")
    if not 3 <= m <= n:
        raise ArgumentOutOfRange(f"need 3 <= m <= n, got m={m}, n={n}")
    est = _gp_resample_estimates(gamma, n, m, reps, rng)
    est = est[np.isfinite(est)]
    r = est.size
    if r < 100:
        raise DegenerateSpacing("too many degenerate replications")
    k = n / m
    s2 = float(est.var(ddof=1))
    centered = est - est.mean()
    mu4 = float(np.mean(centered**4))
    var_s2 = max(0.0, (mu4 - s2 * s2 * (r - 3) / (r - 1)) / r)
    return VarianceEstimate(
        sigma2=k * s2,
        reps=r,
        stderr=k * math.sqrt(var_s2),
    )


def _kernel_with_extra_point(z22, z12, base, w):
    """Pickands kernel on the top 3 of {z22, z12, 0, w} minus the kernel
    without w; identically zero wherever w <= 0."""
    out = np.zeros_like(z22)
    lo = (w > 0.0) & (w <= z12)
    mid = (w > z12) & (w <= z22)
    hi = w > z22
    if lo.any():
        out[lo] = pickands_kernel_vec(z22[lo], z12[lo], w[lo]) - base[lo]
    if mid.any():
        out[mid] = pickands_kernel_vec(z22[mid], w[mid], z12[mid]) - base[mid]
    if hi.any():
        out[hi] = pickands_kernel_vec(w[hi], z22[hi], z12[hi]) - base[hi]
    return out


def sigma2_integral_mc(
    gamma: float,
    inner_reps: int = 200_000,
    quad_nodes: int = 128,
    rng: Optional[RngStream] = None,
) -> VarianceEstimate:
    """Quadrature of the squared inner expectation defining sigma2.

    The integrand at x is E[K(top 3 of (Z_{2:2}, Z_{1:2}, 0, h_gamma(S_3/x)))
    - gamma] squared, integrated over x in (0, inf) via the substitution
    x = t/(1-t) and Gauss-Legendre nodes in t.  Common random numbers are
    shared across nodes; each batch uses the unbiased split-half product of
    means instead of a squared mean, and the kernel value without the Erlang
    point (mean exactly gamma) is subtracted as an exact control variate so
    the node noise decays with the Erlang tail.  A draw on which h_gamma
    overflows raises ArgumentOutOfRange.
    """
    if inner_reps < 10_000:
        raise ArgumentOutOfRange("need at least 1e4 inner replications")
    if quad_nodes < 8:
        raise ArgumentOutOfRange("need at least 8 quadrature nodes")
    if rng is None:
        rng = RngStream(0)
    g = rng.generator()
    t, wq = np.polynomial.legendre.leggauss(quad_nodes)
    t = 0.5 * (t + 1.0)
    weight = 0.5 * wq / (1.0 - t) ** 2
    x_nodes = t / (1.0 - t)

    per_batch = max(inner_reps // _SIGMA2_BATCHES, 2)
    half = per_batch // 2
    vals = np.empty(_SIGMA2_BATCHES)
    for bi in range(_SIGMA2_BATCHES):
        z = _h_finite(gamma, 1.0 / (1.0 - g.random((per_batch, 2))))
        z22 = np.maximum(z[:, 0], z[:, 1])
        z12 = np.minimum(z[:, 0], z[:, 1])
        s3 = g.standard_gamma(3.0, size=per_batch)
        base = pickands_kernel_vec(z22, z12, 0.0)
        means_a = np.empty(quad_nodes)
        means_b = np.empty(quad_nodes)
        for i, xi in enumerate(x_nodes):
            d = _kernel_with_extra_point(z22, z12, base, _h_finite(gamma, s3 / xi))
            means_a[i] = d[:half].mean()
            means_b[i] = d[half:].mean()
        vals[bi] = float(np.sum(weight * means_a * means_b))
    sigma2 = float(vals.mean())
    stderr = float(vals.std(ddof=1)) / math.sqrt(_SIGMA2_BATCHES)
    return VarianceEstimate(
        sigma2=max(sigma2, 0.0),
        reps=inner_reps,
        stderr=stderr,
    )


@dataclass(frozen=True)
class BootstrapOutcome:
    gamma_hat: float
    stderr: float
    ci_low: float
    ci_high: float
    boot_reps: int
    dropped: int


def parametric_bootstrap(
    sample: SortedSample,
    m: int,
    boot_reps: int,
    level: float,
    rng: RngStream,
) -> BootstrapOutcome:
    """Normal-approximation bootstrap CI from GP(gamma_hat) resamples.

    The asymptotic variance depends on the underlying law only through
    gamma, so resampling from the fitted GP gives a valid spread estimate;
    degenerate resamples are dropped and counted.
    """
    if boot_reps < 200:
        raise ArgumentOutOfRange("need at least 200 bootstrap replications")
    if not 0.0 < level < 1.0:
        raise ArgumentOutOfRange("confidence level must lie in (0, 1)")
    point = pickands_ustat(sample, m)
    est = _gp_resample_estimates(point, sample.n, m, boot_reps, rng)
    ok = np.isfinite(est)
    dropped = int(boot_reps - ok.sum())
    if ok.sum() < 2:
        raise DegenerateSpacing("all bootstrap replications degenerate")
    sd = float(est[ok].std(ddof=1))
    from scipy.special import ndtri

    zq = float(ndtri(0.5 * (1.0 + level)))
    return BootstrapOutcome(
        gamma_hat=point,
        stderr=sd,
        ci_low=point - zq * sd,
        ci_high=point + zq * sd,
        boot_reps=boot_reps,
        dropped=dropped,
    )
