"""Distribution catalog: quantile functions, samplers, and (gamma, rho) metadata.

Heavy-tailed families with closed-form quantiles (GP, Pareto, Frechet, Burr,
Exponential) are sampled by inversion; Normal, Student-t and Beta use exact
samplers built from normal and gamma draws.  All sampling is deterministic
given an :class:`RngStream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    ArgumentOutOfRange,
    NonPositiveArgument,
    SortedSample,
    TooFewObservations,
)

_INVERSION_FAMILIES = ("GP", "Pareto1", "Frechet", "Burr", "Exponential")


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (master_seed, stream_id).

    Identical keys reproduce identical draw sequences; distinct stream ids
    give statistically independent streams.  A non-empty ``path`` extends
    the spawn key, so nested Monte Carlo loops stay reproducible regardless
    of scheduling.
    """

    master_seed: int
    stream_id: int = 0
    path: Tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *self.path)
        )
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling distribution with its true extreme value index and, where
    known, the second-order parameter rho <= 0."""

    family: str
    params: Tuple[float, ...]
    true_gamma: Optional[float]
    true_rho: Optional[float]
    label: str


def gp(gamma: float) -> DistributionSpec:
    return DistributionSpec("GP", (gamma,), gamma, None, f"GP({_fmt(gamma)})")


def pareto1() -> DistributionSpec:
    return DistributionSpec("Pareto1", (), 1.0, None, "Pareto(1)")


def student_t(nu: float) -> DistributionSpec:
    if nu <= 0:
        raise ArgumentOutOfRange("degrees of freedom must be positive")
    return DistributionSpec(
        "StudentT", (nu,), 1.0 / nu, -2.0 / nu, f"Student-t({_fmt(nu)})"
    )


def normal() -> DistributionSpec:
    return DistributionSpec("Normal", (), 0.0, 0.0, "Normal")


def beta(a: float, b: float) -> DistributionSpec:
    if a <= 0 or b <= 0:
        raise ArgumentOutOfRange("beta parameters must be positive")
    # rho is left unknown for the beta family
    return DistributionSpec(
        "Beta", (a, b), -1.0 / b, None, f"Beta({_fmt(a)},{_fmt(b)})"
    )


def frechet(alpha: float) -> DistributionSpec:
    if alpha <= 0:
        raise ArgumentOutOfRange("Frechet shape must be positive")
    return DistributionSpec(
        "Frechet", (alpha,), 1.0 / alpha, -1.0, f"Frechet({_fmt(alpha)})"
    )


def burr(lam: float, eta: float) -> DistributionSpec:
    if lam <= 0 or eta <= 0:
        raise ArgumentOutOfRange("Burr parameters must be positive")
    return DistributionSpec(
        "Burr",
        (lam, eta),
        1.0 / (lam * eta),
        -1.0 / lam,
        f"Burr({_fmt(lam)},{_fmt(eta)})",
    )


def burr_from_gamma_rho(gamma: float, rho: float) -> DistributionSpec:
    """Burr parameters pinned by the target (gamma, rho): lam=-1/rho, eta=1/(gamma*lam)."""
    if rho >= 0 or gamma <= 0:
        raise ArgumentOutOfRange("need rho < 0 and gamma > 0 for the Burr mapping")
    lam = -1.0 / rho
    return burr(lam, 1.0 / (gamma * lam))


def exponential() -> DistributionSpec:
    return DistributionSpec("Exponential", (), 0.0, None, "Exponential")


def _fmt(x: float) -> str:
    return f"{x:g}"


def h_gamma(gamma: float, y):
    """Tail quantile function of GP(gamma): (y^gamma - 1)/gamma, ln y at gamma=0.

    expm1 keeps the evaluation stable through gamma -> 0; y must be positive.
    Where y^gamma overflows (gamma ln y above about 709) the result is inf,
    without a numpy warning; callers count it as a failed draw.  The
    argument is left unchanged: the evaluation (:func:`_h_gamma_inplace`)
    runs on a copy.
    """
    y = np.array(y, dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise NonPositiveArgument("h_gamma needs a positive finite argument")
    _h_gamma_inplace(gamma, y)
    return float(y) if y.ndim == 0 else y


def _h_gamma_inplace(gamma: float, y: np.ndarray) -> None:
    """Overwrite the float64 array y (positive, finite, unchecked) with
    h_gamma(gamma, y): ln y, then gamma times it, expm1 and the division by
    gamma, each one numpy ufunc in place, so the bits are those of the
    out-of-place expression np.expm1(gamma * np.log(y)) / gamma."""
    np.log(y, out=y)
    if gamma != 0.0:
        np.multiply(y, gamma, out=y)
        with np.errstate(over="ignore"):
            np.expm1(y, out=y)
        np.divide(y, gamma, out=y)


def quantile(spec: DistributionSpec, u):
    """Closed-form quantile for the inversion families."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ArgumentOutOfRange("u must lie strictly inside (0, 1)")
    if spec.family == "GP":
        return h_gamma(spec.params[0], 1.0 / (1.0 - u))
    if spec.family == "Pareto1":
        return 1.0 / (1.0 - u)
    if spec.family == "Frechet":
        return (-np.log(u)) ** (-1.0 / spec.params[0])
    if spec.family == "Burr":
        lam, eta = spec.params
        return np.expm1(-np.log1p(-u) / lam) ** (1.0 / eta)
    if spec.family == "Exponential":
        return -np.log1p(-u)
    raise NotImplementedError(f"{spec.family} has no closed-form quantile")


def draw(spec: DistributionSpec, n: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. draws in sampling order (unsorted)."""
    if n < 1:
        raise TooFewObservations("need at least one draw")
    g = rng.generator()
    if spec.family in _INVERSION_FAMILIES:
        return np.asarray(quantile(spec, g.random(n)))
    if spec.family == "Normal":
        return g.standard_normal(n)
    if spec.family == "StudentT":
        nu = spec.params[0]
        z = g.standard_normal(n)
        chi2 = 2.0 * g.standard_gamma(nu / 2.0, size=n)
        return z / np.sqrt(chi2 / nu)
    if spec.family == "Beta":
        a, b = spec.params
        ga = g.standard_gamma(a, size=n)
        gb = g.standard_gamma(b, size=n)
        return ga / (ga + gb)
    raise NotImplementedError(f"unknown family {spec.family}")


def sample(spec: DistributionSpec, n: int, rng: RngStream) -> SortedSample:
    """n i.i.d. draws as a descending SortedSample; needs n >= 3."""
    if n < 3:
        raise TooFewObservations(f"need at least 3 observations, got {n}")
    return SortedSample(np.sort(draw(spec, n, rng))[::-1])


_FAMILY_BUILDERS = {
    "GP": (1, lambda p: gp(p[0])),
    "Pareto1": (0, lambda p: pareto1()),
    "StudentT": (1, lambda p: student_t(p[0])),
    "Normal": (0, lambda p: normal()),
    "Beta": (2, lambda p: beta(p[0], p[1])),
    "Frechet": (1, lambda p: frechet(p[0])),
    "Burr": (2, lambda p: burr(p[0], p[1])),
    "Exponential": (0, lambda p: exponential()),
}


def make_spec(family: str, params: Tuple[float, ...]) -> DistributionSpec:
    """Build a DistributionSpec from a family name and parameter tuple."""
    if family not in _FAMILY_BUILDERS:
        raise ArgumentOutOfRange(
            f"unknown family {family!r}; choose from {sorted(_FAMILY_BUILDERS)}"
        )
    arity, build = _FAMILY_BUILDERS[family]
    if len(params) != arity:
        raise ArgumentOutOfRange(f"family {family} takes {arity} parameter(s)")
    return build(params)
