"""Shared domain types, validation errors, the sample-file reader, and the
top-q kernel abstraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np


class TailInferenceError(Exception):
    """Base class for every error raised by this package."""


class TooFewObservations(TailInferenceError):
    pass


class NonFiniteInput(TailInferenceError):
    pass


class DegenerateSpacing(TailInferenceError):
    """A required spacing between order statistics is zero or underflows."""


class InstanceTooLarge(TailInferenceError):
    pass


class BlockSizeOutOfRange(TailInferenceError):
    pass


class ThresholdOutOfRange(TailInferenceError):
    pass


class ArgumentOutOfRange(TailInferenceError):
    pass


class NonPositiveArgument(TailInferenceError):
    pass


class KernelUnavailable(TailInferenceError):
    """The compiled library (spacing kernel, weight and reduction passes, GP
    profile scan) could not be built: no working C compiler, or no writable
    directory for it."""


@dataclass(frozen=True)
class SortedSample:
    """Observations sorted in descending order; values[0] is the sample maximum.

    The array is made read-only on construction, so instances are immutable
    and safe to share across threads.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise TooFewObservations(f"need at least 3 observations, got {v.size}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("sample contains NaN or infinite values")
        if np.any(v[1:] > v[:-1]):
            raise ArgumentOutOfRange("values must be sorted in descending order")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)


def sort_sample(raw: Sequence[float]) -> SortedSample:
    """Validate and sort raw observations into descending order.

    Ties are preserved; the input is not modified.
    """
    v = np.asarray(raw, dtype=float)
    if v.ndim != 1:  # np.sort needs a vector; SortedSample checks the rest
        raise TooFewObservations(f"need at least 3 observations, got {v.size}")
    return SortedSample(np.sort(v, kind="stable")[::-1])


def read_sample_file(path: str) -> SortedSample:
    """Sorted sample from a text file holding one number per line.

    ``#`` starts a comment and blank lines are skipped.  A file that cannot
    be opened or a line that is not a number raises TailInferenceError.
    """
    values: List[float] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    values.append(float(line))
    except (OSError, ValueError) as exc:
        raise TailInferenceError(f"cannot read sample file {path}: {exc}") from exc
    return sort_sample(values)


@dataclass(frozen=True)
class TopQKernel:
    """Symmetric location-scale invariant kernel of the top q order statistics.

    ``eval`` maps a strictly decreasing length-q vector to a real.  A
    non-constant location-scale invariant kernel needs at least three
    arguments, hence q >= 3.
    """

    q: int
    eval: Callable[[np.ndarray], float]

    def __post_init__(self):
        if self.q < 3:
            raise ArgumentOutOfRange("a location-scale invariant kernel needs q >= 3")


def pickands_g(t):
    """Scalar representation of the Pickands kernel: g(t) = 2t - ln(1 + e^t)."""
    return 2.0 * t - np.logaddexp(0.0, t)


def pickands_g_prime(t):
    """Derivative g'(t) = 2 - e^t/(1 + e^t); bounded by 2 in absolute value."""
    t = np.asarray(t, dtype=float)
    out = 2.0 - 1.0 / (1.0 + np.exp(-t))
    return float(out) if out.ndim == 0 else out


def pickands_kernel(y1: float, y2: float, y3: float) -> float:
    """ln((y1-y2)^2 / ((y1-y3)(y2-y3))) for a strictly decreasing triple.

    Computed from log-spacings: t = ln(y1-y2) - ln(y2-y3) and then
    g(t) = 2t - softplus(t), which stays finite for extreme spacing ratios
    where the raw ratio would overflow.
    """
    d12 = y1 - y2
    d23 = y2 - y3
    if not (math.isfinite(d12) and math.isfinite(d23)) or d12 <= 0.0 or d23 <= 0.0:
        raise DegenerateSpacing(f"spacings must be positive, got {d12} and {d23}")
    t = math.log(d12) - math.log(d23)
    return float(pickands_g(t))


def pickands_kernel_vec(y1, y2, y3):
    """Vectorized Pickands kernel over arrays of strictly decreasing triples."""
    t = np.log(y1 - y2) - np.log(y2 - y3)
    return pickands_g(t)


PICKANDS_KERNEL = TopQKernel(q=3, eval=lambda y: pickands_kernel(y[0], y[1], y[2]))
