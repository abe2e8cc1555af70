"""U-statistic evaluation engines.

Three routes to the same quantity:

* :func:`brute_force_ustat` enumerates every size-m subset (the oracle),
* :func:`topq_weighted_ustat` sums kernel values over rank tuples weighted by
  the share of subsets whose top q lands on those ranks, an integer ratio
  rounded once, as is each probability of :func:`overlap_pmf`,
* the Pickands evaluators (single, grid and batch) evaluate the
  explicit formula U = sum_j w_j s_j.  All take s_j from one O(n^2) kernel,
  :func:`_spacing_sums`: a C loop (``_spacing.c``, compiled on first use and
  cached under ``__pycache__``) multiplies each row's spacings four ranks
  per pass, under exact power-of-two renormalisation every r' = 4 floor(r/4)
  ranks, each product taking its factors in rank order, and numpy takes one
  log per s_j, so s_j is within (j-2)u + |s_j|u + 2u (u = 2^-53) of the
  exact sum of logs and does not depend on the tile, the other rows or how
  far the sweep runs; the batch passes it blocks of about ``_BLOCK_BUDGET``
  elements, as the grid blocks its weight rows.  They apply one tie rule,
  the C scan of :func:`_spacing_scan`, and one reduction,
  :func:`_exact_sums`, which returns the exactly rounded sum of the w_j s_j,
  the value ``math.fsum(w * s)`` gives; a single sample is a batch of one
  row, so the two agree bit for bit.

Exact reduction.  :func:`_exact_sums` sums every row of a matrix of terms by
error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point summation
part I", SIAM J. Sci. Comput. 31(1), 2008).  With J terms per row, c =
ceil(log2(J + 2)) and 2^e above the row's largest |p|, each of three levels
takes sigma = 2^(c + e) and splits p into q = (sigma + p) - sigma and p - q.
Both steps are exact; every q is a multiple of 2^-53 sigma with J |q| < sigma,
so every partial sum of a row's q is a double and the level sum T_k is exact
in any order, and |p - q| <= 2^-53 sigma.  The row sums to T_1 + T_2 + T_3 + R
with |R| <= 2^c max|p| over what is left.  r = fsum(T_1, T_2, T_3) is kept when
|T_1 + T_2 + T_3 - r|, plus that bound, plus the caller's ``tail``, is below
half the gap from r to its neighbouring doubles (:func:`_rounds_to`): then r
is the rounding of the full sum, which is what ``math.fsum`` returns.  A sum
exactly halfway between two doubles (``math.fsum`` rounds it to even) or a
remainder that could move the rounding fails the test; those rows, and rows
whose largest |term| is not finite or lies outside [2^-960, 2^960] (clear of
overflow and of the subnormal range the extraction lemma excludes), get
``math.fsum`` of the row.  Every path therefore keeps the bits of
``math.fsum``, with one Python call per row on three numbers instead of one
over the whole row.  The extraction is one C loop (``sum_levels`` in
``_spacing.c``, :func:`_extract`): per row one pass for the largest |p| and
one per level.  A level sum is exact in any order, so the C loop's 16
independent accumulators give the value numpy's pairwise sum gave; the
certificate and the fallback stay in Python.

Exact weight cut-off (single, batch and grid).  With L a row's largest
|ln spacing|, taken at its smallest or largest spacing
(:func:`_spacing_scan`), |s_j| <= (j-1) L, so the terms past the first K sum
to at most 2 L sum_{j>K+1} |w_j| (j-1), the 2 covering the rounding of s_j
and w_j s_j.  The kept terms are reduced with a bound on that sum as their
``tail``, so a proven row is the rounding of the full sum; other rows are
summed again over all terms.  The kept s_j equal the full-length kernel's
bit for bit, and the kept w_j come from the same left-to-right recursion.

* The single path and the batch sum the tail of their one weight row
  exactly (a reversed cumulative sum) and keep the fewest terms whose bound
  is below ``_CUT_TARGET`` = 2^-66.
* The grid has one row per m and would spend on full rows what the cut-off
  saves, so ``weight_logs`` bounds each row's tail from the walk that builds
  its log ratios and stops there.  With t = j - 2 and r_t the binomial
  ratio, r_{t+1}/r_t = (n-m+1-t)/(n-2-t) falls with t, so past K it is at
  most q = (n-m+1-K)/(n-2-K); the block factor is below F = max(2(n-1)/(m-2),
  n) in magnitude and j - 1 <= n, so sum_{t>=K} |w_t| (t+1) <= r_K F n /
  (1 - q) = r_K F n (n-2-K)/(m-3).  The walk stops at the first K whose
  ln r_K + ln(n-2-K) + ln(F n/(m-3)) + slack is below ln(2^-66 / (2 L)).
  The slack 2^-30 + n 2^-39 covers rounding: while a weight is above exp's
  underflow (once below it, every later weight is 0), each computed step of
  the log ratio is within 2^-41 of the exact one (two numpy logs within a
  few ulp, a partial sum below 746 + 3 ln n), so the computed ratios fall
  by at least q e^(2^-41) per step and their geometric sum grows by at most
  e^(n 2^-39) for n < 2^38; the 2^-30 covers the rounding of r_K, ``exp``,
  the block factor and the logs of the bound.  m = 3 has constant ratios
  and is never cut.  On the trajectory samples (n = 10^4, m = 3..200) the
  grid keeps 52.7 % of the terms, the exact tail 52.0 %.

The weights w_j carry their binomial ratios in log space through a
recursive update, so n = 10^4 and beyond evaluate without overflow; the grid
builds the rows of a block of m at once from one table of logarithms per
call (:func:`_weight_rows`).  Two C passes surround numpy's ``exp``: the
running sums of the log ratios, each row's additions in the order numpy's
``cumsum`` takes them, and the block factor with the zero padding, the grid
multiplying in s_j in the same pass.  Every logarithm and exponential of a
weight stays numpy's or ``math``'s (the cut-off's bound only decides how
many terms are kept), and C rounds each addition, multiplication and
division as numpy does, so the weights keep their bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import platform
import subprocess
import tempfile
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BlockSizeOutOfRange,
    DegenerateSpacing,
    InstanceTooLarge,
    KernelUnavailable,
    SortedSample,
    TopQKernel,
)

_BRUTE_FORCE_MAX_N = 20
_TOPQ_MAX_N = 2000
_BLOCK_BUDGET = 2**16  # float64 elements per row block of the batch and of the grid
_CUT_TARGET = 2.0**-66  # absolute bound on the dropped weight tail (module docstring)
_EXPONENT_HEADROOM = 1000  # binary orders a product may drift between renormalisations
_LEVELS = 3  # error-free extraction levels of the reduction (module docstring)
_SUM_MIN, _SUM_MAX = 2.0**-960, 2.0**960  # range of a row's largest |term| for extraction
_LN2_HI = 0.6931467056274414  # ln 2 to 20 significant bits
_LN2_LO = 4.7493250390316726e-07  # ln 2 - _LN2_HI
_KERNEL_SOURCE = Path(__file__).with_name("_spacing.c")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
# no -ffast-math, and no contraction into fused multiply-adds: every operation
# of the kernel stays one correctly rounded IEEE operation, as in numpy; x86
# hosts with AVX-512 run the vectorised loops in 512-bit registers (same bits)
_CC_FLAGS = (
    "-O3", "-march=native",
    *(("-mprefer-vector-width=512",) if platform.machine() in ("x86_64", "AMD64") else ()),
    "-ffp-contract=off", "-fPIC", "-shared",
)
# the library's functions: result type, then argument types; p a pointer, l a
# C long, d a double, v no result
_SIGNATURES = {
    "spacing_scan": "vplllpppp",
    "spacing_products": "lpllllpp",
    "weight_logs": "lplplpplppp",
    "weight_factors": "vlpplllpp",
    "sum_levels": "vplllllddpppp",
    "profile_fill": "vplpplp",
    "profile_add": "vplllp",
    "profile_ratio": "vppllpp",
    "profile_objective": "vpplpppp",
    "profile_prune": "lpppldlp",
    "profile_scale": "vpldp",
    "profile_sums": "vppldp",
}
_CTYPES = {"v": None, "p": ctypes.c_void_p, "l": ctypes.c_long, "d": ctypes.c_double}


@dataclass(frozen=True)
class PickandsWeights:
    """Coefficients w_j of the log-spacing sums, for j = 2 .. n-m+3.

    w_j = C(n-j, m-3)/C(n,m) * (2(n-j+1)/(m-2) - j).  Location-scale
    invariance forces sum_j w_j (j-1) = 0.
    """

    n: int
    m: int
    j: np.ndarray
    w: np.ndarray

    def zero_sum_residual(self) -> float:
        """Relative residual of sum_j w_j (j-1); zero up to rounding."""
        terms = self.w * (self.j - 1)
        scale = float(np.abs(terms).sum()) or 1.0
        return float(math.fsum(terms)) / scale


def pickands_weights(n: int, m: int) -> PickandsWeights:
    """Weights of the explicit Pickands U-statistic formula: the one-row case
    of :func:`_weight_rows`."""
    if not 3 <= m <= n:
        raise BlockSizeOutOfRange(f"need 3 <= m <= n, got m={m}, n={n}")
    w = _weight_rows(_ln_desc(n), [m])[0][0]
    return PickandsWeights(n=n, m=m, j=np.arange(2, n - m + 4), w=w)


def _ln_desc(n: int) -> np.ndarray:
    """The table ln(n - u), u = 0..n-1, of the weight recursion."""
    return np.log(np.arange(n, 0, -1.0))


def _weight_rows(
    ln_desc: np.ndarray, ms: Sequence[int], s: Optional[np.ndarray] = None,
    cut: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weight rows of the block sizes ``ms`` for n = ln_desc.size, each
    row's kept length K and the log of its tail bound less the row's constant
    (module docstring): ``(w, keep, logb)``.

    Without ``cut`` every row is whole (K = n - m + 2, logb = -inf).  With
    it, row i stops at the first K whose log ratio plus ln(n - 2 - K) is below
    cut[i].  ``w`` has as many columns as the longest kept row; entries past
    a row's K are 0.

    The binomial ratio starts at m(m-1)(m-2)/(n(n-1)(n-m+1)) (``math.log``
    in Python) and follows the recursion ratio_j = ratio_{j-1} *
    (n-j-m+4)/(n-j+1).  ``weight_logs`` (``_spacing.c``) adds the
    differences of ``ln_desc`` left to right along each row, as a row-wise
    cumulative sum does, and adds the start to each partial sum; numpy's
    ``exp`` runs in place on the block; then ``weight_factors`` multiplies
    each entry by the sign-carrying block factor 2(n-j+1)/(m-2) - j and,
    given ``s``, by s[t], zeroing the padding first.  C and numpy round each
    subtraction, addition, division and multiplication the same way, so each
    kept entry equals the same recursion run for its m alone in numpy, bit
    for bit.
    """
    lib = _spacing_kernel()
    n = ln_desc.size
    cols = n - min(ms) + 2
    head = np.array([
        math.log(m) + math.log(m - 1) + math.log(m - 2)
        - math.log(n) - math.log(n - 1) - math.log(n - m + 1)
        for m in ms
    ])
    mv = np.array(ms, dtype=np.int64)
    cut = np.full(mv.size, -np.inf) if cut is None else np.ascontiguousarray(cut, dtype=float)
    w = np.empty((mv.size, cols))
    keep, logb = np.empty(mv.size, dtype=np.int64), np.empty(mv.size)
    mp, wp, kp = mv.ctypes.data, w.ctypes.data, keep.ctypes.data
    width = lib.weight_logs(ln_desc.ctypes.data, n, mp, mv.size, head.ctypes.data,
                            cut.ctypes.data, cols, wp, kp, logb.ctypes.data)
    w = w[:, :width]
    np.exp(w, out=w)
    sp = None if s is None else s.ctypes.data
    lib.weight_factors(n, mp, kp, mv.size, width, cols, sp, wp)
    return w, keep, logb


@dataclass(frozen=True)
class OverlapPmf:
    """Hypergeometric overlap law of two size-m subsets of [n].

    p_l = C(m,l) C(n-m, m-l) / C(n,m) over l = 0..m; mean m^2/n.
    """

    n: int
    m: int
    p: np.ndarray

    def mean(self) -> float:
        return float(np.dot(np.arange(self.m + 1), self.p))


def overlap_pmf(n: int, m: int) -> OverlapPmf:
    if not 1 <= m <= n:
        raise BlockSizeOutOfRange(f"need 1 <= m <= n, got m={m}, n={n}")
    # int / int rounds the exact ratio once; C(n-m, m-l) is 0 below l = 2m - n
    total = math.comb(n, m)
    p = [math.comb(m, l) * math.comb(n - m, m - l) / total for l in range(m + 1)]
    return OverlapPmf(n=n, m=m, p=np.array(p))


def brute_force_ustat(sample: SortedSample, m: int, kernel: TopQKernel) -> float:
    """Exact all-subsets average; the oracle the fast formulas are checked against.

    Guarded at n <= 20: C(20, 10) subsets is the practical ceiling.
    """
    n = sample.n
    if n > _BRUTE_FORCE_MAX_N:
        raise InstanceTooLarge(f"brute force is limited to n <= {_BRUTE_FORCE_MAX_N}")
    if not kernel.q <= m <= n:
        raise BlockSizeOutOfRange(f"need q={kernel.q} <= m <= n, got m={m}, n={n}")
    v = sample.values
    q = kernel.q
    # values are descending, so the first q indices of a subset are its top q
    terms = [kernel.eval(v[list(idx[:q])]) for idx in combinations(range(n), m)]
    return math.fsum(terms) / len(terms)


def topq_weighted_ustat(sample: SortedSample, m: int, kernel: TopQKernel) -> float:
    """Rank-tuple evaluation of the same average.

    A size-m subset has its top q at ranks i_1 < ... < i_q exactly when it
    contains those q elements and its remaining m-q elements come from the
    n - i_q lower ranks, so the tuple weight is C(n-i_q, m-q)/C(n,m).
    """
    n = sample.n
    if n > _TOPQ_MAX_N:
        raise InstanceTooLarge(f"rank-tuple evaluation limited to n <= {_TOPQ_MAX_N}")
    q = kernel.q
    if not q <= m <= n:
        raise BlockSizeOutOfRange(f"need q={q} <= m <= n, got m={m}, n={n}")
    v = sample.values
    total = math.comb(n, m)
    # i_q can be at most n - (m - q): the subset needs m-q elements below it
    terms = [
        math.comb(n - ranks[-1], m - q) / total * kernel.eval(v[np.array(ranks) - 1])
        for ranks in combinations(range(1, n - (m - q) + 1), q)
    ]
    return math.fsum(terms)


def _spacing_scan(v: np.ndarray, j_hi: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``v``, how many leading entries k (at most j_hi) strictly
    decrease, their smallest adjacent spacing and their largest, v[0] - v[k-1].

    A zero, NaN or infinite spacing ends the prefix: its log is not finite.
    Entry j's largest spacing is v[0] - v[j], which can overflow while every
    adjacent spacing is finite (1e308, 0, -1e308), so it is checked as well.
    """
    head = _head(v, j_hi)
    rows = head.shape[0]
    k = np.empty(rows, dtype=np.int64)
    small, large = np.empty(rows), np.empty(rows)
    _spacing_kernel().spacing_scan(
        head.ctypes.data, rows, head.strides[0] // head.itemsize, head.strides[1] // head.itemsize,
        j_hi, k.ctypes.data, small.ctypes.data, large.ctypes.data,
    )
    return k, small, large


def _head(v: np.ndarray, j_hi: int) -> np.ndarray:
    """The first j_hi columns of the float64 matrix ``v``, which the C loops
    read, in strides of whole elements."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or not 2 <= j_hi <= v.shape[1]:
        raise BlockSizeOutOfRange(f"need rows of at least j_hi >= 2 values, got j_hi={j_hi}")
    head = v[:, :j_hi]
    return np.ascontiguousarray(head) if any(s % head.itemsize for s in head.strides) else head


def _require_decreasing(v: np.ndarray, j_hi: int) -> None:
    k = int(_spacing_scan(v[None], j_hi)[0][0])
    if k < j_hi:
        top, hi, lo = float(v[0]), float(v[k - 1]), float(v[k])
        if math.isfinite(top) and math.isfinite(lo) and top - lo == math.inf:
            i = k if hi - lo == math.inf else 1
            raise DegenerateSpacing(
                f"overflowing spacing between order statistics {i} and {k + 1} (1 = largest)"
            )
        raise DegenerateSpacing(f"tie among order statistics {k} and {k + 1} (1 = largest)")


def _spacing_sums(v: np.ndarray, j_hi: int) -> np.ndarray:
    """Row-wise s[r, j-2] = sum_{i=1}^{j-1} ln(v[r, i-1] - v[r, j-1]), j = 2..j_hi.

    One log per s_j, not one per spacing: s_j = ln(p_j) + E_j ln 2, with p_j
    the product of the j-1 spacings kept in range by exact powers of two.

    * ``spacing_products`` (``_spacing.c``, built on first use by
      :func:`_spacing_kernel`) fills the output with p in [1, 2) and an int64
      array of the same shape with E, in one call over every row given.
      A row's spacings lie in [2^(lo-1), 2^hi), lo and hi the binary
      exponents of its smallest adjacent spacing and of v[0] - v[j_hi-1]
      (the scan of :func:`_spacing_scan`); r is the largest count for which
      r such factors keep a product from [1, 2) within 2^+-1000
      (``_EXPONENT_HEADROOM``).  With r >= 4 one pass takes the four ranks
      i..i+3 (0-based): p_{i+2}, p_{i+3} and p_{i+4} take their one to three
      factors, then each later p_j is loaded once, multiplied by v[i] -
      v[j-1], v[i+1] - v[j-1], v[i+2] - v[j-1] and v[i+3] - v[j-1] in that
      order and stored once; every r' = 4 floor(r/4) <= r ranks the open
      products move their exponents into E through their bit patterns, and
      the last (j_hi - 1) mod 4 ranks run one at a time on that schedule.
      With r < 4 each pass takes one rank; with no r >= 1 (spacings beyond
      about 2^+-1000) libm ``frexp`` first splits every factor into p and E.
    * The logs and E _LN2_HI + (E _LN2_LO + ln p) are numpy's, in place.

    Either way p_j takes its factors i = 1..j-1 in rank order, one rounded
    multiplication each, and no product overflows or becomes subnormal.
    Rescaling by a power of two is exact and rounding a product of normal
    numbers depends only on their significands, so s_j does not depend on
    the tile, r', the split, the other rows or j_hi.  E ln 2 is E _LN2_HI
    (exact for |E| < 2^33) plus E _LN2_LO.  A product of k rounded factors
    carries relative error at most gamma_k = ku/(1 - ku), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1),
    so |s_j - sum of exact logs| <= (j-2)u + |s_j|u + 2u.  Rows must
    strictly decrease up to j_hi with finite spacings (:func:`_spacing_scan`);
    ``spacing_products`` scans each row as it starts it, and the first that
    does not raises DegenerateSpacing.  The batch passes blocks of
    ``_BLOCK_BUDGET // j_hi`` rows, the grid one.
    """
    v = _head(v, j_hi)
    if v.strides[1] != v.itemsize:  # a reversed or strided view
        v = np.ascontiguousarray(v)
    p = np.empty((v.shape[0], j_hi - 1))
    e = np.empty(p.shape, dtype=np.int64)
    if _spacing_kernel().spacing_products(v.ctypes.data, v.shape[0], v.strides[0] // v.itemsize,
                                          j_hi, _EXPONENT_HEADROOM, p.ctypes.data, e.ctypes.data):
        for row in v:  # the C scan skipped a row: name its tie
            _require_decreasing(row, j_hi)
    np.log(p, out=p)
    p += e * _LN2_LO
    p += e * _LN2_HI
    return p


@functools.cache
def _spacing_kernel():
    """The library of ``_spacing.c`` (the functions of ``_SIGNATURES``: the
    spacing kernel, the weight and reduction passes of the Pickands paths and
    the GP profile scan and score), compiled unless already cached.

    The library lives in ``_KERNEL_CACHE`` (the package's ``__pycache__``)
    under the name :func:`_build_command` gives.  The compiler writes a
    temporary file that ``os.replace`` moves into place, so processes
    building at once all succeed.  If the cache cannot be written, the
    library is built in a private ``tempfile.TemporaryDirectory`` (mode 0700)
    that is removed once it is loaded: no directory that other users can
    write is ever searched for a library to load.  A compiler that is
    missing or fails, or a library that cannot be loaded, raises
    KernelUnavailable.
    """
    cmd, name = _build_command()
    path = _KERNEL_CACHE / name
    if path.exists():
        return _load(path)
    try:
        _KERNEL_CACHE.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=name, suffix=".tmp", dir=_KERNEL_CACHE)
    except OSError:
        try:
            private = tempfile.TemporaryDirectory(prefix="xustat-")
        except OSError as exc:
            raise KernelUnavailable(f"no writable directory for the spacing kernel: {exc}") from exc
        with private:
            path = Path(private.name) / name
            _run([*cmd, str(path)])
            return _load(path)
    os.close(fd)
    try:
        _run([*cmd, tmp])
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return _load(path)


def _build_command() -> Tuple[List[str], str]:
    """The compiler command, less its output path, and the library's file name.

    The name carries the sha256 of the source, the command and the macros
    the compiler predefines under that command.  The macros name the target
    that ``-march=native`` resolves to (its instruction-set extensions) and
    the compiler's version, so a host with another CPU or compiler builds
    its own library instead of loading one that could fault on it.
    """
    import hashlib  # here, not at the top: only a process's first call builds
    import shlex
    import sysconfig

    cc = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_CC_FLAGS]
    macros = sorted(_run([*cc, "-E", "-dM", "-x", "c", os.devnull]).splitlines())
    cmd = [*cc, str(_KERNEL_SOURCE), "-lm", "-o"]
    key = hashlib.sha256(_KERNEL_SOURCE.read_bytes())
    key.update("\0".join([*cmd, *macros]).encode())
    return cmd, f"_spacing-{key.hexdigest()[:16]}{sysconfig.get_config_var('EXT_SUFFIX')}"


def _load(path: Path):
    try:
        lib = ctypes.CDLL(str(path))
        funcs = [(getattr(lib, name), sig) for name, sig in _SIGNATURES.items()]
    except (OSError, AttributeError) as exc:
        raise KernelUnavailable(f"cannot load {path}: {' '.join(str(exc).split())}") from exc
    for func, sig in funcs:
        func.restype = _CTYPES[sig[0]]
        func.argtypes = [_CTYPES[t] for t in sig[1:]]
    return lib


def _run(cmd: Sequence[str]) -> str:
    """stdout of the compiler command ``cmd``; KernelUnavailable if it cannot
    run or fails."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise KernelUnavailable(f"cannot run {' '.join(cmd)}: {exc}") from exc
    if proc.returncode != 0:
        detail = " ".join(proc.stderr.split())  # one line
        raise KernelUnavailable(f"{' '.join(cmd)} exited {proc.returncode}: {detail}")
    return proc.stdout


def log_spacing_sums(values: np.ndarray, j_hi: int) -> np.ndarray:
    """s_j = sum_{i=1}^{j-1} ln(X_(i) - X_(j)) for j = 2..j_hi, X_(i) the i-th largest.

    Returned array is indexed by j-2; a tie (:func:`_spacing_scan`)
    anywhere in range raises DegenerateSpacing.  Computed by :func:`_spacing_sums`.
    """
    v = np.asarray(values, dtype=float)
    return _spacing_sums(v[None], j_hi)[0]  # BlockSizeOutOfRange unless 2 <= j_hi <= n


def pickands_ustat(sample: SortedSample, m: int) -> float:
    """Extreme U-Pickands estimate of the extreme value index at block size m.

    The exactly rounded U = sum_j w_j s_j, a batch of one row
    (:func:`pickands_ustat_batch`); a tie raises DegenerateSpacing, found
    by a second scan only when the batch returns NaN.
    """
    u = float(pickands_ustat_batch(sample.values[None], m)[0])
    if math.isnan(u):
        _require_decreasing(sample.values, sample.n - m + 3)
    return u


def pickands_ustat_grid(sample: SortedSample, m_grid: Sequence[int]) -> Dict[int, float]:
    """Estimates for several block sizes sharing one pass of inner sums.

    The inner log-spacing sums do not depend on m, so a whole trajectory
    costs one O(n^2) sweep plus one reduction of the weighted rows of every
    block size, taken in blocks of about ``_BLOCK_BUDGET`` elements.  Each
    row keeps only the terms that can move its rounding, up to its own
    cut-off K_m (:func:`_weight_rows`, module docstring), and is reduced with
    its tail bound (:func:`_exact_sums`); rows the certificate does not prove
    are summed again at full length.  Every value is the rounding of the sum
    of all w_j s_j, as :func:`pickands_ustat` gives it.  Block sizes whose
    index range hits a tie come back as NaN.
    """
    n = sample.n
    ms = list(m_grid)
    for m in ms:
        if not 3 <= m <= n:
            raise BlockSizeOutOfRange(f"block size {m} outside [3, {n}]")
    v = sample.values
    prefix, small, large = _spacing_scan(v[None], n - min(ms) + 3)
    out = dict.fromkeys(ms, float("nan"))
    todo = sorted({m for m in ms if n - m + 3 <= prefix[0]})
    if not todo:
        return out
    s = log_spacing_sums(v, n - todo[0] + 3)
    ln_desc = _ln_desc(n)
    lmax = max(abs(math.log(small[0])), abs(math.log(large[0])))  # L of the touched prefix
    const = _tail_constants(n, todo)
    cut = math.log(_CUT_TARGET / (2.0 * lmax)) - const
    step = max(1, _BLOCK_BUDGET // s.size)
    for b in range(0, len(todo), step):
        block = todo[b : b + step]
        terms, _, logb = _weight_rows(ln_desc, block, s, cut[b : b + step])
        tail = 2.0 * lmax * np.exp(logb + const[b : b + step])
        sums, proven = _exact_sums(terms, tail)
        out.update(zip(block, sums.tolist()))
        redo = [m for m, ok, t in zip(block, proven, tail.tolist()) if not ok and t > 0.0]
        if redo:  # cut rows without a certificate, summed over all terms
            full = _weight_rows(ln_desc, redo, s)[0]
            out.update(zip(redo, _exact_sums(full, 0.0)[0].tolist()))
    return out


def _tail_constants(n: int, ms: Sequence[int]) -> np.ndarray:
    """Per block size, ln(F n / (m - 3)) plus the slack of the grid's tail
    bound (module docstring); 0 for m = 3, which is never cut."""
    slack = 2.0**-30 + n * 2.0**-39
    return np.array([
        math.log(max(2.0 * (n - 1) / (m - 2), n) * n / (m - 3)) + slack if m > 3 else 0.0
        for m in ms
    ])


def pickands_ustat_batch(values: np.ndarray, m: int) -> np.ndarray:
    """Row-wise Pickands estimates for a matrix of descending-sorted samples.

    Each row equals :func:`pickands_ustat` on that sample bit for bit: the
    exactly rounded sum of all w_j s_j, from only the terms that can move it
    (module docstring).  Rows with a tie within the touched index range yield
    NaN instead of raising, so large Monte Carlo sweeps can count failures.

    The tie-free rows are reduced block by block: each block of about
    ``_BLOCK_BUDGET // (K + 1)`` rows copies only its first K + 1 values,
    gets its s_j (:func:`_spacing_sums`), is multiplied by w_j and summed
    (:func:`_exact_sums`) while it is still in cache, so neither the rows x K
    term matrix nor a full-length copy of the rows is built.  Every row's
    terms and sum are independent of the block, so the bits do not change.
    Rows the certificate does not prove are summed again at full length.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise BlockSizeOutOfRange("expected a matrix of samples")
    nrep, n = v.shape
    if not 3 <= m <= n:
        raise BlockSizeOutOfRange(f"need 3 <= m <= n, got m={m}, n={n}")
    j_hi = n - m + 3
    prefix, small, large = _spacing_scan(v, j_hi)
    rows = np.flatnonzero(prefix == j_hi)
    out = np.full(nrep, np.nan)
    if not rows.size:
        return out
    w = pickands_weights(n, m).w
    # tail[k] * L bounds the terms from index k on, rounding included
    tail = 2.0 * np.cumsum((np.abs(w) * np.arange(1, w.size + 1))[::-1])[::-1]
    bound = np.abs(np.log([small[rows], large[rows]])).max(axis=0)  # L per row
    k = int(np.count_nonzero(tail >= _CUT_TARGET / bound.max()))
    cut = bound * (tail[k] if k < w.size else 0.0)
    proven = np.empty(rows.size, dtype=bool)
    step = max(1, _BLOCK_BUDGET // (k + 1))
    for b in range(0, rows.size, step):
        block = rows[b : b + step]
        kept = _spacing_sums(v[block, : k + 1], k + 1)
        kept *= w[:k]
        out[block], proven[b : b + step] = _exact_sums(kept, cut[b : b + step])
    if k < w.size and not proven.all():
        redo = rows[~proven]
        full = _spacing_sums(v[redo], j_hi)
        full *= w
        out[redo] = _exact_sums(full, 0.0)[0]
    return out


def _exact_sums(P: np.ndarray, tail) -> Tuple[np.ndarray, np.ndarray]:
    """Per row of ``P``, the rounding of its sum plus any x with |x| <= tail.

    Returns the sums and a mask of the rows that are proven; every other row
    gets ``math.fsum`` of the row (module docstring).  ``tail`` is a number
    or one per row.  With tail = 0 every row equals ``math.fsum`` bit for bit.
    The extraction runs in C (:func:`_extract`); the certificate and the
    fallback run here, one row at a time.
    """
    nrow = P.shape[0]
    tail = np.broadcast_to(np.asarray(tail, dtype=float), (nrow,))
    levels, fits, rem = _extract(P)
    out = np.empty(nrow)
    proven = np.zeros(nrow, dtype=bool)
    rows = zip(levels.tolist(), fits.tolist(), rem.tolist(), tail.tolist())
    for i, (parts, ok, bound, t) in enumerate(rows):
        r = math.fsum(parts)
        if ok and _rounds_to(r, parts, bound, t):
            out[i], proven[i] = r, True
        else:
            out[i] = math.fsum(P[i].tolist())
    return out, proven


def _extract(P: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_LEVELS`` exact level sums of each row of ``P``, whether its
    largest |term| lies in [_SUM_MIN, _SUM_MAX] (False for inf and NaN), and
    2^c times the largest |term| left after the last level (module docstring).

    ``sum_levels`` (``_spacing.c``) takes one pass per row for the largest
    |term| and one per level, which splits every term and adds up the q of
    the row: the level sum is exact in any order, so it is the one numpy's
    pairwise sum gives.  A row that does not fit gets zeros.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.strides[1] != P.itemsize or P.strides[0] % P.itemsize:
        P = np.ascontiguousarray(P)
    nrow, J = P.shape
    levels, rem = np.empty((nrow, _LEVELS)), np.empty(nrow)
    fits, scratch = np.empty(nrow, dtype=np.int8), np.empty(J)
    _spacing_kernel().sum_levels(
        P.ctypes.data, nrow, P.strides[0] // P.itemsize, J, (J + 1).bit_length(), _LEVELS,
        _SUM_MIN, _SUM_MAX, scratch.ctypes.data, levels.ctypes.data, rem.ctypes.data,
        fits.ctypes.data,
    )
    return levels, fits.view(bool), rem


def _rounds_to(r: float, parts: list, remainder: float, tail: float) -> bool:
    """Whether r = fsum(parts) is the rounding of sum(parts) + x for every
    |x| <= remainder + tail."""
    d = math.fsum(parts + [-r])  # |sum(parts) - r| <= |d| (1 + 2^-52)
    gap = min(math.nextafter(r, math.inf) - r, r - math.nextafter(r, -math.inf))
    # the factor covers d's rounding and the two additions; 0.5 gap is a double
    return (abs(d) + remainder + tail) * (1.0 + 2.0**-50) < 0.5 * gap
