import math
import warnings
from typing import Tuple

import numpy as np
import pytest

from xustat import dist
from xustat.core import (
    ArgumentOutOfRange,
    BlockSizeOutOfRange,
    DegenerateSpacing,
    ThresholdOutOfRange,
    TooFewObservations,
    pickands_kernel,
    sort_sample,
)
from xustat import estimators
from xustat.estimators import (
    GpMlFit,
    _FIRST,
    _SCAN_BUFFER,
    _profile_columns,
    _profile_scan,
    _profile_score,
    _theta_grid,
    excesses_over_threshold,
    gp_ml_fit,
    paired_k,
)
from xustat.harness import _pickands_and_gpml
from xustat.ustat import _spacing_kernel, pickands_ustat, pickands_ustat_grid


def _midpoint_grid(gamma, k):
    u = (np.arange(1, k + 1) - 0.5) / k
    return np.asarray(dist.quantile(dist.gp(gamma), u))


class TestExcesses:
    def test_direct(self):
        s = sort_sample([5, 4, 2, 1])
        np.testing.assert_allclose(excesses_over_threshold(s, 2), [3.0, 2.0])

    def test_over_minimum(self):
        s = sort_sample([5, 4, 2, 1])
        np.testing.assert_allclose(excesses_over_threshold(s, 3), [4.0, 3.0, 1.0])

    def test_ties_give_zero_excesses(self):
        s = sort_sample([5, 5, 5, 1])
        np.testing.assert_allclose(excesses_over_threshold(s, 2), [0.0, 0.0])

    def test_threshold_range(self):
        s = sort_sample([5, 4, 2, 1])
        with pytest.raises(ThresholdOutOfRange):
            excesses_over_threshold(s, 4)
        with pytest.raises(ThresholdOutOfRange):
            excesses_over_threshold(s, 0)


class TestGpMlFit:
    @pytest.mark.parametrize("gamma", [-0.25, 0.0, 0.5])
    def test_recovers_gamma_on_midpoint_quantile_grid(self, gamma):
        k = 2000
        fit = gp_ml_fit(_midpoint_grid(gamma, k))
        assert fit.converged
        assert abs(fit.gamma_hat - gamma) <= 5.0 / k

    def test_plotting_position_grid_within_coarse_band(self):
        # the i/(k+1) grid carries a larger O(1/k) discretization offset
        k = 2000
        i = np.arange(1, k + 1)
        x = np.log((k + 1) / (k + 1 - i))
        fit = gp_ml_fit(x)
        assert abs(fit.gamma_hat) <= 0.05

    def test_matches_independent_coarse_grid_search(self):
        # independent oracle: dense 2-d scan of the (gamma, sigma) likelihood
        x = _midpoint_grid(0.3, 400)

        def loglik(gamma, sigma):
            z = 1.0 + gamma * x / sigma
            if np.any(z <= 0):
                return -np.inf
            return -x.size * math.log(sigma) - (1 + 1 / gamma) * float(np.log(z).sum())

        best = (-np.inf, None, None)
        for gam in np.linspace(0.05, 0.6, 111):
            for sig in np.linspace(0.5, 2.0, 151):
                ll = loglik(gam, sig)
                if ll > best[0]:
                    best = (ll, gam, sig)
        fit = gp_ml_fit(x)
        assert fit.gamma_hat == pytest.approx(best[1], abs=0.01)
        assert fit.sigma_hat == pytest.approx(best[2], abs=0.01)
        assert fit.loglik >= best[0] - 1e-6

    def test_scale_equivariance(self):
        x = _midpoint_grid(0.4, 500)
        base = gp_ml_fit(x)
        for c in (1e-3, 1e3):
            scaled = gp_ml_fit(c * x)
            assert scaled.gamma_hat == pytest.approx(base.gamma_hat, abs=1e-9)
            assert scaled.sigma_hat == pytest.approx(c * base.sigma_hat, rel=1e-6)

    def test_gamma_constrained_above_minus_one(self):
        # a short-tailed grid near the boundary must still satisfy the constraint
        fit = gp_ml_fit(_midpoint_grid(-0.9, 800))
        assert fit.gamma_hat > -1.0

    def test_identical_values_degenerate(self):
        with pytest.raises(DegenerateSpacing):
            gp_ml_fit([2.0, 2.0, 2.0, 2.0, 2.0])
        with pytest.raises(DegenerateSpacing):
            gp_ml_fit([0.0, 0.0, 0.0, 0.0, 0.0])

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            gp_ml_fit([1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("xmax", [1e-310, 1e-305, 1e-301])
    def test_tiny_excesses_raise_instead_of_an_all_nan_fit(self, xmax):
        # 1e7 / max(x) overflows below about 5.6e-302, and the golden
        # section's a + b up to about 1.1e-301: both used to give NaN fields
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ArgumentOutOfRange, match="too small"):
                gp_ml_fit([0.0, 0.0, 0.0, 0.0, xmax])
        # the smallest scale that still fits is that of [0, 0, 0, 0, 1]
        base, small = gp_ml_fit([0.0, 0.0, 0.0, 0.0, 1.0]), gp_ml_fit([0.0, 0.0, 0.0, 0.0, 1.2e-301])
        assert small.gamma_hat == base.gamma_hat and math.isfinite(small.loglik)

    @pytest.mark.parametrize("field,value", [("gamma_hat", math.nan), ("sigma_hat", math.nan),
                                             ("gamma_hat", -1.0), ("sigma_hat", 0.0)])
    def test_record_rejects_nan_and_out_of_range_fields(self, field, value):
        fields = {"gamma_hat": 0.5, "sigma_hat": 1.0, "loglik": -3.0, "converged": True,
                  "iterations": 4, field: value}
        with pytest.raises(ArgumentOutOfRange):
            GpMlFit(**fields)

    @pytest.mark.parametrize("golden", [True, False])
    def test_fields_are_python_scalars_on_both_refinement_paths(self, golden, monkeypatch):
        # the golden section refines a bracket of grid values, brentq a score root
        scores = []
        score = estimators._profile_score
        monkeypatch.setattr(estimators, "_profile_score",
                            lambda t, *args: scores.append(t) or score(t, *args))
        if golden:
            x = [0.0, 0.0, 0.0, 0.0, 1.0]
        else:
            x = excesses_over_threshold(dist.sample(dist.gp(0.5), 2000, dist.RngStream(47, 0)), 150)
        fit = gp_ml_fit(x)
        assert (len(scores) == 2) == golden  # the bracket's two ends, then no brentq
        assert [type(v) for v in (fit.gamma_hat, fit.sigma_hat, fit.loglik)] == [float] * 3
        assert type(fit.converged) is bool and type(fit.iterations) is int

    def test_large_k_fit_lands_in_asymptotic_band(self):
        # single fit on k = 5000 excesses of a GP(0.5) sample of size 1e5;
        # 3 sigma band is 3 * (1 + gamma) / sqrt(k)
        gamma, n, k = 0.5, 100_000, 5000
        s = dist.sample(dist.gp(gamma), n, dist.RngStream(2024, 0))
        fit = gp_ml_fit(excesses_over_threshold(s, k))
        assert fit.converged
        assert abs(fit.gamma_hat - gamma) <= 3.0 * (1 + gamma) / math.sqrt(k)

    def test_asymptotic_variance_on_gp_excesses(self):
        # k * var(gamma_hat) approaches (1+gamma)^2 for gamma > -1/2
        gamma, k, reps = 0.25, 500, 300
        spec = dist.gp(gamma)
        ests = np.empty(reps)
        for r in range(reps):
            s = dist.sample(spec, 2 * k, dist.RngStream(777, r))
            ests[r] = gp_ml_fit(excesses_over_threshold(s, k)).gamma_hat
        kvar = k * ests.var(ddof=1)
        target = (1 + gamma) ** 2
        # 3 sigma band for the variance of a sample variance
        band = 3.0 * target * math.sqrt(2.0 / (reps - 1)) * 1.5
        assert abs(kvar - target) <= band


def _gp_loglik(x, gamma, sigma):
    z = 1.0 + gamma * x / sigma
    return -x.size * math.log(sigma) - (1.0 + 1.0 / gamma) * float(np.log(z).sum())


class TestEdgeModel:
    @pytest.mark.parametrize("seed", [12, 13, 16, 23, 30])
    def test_excesses_over_student_t4_minimum_reach_the_edge(self, seed):
        # the n - 1 excesses over the minimum of a Student-t(4) sample: the
        # profile optimum is pinned at gamma(theta) = -1, and the supremum
        # inside gamma > -1 is the edge's -k ln(max x)
        s = dist.sample(dist.student_t(4), 10_000, dist.RngStream(seed, 2))
        x = excesses_over_threshold(s, 9999)
        fit = gp_ml_fit(x)
        assert fit.gamma_hat > -1.0
        assert not fit.converged
        assert fit.loglik == pytest.approx(-x.size * math.log(float(x.max())), rel=1e-9)
        assert fit.loglik == pytest.approx(_gp_loglik(x, fit.gamma_hat, fit.sigma_hat), rel=1e-12)


def _full_profile(grid, x):
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.log1p(grid[None, :] * x[:, None]).mean(axis=0)
        full = np.log(g / grid) + g
    full[(g <= -1.0) | (g == 0.0) | ~np.isfinite(full)] = np.inf
    return full


class TestProfileScan:
    FAMILIES = [dist.gp(g) for g in (-0.8, -0.3, 0.0, 0.5, 2.0)] + [
        dist.student_t(1),
        dist.student_t(4),
        dist.burr_from_gamma_rho(0.5, -1.0),
    ]

    @pytest.mark.parametrize("n", [2000, 10_000])
    def test_pruned_scan_has_the_full_scan_argmin(self, n):
        for f_i, spec in enumerate(self.FAMILIES):
            s = dist.sample(spec, n, dist.RngStream(41, f_i))
            for m in (3, 4, 10, 50, 200):
                x = excesses_over_threshold(s, paired_k(n, m))
                grid, f = _profile_scan(x, float(x.max()), float(x.mean()))
                full = _full_profile(grid, x)
                assert np.argmin(f) == np.argmin(full)
                seen = np.isfinite(f)
                # evaluated columns equal the full scan's bit for bit, and
                # every pruned point lies above the grid minimum
                assert np.array_equal(f[seen], full[seen])
                assert np.all(full[~seen] > full.min())

    def test_lone_column_matches_full_scan(self):
        s = dist.sample(dist.student_t(4), 10_000, dist.RngStream(41, 9))
        x = excesses_over_threshold(s, 300)
        grid, _ = _profile_scan(x, float(x.max()), float(x.mean()))
        full = _full_profile(grid, x)
        for j in range(0, 400, 5):
            f, _ = _profile_columns(grid, x, np.array([j]))
            assert f[0] == full[j]


# The numpy profile columns that the C passes replaced, kept verbatim but
# for names, and the three-level scan written with them: the oracle of the
# buffered scan, bit for bit.
def _numpy_profile_columns(grid, x, idx) -> Tuple[np.ndarray, np.ndarray]:
    cols = idx if idx.size != 1 else np.append(idx, idx[0] - 1 if idx[0] else 1)
    theta = grid[cols]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.multiply.outer(x, theta)
        g = np.add.reduce(np.log1p(t, out=t), axis=0) / x.size
        f = np.log(g / theta) + g
    f[(g <= -1.0) | (g == 0.0) | ~np.isfinite(f)] = np.inf
    return f[: idx.size], g[: idx.size]


def _numpy_prune(grid, f, gams, every):
    """The unevaluated multiples of ``every`` whose bound is not above the
    best, a and b the nearest evaluated indices below and above."""
    best = float(f.min())
    seen = np.flatnonzero(~np.isnan(gams))
    pos = np.searchsorted(seen, np.arange(grid.size), side="right") - 1
    a, b = seen[pos], seen[np.minimum(pos + 1, seen.size - 1)]
    ga, gb = gams[a], gams[b]
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = ga + (gb - ga) * (grid - grid[a]) / (grid[b] - grid[a])
        c = np.maximum(chord, np.maximum(ga, -1.0))
        lr = np.log(gb / grid[b])
        lr = np.where((grid > 0.0) & (c > 0.0), np.maximum(lr, np.log(c / grid)), lr)
        bound = np.where(gb <= -1.0, np.inf, lr + c)
    pruned = bound > best + _SCAN_MARGIN * (1.0 + abs(best))
    return np.flatnonzero(np.isnan(gams) & ~pruned & (np.arange(grid.size) % every == 0))


def _numpy_profile_scan(x: np.ndarray, xmax: float, xbar: float) -> Tuple[np.ndarray, np.ndarray]:
    grid = _theta_grid((1.0 - 1e-9) / xmax, 1e-8 / xbar, 1e7 / xmax)
    f, gams = np.full(grid.size, np.inf), np.full(grid.size, np.nan)
    f[_FIRST], gams[_FIRST] = _numpy_profile_columns(grid, x, _FIRST)
    for every in (4, 1):  # every 4th index the bound leaves, then all it leaves
        rest = _numpy_prune(grid, f, gams, every)
        f[rest], gams[rest] = _numpy_profile_columns(grid, x, rest)
    return grid, f


class TestScanOracle:
    """The buffered C scan gives the numpy scan's bits: every column sum in
    row order across blocks of the buffer, and a lone column as in a matrix."""

    FAMILIES = TestProfileScan.FAMILIES

    def _excesses(self, k, f_i=1, n=10_000):
        s = dist.sample(self.FAMILIES[f_i], n, dist.RngStream(45, f_i))
        return excesses_over_threshold(s, k)

    def _grid(self, x):
        return _theta_grid((1.0 - 1e-9) / float(x.max()), 1e-8 / float(x.mean()), 1e7 / float(x.max()))

    def _same_columns(self, x, idx):
        grid = self._grid(x)
        for got, want in zip(_profile_columns(grid, x, idx), _numpy_profile_columns(grid, x, idx)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("c", [1, 2, 26, 55, 400])
    def test_columns_around_the_buffer_size(self, c):
        idx = _FIRST if c == _FIRST.size else np.linspace(0, 399, c).astype(np.int64)
        rows = _SCAN_BUFFER // c  # rows of one block of the buffer
        for k in (5, rows - 1, rows, rows + 1, 2 * rows + 1, 7500):
            if k < 10_000:
                self._same_columns(self._excesses(k), idx)

    def test_lone_column_at_every_index(self):
        x = self._excesses(300)
        for j in range(400):
            self._same_columns(x, np.array([j]))

    @pytest.mark.parametrize("n", [2000, 10_000])
    def test_scan_equals_the_numpy_scan(self, n):
        for f_i in range(len(self.FAMILIES)):
            s = dist.sample(self.FAMILIES[f_i], n, dist.RngStream(46, f_i))
            for m in (3, 4, 10, 50, 200):
                x = excesses_over_threshold(s, paired_k(n, m))
                args = (x, float(x.max()), float(x.mean()))
                for got, want in zip(_profile_scan(*args), _numpy_profile_scan(*args)):
                    assert np.array_equal(got, want)


class TestScanCost:
    def test_columns_per_fit_on_a_student_t_trajectory(self, monkeypatch):
        # the 197 trajectory fits (m = 4..200) of one Student-t(4) sample:
        # 82.7 columns per fit with one pruning pass, 49.1 with two
        columns = []
        scan_pass = estimators._scan_pass
        monkeypatch.setattr(estimators, "_scan_pass",
                            lambda *args: columns.append(args[-1]) or scan_pass(*args))
        s = dist.sample(dist.student_t(4), 10_000, dist.RngStream(11, 2))
        for m in range(4, 201):
            gp_ml_fit(excesses_over_threshold(s, paired_k(s.n, m)))
        assert sum(columns) / 197 <= 50.0


class TestScoreSums:
    """The score's C sums have the bits of np.add.reduce, and the score those
    of the numpy score it replaced."""

    @staticmethod
    def _sums(x, logs, theta):
        sums = np.empty(2)
        _spacing_kernel().profile_sums(x.ctypes.data, logs.ctypes.data, x.size, theta, sums.ctypes.data)
        return sums

    @pytest.mark.parametrize("sizes", [range(1, 301), range(1023, 1026), [7500, 9999]])
    def test_pairwise_sums_equal_add_reduce(self, sizes):
        rng = np.random.default_rng(48)
        for k in sizes:
            # mixed signs and magnitudes, so that the order of the additions shows
            logs = rng.standard_normal(k) * 10.0 ** rng.uniform(-8.0, 8.0, k)
            x = rng.exponential(size=k) * 10.0 ** rng.uniform(-3.0, 3.0, k)
            theta = float(rng.uniform(-0.9, 5.0)) / float(x.max())
            tx = theta * x
            tx += 1.0
            want = [float(np.add.reduce(logs)), float(np.add.reduce(np.divide(x, tx)))]
            assert self._sums(x, logs, theta).tolist() == want, k

    def test_empty_sum_is_zero(self):
        x = np.empty(0)
        assert self._sums(x, x, 0.5).tolist() == [0.0, 0.0]

    def test_score_equals_the_numpy_score(self):
        # excesses over the minimum of a Student-t(4) sample reach gamma(theta)
        # <= -1 near theta = -1/max(x), where both scores are NaN, as they are
        # at and below -1/max(x), where log1p(theta x) is -inf or NaN
        s = dist.sample(dist.student_t(4), 10_000, dist.RngStream(12, 2))
        for k in (5, 150, 9999):
            x = excesses_over_threshold(s, k)
            xmax, buf = float(x.max()), np.empty(k)
            args = (x, buf, x.ctypes.data, buf.ctypes.data)
            grid = _theta_grid((1.0 - 1e-9) / xmax, 1e-8 / float(x.mean()), 1e7 / xmax)
            thetas = [*grid, 0.0, -1.0 / xmax, -2.0 / xmax, *np.linspace(grid[0], grid[40], 50)]
            nan = 0
            for theta in thetas:
                with np.errstate(divide="ignore", invalid="ignore"):
                    got, want = _profile_score(float(theta), *args), _old_profile_score(float(theta), x)
                assert got == want or (math.isnan(got) and math.isnan(want)), (k, theta)
                nan += math.isnan(got)
            assert nan > 0 or k == 5


# The fit path before its per-call rework (numpy means, two geomspace calls,
# scan indices rebuilt per call), kept verbatim but for names and docstrings:
# the oracle the current path must equal field for field.
_PROFILE_GRID, _SCAN_STEP, _SCAN_MARGIN = 400, 16, 1e-9
_EDGE_STEP, _GOLDEN_TOL, _GOLDEN_CAP = 1e-12, 1e-12, 200


def _old_profile_objective(theta: float, x: np.ndarray) -> Tuple[float, float]:
    if theta == 0.0:
        return math.log(float(x.mean())), 0.0
    gam = float(np.mean(np.log1p(theta * x)))
    if gam <= -1.0 or gam == 0.0:
        return math.inf, gam
    ratio = gam / theta
    if ratio <= 0.0:
        return math.inf, gam
    return math.log(ratio) + gam, gam


def _old_profile_score(theta: float, x: np.ndarray) -> float:
    if theta == 0.0:
        xbar = float(x.mean())
        return xbar - float(np.mean(x * x)) / (2.0 * xbar)
    gam = float(np.mean(np.log1p(theta * x)))
    if gam <= -1.0 or gam == 0.0:
        return math.nan
    dgam = float(np.mean(x / (1.0 + theta * x)))
    return dgam * (1.0 / gam + 1.0) - 1.0 / theta


def _old_profile_columns(grid, x, idx) -> Tuple[np.ndarray, np.ndarray]:
    cols = idx if idx.size != 1 else np.append(idx, idx[0] - 1 if idx[0] else 1)
    theta = grid[cols]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.log1p(theta[None, :] * x[:, None]).mean(axis=0)
        f = np.log(g / theta) + g
    f[(g <= -1.0) | (g == 0.0) | ~np.isfinite(f)] = np.inf
    return f[: idx.size], g[: idx.size]


def _old_profile_scan(x: np.ndarray, xmax: float, xbar: float) -> Tuple[np.ndarray, np.ndarray]:
    half, lo, mid, hi = _PROFILE_GRID // 2, (1.0 - 1e-9) / xmax, 1e-8 / xbar, 1e7 / xmax
    grid = np.concatenate([-np.geomspace(lo, mid, half), np.geomspace(mid, hi, half)])
    f, gams = np.full(grid.size, np.inf), np.full(grid.size, np.nan)
    first = np.append(np.arange(0, grid.size - 1, _SCAN_STEP), grid.size - 1)
    f[first], gams[first] = _old_profile_columns(grid, x, first)
    best = float(f.min())

    pos = np.searchsorted(first, np.arange(grid.size), side="right") - 1
    a, b = first[pos], first[np.minimum(pos + 1, first.size - 1)]
    ga, gb = gams[a], gams[b]
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = ga + (gb - ga) * (grid - grid[a]) / (grid[b] - grid[a])
        c = np.maximum(chord, np.maximum(ga, -1.0))
        lr = np.log(gb / grid[b])
        lr = np.where((grid > 0.0) & (c > 0.0), np.maximum(lr, np.log(c / grid)), lr)
        bound = np.where(gb <= -1.0, np.inf, lr + c)
    pruned = bound > best + _SCAN_MARGIN * (1.0 + abs(best))
    rest = np.flatnonzero(np.isnan(gams) & ~pruned)
    f[rest], gams[rest] = _old_profile_columns(grid, x, rest)
    return grid, f


def _old_gp_ml_fit(excesses) -> GpMlFit:
    x = np.asarray(excesses, dtype=float)
    if x.size < 5:
        raise TooFewObservations(f"need at least 5 excesses, got {x.size}")
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ArgumentOutOfRange("excesses must be finite and nonnegative")
    xmax = float(x.max())
    if xmax <= 0.0 or x.min() == xmax:
        raise DegenerateSpacing("excesses have zero spread; no interior maximizer")
    xbar = float(x.mean())
    grid, f = _old_profile_scan(x, xmax, xbar)

    k = x.size
    if not np.isfinite(f).any():
        # nothing feasible on the grid; report the exponential boundary model
        return GpMlFit(0.0, xbar, -k * (math.log(xbar) + 1.0), False, 0)

    i = int(np.argmin(f))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, grid.size - 1)]

    theta, converged, iters = _old_refine_bracket(a, b, x)
    f_star, gam = _old_profile_objective(theta, x)
    f_exp, _ = _old_profile_objective(0.0, x)
    if math.log(xmax) - 1.0 < min(f_star, f_exp):
        # the gamma -> -1 edge beats both: step just inside it, sigma just above -gamma * xmax
        gam = -1.0 + _EDGE_STEP
        sigma = -gam * xmax * (1.0 + _EDGE_STEP)
        loglik = -k * math.log(sigma) - (1.0 + 1.0 / gam) * float(np.log1p(gam * x / sigma).sum())
        return GpMlFit(gam, sigma, loglik, False, iters)
    if f_exp <= f_star:
        return GpMlFit(0.0, xbar, -k * (f_exp + 1.0), converged, iters)
    return GpMlFit(gam, gam / theta, -k * (f_star + 1.0), converged, iters)


def _old_refine_bracket(a: float, b: float, x: np.ndarray) -> Tuple[float, bool, int]:
    sa = _old_profile_score(a, x)
    sb = _old_profile_score(b, x)
    if math.isfinite(sa) and math.isfinite(sb) and sa * sb < 0.0:
        from scipy.optimize import brentq

        theta, res = brentq(
            _old_profile_score,
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
    fc, _ = _old_profile_objective(c, x)
    fd, _ = _old_profile_objective(d, x)
    iters = 0
    while abs(b - a) > _GOLDEN_TOL * (1.0 + abs(a)) and iters < _GOLDEN_CAP:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc, _ = _old_profile_objective(c, x)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd, _ = _old_profile_objective(d, x)
        iters += 1
    converged = abs(b - a) <= _GOLDEN_TOL * (1.0 + abs(a))
    return 0.5 * (a + b), converged, iters


class TestFitOracle:
    FAMILIES = [
        dist.gp(0.5),
        dist.student_t(4),
        dist.burr(1.0, 2.0),
        dist.gp(-0.3),
        dist.gp(-0.8),
        dist.student_t(1),
    ]

    @pytest.mark.parametrize("n", [2000, 10_000])
    def test_every_field_equals_the_oracle(self, n):
        for f_i, spec in enumerate(self.FAMILIES):
            s = dist.sample(spec, n, dist.RngStream(43, f_i))
            for m in range(3, 201):
                x = excesses_over_threshold(s, paired_k(n, m))
                assert gp_ml_fit(x) == _old_gp_ml_fit(x), (spec, m)

    @pytest.mark.parametrize("seed", [12, 13, 16, 23, 30])
    def test_edge_inputs_equal_the_oracle(self, seed):
        s = dist.sample(dist.student_t(4), 10_000, dist.RngStream(seed, 2))
        x = excesses_over_threshold(s, 9999)
        assert gp_ml_fit(x) == _old_gp_ml_fit(x)

    @pytest.mark.parametrize(
        "x",
        [
            [1.0, 2.0, 3.0, 4.0],
            [1.0, 2.0, math.nan, 4.0, 5.0],
            [1.0, 2.0, math.inf, 4.0, 5.0],
            [1.0, 2.0, -math.inf, 4.0, 5.0],
            [1.0, 2.0, -0.5, 4.0, 5.0],
            [-1.0, math.nan, 3.0, 4.0, 5.0],
            [2.0] * 5,
            [0.0] * 6,
        ],
    )
    def test_same_exception_types(self, x):
        with pytest.raises((TooFewObservations, ArgumentOutOfRange, DegenerateSpacing)) as new:
            gp_ml_fit(x)
        with pytest.raises(type(new.value)):
            _old_gp_ml_fit(x)


class TestThetaGrid:
    def test_equals_two_geomspace_calls(self):
        rng = np.random.default_rng(44)
        for i in range(10_000):
            # (max x, mean x) across 1e+-300, mean x between max x / 1e4 and max x
            xmax = 10.0 ** rng.uniform(-300.0, 300.0)
            xbar = xmax * 10.0 ** -rng.uniform(0.0, 4.0)
            lo, mid, hi = (1.0 - 1e-9) / xmax, 1e-8 / xbar, 1e7 / xmax
            if i % 10 == 0:
                mid = lo
            want = np.concatenate([-np.geomspace(lo, mid, 200), np.geomspace(mid, hi, 200)])
            assert np.array_equal(_theta_grid(lo, mid, hi), want), (lo, mid, hi)


class TestTrajectory:
    def test_single_m_equals_kernel_of_top3(self):
        s = sort_sample([9.0, 5.5, 2.0, 1.0, 0.5])
        assert pickands_ustat_grid(s, [5]) == {
            5: pytest.approx(pickands_kernel(9.0, 5.5, 2.0))
        }

    def test_matches_pointwise_estimates(self):
        s = dist.sample(dist.student_t(4), 500, dist.RngStream(5, 0))
        grid = list(range(3, 60, 7))
        for m, gamma_hat in pickands_ustat_grid(s, grid).items():
            assert gamma_hat == pytest.approx(pickands_ustat(s, m), rel=1e-12, abs=1e-12)

    def test_smoke_student_t4_all_finite(self):
        s = dist.sample(dist.student_t(4), 2000, dist.RngStream(6, 0))
        estimates = pickands_ustat_grid(s, list(range(3, 203, 4)))
        assert len(estimates) == 50
        assert all(math.isfinite(g) for g in estimates.values())

    def test_block_size_guard(self):
        s = sort_sample([3.0, 2.0, 1.0])
        with pytest.raises(BlockSizeOutOfRange):
            pickands_ustat_grid(s, [2])


class TestPairedComparison:
    def test_k_arithmetic(self):
        assert paired_k(10_000, 100) == 300
        assert paired_k(10_000, 3) == 9_999  # 3n/m = n capped at n-1
        assert paired_k(100, 99) == 3

    def test_records(self):
        s = dist.sample(dist.gp(0.5), 400, dist.RngStream(8, 0))
        pick, gpml = _pickands_and_gpml(s, [12])
        assert (pick.m, pick.k, pick.estimator) == (12, 100, "ExtremePickands")
        assert (gpml.m, gpml.k, gpml.estimator) == (12, 100, "GpMl")
        # neither failed: a failure is a non-finite estimate
        assert math.isfinite(pick.gamma_hat) and math.isfinite(gpml.gamma_hat)

    def test_small_k_guard(self):
        s = dist.sample(dist.gp(0.5), 100, dist.RngStream(9, 0))
        _, gpml = _pickands_and_gpml(s, [99])  # k = 3 < 5 excesses
        assert gpml.estimator == "GpMl" and math.isnan(gpml.gamma_hat)

    def test_location_scale_invariance_end_to_end(self):
        s = dist.sample(dist.gp(0.2), 300, dist.RngStream(10, 0))
        pick, _ = _pickands_and_gpml(s, [10])
        moved = sort_sample(100.0 * s.values - 50.0)
        pick2, _ = _pickands_and_gpml(moved, [10])
        assert pick2.gamma_hat == pytest.approx(pick.gamma_hat, abs=1e-9)
