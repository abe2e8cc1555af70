import math

import numpy as np
import pytest

from xustat import dist
from xustat.core import (
    BlockSizeOutOfRange,
    DegenerateSpacing,
    ThresholdOutOfRange,
    TooFewObservations,
    pickands_kernel,
    sort_sample,
)
from xustat.estimators import (
    _profile_columns,
    _profile_scan,
    excesses_over_threshold,
    gp_ml_fit,
    paired_k,
)
from xustat.harness import _pickands_and_gpml
from xustat.ustat import pickands_ustat, pickands_ustat_grid


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
        assert pick[:3] == (12, 100, "ExtremePickands")
        assert gpml[:3] == (12, 100, "GpMl")
        assert pick[4] == gpml[4] == 0
        assert math.isfinite(pick[3]) and math.isfinite(gpml[3])

    def test_small_k_guard(self):
        s = dist.sample(dist.gp(0.5), 100, dist.RngStream(9, 0))
        _, gpml = _pickands_and_gpml(s, [99])  # k = 3 < 5 excesses
        assert gpml[2] == "GpMl" and gpml[4] == 1 and math.isnan(gpml[3])

    def test_location_scale_invariance_end_to_end(self):
        s = dist.sample(dist.gp(0.2), 300, dist.RngStream(10, 0))
        pick, _ = _pickands_and_gpml(s, [10])
        moved = sort_sample(100.0 * s.values - 50.0)
        pick2, _ = _pickands_and_gpml(moved, [10])
        assert pick2[3] == pytest.approx(pick[3], abs=1e-9)
