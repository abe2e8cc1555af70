import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from xustat import asymptotics, dist
from xustat.asymptotics import (
    _gp_resample_estimates,
    bias_bk_mc,
    digamma_moments,
    erlang_neg_rho_moment,
    h_gamma_rho,
    parametric_bootstrap,
    sigma2_integral_mc,
    sigma2_kvar_mc,
)
from xustat.core import ArgumentOutOfRange, NonPositiveArgument
from xustat.ustat import pickands_ustat_batch


def _stream(sid=0, *path):
    return dist.RngStream(555_000_111, sid, tuple(path))


def _h_quadrature(x, gamma, rho):
    """Independent oracle: nested adaptive quadrature of the double integral."""

    def inner(s):
        val, _ = quad(lambda u: u ** (rho - 1.0), 1.0, s, epsabs=1e-13, limit=200)
        return s ** (gamma - 1.0) * val

    val, _ = quad(inner, 1.0, x, epsabs=1e-13, limit=200)
    return val


class TestHGammaRho:
    def test_zero_at_one(self):
        for gamma in (-0.5, 0.0, 0.7):
            for rho in (-2.0, -0.25, 0.0):
                assert h_gamma_rho(1.0, gamma, rho) == 0.0

    def test_h00_at_e(self):
        assert h_gamma_rho(math.e, 0.0, 0.0) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("rho", [-2.0, -1.0, -0.25])
    @pytest.mark.parametrize("x", [1.5, 2.0, 10.0])
    def test_closed_form_vs_quadrature(self, gamma, rho, x):
        oracle = _h_quadrature(x, gamma, rho)
        assert h_gamma_rho(x, gamma, rho) == pytest.approx(oracle, rel=1e-8)

    def test_rho_zero_limit_vs_quadrature(self):
        for gamma in (-0.5, 0.5):
            oracle = _h_quadrature(3.0, gamma, 0.0)
            assert h_gamma_rho(3.0, gamma, 0.0) == pytest.approx(oracle, rel=1e-8)

    def test_small_rho_continuity(self):
        a = h_gamma_rho(4.0, 0.3, -1e-9)
        b = h_gamma_rho(4.0, 0.3, 0.0)
        assert a == pytest.approx(b, rel=1e-6)

    def test_guards(self):
        with pytest.raises(ArgumentOutOfRange):
            h_gamma_rho(0.5, 0.0, -1.0)
        with pytest.raises(ArgumentOutOfRange):
            h_gamma_rho(2.0, 0.0, 0.5)


class TestErlangMoment:
    def test_zeroth(self):
        assert erlang_neg_rho_moment(0.0, 3) == pytest.approx(1.0, rel=1e-14)

    def test_integer_case(self):
        assert erlang_neg_rho_moment(-1.0, 3) == pytest.approx(3.0, rel=1e-13)

    def test_half_case(self):
        assert erlang_neg_rho_moment(-0.5, 3) == pytest.approx(
            gamma_fn(3.5) / 2.0, rel=1e-13
        )

    def test_against_monte_carlo(self):
        g = _stream(1).generator()
        s = g.standard_gamma(3.0, size=1_000_000)
        for rho in (-0.5, -1.5):
            draws = s ** (-rho)
            mc = draws.mean()
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(erlang_neg_rho_moment(rho, 3) - mc) <= 3.0 * se


class TestDigammaMoments:
    def test_gamma_zero_branch(self):
        mom = digamma_moments(0.0)
        assert mom.e_ln_z == pytest.approx(-0.5772156649015329, rel=1e-12)
        assert mom.u1 == pytest.approx(math.log(2.0), rel=1e-12)
        assert mom.u2 == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
        assert mom.kernel_mean == 0.0

    def test_kernel_mean_is_gamma(self):
        assert digamma_moments(0.5).kernel_mean == pytest.approx(0.5, abs=1e-12)

    def test_identity_on_grid(self):
        for gamma in np.linspace(-1.0, 1.0, 41):
            mom = digamma_moments(float(gamma))
            assert abs(mom.kernel_mean - gamma) <= 1e-10

    def test_branch_continuity(self):
        ref = digamma_moments(0.0)
        for gamma in (1e-12, -1e-12):
            mom = digamma_moments(gamma)
            assert mom.e_ln_z22 == pytest.approx(ref.e_ln_z22, abs=1e-9)
            assert mom.u1 == pytest.approx(ref.u1, abs=1e-9)

    def test_log_moments_against_monte_carlo(self):
        gamma = 0.5
        g = _stream(2).generator()
        z = dist.h_gamma(gamma, 1.0 / (1.0 - g.random((1_000_000, 2))))
        z22 = np.log(np.maximum(z[:, 0], z[:, 1]))
        z12 = np.log(np.minimum(z[:, 0], z[:, 1]))
        mom = digamma_moments(gamma)
        for sample_mean, target in (
            (z22, mom.e_ln_z22),
            (z12, mom.e_ln_z12),
            (np.log(z[:, 0]), mom.e_ln_z),
        ):
            se = sample_mean.std(ddof=1) / math.sqrt(sample_mean.size)
            assert abs(sample_mean.mean() - target) <= 3.0 * se

    def test_negative_gamma_against_monte_carlo(self):
        gamma = -0.5
        g = _stream(3).generator()
        z = dist.h_gamma(gamma, 1.0 / (1.0 - g.random((1_000_000, 2))))
        lz22 = np.log(np.maximum(z[:, 0], z[:, 1]))
        mom = digamma_moments(gamma)
        se = lz22.std(ddof=1) / math.sqrt(lz22.size)
        assert abs(lz22.mean() - mom.e_ln_z22) <= 3.0 * se


class TestBiasConstant:
    def test_seed_stability(self):
        a = bias_bk_mc(0.5, -1.0, 200_000, _stream(4))
        b = bias_bk_mc(0.5, -1.0, 200_000, _stream(5))
        assert abs(a.b_k - b.b_k) <= 3.0 * math.hypot(a.stderr, b.stderr)

    def test_constant_grows_as_rho_decreases(self):
        # the Erlang moment Gamma(3-rho)/2 dominates: B_K increases in |rho|
        vals = [bias_bk_mc(0.5, rho, 200_000, _stream(6)) for rho in (-0.25, -0.5, -1.0, -2.0)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi.b_k - lo.b_k > 3.0 * math.hypot(lo.stderr, hi.stderr)

    def test_burr_second_order_function_prediction(self):
        # For Burr, A(t) = a(b-1)/(t^a - 1) with a = -rho, b = 1/eta; the
        # realized estimator bias at block size m is approximately A(m)*B_K.
        # This couples the bias constant to an independent simulation oracle.
        gamma, n, m, reps = 0.5, 2000, 40, 300
        from xustat.ustat import pickands_ustat_batch

        for rho in (-0.25, -1.0):
            spec = dist.burr_from_gamma_rho(gamma, rho)
            lam, eta = spec.params
            a_exp, b_exp = 1.0 / lam, 1.0 / eta
            a_of_m = a_exp * (b_exp - 1.0) / (m**a_exp - 1.0)
            bk = bias_bk_mc(gamma, rho, 400_000, _stream(7))
            predicted = a_of_m * bk.b_k

            g = _stream(8).generator()
            x = np.sort(
                np.asarray(dist.quantile(spec, g.random((reps, n)))), axis=1
            )[:, ::-1]
            est = pickands_ustat_batch(np.ascontiguousarray(x), m)
            bias = float(est.mean()) - gamma
            se = float(est.std(ddof=1)) / math.sqrt(reps)
            assert abs(bias - predicted) <= 3.0 * se

    def test_guards(self):
        with pytest.raises(ArgumentOutOfRange):
            bias_bk_mc(0.5, 0.0, 20_000, _stream())
        with pytest.raises(ArgumentOutOfRange):
            bias_bk_mc(0.5, -1.0, 100, _stream())

    @pytest.mark.parametrize("gamma,rho", [(0.5, math.nan), (math.nan, -1.0), (math.inf, -1.0)])
    def test_non_finite_arguments_rejected(self, gamma, rho):
        # a NaN passes `rho >= 0` and would come back as b_k = nan
        with pytest.raises(ArgumentOutOfRange):
            bias_bk_mc(gamma, rho, 20_000, _stream())

    def test_overflowing_draws_raise_before_any_warning(self):
        # h_gamma(80, y) overflows on the largest draws; that once gave b_k = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ArgumentOutOfRange, match="gamma=80.0"):
                bias_bk_mc(80.0, -1.0, 10_000, dist.RngStream(0))


class TestSigma2Routes:
    def test_kvar_smoke(self):
        est = sigma2_kvar_mc(0.5, 400, 8, 200, _stream(9))
        assert est.sigma2 > 0 and est.stderr > 0
        assert est.reps == 200

    def test_integral_matches_table_value_at_zero(self):
        # tabulated sigma2 near gamma = 0 is 0.251..0.255; the tabulated values
        # are themselves MC estimates, so the documented 20% band applies
        est = sigma2_integral_mc(0.0, inner_reps=100_000, rng=_stream(10))
        assert abs(est.sigma2 - 0.255) <= 0.2 * 0.255

    def test_integral_quadrature_stability(self):
        a = sigma2_integral_mc(0.5, inner_reps=60_000, quad_nodes=64, rng=_stream(11))
        b = sigma2_integral_mc(0.5, inner_reps=60_000, quad_nodes=192, rng=_stream(11))
        assert abs(a.sigma2 - b.sigma2) <= 3.0 * math.hypot(a.stderr, b.stderr) + 0.01

    def test_guards(self):
        with pytest.raises(ArgumentOutOfRange):
            sigma2_integral_mc(0.0, inner_reps=100, rng=_stream())
        with pytest.raises(ArgumentOutOfRange):
            sigma2_kvar_mc(0.0, 100, 5, 10, _stream())

    def test_integral_overflowing_draws_raise_before_any_warning(self):
        # h_gamma(150, y) overflows on the largest draws; that once gave sigma2 = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ArgumentOutOfRange, match="gamma=150.0"):
                sigma2_integral_mc(150.0, inner_reps=10_000, quad_nodes=8, rng=dist.RngStream(0))

    @pytest.mark.parametrize("sigma2,stderr", [(math.nan, 0.1), (1.0, math.nan), (-1.0, 0.1)])
    def test_variance_estimate_rejects_nan_and_negative(self, sigma2, stderr):
        with pytest.raises(ArgumentOutOfRange):
            asymptotics.VarianceEstimate(sigma2=sigma2, reps=100, stderr=stderr)


def _old_h_gamma(gamma, y):
    """dist.h_gamma as it was before it evaluated in place, verbatim."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise NonPositiveArgument("h_gamma needs a positive finite argument")
    ly = np.log(y)
    if gamma == 0.0:
        out = ly
    else:
        with np.errstate(over="ignore"):
            out = np.expm1(gamma * ly) / gamma
    return float(out) if out.ndim == 0 else out


def _old_gp_resample_estimates(gamma, n, m, reps, rng):
    """The resample loop before its reused buffer, verbatim: every step
    allocates a new (chunk, n) array."""
    g = rng.generator()
    est = np.empty(reps)
    chunk = max(1, min(reps, 50_000_000 // (n * 8)))
    for start in range(0, reps, chunk):
        stop = min(start + chunk, reps)
        u = g.random((stop - start, n))
        z = np.sort(_old_h_gamma(gamma, 1.0 / (1.0 - u)), axis=1)[:, ::-1]
        est[start:stop] = pickands_ustat_batch(z, m)
    return est


class TestGpResample:
    def test_overflowing_draws_fail_without_a_numpy_warning(self):
        # y^60 overflows for the largest uniform draws: those samples hold inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = _gp_resample_estimates(60.0, 2000, 20, 50, dist.RngStream(1, 0))
        assert np.isfinite(est).sum() == 48 and np.isnan(est).sum() == 2

    @pytest.mark.parametrize("gamma", [-0.9, -0.5, 0.0, 0.02, 0.5, 2.0, 60.0])
    @pytest.mark.parametrize("n,m,reps", [(40, 3, 30), (400, 8, 120), (2000, 20, 40)])
    def test_equals_the_allocating_loop(self, gamma, n, m, reps):
        got = _gp_resample_estimates(gamma, n, m, reps, _stream(30, n))
        want = _old_gp_resample_estimates(gamma, n, m, reps, _stream(30, n))
        assert np.array_equal(got, want, equal_nan=True)
        if gamma == 60.0 and n == 2000:
            assert np.isnan(got).any()  # overflowing rows are NaN on both paths

    @pytest.mark.parametrize("gamma", [-0.5, 0.5, 60.0])
    @pytest.mark.parametrize("rows", [1, 7, 30])
    def test_chunks_with_a_short_last_one(self, gamma, rows, monkeypatch):
        # 64 samples in chunks of 1 row, of 7 (the last of 1) and of 30 (the last of 4)
        n, reps = 300, 64
        want = _old_gp_resample_estimates(gamma, n, 10, reps, _stream(31))
        monkeypatch.setattr(asymptotics, "_RESAMPLE_BUDGET", rows * n + n - 1)
        assert np.array_equal(_gp_resample_estimates(gamma, n, 10, reps, _stream(31)), want,
                              equal_nan=True)

    def test_peak_memory_stays_near_one_sample_matrix(self):
        # the allocating loop peaked at 5.0 times the 200 x 2000 matrix
        args = (0.5, 2000, 20, 200)
        _gp_resample_estimates(*args, dist.RngStream(1, 0))  # build and load the kernel first
        tracemalloc.start()
        try:
            _gp_resample_estimates(*args, dist.RngStream(1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 200 * 2000 * 8

    def test_failed_rows_do_not_copy_the_survivors(self):
        # at gamma = 60 three of the 200 samples overflow; a full-length copy of
        # the other 197 rows would peak at 2.67 times the matrix
        args = (60.0, 2000, 20, 200)
        est = _gp_resample_estimates(*args, dist.RngStream(1, 0))
        assert np.isnan(est).sum() == 3
        tracemalloc.start()
        try:
            _gp_resample_estimates(*args, dist.RngStream(1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * 200 * 2000 * 8


class TestBootstrap:
    def test_deterministic_under_fixed_seed(self):
        s = dist.sample(dist.gp(0.5), 300, _stream(12))
        a = parametric_bootstrap(s, 10, 200, 0.95, _stream(13))
        b = parametric_bootstrap(s, 10, 200, 0.95, _stream(13))
        assert (a.gamma_hat, a.ci_low, a.ci_high) == (b.gamma_hat, b.ci_low, b.ci_high)

    def test_nested_levels(self):
        s = dist.sample(dist.gp(0.5), 300, _stream(14))
        narrow = parametric_bootstrap(s, 10, 300, 0.5, _stream(15))
        wide = parametric_bootstrap(s, 10, 300, 0.95, _stream(15))
        assert wide.ci_low < narrow.ci_low < narrow.ci_high < wide.ci_high

    def test_record_fields(self):
        s = dist.sample(dist.gp(0.2), 200, _stream(16))
        rec = parametric_bootstrap(s, 8, 200, 0.9, _stream(17))
        assert rec.boot_reps == 200
        assert 0 <= rec.dropped < rec.boot_reps
        assert rec.ci_low <= rec.gamma_hat <= rec.ci_high
        assert rec.stderr > 0

    def test_guards(self):
        s = dist.sample(dist.gp(0.2), 200, _stream(18))
        with pytest.raises(ArgumentOutOfRange):
            parametric_bootstrap(s, 8, 100, 0.9, _stream())
        with pytest.raises(ArgumentOutOfRange):
            parametric_bootstrap(s, 8, 200, 1.5, _stream())

    @pytest.mark.slow
    def test_coverage_on_gp(self, tmp_path):
        # bias is exactly zero under GP sampling, so nominal coverage applies;
        # binomial 3 sigma band at 200 outer replications and level 0.95
        from xustat.harness import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            experiment="BootstrapCoverage",
            family="GP",
            params=(0.5,),
            n=2000,
            reps=200,
            m_grid=(20,),
            master_seed=555_000_111,
            out=str(tmp_path / "cov.csv"),
            threads=2,
        )
        (agg,) = run_experiment(config)
        assert agg.rep == "agg" and agg.failed == 0
        coverage = float(dict(
            kv.split("=") for kv in agg.extra.split(";")
        )["coverage"])
        assert 0.90 <= coverage <= 0.99
