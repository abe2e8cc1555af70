import math

import numpy as np
import pytest
import scipy.stats

from xustat import dist
from xustat.core import ArgumentOutOfRange, NonPositiveArgument, TooFewObservations


class TestHGamma:
    def test_gamma_zero(self):
        assert dist.h_gamma(0.0, 2.0) == pytest.approx(math.log(2), rel=1e-14)

    def test_gamma_one(self):
        assert dist.h_gamma(1.0, 3.0) == pytest.approx(2.0, rel=1e-14)

    def test_gamma_negative(self):
        assert dist.h_gamma(-0.5, 4.0) == pytest.approx(1.0, rel=1e-14)

    def test_continuous_through_zero(self):
        y = np.array([0.5, 2.0, 100.0])
        for gamma in (1e-9, -1e-9, 1e-13):
            np.testing.assert_allclose(
                dist.h_gamma(gamma, y), np.log(y), rtol=1e-8
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveArgument):
            dist.h_gamma(0.5, 0.0)
        with pytest.raises(NonPositiveArgument):
            dist.h_gamma(0.5, -1.0)

    @pytest.mark.parametrize("gamma", [-0.9, 0.0, 0.02, 0.5, 60.0])
    def test_leaves_its_argument_and_keeps_the_out_of_place_bits(self, gamma):
        y = 1.0 / (1.0 - np.random.default_rng(3).random((7, 300)))
        before = y.copy()
        with np.errstate(over="ignore"):
            old = np.log(y) if gamma == 0.0 else np.expm1(gamma * np.log(y)) / gamma
        got = dist.h_gamma(gamma, y)
        assert np.array_equal(y, before) and got is not y
        assert np.array_equal(got, old)
        assert np.array_equal(dist.h_gamma(gamma, y.tolist()), old)

    @pytest.mark.parametrize("y", [2.0, np.float64(2.0), np.array(2.0), 2])
    def test_scalar_gives_a_float(self, y):
        out = dist.h_gamma(0.5, y)
        assert type(out) is float and out == float(np.expm1(0.5 * np.log(2.0)) / 0.5)


class TestGpQuantile:
    def test_exponential_quantile(self):
        assert dist.quantile(dist.gp(0.0), 1 - math.exp(-1)) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_one_median(self):
        assert dist.quantile(dist.gp(1.0), 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_finite_endpoint(self):
        # gamma = -1 has upper endpoint -1/gamma = 1
        u = 1.0 - np.geomspace(1e-12, 0.5, 40)
        q = dist.quantile(dist.gp(-1.0), u)
        assert np.all(q <= 1.0)
        assert q[0] == pytest.approx(1.0, abs=1e-9)

    def test_range_check(self):
        with pytest.raises(ArgumentOutOfRange):
            dist.quantile(dist.gp(0.5), 0.0)
        with pytest.raises(ArgumentOutOfRange):
            dist.quantile(dist.gp(0.5), 1.0)


class TestSpecs:
    def test_burr_metadata(self):
        spec = dist.burr(2.0, 1.0)
        assert spec.true_gamma == pytest.approx(0.5)
        assert spec.true_rho == pytest.approx(-0.5)

    def test_burr_from_gamma_rho(self):
        spec = dist.burr_from_gamma_rho(0.5, -0.5)
        assert spec.params == pytest.approx((2.0, 1.0))

    def test_catalog_gammas(self):
        assert dist.student_t(2).true_gamma == pytest.approx(0.5)
        assert dist.student_t(2).true_rho == pytest.approx(-1.0)
        assert dist.normal().true_gamma == 0.0
        assert dist.normal().true_rho == 0.0
        assert dist.beta(2, 2).true_gamma == pytest.approx(-0.5)
        assert dist.beta(2, 2).true_rho is None  # not stated for this family
        assert dist.frechet(3).true_gamma == pytest.approx(1 / 3)
        assert dist.frechet(3).true_rho == pytest.approx(-1.0)
        assert dist.pareto1().true_gamma == 1.0
        assert dist.exponential().true_gamma == 0.0

    def test_make_spec(self):
        assert dist.make_spec("GP", (0.5,)).label == "GP(0.5)"
        with pytest.raises(ArgumentOutOfRange):
            dist.make_spec("Cauchy", ())
        with pytest.raises(ArgumentOutOfRange):
            dist.make_spec("GP", ())


class TestQuantiles:
    def test_burr_median(self):
        # F(x) = 1 - (1+x)^(-1) at lambda=eta=1: median at 1
        assert dist.quantile(dist.burr(1, 1), 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_frechet_unit_point(self):
        assert dist.quantile(dist.frechet(1.0), math.exp(-1)) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_u(self):
        u = np.linspace(1e-6, 1 - 1e-6, 500)
        for spec in (
            dist.gp(0.5), dist.gp(0.0), dist.gp(-0.7),
            dist.pareto1(), dist.frechet(2.0), dist.burr(2, 1), dist.exponential(),
        ):
            q = dist.quantile(spec, u)
            assert np.all(np.diff(q) >= 0.0), spec.label


def _stream(sid=0, path=()):
    return dist.RngStream(master_seed=987654321, stream_id=sid, path=path)


class TestSampling:
    def test_deterministic_given_stream(self):
        a = dist.draw(dist.gp(0.3), 1000, _stream(4))
        b = dist.draw(dist.gp(0.3), 1000, _stream(4))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = dist.draw(dist.gp(0.3), 1000, _stream(4))
        b = dist.draw(dist.gp(0.3), 1000, _stream(5))
        assert not np.array_equal(a, b)

    def test_substream_determinism(self):
        a = dist.draw(dist.normal(), 10, _stream(1, (2, 3)))
        b = dist.draw(dist.normal(), 10, _stream(1, (2, 3)))
        c = dist.draw(dist.normal(), 10, _stream(1, (2, 4)))
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_sample_needs_three(self):
        with pytest.raises(TooFewObservations):
            dist.sample(dist.gp(0.0), 2, _stream())

    def test_sample_sorted(self):
        s = dist.sample(dist.gp(0.5), 100, _stream())
        assert np.all(np.diff(s.values) <= 0.0)

    def test_gp0_mean(self):
        # exponential mean 1; 3 sigma band at n = 1e5 is 3/sqrt(1e5)
        x = dist.draw(dist.gp(0.0), 100_000, _stream(7))
        assert abs(x.mean() - 1.0) <= 3.0 / math.sqrt(100_000)

    def test_gp_cdf_within_dkw_band(self):
        n = 100_000
        eps = math.sqrt(math.log(2 / 0.01) / (2 * n))  # 99% DKW band
        for gamma in (-0.5, 0.0, 0.5):
            x = np.sort(dist.draw(dist.gp(gamma), n, _stream(11)))
            if gamma == 0.0:
                cdf = -np.expm1(-x)
            else:
                cdf = 1.0 - (1.0 + gamma * x) ** (-1.0 / gamma)
            ecdf = np.arange(1, n + 1) / n
            assert float(np.max(np.abs(ecdf - cdf))) <= eps

    @pytest.mark.parametrize(
        "spec,frozen",
        [
            (dist.normal(), scipy.stats.norm()),
            (dist.student_t(4), scipy.stats.t(4)),
            (dist.beta(2, 2), scipy.stats.beta(2, 2)),
        ],
    )
    def test_exact_samplers_match_scipy_cdf(self, spec, frozen):
        x = dist.draw(spec, 20_000, _stream(13))
        d = scipy.stats.kstest(x, frozen.cdf).statistic
        # 99.9% one-sample Kolmogorov band
        assert d <= 1.95 / math.sqrt(20_000)

    def test_burr_tail_slope_matches_gamma(self):
        # ln(U(2t) - U(t)) against ln t has slope gamma for large t
        for lam, eta in ((2.0, 1.0), (1.0, 1.0)):
            spec = dist.burr(lam, eta)
            slopes = []
            n = 1_000_000
            ts = np.array([1e3, 1e4, 1e5])
            for r in range(20):
                x = np.sort(dist.draw(spec, n, _stream(100 + r)))
                lo = np.array([x[-int(round(n / t))] for t in ts])
                hi = np.array([x[-int(round(n / (2 * t)))] for t in ts])
                slopes.append(np.polyfit(np.log(ts), np.log(hi - lo), 1)[0])
            assert abs(float(np.mean(slopes)) - spec.true_gamma) <= 0.05


def _gp_order_stat_check(gamma, m, q, reps, rng):
    """Two-sample diagnostic for the GP top-q order statistic representation.

    Compares, margin by margin, directly sampled top-q order statistics of a
    GP(gamma) m-sample against T + (1 + gamma*T) * Z_{q-i:q-1}, where T is
    the q-th largest order statistic (drawn through its Beta(m-q+1, q)
    uniform representation) and the Z's are q-1 fresh GP(gamma) draws with
    Z_{0:q-1} = 0.  Returns the largest of the q two-sample
    Kolmogorov-Smirnov distances.
    """
    if q < 1 or m < q:
        raise ArgumentOutOfRange("need 1 <= q <= m")
    if reps < 2:
        raise ArgumentOutOfRange("need at least 2 replications")
    g = rng.generator()
    direct = np.sort(
        dist.h_gamma(gamma, 1.0 / (1.0 - g.random((reps, m)))), axis=1
    )[:, m - q:]
    b = g.beta(m - q + 1, q, size=reps)
    t = dist.h_gamma(gamma, 1.0 / (1.0 - b))
    if q > 1:
        z = np.sort(dist.h_gamma(gamma, 1.0 / (1.0 - g.random((reps, q - 1)))), axis=1)
        z = np.concatenate([np.zeros((reps, 1)), z], axis=1)
    else:
        z = np.zeros((reps, 1))
    represented = t[:, None] + (1.0 + gamma * t[:, None]) * z
    return max(
        float(scipy.stats.ks_2samp(direct[:, i], represented[:, i]).statistic)
        for i in range(q)
    )


class TestOrderStatRepresentation:
    @pytest.mark.parametrize("gamma,m", [(0.0, 20), (0.5, 50), (-0.5, 20)])
    def test_topq_representation(self, gamma, m):
        # 99.9% two-sample KS band at 20000 vs 20000 is ~0.0195
        d = _gp_order_stat_check(gamma, m, 3, 20_000, _stream(21))
        assert d < 0.02

    def test_degenerate_case(self):
        d = _gp_order_stat_check(0.3, 1, 1, 20_000, _stream(22))
        assert d < 0.02  # both sides are single GP draws

    def test_guards(self):
        with pytest.raises(ArgumentOutOfRange):
            _gp_order_stat_check(0.0, 2, 3, 100, _stream())
