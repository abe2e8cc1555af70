import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xustat.core import (
    ArgumentOutOfRange,
    DegenerateSpacing,
    NonFiniteInput,
    PICKANDS_KERNEL,
    TooFewObservations,
    TopQKernel,
    pickands_g_prime,
    pickands_kernel,
    sort_sample,
)


class TestSortSample:
    def test_sorts_descending(self):
        assert sort_sample([1, 3, 2]).values.tolist() == [3, 2, 1]

    def test_ties_preserved(self):
        assert sort_sample([5, 5, 5]).values.tolist() == [5, 5, 5]

    def test_negatives(self):
        assert sort_sample([-1, 0, -2, 7]).values.tolist() == [7, 0, -1, -2]

    def test_input_not_modified(self):
        raw = np.array([1.0, 3.0, 2.0])
        sort_sample(raw)
        assert raw.tolist() == [1.0, 3.0, 2.0]

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            sort_sample([1.0, 2.0])

    def test_non_finite(self):
        with pytest.raises(NonFiniteInput):
            sort_sample([1.0, float("nan"), 2.0])
        with pytest.raises(NonFiniteInput):
            sort_sample([1.0, float("inf"), 2.0])

    def test_sample_is_immutable(self):
        s = sort_sample([3.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 99.0


class TestPickandsKernel:
    def test_direct_value(self):
        assert pickands_kernel(4, 3, 1) == pytest.approx(math.log(1 / 6), rel=1e-14)

    def test_location_scale_shift(self):
        # (2*4+5, 2*3+5, 2*1+5)
        assert pickands_kernel(13, 11, 7) == pytest.approx(math.log(1 / 6), rel=1e-14)

    def test_unit_spacing(self):
        assert pickands_kernel(3, 2, 1) == pytest.approx(math.log(0.5), rel=1e-14)

    def test_degenerate(self):
        with pytest.raises(DegenerateSpacing):
            pickands_kernel(4, 4, 1)
        with pytest.raises(DegenerateSpacing):
            pickands_kernel(4, 3, 3)
        with pytest.raises(DegenerateSpacing):
            pickands_kernel(1, 2, 0)

    def test_extreme_spacing_ratio_stays_finite(self):
        # raw ratio (y1-y2)/(y2-y3) overflows a double here; log-spacing form must not
        v = pickands_kernel(1e300, 1.0, 1.0 - 1e-12)
        assert math.isfinite(v)

    @given(
        y3=st.floats(-1e7, 1e7),
        d2=st.floats(1e7, 1e8),
        d1=st.floats(1e7, 1e8),
        a=st.sampled_from([1e-6, 1.0, 1e6]),
        b=st.sampled_from([-1e3, 0.0, 1e3]),
    )
    @settings(max_examples=200)
    def test_location_scale_invariance(self, y3, d2, d1, a, b):
        # spacings are kept large enough that a*y + b does not itself lose
        # the spacing to float rounding (the property is about the kernel,
        # not about input representation)
        y2 = y3 + d2
        y1 = y2 + d1
        base = pickands_kernel(y1, y2, y3)
        moved = pickands_kernel(a * y1 + b, a * y2 + b, a * y3 + b)
        assert moved == pytest.approx(base, rel=1e-12, abs=1e-12)

    @given(
        k3=st.integers(-(2**20), 2**20),
        s2=st.integers(1, 2**20),
        s1=st.integers(1, 2**20),
        a_exp=st.sampled_from([-20, 0, 20]),
        b=st.sampled_from([-1024.0, 0.0, 1024.0]),
    )
    @settings(max_examples=200)
    def test_invariance_under_exact_transforms(self, k3, s2, s1, a_exp, b):
        # dyadic inputs with power-of-two scales keep a*y + b exactly
        # representable, isolating the algorithmic invariance
        y3 = k3 / 2.0**10
        y2 = y3 + s2 / 2.0**10
        y1 = y2 + s1 / 2.0**10
        a = 2.0**a_exp
        base = pickands_kernel(y1, y2, y3)
        moved = pickands_kernel(a * y1 + b, a * y2 + b, a * y3 + b)
        assert moved == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_g_prime_bounded_by_two(self):
        t = np.linspace(-50.0, 50.0, 2001)
        assert np.all(np.abs(pickands_g_prime(t)) <= 2.0)

    def test_agrees_with_raw_log_spacings(self):
        # both formulations coincide away from extreme spacings
        rng = np.random.default_rng(42)
        for _ in range(300):
            d1, d2 = rng.uniform(1e-3, 1e3, size=2)
            y3 = rng.uniform(-10, 10)
            y2, y1 = y3 + d2, y3 + d2 + d1
            raw = 2 * math.log(y1 - y2) - math.log(y1 - y3) - math.log(y2 - y3)
            assert pickands_kernel(y1, y2, y3) == pytest.approx(raw, rel=1e-12, abs=1e-12)


class TestDomainTypes:
    def test_kernel_needs_three_args(self):
        with pytest.raises(ArgumentOutOfRange):
            TopQKernel(q=2, eval=lambda y: 0.0)

    def test_pickands_kernel_object(self):
        assert PICKANDS_KERNEL.q == 3
        v = PICKANDS_KERNEL.eval(np.array([4.0, 3.0, 1.0]))
        assert v == pytest.approx(math.log(1 / 6))
