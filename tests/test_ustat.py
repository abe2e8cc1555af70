import inspect
import math
import os
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from fractions import Fraction
from typing import Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xustat import asymptotics, cli, core, dist, estimators, harness, ustat
from xustat.core import (
    BlockSizeOutOfRange,
    DegenerateSpacing,
    InstanceTooLarge,
    KernelUnavailable,
    NonFiniteInput,
    PICKANDS_KERNEL,
    TopQKernel,
    pickands_kernel,
    sort_sample,
)
from xustat.ustat import (
    _BLOCK_BUDGET,
    _EXPONENT_HEADROOM,
    _LEVELS,
    _LN2_HI,
    _LN2_LO,
    _SUM_MAX,
    _SUM_MIN,
    _exact_sums,
    _extract,
    _ln_desc,
    _spacing_scan,
    _spacing_sums,
    _tail_constants,
    _weight_rows,
    brute_force_ustat,
    log_spacing_sums,
    overlap_pmf,
    pickands_ustat,
    pickands_ustat_batch,
    pickands_ustat_grid,
    pickands_weights,
    topq_weighted_ustat,
)

CONSTANT_KERNEL = TopQKernel(q=3, eval=lambda y: 2.5)

# brute-force value for the sample (4,3,1,0) at m=3: the four subsets give
# kernels ln(1/6), ln(1/12), ln(9/4), ln(4/3), averaging to -ln(24)/4
FOUR_POINT_VALUE = -math.log(24.0) / 4.0


class TestPickandsWeights:
    def test_n5_m3(self):
        w = pickands_weights(5, 3)
        assert w.j.tolist() == [2, 3, 4, 5]
        np.testing.assert_allclose(w.w, [0.6, 0.3, 0.0, -0.3], atol=1e-14)

    def test_n4_m3(self):
        w = pickands_weights(4, 3)
        np.testing.assert_allclose(w.w, [1.0, 0.25, -0.5], atol=1e-14)

    @pytest.mark.parametrize("n,m", [(10, 3), (10, 5), (50, 7), (200, 40)])
    def test_first_ratio_closed_form(self, n, m):
        w = pickands_weights(n, m)
        ratio = w.w[0] / (2.0 * (n - 1) / (m - 2) - 2.0)
        expected = m * (m - 1) * (m - 2) / (n * (n - 1) * (n - m + 1))
        assert ratio == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,m", [(12, 4), (30, 6), (100, 11)])
    def test_matches_binomials_exactly(self, n, m):
        w = pickands_weights(n, m)
        for j, wj in zip(w.j, w.w):
            direct = (
                math.comb(n - j, m - 3)
                / math.comb(n, m)
                * (2.0 * (n - j + 1) / (m - 2) - j)
            )
            assert wj == pytest.approx(direct, rel=1e-11, abs=1e-300)

    def test_zero_sum_small_n(self):
        for n in (10, 100):
            for m in (3, 10, n // 2, n):
                if m < 3:
                    continue
                assert abs(pickands_weights(n, m).zero_sum_residual()) <= 1e-10

    def test_zero_sum_large_n_no_overflow(self):
        w = pickands_weights(10_000, 100)
        assert np.all(np.isfinite(w.w))
        assert abs(w.zero_sum_residual()) <= 1e-8
        assert abs(pickands_weights(10_000, 3).zero_sum_residual()) <= 1e-8

    def test_range_guard(self):
        with pytest.raises(BlockSizeOutOfRange):
            pickands_weights(10, 2)
        with pytest.raises(BlockSizeOutOfRange):
            pickands_weights(5, 6)


def _weights_oracle(n, m):
    """The weight formula as one m at a time evaluated it, kept verbatim."""
    js = np.arange(2, n - m + 4)
    log_ratio = np.empty(js.size)
    log_ratio[0] = (
        math.log(m)
        + math.log(m - 1)
        + math.log(m - 2)
        - math.log(n)
        - math.log(n - 1)
        - math.log(n - m + 1)
    )
    if js.size > 1:
        j_tail = js[1:]
        steps = np.log(n - j_tail - m + 4.0) - np.log(n - j_tail + 1.0)
        log_ratio[1:] = log_ratio[0] + np.cumsum(steps)
    factor = 2.0 * (n - js + 1) / (m - 2) - js
    return np.exp(log_ratio) * factor


class TestWeightRows:
    @pytest.mark.parametrize(
        "n,ms", [(5, range(3, 6)), (50, range(3, 51)), (2000, range(3, 2001)), (10_000, range(3, 201))]
    )
    def test_rows_equal_the_one_m_formula(self, n, ms):
        ms = list(ms)
        for block in (1, 7, 64):
            for b in range(0, len(ms), block):
                rows = _weight_rows(_ln_desc(n), ms[b : b + block])[0]
                assert rows.shape == (len(ms[b : b + block]), n - ms[b] + 2)
                for row, m in zip(rows, ms[b : b + block]):
                    want = _weights_oracle(n, m)
                    assert np.array_equal(row[: want.size], want)
                    assert not row[want.size :].any()


def _weight_rows_oracle(n: int, ms) -> np.ndarray:
    """The numpy weight rows the C passes replaced, kept verbatim."""
    steps = n - min(ms) + 1  # recursion steps of the longest row
    # ln_desc[u] = ln(n - u) for u < n, zero beyond; row m steps by
    # ln(n-m+1-t) - ln(n-2-t) = ln_desc[m-1+t] - ln_desc[2+t], t = 0..n-m
    ln_desc = np.zeros(max(ms) - 1 + steps)
    ln_desc[:n] = np.log(np.arange(n, 0, -1.0))
    w = np.empty((len(ms), steps + 1))
    for i, m in enumerate(ms):
        w[i, 0] = (
            math.log(m) + math.log(m - 1) + math.log(m - 2)
            - math.log(n) - math.log(n - 1) - math.log(n - m + 1)
        )
        np.subtract(ln_desc[m - 1 : m - 1 + steps], ln_desc[2 : 2 + steps], out=w[i, 1:])
    np.cumsum(w[:, 1:], axis=1, out=w[:, 1:])
    w[:, 1:] += w[:, :1]
    np.exp(w, out=w)
    js = np.arange(2.0, steps + 3)  # float: the integers j, exactly
    numer = 2.0 * (n - js + 1)  # block factor numer / (m - 2) - j
    for i, m in enumerate(ms):
        w[i] *= numer / (m - 2) - js
        w[i, n - m + 2 :] = 0.0
    return w


class TestWeightRowsOracle:
    """The C weight passes give the numpy rows' bits, with and without the
    spacing sums multiplied in, in blocks of every size the grid can take."""

    @pytest.mark.parametrize("n,top", [(10, 10), (2000, 400), (10_000, 200)])
    def test_blocks_of_every_size(self, n, top):
        ms = list(range(3, top + 1))
        s = np.random.default_rng(n).standard_normal(n - 1) * 50.0
        for size in range(1, 7):
            for b in range(0, len(ms), size):
                block = ms[b : b + size]
                want = _weight_rows_oracle(n, block)
                assert np.array_equal(_weight_rows(_ln_desc(n), block)[0], want)
                got = _weight_rows(_ln_desc(n), block, s)[0]
                assert np.array_equal(got, want * s[: want.shape[1]])

    def test_unsorted_and_repeated_block_sizes(self):
        for block in ([9, 3, 5], [4, 4], [10, 3, 7, 3, 8, 6, 5, 9, 4]):
            got = _weight_rows(_ln_desc(10), block)[0]
            assert np.array_equal(got, _weight_rows_oracle(10, block))


class TestOverlapPmf:
    def test_n4_m2_exact(self):
        pmf = overlap_pmf(4, 2)
        np.testing.assert_allclose(pmf.p, [1 / 6, 4 / 6, 1 / 6], rtol=1e-13)

    def test_normalized_and_mean(self):
        pmf = overlap_pmf(100, 10)
        assert float(pmf.p.sum()) == pytest.approx(1.0, abs=1e-12)
        assert pmf.mean() == pytest.approx(100 / 100, rel=1e-10)  # m^2/n = 1

    def test_point_mass_when_m_equals_n(self):
        pmf = overlap_pmf(7, 7)
        assert pmf.p[-1] == pytest.approx(1.0, abs=1e-12)
        assert float(pmf.p[:-1].sum()) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n,m", [(10, 4), (500, 100), (2000, 3)])
    def test_mean_identity(self, n, m):
        pmf = overlap_pmf(n, m)
        assert float(pmf.p.sum()) == pytest.approx(1.0, abs=1e-12)
        assert pmf.mean() == pytest.approx(m * m / n, rel=1e-10)


@pytest.mark.parametrize("n,m", [(10, 4), (100, 10), (500, 100), (2000, 100), (2000, 3)])
def test_overlap_pmf_is_the_rounded_integer_ratio(n, m):
    # Fraction -> float rounds once, as int / int does
    total = math.comb(n, m)
    want = [float(Fraction(math.comb(m, l) * math.comb(n - m, m - l), total)) for l in range(m + 1)]
    assert overlap_pmf(n, m).p.tolist() == want


class TestBruteForce:
    def test_four_point_sample(self):
        s = sort_sample([4, 3, 1, 0])
        assert brute_force_ustat(s, 3, PICKANDS_KERNEL) == pytest.approx(
            FOUR_POINT_VALUE, rel=1e-13
        )

    def test_single_block_when_m_equals_n(self):
        s = sort_sample([4, 3, 1, 0])
        assert brute_force_ustat(s, 4, PICKANDS_KERNEL) == pytest.approx(
            math.log(1 / 6), rel=1e-13
        )

    def test_constant_kernel(self):
        s = sort_sample([9, 7, 4, 2, 1])
        assert brute_force_ustat(s, 4, CONSTANT_KERNEL) == pytest.approx(2.5)

    def test_size_guard(self):
        s = sort_sample(np.arange(25.0))
        with pytest.raises(InstanceTooLarge):
            brute_force_ustat(s, 5, PICKANDS_KERNEL)


class TestTopQWeighted:
    def test_four_point_sample(self):
        s = sort_sample([4, 3, 1, 0])
        assert topq_weighted_ustat(s, 3, PICKANDS_KERNEL) == pytest.approx(
            FOUR_POINT_VALUE, rel=1e-12
        )

    def test_weight_sum_is_one(self):
        # with a constant kernel the tuple weights must integrate to 1
        one = TopQKernel(q=3, eval=lambda y: 1.0)
        for n, m in ((6, 3), (10, 5), (12, 7)):
            s = sort_sample(np.linspace(n, 1, n))
            assert topq_weighted_ustat(s, m, one) == pytest.approx(1.0, abs=1e-12)

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(6, 13))
            m = int(rng.integers(3, 7))
            s = sort_sample(rng.random(n) * 10)
            brute = brute_force_ustat(s, m, PICKANDS_KERNEL)
            fast = topq_weighted_ustat(s, m, PICKANDS_KERNEL)
            assert fast == pytest.approx(brute, rel=1e-10, abs=1e-10)

    def test_size_guard(self):
        # the guard raises before any rank tuple is enumerated
        s = sort_sample(np.linspace(100, 1, 2001))
        with pytest.raises(InstanceTooLarge):
            topq_weighted_ustat(s, 5, PICKANDS_KERNEL)


class TestPickandsUstat:
    def test_four_point_sample(self):
        s = sort_sample([4, 3, 1, 0])
        assert pickands_ustat(s, 3) == pytest.approx(FOUR_POINT_VALUE, rel=1e-13)

    @pytest.mark.parametrize("m", [5, 6, 7, 9, 10])
    def test_block_size_above_n_is_out_of_range(self, m):
        # the range check runs before the tie scan, which has no spacings here
        with pytest.raises(BlockSizeOutOfRange):
            pickands_ustat(sort_sample([4, 3, 1, 0]), m)

    def test_m_equals_n_is_top3_kernel(self):
        s = sort_sample([9.0, 5.5, 2.0, 1.0, 0.5])
        assert pickands_ustat(s, 5) == pytest.approx(
            pickands_kernel(9.0, 5.5, 2.0), rel=1e-12
        )

    @given(
        values=st.lists(
            st.floats(0.01, 100.0), min_size=6, max_size=12, unique=True
        ),
        m=st.integers(3, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, values, m):
        s = sort_sample(values)
        brute = brute_force_ustat(s, min(m, s.n), PICKANDS_KERNEL)
        fast = pickands_ustat(s, min(m, s.n))
        assert fast == pytest.approx(brute, rel=1e-10, abs=1e-10)

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(9)
        base = sort_sample(rng.random(200) * 5)
        ref = pickands_ustat(base, 10)
        for a in (0.01, 100.0):
            for b in (-50.0, 50.0):
                moved = sort_sample(a * base.values + b)
                assert pickands_ustat(moved, 10) == pytest.approx(
                    ref, rel=1e-9, abs=1e-9
                )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        raw = rng.random(50)
        ref = pickands_ustat(sort_sample(raw), 7)
        shuffled = raw.copy()
        rng.shuffle(shuffled)
        assert pickands_ustat(sort_sample(shuffled), 7) == ref

    def test_tie_raises(self):
        with pytest.raises(DegenerateSpacing):
            pickands_ustat(sort_sample([5, 5, 3, 1]), 3)

    def test_overflowing_spacing_is_not_called_a_tie(self):
        s = sort_sample([1.7e308, -1.7e308, -1.75e308, -1.79e308])
        msg = "overflowing spacing between order statistics 1 and 2"
        with pytest.raises(DegenerateSpacing, match=msg):
            pickands_ustat(s, 3)

    def test_overflowing_spacing_raises_without_a_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sort_sample([1.7e308, -1.7e308, -1.75e308, -1.79e308])
            with pytest.raises(DegenerateSpacing, match="overflowing spacing"):
                pickands_ustat(s, 3)

    def test_overflowing_largest_spacing_ends_the_prefix(self):
        # every adjacent spacing is finite, but X_(1) - X_(5) overflows
        s = sort_sample([1e308, 5e307, 0.0, -5e307, -1e308])
        msg = "overflowing spacing between order statistics 1 and 5"
        with pytest.raises(DegenerateSpacing, match=msg):
            pickands_ustat(s, 3)
        assert np.isnan(pickands_ustat_batch(s.values[None], 3)[0])
        grid = pickands_ustat_grid(s, [3, 4, 5])
        assert math.isnan(grid[3])
        assert grid[4] == pickands_ustat(s, 4)
        assert grid[5] == pickands_ustat(s, 5)

    def test_tie_outside_touched_range_is_fine(self):
        # with m = n only j in {2, 3} is touched; a tie below stays invisible
        s = sort_sample([9.0, 5.0, 2.0, 1.0, 1.0])
        assert math.isfinite(pickands_ustat(s, 5))

    def test_grid_shares_inner_sums(self):
        rng = np.random.default_rng(11)
        s = sort_sample(rng.random(300))
        grid = pickands_ustat_grid(s, [3, 10, 50, 300])
        for m, got in grid.items():
            assert got == pickands_ustat(s, m)

    def test_grid_records_per_m_failures(self):
        # tie at the 4th/5th largest: small m touches it, m = n does not
        s = sort_sample([9.0, 5.0, 2.0, 1.0, 1.0, 0.5])
        grid = pickands_ustat_grid(s, [3, 6])
        assert math.isnan(grid[3])
        assert math.isfinite(grid[6])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(12)
        mat = np.sort(rng.random((5, 150)), axis=1)[:, ::-1]
        batch = pickands_ustat_batch(mat, 12)
        for row, got in zip(mat, batch):
            assert got == pickands_ustat(sort_sample(row), 12)

    def test_batch_marks_degenerate_rows(self):
        rng = np.random.default_rng(13)
        mat = np.sort(rng.random((4, 50)), axis=1)[:, ::-1]
        mat[1, 0] = mat[1, 1]
        mat[3, 0] = np.inf  # an infinite spacing counts as a tie
        batch = pickands_ustat_batch(mat, 5)
        assert math.isfinite(batch[0]) and math.isfinite(batch[2])
        assert math.isnan(batch[1]) and math.isnan(batch[3])


def _full_sums(mat, m):
    """math.fsum(w * s) over every term, each row summed on its own."""
    n = mat.shape[1]
    w = pickands_weights(n, m).w
    s = _spacing_sums(mat, n - m + 3)
    return [math.fsum(w * row) for row in s]


class TestWeightCutoff:
    FAMILIES = [dist.gp(g) for g in (-0.5, 0.0, 0.5, 2.0)] + [
        dist.student_t(1.0),
        dist.burr(1.0, 2.0),
    ]

    @pytest.mark.parametrize("m", [20, 40, 100, 200])
    @pytest.mark.parametrize("family", range(len(FAMILIES)))
    def test_cut_sum_equals_full_sum(self, family, m):
        x = dist.sample(self.FAMILIES[family], 1000, dist.RngStream(21, family)).values
        mat = np.stack([x, x + 1e6, x * 1e150, x * 1e-150])
        full = _full_sums(mat, m)
        assert all(math.isfinite(u) for u in full)
        assert list(pickands_ustat_batch(mat, m)) == full
        assert [pickands_ustat(sort_sample(row), m) for row in mat] == full

    def test_fallback_gives_full_sum(self, monkeypatch):
        x = dist.sample(dist.gp(0.5), 600, dist.RngStream(22, 0)).values
        mat = np.stack([x, x + 1e6, x * 1e150])
        passed = []
        rounds_to = ustat._rounds_to

        def spy(r, parts, remainder, tail):
            verdict = rounds_to(r, parts, remainder, tail)
            if tail > 0.0:  # a cut row; its full-length redo has tail 0
                passed.append(verdict)
            return verdict

        monkeypatch.setattr(ustat, "_CUT_TARGET", 1.0)
        monkeypatch.setattr(ustat, "_rounds_to", spy)
        assert list(pickands_ustat_batch(mat, 40)) == _full_sums(mat, 40)
        assert passed == [False] * 3

    def test_batch_blocks_with_ties_inf_and_fallback_rows(self, monkeypatch):
        # 90 rows of n = 2000 at m = 20 keep K ~ 1900 terms: blocks of about
        # 34 rows, the last one short; rows 5 and 40 hold a tie, row 70 an inf
        rng = np.random.default_rng(29)
        mat = np.sort(rng.standard_cauchy((90, 2000)), axis=1)[:, ::-1].copy()
        mat[10::3] *= 1e150
        mat[11::3] += 1e6
        mat[5, 7] = mat[5, 6]
        mat[40, 1500] = mat[40, 1501]
        mat[70, 0] = np.inf
        want = []
        for row in mat:
            try:
                want.append(pickands_ustat(sort_sample(row), 20))
            except (DegenerateSpacing, NonFiniteInput):
                want.append(math.nan)
        # every fourth cut row is refused its certificate and summed again in full
        cut, blocks, tails = [], [], []
        rounds_to, exact_sums = ustat._rounds_to, ustat._exact_sums

        def refuse_some(r, parts, remainder, tail):
            if tail > 0.0:
                cut.append(r)
                if len(cut) % 4 == 0:
                    return False
            return rounds_to(r, parts, remainder, tail)

        def count_blocks(P, tail):
            blocks.append(P.shape[0])
            tails.append(np.broadcast_to(tail, P.shape[0]).copy())
            return exact_sums(P, tail)

        monkeypatch.setattr(ustat, "_rounds_to", refuse_some)
        monkeypatch.setattr(ustat, "_exact_sums", count_blocks)
        got = pickands_ustat_batch(mat, 20)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got).sum() == 3 and len(cut) == 87
        # three blocks of cut rows, then one full-length block of the refused ones
        assert len(blocks) == 4 and blocks[-1] == 87 // 4 and sum(blocks[:-1]) == 87
        # each cut row's tail is its own largest |ln spacing| times one constant
        prefix, small, large = _spacing_scan(mat, 1983)
        largest = np.abs(np.log([small, large])).max(axis=0)[prefix == 1983]
        ratio = np.concatenate(tails[:3]) / largest
        assert ratio[0] > 0.0 and np.allclose(ratio, ratio[0], rtol=1e-12, atol=0.0)

    def test_row_blocks_match_single_rows(self):
        # 200 rows in one call give the same bits as each row on its own
        rng = np.random.default_rng(23)
        mat = np.sort(rng.standard_cauchy((200, 700)), axis=1)[:, ::-1]
        block = _spacing_sums(mat, 700)
        for row, got in zip(mat, block):
            assert np.array_equal(_spacing_sums(row[None], 700)[0], got)


def _full_grid(values, ms):
    """math.fsum(w * s) over every term of each block size, from one sweep."""
    n = values.size
    s = _spacing_sums(values[None], n - min(ms) + 3)[0]
    return [math.fsum(pickands_weights(n, m).w * s[: n - m + 2]) for m in ms]


def _exact_tail(n, m):
    """sum_{t >= k} |w_t| (t + 1) for every k, the batch's tail over the full
    weight row (without its factor 2), with 0 appended for k = n - m + 2."""
    w = pickands_weights(n, m).w
    return np.append(np.cumsum((np.abs(w) * np.arange(1, w.size + 1))[::-1])[::-1], 0.0)


class TestGridCutoff:
    """The grid's per-row cut-off (module docstring) keeps the bits of the
    full-length sums."""

    MS = [*range(3, 40), 50, 73, 100, 150, 200, 400, 999, 1000]

    @pytest.mark.parametrize("family", range(len(TestWeightCutoff.FAMILIES)))
    def test_cut_sum_equals_full_sum(self, family):
        spec = TestWeightCutoff.FAMILIES[family]
        x = dist.sample(spec, 1000, dist.RngStream(21, family)).values
        for v in (x, x + 1e6, x * 1e150, x * 1e-150):
            grid = pickands_ustat_grid(sort_sample(v), self.MS)
            full = _full_grid(v, self.MS)
            assert all(math.isfinite(u) for u in full)
            assert [grid[m] for m in self.MS] == full

    def test_tie_leaves_the_block_sizes_below_it(self):
        # a tie between order statistics 700 and 701: m < 303 touches it
        x = dist.sample(dist.student_t(4.0), 1000, dist.RngStream(21, 7)).values.copy()
        x[700] = x[699]
        grid = pickands_ustat_grid(sort_sample(x), self.MS)
        ok = [m for m in self.MS if m >= 303]
        assert all(math.isnan(grid[m]) for m in self.MS if m < 303)
        assert [grid[m] for m in ok] == _full_grid(x, ok)

    def test_fallback_gives_full_sum(self, monkeypatch):
        x = dist.sample(dist.gp(0.5), 600, dist.RngStream(22, 0)).values
        ms = [3, 4, 20, 40, 200, 600]
        passed = []
        rounds_to = ustat._rounds_to

        def spy(r, parts, remainder, tail):
            verdict = rounds_to(r, parts, remainder, tail)
            if tail > 0.0:  # a cut row; its full-length redo has tail 0
                passed.append(verdict)
            return verdict

        monkeypatch.setattr(ustat, "_CUT_TARGET", 1.0)
        monkeypatch.setattr(ustat, "_rounds_to", spy)
        for v in (x, x + 1e6, x * 1e150):
            grid = pickands_ustat_grid(sort_sample(v), ms)
            assert [grid[m] for m in ms] == _full_grid(v, ms)
        # m = 3 is never cut, m = n = 600 keeps its two terms
        assert passed == [False] * 12


class TestDeferredRows:
    """A cut row that the certificate refuses is summed once, over all its
    terms: ``_exact_sums`` hands it back unsummed and the caller's
    full-length pass sums it."""

    MS = (4, 20, 40, 200)

    @pytest.mark.parametrize("refuse_all", [False, True])
    def test_cut_rows_are_summed_only_at_full_length(self, refuse_all, monkeypatch):
        n = 600
        x = dist.sample(dist.gp(0.5), n, dist.RngStream(22, 0)).values
        mat = np.stack([x, x * 1e150, x + 1e6])
        want = {m: _full_sums(mat, m) for m in self.MS}
        lengths = []
        fsum, rounds_to = math.fsum, ustat._rounds_to

        def recording(terms):
            terms = list(terms)
            if len(terms) > 4:  # not one of the certificate's short sums
                lengths.append(len(terms))
            return fsum(terms)

        cut = []

        def refusing(r, parts, remainder, tail):
            cut.append(tail > 0.0)
            return False if refuse_all else rounds_to(r, parts, remainder, tail)

        monkeypatch.setattr(ustat, "_CUT_TARGET", 1.0)  # every cut row is refused
        monkeypatch.setattr(ustat, "_rounds_to", refusing)
        monkeypatch.setattr(math, "fsum", recording)
        for m in self.MS:
            lengths.clear()
            cut.clear()
            grid = [pickands_ustat_grid(sort_sample(row), [m])[m] for row in mat]
            batch = pickands_ustat_batch(mat, m).tolist()
            assert grid == batch == want[m]
            assert sum(cut) == 6  # three rows, cut in the grid and in the batch
            # with every certificate refused, each row's full-length pass is summed
            assert lengths == [n - m + 2] * (6 if refuse_all else 0)


class TestGridTailBound:
    """``weight_logs`` stops each row where the geometric bound on its tail
    falls below the row's cut, and that bound holds."""

    @pytest.mark.parametrize("n", [2000, 10_000])
    def test_bound_is_at_least_the_exact_tail(self, n):
        ms = list(range(3, 201))
        ln_desc = _ln_desc(n)
        const = _tail_constants(n, ms)
        tails = [_exact_tail(n, m) for m in ms]
        full = _weight_rows(ln_desc, ms)[0]
        for level in (-200.0, -100.0, -53.0, -46.0, -20.0, -5.0):
            w, keep, logb = _weight_rows(ln_desc, ms, None, level - const)
            for i, m in enumerate(ms):
                k = int(keep[i])
                assert np.array_equal(w[i, :k], full[i, :k]) and not w[i, k:].any()
                if m == 3 or k == n - m + 2:
                    assert logb[i] == -np.inf
                    continue
                bound = math.exp(logb[i] + const[i])
                assert logb[i] < level - const[i]
                assert tails[i][k] <= bound
                assert math.isfinite(bound) and bound <= math.exp(level)

    def test_trajectory_keeps_about_half_the_terms(self, monkeypatch):
        n, ms = 10_000, range(3, 201)
        kept = []
        block = ustat._weight_rows

        def count(ln_desc, block_ms, s=None, cut=None):
            out = block(ln_desc, block_ms, s, cut)
            kept.append(int(out[1].sum()))
            return out

        monkeypatch.setattr(ustat, "_weight_rows", count)
        x = dist.sample(dist.student_t(4.0), n, dist.RngStream(11, 2))
        grid = pickands_ustat_grid(x, ms)
        assert sum(kept) <= 0.55 * sum(n - m + 2 for m in ms)  # 52.7 % at n = 10^4
        assert [grid[m] for m in ms] == _full_grid(x.values, list(ms))

    @pytest.mark.parametrize("family", range(4))
    def test_trajectory_families_match_the_single_path(self, family):
        spec = [dist.gp(0.5), dist.student_t(4.0), dist.burr(1.0, 2.0), dist.gp(-0.3)][family]
        x = dist.sample(spec, 10_000, dist.RngStream(12, family + 1))
        grid = pickands_ustat_grid(x, range(3, 201))
        assert [grid[m] for m in range(3, 201)] == _full_grid(x.values, list(range(3, 201)))
        for m in (3, 4, 20, 100, 200):
            assert grid[m] == pickands_ustat(x, m)

    def test_short_rows_write_nothing_past_cols(self):
        # rows of n - m + 2 = 98 entries laid out 40 apart: each stops at
        # cols, nothing past it is written, and its bound is +inf
        n, ms, cols = 100, [4, 6], 40
        ln_desc = _ln_desc(n)
        head = np.array([-1.0, -2.0])
        mv = np.array(ms, dtype=np.int64)
        cut = np.full(2, -np.inf)
        buf = np.full(len(ms) * cols + 1, 7.5)  # the last entry is a guard
        keep, logb = np.empty(2, dtype=np.int64), np.empty(2)
        width = ustat._spacing_kernel().weight_logs(
            ln_desc.ctypes.data, n, mv.ctypes.data, 2, head.ctypes.data, cut.ctypes.data, cols,
            buf.ctypes.data, keep.ctypes.data, logb.ctypes.data,
        )
        assert width == cols and keep.tolist() == [cols, cols] and logb.tolist() == [np.inf] * 2
        assert buf[-1] == 7.5
        rows = buf[:-1].reshape(2, cols)
        for row, m, h in zip(rows, ms, head):
            steps = ln_desc[m - 2 + 1 : m - 2 + cols] - ln_desc[2 : 1 + cols]
            assert np.array_equal(row, np.concatenate([[h], np.cumsum(steps) + h]))


def _terms(lo, hi):
    """Doubles +-f 2^e, f in [0.5, 1), e in [lo, hi]."""
    return st.builds(
        lambda f, e, neg: math.ldexp(-f if neg else f, e),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(lo, hi),
        st.booleans(),
    )


_SUBNORMAL = st.builds(
    lambda k, neg: math.ldexp(-k if neg else k, -1074), st.integers(1, 2**52 - 1), st.booleans()
)
# exponents over +-300, near 2^1000 and 2^-1000 (outside the extraction
# range: the fallback), subnormals, and all of them in one row
_REGIMES = [_terms(-300, 300), _terms(990, 1005), _terms(-1005, -990), _SUBNORMAL]
_REGIMES.append(st.one_of(_REGIMES))


@st.composite
def _summands(draw):
    """A row: free terms or a sum exactly halfway between two doubles, plus
    cancelling pairs (x, -x) and zeros, shuffled."""
    term = draw(st.sampled_from(_REGIMES))
    pairs = draw(st.lists(term, max_size=4))
    if draw(st.booleans()):
        x = draw(term)
        h = math.copysign(math.ulp(x) / 2, draw(st.sampled_from([1.0, -1.0])))
        core = [x, h] if draw(st.booleans()) else [x, h / 2, h / 2]
    else:
        core = draw(st.lists(term, min_size=1, max_size=20))
    row = core + pairs + [-v for v in pairs] + [0.0] * draw(st.integers(0, 3))
    return draw(st.permutations(row))


def _matrix(rows):
    mat = np.zeros((len(rows), max(map(len, rows))))
    for r, row in enumerate(rows):
        mat[r, : len(row)] = row
    return mat


# 1 + 2^-53 + 2^-105 rounds up, but the cancelling pairs use two extraction
# levels and the third stops at 1, so only the remainder bound sees 2^-53
_REMAINDER_DECIDES = [2.0**200, -(2.0**200), 2.0**100, -(2.0**100), 1.0, 2.0**-53 + 2.0**-105]


class TestExactSums:
    @given(rows=st.lists(_summands(), min_size=1, max_size=6))
    @example(rows=[_REMAINDER_DECIDES, [1.0, 2.0**-53], [0.0, 0.0]])
    @settings(max_examples=400, deadline=None)
    def test_rows_equal_fsum_bit_for_bit(self, rows):
        mat = _matrix(rows)
        got, _ = _exact_sums(mat, 0.0)
        want = np.array([math.fsum(row) for row in rows])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(rows=st.lists(_summands(), min_size=1, max_size=6), shift=st.integers(40, 60))
    @settings(max_examples=200, deadline=None)
    def test_proven_rows_hold_across_the_tail(self, rows, shift):
        # rounding is monotone, so a value proven for sum +- tail holds between
        mat = _matrix(rows)
        tail = np.array([math.ldexp(abs(math.fsum(row)), -shift) for row in rows])
        got, proven = _exact_sums(mat, tail)
        for row, r, ok, t in zip(rows, got.tolist(), proven, tail.tolist()):
            if ok:
                assert math.fsum(row + [t]) == r == math.fsum(row + [-t])
            elif t > 0.0:  # a cut row: the caller sums it again at full length
                assert math.isnan(r)
            else:
                assert r == math.fsum(row)

    def test_halfway_and_remainder_rows_take_the_fallback(self):
        mat = _matrix([_REMAINDER_DECIDES, [1.0, 2.0**-53], [3.0, -(2.0**-52)], [0.0]])
        got, proven = _exact_sums(mat, 0.0)
        assert got.tolist() == [1.0 + 2.0**-52, 1.0, 3.0, 0.0]  # halves round to even
        assert proven.tolist() == [False, False, False, False]

    def test_row_blocks_do_not_change_the_sums(self):
        rng = np.random.default_rng(25)
        mat = rng.standard_normal((40, 5000)) * np.exp(rng.uniform(-30, 30, (40, 5000)))
        got, proven = _exact_sums(mat, 0.0)
        assert proven.all()
        assert got.tolist() == [math.fsum(row) for row in mat.tolist()]


def _extract_oracle(P: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numpy extraction of :func:`_exact_sums` that the C pass replaced,
    kept verbatim: level sums, whether each row fits, and the remainder bound."""
    nrow, J = P.shape
    c = (J + 1).bit_length()  # 2^c >= J + 2
    step = max(1, _BLOCK_BUDGET // J)
    parts = []
    for r0 in range(0, nrow, step):
        block = P[r0 : r0 + step]
        p = block.copy()
        q = np.abs(p)
        top = q.max(axis=1)
        fits = (top >= _SUM_MIN) & (top <= _SUM_MAX)  # False for inf and NaN
        if not fits.all():
            p[~fits] = 0.0
            top[~fits] = 0.0
        levels = np.empty((p.shape[0], _LEVELS))
        for k in range(_LEVELS):
            # sigma = 2^c 2^e >= (J + 2) max|p|: every q is a multiple of
            # 2^-53 sigma with J |q| < sigma, so each row of q sums exactly
            sigma = np.ldexp(1.0, np.frexp(top)[1] + c)[:, None]
            np.add(p, sigma, out=q)
            q -= sigma
            p -= q
            levels[:, k] = q.sum(axis=1)
            top = np.abs(p, out=q).max(axis=1)
        rem = np.ldexp(top, c)  # 2^c max|p| bounds the sum of what is left
        parts.append((levels, fits, rem))
    return tuple(np.concatenate(a) for a in zip(*parts))


class TestExtractOracle:
    """The C extraction gives the numpy extraction's level sums, fits and
    remainder bounds bit for bit."""

    def _same(self, mat):
        mat = np.asarray(mat, dtype=float)
        with np.errstate(invalid="ignore"):
            want = _extract_oracle(mat)
        for got, ref in zip(_extract(mat), want):
            assert np.array_equal(got, ref)

    @given(rows=st.lists(_summands(), min_size=1, max_size=6))
    @example(rows=[_REMAINDER_DECIDES, [1.0, 2.0**-53], [3.0, -(2.0**-52)]])
    @settings(max_examples=300, deadline=None)
    def test_summand_rows(self, rows):
        self._same(_matrix(rows))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_terms_at_every_position(self, bad):
        mat = np.tile(np.linspace(-3.0, 5.0, 19), (19, 1))
        mat[np.arange(19), np.arange(19)] = bad
        self._same(mat)

    def test_largest_term_outside_the_extraction_range(self):
        edge = [2.0**960, 2.0**961, 2.0**-960, 2.0**-961, 1.7e308, 1e-310, 5e-324]
        self._same([[x, -x / 3, x / 7] for x in edge] + [[x] + [2.0**-1000] * 2 for x in edge])

    def test_zero_rows_and_single_terms(self):
        self._same(np.zeros((3, 5)))
        self._same([[-0.0, 0.0, -0.0]])
        self._same([[1.0], [0.0], [-2.5e-300], [math.nan], [3.0**40]])

    def test_halfway_sums(self):
        rows = [[1.0, 2.0**-53], [3.0, -(2.0**-52)], [2.0**60, 2.0**7], [2.0**60, 2.0**7, -(2.0**-40)]]
        self._same(_matrix(rows))

    def test_blocks_longer_than_eight_terms(self):
        rng = np.random.default_rng(26)
        for J in (7, 8, 9, 17, 1983, 9998):
            mat = rng.standard_normal((5, J)) * np.exp(rng.uniform(-40, 40, (5, J)))
            self._same(mat)
            self._same(mat[:, ::-1])

    def test_rows_of_every_length_against_the_lanes(self):
        # the level sums run in 16 accumulators: every remainder of J mod 16,
        # rows shorter than one pass of them, and a long row with a ragged end
        rng = np.random.default_rng(27)
        for J in [*range(1, 41), 10_003]:
            mat = rng.standard_normal((4, J)) * np.exp(rng.uniform(-40, 40, (4, J)))
            mat[1] = np.round(mat[1] * 2.0**20) * 2.0**-20  # sums that cancel to few bits
            mat[2, -1] = -math.fsum(mat[2, :-1])
            self._same(mat)
            self._same(mat[:, ::-1])


class TestTracedCallPaths:
    """The benchmark's traced run times ``log_spacing_sums``,
    ``pickands_weights`` and ``gp_ml_fit`` by wrapping their module-level
    bindings, so their callers must reach them through those names; it wraps
    every public function, so helpers stay private."""

    def _count(self, monkeypatch, name, module=ustat):
        calls = []
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append(result)
            return result

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_grid_and_batch_reach_the_public_layers(self, monkeypatch):
        sums = self._count(monkeypatch, "log_spacing_sums")
        weights = self._count(monkeypatch, "pickands_weights")
        x = dist.sample(dist.gp(0.5), 300, dist.RngStream(26, 0))
        pickands_ustat_grid(x, [3, 10, 50])
        assert len(sums) == 1
        pickands_ustat_batch(np.stack([x.values, x.values * 2.0]), 10)
        assert len(weights) == 1

    @pytest.mark.parametrize("route", ["parametric_bootstrap", "sigma2_kvar_mc"])
    def test_resamples_reach_the_batch_kernel_by_name(self, route, monkeypatch):
        # the tracer's batch spans and ns_per_log come from this binding
        batches = self._count(monkeypatch, "pickands_ustat_batch", asymptotics)
        rng = dist.RngStream(30, 0)
        if route == "parametric_bootstrap":
            x = dist.sample(dist.gp(0.5), 300, dist.RngStream(31, 0))
            asymptotics.parametric_bootstrap(x, 10, 200, 0.9, rng)
        else:
            asymptotics.sigma2_kvar_mc(0.5, 300, 10, 100, rng)
        assert len(batches) == 1

    def test_paired_fits_reach_gp_ml_fit_by_name(self, monkeypatch):
        fits = self._count(monkeypatch, "gp_ml_fit", harness)
        x = dist.sample(dist.gp(0.5), 400, dist.RngStream(27, 0))
        harness._pickands_and_gpml(x, [4, 12, 40])
        assert len(fits) == 3
        # the tracer's fit counter reads these two fields
        for fit in fits:
            assert isinstance(fit.iterations, int) and isinstance(fit.converged, bool)

    def test_coverage_replication_reaches_parametric_bootstrap_by_name(self, monkeypatch):
        boots = self._count(monkeypatch, "parametric_bootstrap", harness)
        config = harness.parse_config(
            "experiment = BootstrapCoverage\nfamily = GP\nparams = 0.5\nn = 300\n"
            "reps = 1\nm_grid = 10,20\nseed = 28\nout = x.csv\n"
        )
        harness._replication(config, dist.gp(0.5), (), 0)
        # the tracer's bootstrap counter reads these two fields
        assert [(b.boot_reps, b.dropped) for b in boots] == [(200, 0), (200, 0)]

    @pytest.mark.parametrize(
        "module,public",
        [
            (estimators, {"excesses_over_threshold", "gp_ml_fit", "paired_k"}),
            (
                ustat,
                {
                    "brute_force_ustat", "log_spacing_sums", "overlap_pmf", "pickands_ustat",
                    "pickands_ustat_batch", "pickands_ustat_grid", "pickands_weights",
                    "topq_weighted_ustat",
                },
            ),
            (
                core,
                {
                    "pickands_g", "pickands_g_prime", "pickands_kernel", "pickands_kernel_vec",
                    "read_sample_file", "sort_sample",
                },
            ),
            (
                dist,
                {
                    "beta", "burr", "burr_from_gamma_rho", "draw", "exponential", "frechet", "gp",
                    "h_gamma", "make_spec", "normal", "pareto1", "quantile", "sample", "student_t",
                },
            ),
            (
                asymptotics,
                {
                    "bias_bk_mc", "digamma_moments", "erlang_neg_rho_moment", "h_gamma_rho",
                    "parametric_bootstrap", "sigma2_integral_mc", "sigma2_kvar_mc",
                },
            ),
            (
                harness,
                {
                    "load_config", "parse_config", "parse_m_grid", "parse_params", "run_bias_burr",
                    "run_experiment", "run_mse_sweep", "run_to_csv", "run_trajectory",
                    "run_variance_table", "write_csv",
                },
            ),
        ],
    )
    def test_helpers_stay_private(self, module, public):
        names = {
            name
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
        }
        assert names == public


class TestLogSpacingSums:
    def test_matches_direct_loop(self):
        rng = np.random.default_rng(16)
        v = np.sort(rng.random(40))[::-1]
        s = log_spacing_sums(v, 40)
        for j in range(2, 41):
            direct = sum(math.log(v[i - 1] - v[j - 1]) for i in range(1, j))
            assert s[j - 2] == pytest.approx(direct, rel=1e-12)

    def test_tie_raises_without_a_numpy_warning(self):
        v = np.array([9.0, 7.0, 4.0, 4.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSpacing, match="order statistics 3 and 4"):
                log_spacing_sums(v, 5)
        assert np.array_equal(log_spacing_sums(v, 3), _spacing_sums(v[None], 3)[0])

    def test_one_scan_per_grid(self, monkeypatch):
        # the kernel's own scan finds ties, so the grid's scan is the only one
        scans = []
        scan = ustat._spacing_scan
        monkeypatch.setattr(ustat, "_spacing_scan", lambda *a: scans.append(a) or scan(*a))
        x = dist.sample(dist.gp(0.5), 300, dist.RngStream(26, 1))
        grid = pickands_ustat_grid(x, [3, 10, 50])
        assert len(scans) == 1 and all(math.isfinite(g) for g in grid.values())


def _decreasing_prefix(v: np.ndarray, j_hi: int) -> np.ndarray:
    """Per row of ``v``, how many leading entries (at most j_hi) strictly decrease.

    A zero, NaN or infinite spacing ends the prefix: its log is not finite.
    Entry j's largest spacing is v[0] - v[j], which can overflow while every
    adjacent spacing is finite (1e308, 0, -1e308), so it is checked as well.
    """
    head = v[:, :j_hi]
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN: a tie
        d = np.diff(head, axis=1)
        top = head[:, :1] - head[:, 1:]
    bad = ~((d < 0.0) & (d > -np.inf) & (top < np.inf))
    return np.where(bad.any(axis=1), bad.argmax(axis=1) + 1, j_hi)


def _spacing_ends(v: np.ndarray, j_hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the smallest and largest spacing v[i] - v[j], 0 <= i < j < j_hi.

    They are the smallest adjacent spacing and v[0] - v[j_hi - 1].  Rows must
    strictly decrease up to j_hi with finite spacings.
    """
    head = v[:, :j_hi]
    return np.min(head[:, :-1] - head[:, 1:], axis=1), head[:, 0] - head[:, -1]


def _renormalise(p: np.ndarray, e: np.ndarray, scratch: np.ndarray) -> None:
    """Move the binary exponents of positive normal ``p`` into ``e``, leaving p in [1, 2).

    Works on the bit pattern (an int64 view): subtracting the unbiased
    exponent from the exponent field changes p by an exact power of two.
    """
    bits = p.view(np.int64)
    x = scratch.view(np.int64)
    np.right_shift(bits, 52, out=x)
    x -= 1023
    e += x
    x <<= 52
    bits -= x


def _spacing_sums_oracle(v: np.ndarray, j_hi: int) -> np.ndarray:
    """The numpy rank-major sweep the C kernel replaced, kept verbatim: one
    renormalisation interval and one frexp split per row block."""
    out = np.empty((v.shape[0], j_hi - 1))
    step = max(1, _BLOCK_BUDGET // j_hi)
    for r0 in range(0, v.shape[0], step):
        head = v[r0 : r0 + step, :j_hi]
        small, large = _spacing_ends(head, j_hi)
        lo, hi = int(np.frexp(small)[1].min()), int(np.frexp(large)[1].max())
        r = _EXPONENT_HEADROOM // max(1, 1 - lo, hi + 1)
        split = r == 0  # then every factor is reduced to its significand first
        r = r or _EXPONENT_HEADROOM
        vt = np.ascontiguousarray(head.T)
        p = np.ones((j_hi - 1, vt.shape[1]))
        e = np.zeros(p.shape, dtype=np.int64)
        buf = np.empty_like(p)
        for i in range(j_hi - 1):
            t = buf[: j_hi - 1 - i]
            np.subtract(vt[i], vt[i + 1 :], out=t)
            if split:
                t, x = np.frexp(t)
                e[i:] += x
            p[i:] *= t
            if (i + 1) % r == 0:
                _renormalise(p[i + 1 :], e[i + 1 :], buf[i + 1 :])
        _renormalise(p, e, buf)
        out[r0 : r0 + step] = (e * _LN2_HI + (e * _LN2_LO + np.log(p))).T
    return out


class TestSpacingKernel:
    FAMILIES = TestWeightCutoff.FAMILIES

    def _rows(self, family):
        x = dist.sample(self.FAMILIES[family], 2000, dist.RngStream(24, family)).values
        return np.stack([x, x * 1e150, x * 1e-150, x + 1e6])

    @pytest.mark.parametrize("family", range(len(FAMILIES)))
    def test_within_rounding_bound_of_fsum(self, family):
        # kernel error (j-2)u + |s_j|u + 2u plus the reference's own
        # sum_i |ln t_ij| u + |s_j|u (np.log within one ulp), u = 2^-53, is
        # below C j 2^-52 max(1, L_j) with L_j = max_i |ln t_ij| and C = 2.5
        c = 2.5
        mat = self._rows(family)
        got = _spacing_sums(mat, 2000)
        for v, s in zip(mat, got):
            for j in range(2, 2001):
                logs = np.log(v[: j - 1] - v[j - 1])
                bound = c * j * 2.0**-52 * max(1.0, float(np.abs(logs).max()))
                assert abs(s[j - 2] - math.fsum(logs.tolist())) <= bound

    @pytest.mark.parametrize("family", range(len(FAMILIES)))
    def test_prefix_equals_full_length(self, family):
        # j_hi moves the block's spacing range and so the renormalisation interval
        mat = self._rows(family)
        full = _spacing_sums(mat, 2000)
        for k in (2, 3, 41, 700, 1999):
            assert np.array_equal(_spacing_sums(mat, k), full[:, : k - 1])

    def test_spacings_spanning_the_double_range(self):
        # subnormal spacings next to ones near 2^1023: no renormalisation
        # interval fits, so the block splits every factor; rows that would fit
        # one get the same bits in that block as on their own
        mat = np.array(
            [
                [1.7e308, 1e300, 1e-310, 5e-324, 0.0],
                [8e307, 1e-300, 1e-310, 0.0, -1e-320],
                [4.0, 3.0, 1.0, 0.0, -1e-9],
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _spacing_sums(mat, 5)
        for v, s in zip(mat, got):
            assert np.array_equal(_spacing_sums(v[None], 5)[0], s)
            for j in range(2, 6):
                logs = [math.log(v[i] - v[j - 1]) for i in range(j - 1)]
                bound = 2.5 * j * 2.0**-52 * max(1.0, max(map(abs, logs)))
                assert abs(s[j - 2] - math.fsum(logs)) <= bound


    def test_row_near_the_overflow_threshold(self):
        # spacings near 2^1023: s_j up to the last j whose spacings are all
        # finite, the same bits for every shorter prefix
        v = np.array([1e308, 5e307, 0.0, -5e307, -1e308])
        with pytest.raises(DegenerateSpacing, match="order statistics 1 and 5"):
            log_spacing_sums(v, 5)
        got = log_spacing_sums(v, 4)
        for j in range(2, 5):
            logs = [math.log(v[i] - v[j - 1]) for i in range(j - 1)]
            bound = 2.5 * j * 2.0**-52 * max(1.0, max(map(abs, logs)))
            assert abs(got[j - 2] - math.fsum(logs)) <= bound
        for k in (2, 3):
            assert np.array_equal(_spacing_sums(v[None], k)[0], got[: k - 1])


class TestKernelOracle:
    """The C kernel gives the numpy sweep's bits on every input the other
    kernel tests use, whatever the layout of the rows."""

    FAMILIES = TestWeightCutoff.FAMILIES

    def _same(self, mat, j_hi):
        got = _spacing_sums(mat, j_hi)
        assert np.array_equal(got, _spacing_sums_oracle(mat, j_hi))

    @pytest.mark.parametrize("family", range(len(FAMILIES)))
    def test_spacing_kernel_inputs(self, family):
        mat = TestSpacingKernel()._rows(family)
        for j_hi in (2, 3, 41, 700, 1999, 2000):
            self._same(mat, j_hi)

    def test_rows_spanning_the_double_range(self):
        mat = np.array(
            [
                [1.7e308, 1e300, 1e-310, 5e-324, 0.0],
                [8e307, 1e-300, 1e-310, 0.0, -1e-320],
                [4.0, 3.0, 1.0, 0.0, -1e-9],
            ]
        )
        for j_hi in range(2, 6):
            self._same(mat, j_hi)
            for row in mat:
                self._same(row[None], j_hi)

    def test_row_near_the_overflow_threshold(self):
        v = np.array([[1e308, 5e307, 0.0, -5e307, -1e308]])
        for j_hi in (2, 3, 4):
            self._same(v, j_hi)

    def test_cauchy_row_blocks(self):
        rng = np.random.default_rng(23)
        mat = np.sort(rng.standard_cauchy((200, 700)), axis=1)[:, ::-1]
        self._same(mat, 700)

    def test_bootstrap_shaped_block(self):
        # parametric_bootstrap at n = 2000, m = 20 sweeps j_hi = 1983
        rng = np.random.default_rng(29)
        mat = np.sort(dist.quantile(dist.gp(0.5), rng.random((200, 2000))), axis=1)[:, ::-1]
        self._same(mat, 1983)

    def test_strided_and_indexed_rows(self):
        rng = np.random.default_rng(30)
        mat = np.sort(rng.standard_cauchy((60, 300)), axis=1)
        rev = mat[:, ::-1]  # negative element stride, as SortedSample.values
        ok = rng.random(60) < 0.5
        redo = np.flatnonzero(~ok)
        for rows in (rev, rev[ok], rev[redo], rev[::3], rev[:, 10:]):
            self._same(rows, 250)
        x = dist.sample(dist.gp(0.5), 300, dist.RngStream(30, 0)).values
        self._same(x[None], 300)

    @pytest.mark.parametrize("j_hi", [1, 6])
    def test_rows_shorter_than_j_hi_are_refused(self, j_hi):
        with pytest.raises(BlockSizeOutOfRange):
            _spacing_sums(np.arange(5.0, 0.0, -1.0)[None], j_hi)

    @pytest.mark.parametrize("j_hi", range(2, 14))
    def test_every_tile_remainder(self, j_hi):
        # j_hi - 1 products: every residue mod 4, with and without a full tile
        rng = np.random.default_rng(31)
        mat = np.sort(rng.standard_cauchy((20, 13)), axis=1)[:, ::-1]
        self._same(mat, j_hi)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 8])
    def test_every_renormalisation_interval(self, r, sign):
        # spacings of about 2^(sign 1000 / r): exponents move every r ranks,
        # or every 4 floor(r / 4) in the tiles
        rng = np.random.default_rng(32 + r)
        mat = np.stack([_row_with_interval(r, sign, 41, rng) for _ in range(3)])
        assert [_interval(row, 41) for row in mat] == [r] * 3
        for j_hi in range(2, 42):
            self._same(mat, j_hi)

    def test_split_rows_of_every_length(self):
        # spacings from about 2^-996 to 2^1000: no interval fits at full length
        row = np.r_[np.arange(7.0, 0.0, -1.0) * 1e300, np.arange(6.0, -1.0, -1.0) * 1e-300]
        assert _interval(row, row.size) == 0
        for j_hi in range(2, row.size + 1):
            self._same(row[None], j_hi)

    def test_tile_edges_in_any_layout(self):
        rng = np.random.default_rng(34)
        rev = np.sort(rng.standard_cauchy((30, 20)), axis=1)[:, ::-1]
        ok = rng.random(30) < 0.5
        for rows in (rev, rev[ok], rev[np.flatnonzero(~ok)], rev[::3], rev[:, 3:]):
            for j_hi in range(2, 18):
                self._same(rows, j_hi)

    def test_block_of_1983_columns(self):
        rng = np.random.default_rng(35)
        u = rng.random((200, 1983))
        mat = np.ascontiguousarray(np.sort(dist.quantile(dist.gp(2.0), u), axis=1)[:, ::-1])
        assert (_decreasing_prefix(mat, 1983) == 1983).all()
        for j_hi in (1983, 1981):
            self._same(mat, j_hi)


def _interval(row: np.ndarray, j_hi: int) -> int:
    """Ranks between two moves of the exponents for ``row[:j_hi]``, 0 where
    every factor is split (the rule of :func:`_spacing_sums_oracle`)."""
    small, large = _spacing_ends(row[None], j_hi)
    lo, hi = int(np.frexp(small)[1][0]), int(np.frexp(large)[1][0])
    return _EXPONENT_HEADROOM // max(1, 1 - lo, hi + 1)


def _row_with_interval(r: int, sign: int, size: int, rng) -> np.ndarray:
    """A decreasing row of ``size`` values whose spacing span is just under
    1000 / r binary orders: its largest spacing (sign 1) or its smallest
    (sign -1) sets :func:`_interval` to r."""
    span = _EXPONENT_HEADROOM // r - 1
    d = rng.uniform(1.0, 2.0, size - 1)
    if sign > 0:  # v[0] - v[-1] = 0.75 2^(span - 1): binary exponent span - 1
        d *= 0.75 * 2.0 ** (span - 1) / d.sum()
    else:  # smallest spacing 0.75 2^(1 - span): binary exponent 1 - span
        d *= 0.75 * 2.0 ** (1 - span) / d.min()
    return np.r_[np.cumsum(d[::-1])[::-1], 0.0]


class TestSpacingScan:
    """The C tie scan gives the numpy oracles' prefix lengths and spacing ends
    element for element; a row whose prefix is one entry has no spacing and
    an infinite smallest one."""

    def _same(self, mat, j_hi):
        k, small, large = _spacing_scan(mat, j_hi)
        assert np.array_equal(k, _decreasing_prefix(mat, j_hi))
        for row, kr, lo, hi in zip(mat, k.tolist(), small.tolist(), large.tolist()):
            if kr == 1:
                assert lo == math.inf
            else:
                ends = _spacing_ends(row[None], kr)
                assert (lo, hi) == (float(ends[0][0]), float(ends[1][0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_at_every_position(self, bad):
        base = np.array([9.0, 7.5, 4.0, 3.0, 1.0, 0.5, -2.0, -6.0])
        mat = np.repeat(base[None], base.size, axis=0)
        mat[np.arange(base.size), np.arange(base.size)] = bad
        for j_hi in range(2, base.size + 1):
            self._same(mat, j_hi)

    def test_signed_zeros(self):
        mat = np.array(
            [
                [1.0, 0.0, -0.0, -1.0],
                [1.0, -0.0, 0.0, -1.0],
                [0.0, -0.0, -1.0, -2.0],
                [-0.0, 0.0, -1.0, -2.0],
                [2.0, 1.0, -0.0, -1.0],
                [2.0, 1.0, 0.0, -0.0],
            ]
        )
        for j_hi in range(2, 5):
            self._same(mat, j_hi)
        assert _spacing_scan(mat, 4)[0].tolist() == [2, 2, 1, 1, 4, 3]

    def test_tie_at_the_last_index_and_two_columns(self):
        mat = np.array([[5.0, 4.0, 3.0, 3.0], [5.0, 5.0, 3.0, 2.0], [5.0, 4.0, 3.0, 2.0]])
        for j_hi in (2, 4):
            self._same(mat, j_hi)
        assert _spacing_scan(mat, 4)[0].tolist() == [3, 1, 4]
        assert _spacing_scan(mat, 2)[0].tolist() == [2, 1, 2]

    @pytest.mark.parametrize(
        "row,k", [([1e308, 0.0, -1e308], 2), ([1e308, 5e307, 0.0, -5e307, -1e308], 4)]
    )
    def test_overflowing_top_spacing(self, row, k):
        mat = np.array([row])
        for j_hi in range(2, len(row) + 1):
            self._same(mat, j_hi)
        assert _spacing_scan(mat, len(row))[0].tolist() == [k]

    def test_random_blocks_in_any_layout(self):
        rng = np.random.default_rng(36)
        mat = np.sort(np.round(rng.standard_cauchy((300, 40)), 1), axis=1)[:, ::-1].copy()
        for value in (math.nan, math.inf, -math.inf, 0.0, -0.0):
            mat[rng.random(mat.shape) < 0.005] = value
        for rows in (mat, mat[:, ::-1], mat[::2], mat[:, 5:], mat[rng.random(300) < 0.5]):
            for j_hi in (2, 3, 17, 35):
                self._same(rows, j_hi)


class TestKernelBuild:
    """The kernel compiles once per cache; a missing compiler is a typed error."""

    ROWS = np.arange(120.0, 0.0, -1.0)[None] ** 1.5

    @pytest.fixture
    def cache(self, monkeypatch, tmp_path):
        monkeypatch.setattr(ustat, "_KERNEL_CACHE", tmp_path / "cache")
        ustat._spacing_kernel.cache_clear()
        yield tmp_path / "cache"
        ustat._spacing_kernel.cache_clear()

    def _count_compiles(self, monkeypatch):
        calls = []
        run = ustat._run

        def counting(cmd):
            if "-E" not in cmd:  # not the query of the compiler's target
                calls.append(cmd)
            return run(cmd)

        monkeypatch.setattr(ustat, "_run", counting)
        return calls

    def test_second_call_compiles_nothing(self, cache, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        first = _spacing_sums(self.ROWS, 120)
        ustat._spacing_kernel.cache_clear()  # as a fresh process finds the cache
        assert np.array_equal(_spacing_sums(self.ROWS, 120), first)
        assert len(calls) == 1
        [lib] = cache.iterdir()  # no temporary file left behind
        assert lib.name.startswith("_spacing-") and lib.name.endswith(
            sysconfig.get_config_var("EXT_SUFFIX")
        )

    def test_unwritable_cache_builds_privately_and_ignores_planted_files(self, cache, monkeypatch):
        blocker = cache.parent / "blocker"
        blocker.write_text("")  # a file, so no directory can be made under it
        monkeypatch.setattr(ustat, "_KERNEL_CACHE", blocker / "cache")
        shared = cache.parent / "shared"
        shared.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(shared))
        _, name = ustat._build_command()
        planted = shared / name
        planted.write_bytes(b"not a shared library")  # loading it would raise
        calls = self._count_compiles(monkeypatch)
        assert np.array_equal(_spacing_sums(self.ROWS, 120), _spacing_sums_oracle(self.ROWS, 120))
        assert len(calls) == 1
        assert list(shared.iterdir()) == [planted]  # the private build is removed

    def test_library_name_follows_the_compiler_target(self, monkeypatch):
        _, name = ustat._build_command()
        run = ustat._run

        def other_cpu(cmd):
            out = run(cmd)
            return out + "#define __other_cpu_feature__ 1\n" if "-E" in cmd else out

        monkeypatch.setattr(ustat, "_run", other_cpu)
        assert ustat._build_command()[1] != name

    def test_unloadable_library_raises(self, cache):
        _, name = ustat._build_command()
        cache.mkdir()
        (cache / name).write_bytes(b"not a shared library")
        with pytest.raises(KernelUnavailable, match=f"cannot load .*{name}"):
            _spacing_sums(self.ROWS, 120)

    def test_two_processes_building_at_once_agree(self, cache):
        src = os.path.dirname(os.path.dirname(os.path.abspath(ustat.__file__)))
        code = (
            "import sys; from pathlib import Path; import numpy as np; from xustat import ustat; "
            "ustat._KERNEL_CACHE = Path(sys.argv[1]); "
            "rows = np.arange(120.0, 0.0, -1.0)[None] ** 1.5; "
            "print(ustat._spacing_sums(rows, 120).tobytes().hex())"
        )
        env = dict(os.environ, PYTHONPATH=src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(cache)], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
        want = _spacing_sums_oracle(self.ROWS, 120).tobytes().hex()
        assert [out.strip() for out, _ in outs] == [want, want]
        assert len(list(cache.iterdir())) == 1

    def test_source_compiles_without_warnings(self, tmp_path):
        try:
            cmd, _ = ustat._build_command()
        except KernelUnavailable as exc:  # no compiler to query
            pytest.skip(str(exc))
        ustat._run([*cmd[:-1], "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "lib.so")])

    def test_missing_compiler_raises(self, cache, monkeypatch):
        monkeypatch.setitem(sysconfig.get_config_vars(), "CC", "/no/such/cc")
        with pytest.raises(KernelUnavailable, match="cannot run /no/such/cc"):
            _spacing_sums(self.ROWS, 120)

    def test_failing_compiler_names_its_command_and_stderr(self, cache, monkeypatch):
        # answers the query of its target, and fails to build
        script = 'import sys; sys.exit(\"no C here\" if \"-o\" in sys.argv else 0)'
        monkeypatch.setitem(sysconfig.get_config_vars(), "CC", f"{sys.executable} -c '{script}'")
        with pytest.raises(KernelUnavailable, match=r"-ffp-contract=off .* -o \S+ exited 1: no C here$"):
            _spacing_sums(self.ROWS, 120)
        assert list(cache.iterdir()) == []  # the temporary output is removed

    def test_estimate_without_a_compiler_exits_2(self, cache, monkeypatch, capsys, tmp_path):
        monkeypatch.setitem(sysconfig.get_config_vars(), "CC", "/no/such/cc")
        sample = tmp_path / "sample.txt"
        sample.write_text("4\n3\n1\n0\n")
        code = cli.main(["estimate", "--input", str(sample), "--m", "3"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: KernelUnavailable: cannot run /no/such/cc")
        assert err.count("\n") == 1


    def test_fit_and_weights_without_a_compiler(self, cache, monkeypatch, capsys):
        monkeypatch.setitem(sysconfig.get_config_vars(), "CC", "/no/such/cc")
        with pytest.raises(KernelUnavailable, match="cannot run /no/such/cc"):
            estimators.gp_ml_fit(np.arange(1.0, 40.0) ** 1.5)
        with pytest.raises(KernelUnavailable, match="cannot run /no/such/cc"):
            pickands_weights(50, 5)
        code = cli.main(["weights", "--n", "50", "--m", "5"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: KernelUnavailable: cannot run /no/such/cc")
        assert err.count("\n") == 1

    def test_one_build_and_one_load_serve_every_path(self, cache, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        loads = []
        load = ustat._load
        monkeypatch.setattr(ustat, "_load", lambda path: loads.append(path) or load(path))
        pickands_weights(120, 7)
        pickands_ustat_grid(sort_sample(self.ROWS[0]), [3, 5, 40])
        pickands_ustat_batch(self.ROWS, 10)
        estimators.gp_ml_fit(self.ROWS[0, :60] - self.ROWS[0, 60])
        assert len(calls) == 1 and len(loads) == 1

class TestSmoothing:
    def test_ustat_variance_not_above_disjoint_blocks(self):
        # conditioning on the order statistics can only reduce variance
        n, m, reps, gamma = 60, 12, 2000, 0.5
        spec = dist.gp(gamma)
        u_vals = np.empty(reps)
        d_vals = np.empty(reps)
        for r in range(reps):
            raw = dist.draw(spec, n, dist.RngStream(424242, r))
            u_vals[r] = pickands_ustat(sort_sample(raw), m)
            blocks = raw.reshape(n // m, m)
            tops = np.sort(blocks, axis=1)[:, ::-1][:, :3]
            d_vals[r] = float(
                np.mean([pickands_kernel(*row) for row in tops])
            )
        assert u_vals.var(ddof=1) <= d_vals.var(ddof=1)
