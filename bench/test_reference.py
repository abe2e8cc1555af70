"""The benchmark's reference evaluator against subset enumeration.

    python3 -m pytest -q bench/test_reference.py
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402


@pytest.mark.parametrize("n", [3, 4, 6, 9, 12])
@pytest.mark.parametrize("law", ["uniform", "pareto", "student_t1"])
def test_reference_matches_enumeration(n, law):
    rng = np.random.default_rng(1000 * n + len(law))
    raw = {
        "uniform": lambda: rng.random(n) * 10.0,
        "pareto": lambda: 1.0 / (1.0 - rng.random(n)),
        "student_t1": lambda: rng.standard_cauchy(n),
    }[law]()
    ref = reference.ReferenceSample(raw)
    for m in range(3, n + 1):
        brute = reference.enumerate_ustat(raw.tolist(), m)
        assert reference.close(ref.ustat(m), brute), (m, ref.ustat(m), brute)


def test_enumeration_is_location_scale_invariant():
    raw = np.random.default_rng(7).random(9)
    for m in (3, 5, 9):
        a = reference.enumerate_ustat(raw.tolist(), m)
        b = reference.enumerate_ustat((3.0 * raw + 7.0).tolist(), m)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_weights_are_exact_binomial_ratios():
    n, m = 12, 5
    w = reference.weights(n, m)
    for j, wj in zip(range(2, n - m + 4), w):
        exact = math.comb(n - j, m - 3) / math.comb(n, m) * (2.0 * (n - j + 1) / (m - 2) - j)
        assert abs(wj - exact) <= 1e-13 * (abs(exact) + 1e-300)


def test_self_test_passes():
    assert reference.self_test() == []


def test_gp_loglik_matches_scipy():
    from scipy.stats import genpareto

    x = np.random.default_rng(3).pareto(2.0, 200)
    for gamma, sigma in ((0.5, 1.3), (0.0, 0.7), (-0.2, 40.0)):
        expected = genpareto.logpdf(x, gamma, 0, sigma).sum()
        assert abs(reference.gp_loglik(x, gamma, sigma) - expected) <= 1e-9 * abs(expected)
