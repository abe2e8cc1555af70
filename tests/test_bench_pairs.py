"""The no-regression verdict of scripts/bench_pairs.py, on stub summaries."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _side(runs):
    """A summary entry of one metric as ``bench_pairs.summary`` writes it."""
    return bench_pairs.summary([{"result": {"metrics": {"x": {"value": v}}}, "exit": 0} for v in runs],
                               ["x"])["x"]


def _verdict(parent, change, direction="higher", bound=0.1):
    entry = {"parent": {"x": _side(parent)}, "change": {"x": _side(change)}}
    return bench_pairs.bound_verdict(entry, "x", direction, bound)


class TestBoundVerdict:
    def test_within_bound_with_its_margin(self):
        out = _verdict([100, 101, 99, 100, 100], [95, 96, 94, 95, 95])
        assert out["verdict"] == "within bound"
        assert out["worse_by"] == pytest.approx(0.05) and out["margin"] == pytest.approx(0.05)

    def test_worse_beyond_bound(self):
        out = _verdict([100, 101, 99, 100, 100], [85, 86, 84, 85, 85])
        assert out["verdict"] == "worse beyond bound" and out["margin"] == pytest.approx(-0.05)

    @pytest.mark.parametrize("direction,change", [("higher", [70, 75, 80]), ("lower", [130, 125, 120])])
    def test_the_direction_sets_which_way_is_worse(self, direction, change):
        out = _verdict([100, 100, 100], change, direction)
        assert out["verdict"] == "worse beyond bound" and out["worse_by"] == pytest.approx(0.25)

    def test_improvement_has_a_negative_worse_by(self):
        out = _verdict([10.0, 10.1, 9.9], [9.0, 9.1, 8.9], "lower")
        assert out["verdict"] == "within bound" and out["worse_by"] == pytest.approx(-0.1)

    def test_wide_parent_spread_is_unresolved(self):
        # quartiles 75 and 125 against a median of 100: a spread of 0.5 > 0.1
        parent = [70, 80, 100, 120, 130]
        assert _verdict(parent, [99, 100, 101, 102, 103])["verdict"] == "unresolved"
        assert _verdict(parent, [50, 55, 60, 65, 70])["verdict"] == "unresolved"

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        out = _verdict([70, 80, 100, 120, 130], [131, 140, 150, 160, 170])
        assert out["every_change_run_better"] and out["verdict"] == "within bound"
        out = _verdict([70, 80, 100, 120, 130], [60, 65, 69, 50, 40], "lower")
        assert out["every_change_run_better"] and out["verdict"] == "within bound"

    def test_missing_metric_is_unresolved(self):
        entry = {"parent": {"x": _side([1.0, 1.0])}, "change": {}}
        assert bench_pairs.bound_verdict(entry, "x", "higher", 0.1)["verdict"] == "unresolved"


def _run(attempted, rss):
    return {"result": {"attempted": attempted, "metrics": {"peak_rss_mb": {"value": rss}}}, "exit": 0}


class TestRssSlope:
    def test_slope_of_memory_against_operations(self):
        # 100 MiB plus 0.1 MiB per operation, as a workload that keeps its samples
        runs = [_run(ops, 100.0 + 0.1 * ops) for ops in (600, 650, 700, 800)]
        out = bench_pairs.rss_slope(runs)
        assert out["runs"] == 4 and out["correlation"] == pytest.approx(1.0)
        assert out["slope_mib_per_op"] == pytest.approx(0.1) and out["intercept_mib"] == pytest.approx(100.0)

    def test_flat_memory_has_zero_slope_and_no_correlation(self):
        out = bench_pairs.rss_slope([_run(ops, 86.5) for ops in (400, 450, 500)])
        assert out["slope_mib_per_op"] == 0.0 and out["correlation"] is None

    def test_too_few_distinct_counts_give_no_line(self):
        runs = [_run(500, 90.0), _run(500, 91.0), {"result": {}, "exit": 1}]
        out = bench_pairs.rss_slope(runs)
        assert out["runs"] == 2 and out["slope_mib_per_op"] is None
