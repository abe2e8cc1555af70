import math
import os
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from xustat import dist
from xustat.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    load_config,
    parse_config,
    parse_m_grid,
    run_bias_burr,
    run_experiment,
    run_mse_sweep,
    run_to_csv,
    run_trajectory,
    run_variance_table,
    write_csv,
)

CONFIG_TEXT = """
# comment line
experiment = MseSweep
family = GP
params = 0.5
n = 200         # inline comment
reps = 8
m_grid = 3,10
seed = 42
out = {out}
threads = {threads}
"""


class _Unprintable:
    def __str__(self):
        raise RuntimeError("write interrupted")


def _config(tmp_path, threads=1, **overrides):
    text = CONFIG_TEXT.format(out=tmp_path / "out.csv", threads=threads)
    config = parse_config(text)
    if overrides:
        config = replace(config, **overrides)
    return config


class TestConfigParsing:
    def test_roundtrip(self, tmp_path):
        config = _config(tmp_path)
        assert config.experiment == "MseSweep"
        assert config.params == (0.5,)
        assert config.n == 200 and config.reps == 8
        assert config.m_grid == (3, 10)
        assert config.master_seed == 42

    def test_m_grid_ranges(self):
        assert parse_m_grid("3,10") == (3, 10)
        assert parse_m_grid("3..6") == (3, 4, 5, 6)
        assert parse_m_grid("10..20..5") == (10, 15, 20)
        assert parse_m_grid("3,5..7") == (3, 5, 6, 7)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("experiment = MseSweep\nbogus = 1\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_config("experiment = MseSweep\n")

    def test_bad_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentConfig(
                experiment="Nope", family="GP", params=(0.5,), n=100,
                reps=1, m_grid=(3,), master_seed=1, out="x.csv", threads=1,
            )

    @pytest.mark.parametrize(
        "experiment,family,params,match",
        [
            ("BiasBurr", "GP", (0.5, -1.0), "family = Burr"),
            ("BiasBurr", "Burr", (0.5,), "gamma,rho1"),
            ("VarianceTable", "Burr", (0.5,), "family = GP"),
            ("VarianceTable", "GP", (), "gamma grid"),
        ],
    )
    def test_experiment_specific_checks(self, experiment, family, params, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(
                experiment=experiment, family=family, params=params, n=100,
                reps=1, m_grid=(10,), master_seed=1, out="x.csv", threads=1,
            )

    def test_variance_table_takes_one_block_size(self):
        # it runs one m per gamma; a second m would be dropped without a word
        with pytest.raises(ValueError, match="one block size"):
            ExperimentConfig(
                experiment="VarianceTable", family="GP", params=(0.5,), n=100,
                reps=1, m_grid=(6, 30), master_seed=1, out="x.csv", threads=1,
            )

    def test_repeated_block_size_rejected(self, tmp_path):
        # a repeat would pool every replication twice into one aggregate
        with pytest.raises(ValueError, match="repeats a block size"):
            parse_config(CONFIG_TEXT.format(out=tmp_path / "o.csv", threads=1).replace(
                "m_grid = 3,10", "m_grid = 10,3..10"))

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "o.csv", threads=2))
        config = load_config(str(path))
        assert config.experiment == "MseSweep" and config.threads == 2

    def test_shipped_configs_parse(self):
        root = pathlib.Path(__file__).resolve().parent.parent / "configs"
        paths = sorted(root.glob("*.cfg")) + sorted(root.glob("full_scale/*.cfg"))
        assert len(paths) == 9
        for path in paths:
            config = load_config(str(path))
            assert config.experiment in (
                "MseSweep", "BiasBurr", "VarianceTable", "Trajectory",
                "BootstrapCoverage",
            )

    def test_hex_seed(self):
        config = parse_config(
            "experiment = MseSweep\nfamily = GP\nparams = 0.5\nn = 100\n"
            "reps = 2\nm_grid = 3\nseed = 0x5EED\nout = x.csv\n"
        )
        assert config.master_seed == 0x5EED

    def test_auto_threads(self):
        config = parse_config(
            "experiment = MseSweep\nfamily = GP\nparams = 0.5\nn = 100\n"
            "reps = 2\nm_grid = 3\nseed = 1\nout = x.csv\nthreads = auto\n"
        )
        assert config.threads == 0 and config.effective_threads() >= 1


class TestMseSweep:
    def test_row_accounting_and_identity(self, tmp_path):
        config = _config(tmp_path)
        rows = run_mse_sweep(config)
        assert len(rows) == len(config.m_grid) * 2  # aggregates only
        for row in rows:
            assert row.rep == "agg"
            assert row.mse == pytest.approx(row.bias**2 + row.variance, abs=1e-10)
            assert row.failed == 0

    def test_per_rep_rows(self, tmp_path):
        config = _config(tmp_path)
        rows = run_mse_sweep(config, per_rep=True)
        assert len(rows) == config.reps * 2 * 2 + 2 * 2
        per = [r for r in rows if r.rep != "agg"]
        assert all(math.isnan(r.mse) for r in per)

    def test_pickands_beats_gpml_over_the_m_range_on_gp(self, tmp_path):
        # at gamma = 0.5 the Pickands estimator has lower MSE than GP ML for
        # every block size beyond the smallest (at m = 3 the fixed-degree
        # variance constant ~0.79 still exceeds the m -> infinity limit and
        # GP ML on all data is narrowly better)
        config = _config(tmp_path, n=2000, reps=200, m_grid=(10, 50, 200))
        rows = run_mse_sweep(config)
        mse = {(r.m, r.estimator): r.mse for r in rows}
        for m in (10, 50, 200):
            assert mse[(m, "ExtremePickands")] < mse[(m, "GpMl")]

    def test_deterministic_across_thread_counts(self, tmp_path):
        config1 = _config(tmp_path, threads=1)
        config2 = _config(tmp_path, threads=2)
        config1 = replace(config1, out=str(tmp_path / "a.csv"))
        config2 = replace(config2, out=str(tmp_path / "b.csv"))
        run_to_csv(config1)
        run_to_csv(config2)
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_csv_contract(self, tmp_path):
        config = _config(tmp_path)
        path = run_to_csv(config)
        raw = open(path, "rb").read()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        per_rep = run_to_csv(config, per_rep=True)
        text = open(per_rep, "r", encoding="utf-8").read()
        assert "NaN" in text and "nan" not in text.replace("NaN", "")

    def test_interrupted_write_keeps_earlier_file(self, tmp_path):
        config = _config(tmp_path)
        path = run_to_csv(config)
        before = open(path, "rb").read()
        rows = run_experiment(replace(config, master_seed=43))
        broken = replace(rows[-1], extra=_Unprintable())
        with pytest.raises(RuntimeError, match="interrupted"):
            write_csv(rows + [broken], path)  # fails after the good rows
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["out.csv"]


class TestBiasBurr:
    def test_parameter_mapping(self):
        spec = dist.burr_from_gamma_rho(0.5, -0.5)
        assert spec.params == pytest.approx((2.0, 1.0))

    def test_rows_carry_rho(self, tmp_path):
        config = _config(
            tmp_path,
            experiment="BiasBurr",
            family="Burr",
            params=(0.5, -2.0, -0.5),
            n=300,
            reps=6,
            m_grid=(10,),
        )
        rows = run_bias_burr(config)
        assert len(rows) == 2 * 2  # two rhos, two estimators
        assert {r.extra for r in rows} == {"rho=-2", "rho=-0.5"}
        for row in rows:
            assert row.mse == pytest.approx(row.bias**2 + row.variance, abs=1e-10)


class TestVarianceTable:
    def test_row_per_gamma(self, tmp_path):
        config = _config(
            tmp_path,
            experiment="VarianceTable",
            params=(-0.5, 0.0, 0.5),
            n=300,
            reps=120,
            m_grid=(6,),
        )
        rows = run_variance_table(config)
        assert len(rows) == 3
        for row, gamma in zip(rows, (-0.5, 0.0, 0.5)):
            extra = dict(kv.split("=") for kv in row.extra.split(";"))
            assert float(extra["sigma2"]) > 0
            assert float(extra["gpml_norm"]) == pytest.approx((1 + gamma) ** 2 / 3)
            assert row.k == 50

    def test_csv_identical_across_thread_counts(self, tmp_path):
        # each gamma keeps its own stream, whichever process evaluates it
        paths = []
        for threads in (1, 2):
            config = _config(
                tmp_path,
                experiment="VarianceTable",
                params=(-0.5, 0.0, 0.5),
                n=300,
                reps=120,
                m_grid=(6,),
                threads=threads,
                out=str(tmp_path / f"threads{threads}.csv"),
            )
            paths.append(run_to_csv(config))
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


class TestTrajectory:
    def test_single_m(self, tmp_path):
        config = _config(tmp_path, experiment="Trajectory", n=100, reps=1, m_grid=(10,))
        rows = run_trajectory(config)
        assert len(rows) == 2  # one row per estimator
        assert {r.estimator for r in rows} == {"ExtremePickands", "GpMl"}

    def test_file_sourced_sample(self, tmp_path):
        g = dist.RngStream(77, 0).generator()
        values = dist.quantile(dist.gp(0.3), g.random(100))
        path = tmp_path / "sample.txt"
        path.write_text(
            "# demo sample\n" + "\n".join(repr(float(v)) for v in values) + "\n"
        )
        config = _config(
            tmp_path,
            experiment="Trajectory",
            family=f"file:{path}",
            params=(),
            n=0,
            reps=1,
            m_grid=tuple(range(3, 51)),
        )
        rows = run_trajectory(config)
        assert len(rows) == 48 * 2
        pick = [r for r in rows if r.estimator == "ExtremePickands"]
        assert all(math.isfinite(r.gamma_hat) for r in pick)


class TestFailureAccounting:
    def test_ties_are_recorded_not_raised(self, tmp_path):
        values = [5.0, 5.0, 3.0, 2.0, 1.0, 0.5] + list(range(10, 30))
        path = tmp_path / "ties.txt"
        path.write_text("\n".join(map(repr, values)) + "\n")
        config = _config(
            tmp_path, experiment="Trajectory", family=f"file:{path}", params=(),
            n=0, reps=1, m_grid=(3,),
        )
        by_est = {r.estimator: r for r in run_trajectory(config)}
        assert by_est["ExtremePickands"].failed == 1  # tie at the top: failed
        assert math.isnan(by_est["ExtremePickands"].gamma_hat)

    def test_aggregate_counts_failures(self, tmp_path):
        # Pickands at m=3 touches every order statistic; a tie in one
        # replication must show up in the aggregate `failed` column
        config = _config(tmp_path, n=60, reps=4, m_grid=(3,))
        rows = run_mse_sweep(config)
        assert all(r.failed == 0 for r in rows)


class TestPerRepLayout:
    @pytest.mark.parametrize("name", ["mse", "bias_burr", "bootstrap", "trajectory"])
    def test_per_rep_csv_matches_pinned_bytes(self, tmp_path, name):
        # per-replication rows in replication order, then the aggregates: at
        # m = 59 of the MseSweep GpMl fails (3 < 5 excesses), the BiasBurr
        # sweep covers two rho and the bootstrap has uncovered replications
        data = pathlib.Path(__file__).resolve().parent / "data"
        config = load_config(str(data / f"per_rep_{name}.cfg"))
        out = run_to_csv(replace(config, out=str(tmp_path / "out.csv")), per_rep=True)
        assert open(out, "rb").read() == (data / f"per_rep_{name}.csv").read_bytes()


class TestCommittedResults:
    @pytest.mark.parametrize(
        "name", ["trajectory_student_t4", "mse_gp05", "bias_burr", "variance_table"]
    )
    def test_desk_config_regenerates_committed_csv(self, tmp_path, name):
        # the committed CSVs pin the kernel's summation order and the sweep
        # runner's row layout to the last bit
        root = pathlib.Path(__file__).resolve().parent.parent
        config = load_config(str(root / "configs" / f"{name}.cfg"))
        config = replace(config, out=str(tmp_path / f"{name}.csv"), threads=2)
        run_to_csv(config)
        committed = (root / "results" / f"{name}.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == committed
