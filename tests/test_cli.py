import math
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

import xustat
from xustat import harness
from xustat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            pairs[key] = val
    return pairs


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("# four points\n4\n3\n1\n0\n")
    return str(path)


@pytest.fixture
def gp_sample_file(tmp_path):
    from xustat import dist

    g = dist.RngStream(31337, 0).generator()
    values = dist.quantile(dist.gp(0.5), g.random(400))
    path = tmp_path / "gp.txt"
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


class TestEstimate:
    def test_four_point_value(self, capsys, sample_file):
        code, out, _ = run_cli(capsys, "estimate", "--input", sample_file, "--m", "3")
        assert code == 0
        got = float(kv(out)["gamma_hat"])
        assert got == pytest.approx(-math.log(24.0) / 4.0, rel=1e-12)

    def test_m_too_small_is_usage_error(self, capsys, sample_file):
        code, _, err = run_cli(capsys, "estimate", "--input", sample_file, "--m", "2")
        assert code == 1
        assert "m" in err

    @pytest.mark.parametrize("command", ["estimate", "bootstrap"])
    def test_m_above_n_is_data_error(self, capsys, sample_file, command):
        code, out, err = run_cli(capsys, command, "--input", sample_file, "--m", "6")
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: BlockSizeOutOfRange")

    def test_ties_are_data_error(self, capsys, tmp_path):
        path = tmp_path / "ties.txt"
        path.write_text("7\n7\n7\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--m", "3")
        assert code == 2
        assert "DegenerateSpacing" in err

    def test_short_input_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1\n2\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--m", "3")
        assert code == 2

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "estimate", "--input", str(tmp_path / "nope.txt"), "--m", "3"
        )
        assert code == 2

    def test_unknown_flag_rejected(self, capsys, sample_file):
        code, _, _ = run_cli(
            capsys, "estimate", "--input", sample_file, "--m", "3", "--bogus", "1"
        )
        assert code == 1

    def test_bootstrap_ci(self, capsys, gp_sample_file):
        code, out, _ = run_cli(
            capsys, "estimate", "--input", gp_sample_file, "--m", "10",
            "--bootstrap", "200", "--seed", "7",
        )
        assert code == 0
        pairs = kv(out)
        lo, hi = (float(v) for v in pairs["ci"].strip("[]").split(","))
        assert lo <= float(pairs["gamma_hat"]) <= hi

    def test_seed_default_is_fixed(self, capsys, gp_sample_file):
        _, out1, _ = run_cli(
            capsys, "estimate", "--input", gp_sample_file, "--m", "10",
            "--bootstrap", "200",
        )
        _, out2, _ = run_cli(
            capsys, "estimate", "--input", gp_sample_file, "--m", "10",
            "--bootstrap", "200",
        )
        assert out1 == out2


class TestWeights:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--n", "5", "--m", "3")
        assert code == 0
        pairs = kv(out)
        assert float(pairs["w[2]"]) == pytest.approx(0.6)
        assert float(pairs["w[5]"]) == pytest.approx(-0.3)
        assert abs(float(pairs["zero_sum_residual"])) <= 1e-12

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "weights", "--n", "5", "--m", "6")
        assert code == 1


class TestOracleCheck:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--seed", "11")
        assert code == 0
        pairs = kv(out)
        assert pairs["result"] == "pass"
        assert pairs["brute_vs_fast_vs_generic"] == "pass"
        assert pairs["weight_zero_sum"] == "pass"
        assert pairs["hypergeometric_pmf"] == "pass"
        assert pairs["digamma_kernel_mean"] == "pass"

    def test_injected_error_detected(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--seed", "11", "--inject-error")
        assert code == 3
        assert kv(out)["result"] == "fail"

    def test_report_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "oracle-check", "--seed", "11")
        _, out2, _ = run_cli(capsys, "oracle-check", "--seed", "11")
        assert out1 == out2


CONFIG = """
experiment = MseSweep
family = GP
params = 0.5
n = 120
reps = 5
m_grid = 3,8
seed = 99
out = {out}
threads = 1
"""


class TestSimulate:
    def test_writes_csv_and_is_deterministic(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "result.csv"
        cfg.write_text(CONFIG.format(out=out))
        code, stdout, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert kv(stdout)["out"] == str(out)
        first = out.read_bytes()
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--threads", "2"
        )
        assert code == 0
        assert out.read_bytes() == first

    def test_row_accounting(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "result.csv"
        cfg.write_text(CONFIG.format(out=out))
        run_cli(capsys, "simulate", "--config", str(cfg))
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2  # header + |m_grid| * 2 aggregates
        run_cli(capsys, "simulate", "--config", str(cfg), "--per-rep")
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 5 * 2 * 2 + 2 * 2

    def test_variance_table_experiment_rows(self, capsys, tmp_path):
        cfg = tmp_path / "vt.cfg"
        out = tmp_path / "vt.csv"
        cfg.write_text(
            "experiment = VarianceTable\nfamily = GP\nparams = -0.5,0,0.5\n"
            f"n = 300\nreps = 120\nm_grid = 6\nseed = 2\nout = {out}\nthreads = 1\n"
        )
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 3  # header + one aggregate row per gamma

    def test_bad_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = MseSweep\nwhat = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "unknown key" in err

    def test_unwritable_path_is_data_error(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out="/proc/xustat-no-such-dir/out.csv"))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError(), "error: MemoryError\n"),
            (BrokenProcessPool("a worker died"), "error: BrokenProcessPool: a worker died\n"),
        ],
    )
    def test_resource_failure_is_data_error(self, capsys, tmp_path, monkeypatch, exc, message):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(harness, "run_to_csv", fail)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path / "result.csv"))
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, stdout) == (2, "")
        assert err == message

    def test_experiment_family_mismatch_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            CONFIG.format(out=tmp_path / "o.csv").replace("MseSweep", "BiasBurr")
        )
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "error: bad config: BiasBurr requires family = Burr" in err

    @pytest.mark.parametrize(
        "content", [None, "1.5\n2.5\nnot-a-number\n"], ids=["missing", "bad-line"]
    )
    def test_unreadable_trajectory_sample_is_data_error(self, capsys, tmp_path, content):
        sample = tmp_path / "sample.txt"
        if content is not None:
            sample.write_text(content)
        cfg = tmp_path / "traj.cfg"
        cfg.write_text(
            f"experiment = Trajectory\nfamily = file:{sample}\nn = 0\n"
            f"m_grid = 3\nseed = 1\nout = {tmp_path / 'o.csv'}\n"
        )
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "cannot read sample file" in err

    def test_trajectory_sample_shorter_than_every_m_is_data_error(self, capsys, tmp_path):
        sample = tmp_path / "sample.txt"
        sample.write_text("5\n4\n3\n2\n1\n")
        cfg = tmp_path / "traj.cfg"
        cfg.write_text(
            f"experiment = Trajectory\nfamily = file:{sample}\nn = 0\n"
            f"m_grid = 10\nseed = 1\nout = {tmp_path / 'o.csv'}\n"
        )
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "error: BlockSizeOutOfRange: m_grid has no entries" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("seed = 99", "seed = -1", "seed must be >= 0"),
            ("threads = 1", "threads = -4", "threads must be >= 0"),
            ("m_grid = 3,8", "m_grid = 8,8", "m_grid repeats a block size"),
            ("params = 0.5", "params = nan", "non-finite value"),
            ("params = 0.5", "params = 0.5,2", "family GP takes 1 parameter(s)"),
            ("family = GP", "family = Gumbel", "unknown family 'Gumbel'"),
            ("family = GP\nparams = 0.5", "family = StudentT\nparams = -4",
             "degrees of freedom must be positive"),
            ("family = GP\nparams = 0.5", "family = Burr\nparams = 2,0", "Burr parameters must be"),
            ("family = GP\nparams = 0.5", "family = Beta\nparams = 0,1", "beta parameters must be"),
            ("family = GP\nparams = 0.5", "family = Frechet\nparams = -1", "Frechet shape must be"),
            ("MseSweep\nfamily = GP\nparams = 0.5", "BiasBurr\nfamily = Burr\nparams = 0.5,1",
             "need rho < 0 and gamma > 0 for the Burr mapping"),
            ("MseSweep\nfamily = GP\nparams = 0.5\nn = 120\nreps = 5\nm_grid = 3,8",
             "VarianceTable\nfamily = GP\nparams = 0.5\nn = 120\nreps = 50\nm_grid = 8",
             "VarianceTable needs reps >= 100"),
        ],
    )
    def test_unusable_config_value_is_usage_error(self, capsys, tmp_path, old, new, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path / "o.csv").replace(old, new))
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: bad config: {message}") and err.count("\n") == 1

    def test_negative_threads_flag_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path / "o.csv"))
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg), "--threads", "-4")
        assert (code, stdout, err) == (1, "", "error: bad config: threads must be >= 0\n")
        assert not (tmp_path / "o.csv").exists()


class TestInputChecks:
    """Flag values no run can use exit 1 with one ``error:`` line, before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--input", "{sample}", "--m", "3", "--seed", "-1"),
            ("estimate", "--input", "{sample}", "--m", "3", "--bootstrap", "200", "--seed", "-1"),
            ("bootstrap", "--input", "{sample}", "--m", "3", "--seed", "-1"),
            ("variance-table", "--gammas", "0.0", "--seed", "-1"),
            ("bias", "--gamma", "0.5", "--rhos", "-1", "--seed", "-1"),
            ("oracle-check", "--seed", "-5"),
            ("variance-table", "--gammas", "abc"),
            ("variance-table", "--gammas", "nan"),
            ("variance-table", "--gammas", "0.5,inf"),
            ("bias", "--gamma", "0.5", "--rhos=-1,x"),
            ("bias", "--gamma", "0.5", "--rhos=nan"),
            ("bias", "--gamma", "nan", "--rhos", "-1"),
        ],
    )
    def test_unusable_flag_is_usage_error(self, capsys, sample_file, argv):
        argv = [a.format(sample=sample_file) for a in argv]
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1


class TestVarianceTableCmd:
    def test_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "variance-table", "--gammas", "0.0", "--n", "300", "--m", "6",
            "--reps", "120", "--seed", "3",
        )
        assert code == 0
        assert "sigma2=" in out

    def test_too_few_reps_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "variance-table", "--gammas", "0.0", "--reps", "50")
        assert code == 1
        assert "--reps must be at least 100" in err


class TestBiasCmd:
    def test_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "bias", "--gamma", "0.5", "--rhos", "-1", "--reps", "20000",
            "--seed", "3",
        )
        assert code == 0
        assert "b_k=" in out

    def test_positive_rho_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "bias", "--gamma", "0.5", "--rhos", "0.5", "--reps", "20000"
        )
        assert code == 1


class TestBootstrapCmd:
    def test_smoke(self, capsys, gp_sample_file):
        code, out, _ = run_cli(
            capsys, "bootstrap", "--input", gp_sample_file, "--m", "10",
            "--boot-reps", "200", "--seed", "5",
        )
        assert code == 0
        pairs = kv(out)
        assert "ci" in pairs and "dropped" in pairs

    def test_estimate_bootstrap_prints_the_same_interval(self, capsys, gp_sample_file):
        common = ("--input", gp_sample_file, "--m", "10", "--seed", "7")
        _, est, _ = run_cli(capsys, "estimate", *common, "--bootstrap", "200")
        _, boot, _ = run_cli(capsys, "bootstrap", *common, "--boot-reps", "200")
        boot_lines = boot.splitlines()
        assert [line.partition("=")[0] for line in boot_lines] == [
            "gamma_hat", "ci", "stderr", "dropped"
        ]
        assert boot_lines[3] == "dropped=0"
        # estimate prints dropped= only when something was dropped
        assert est.splitlines() == boot_lines[:3]

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--bootstrap", "100"),
            ("estimate", "--bootstrap", "200", "--level", "1.5"),
            ("bootstrap", "--boot-reps", "100"),
            ("bootstrap", "--level", "1.5"),
        ],
    )
    def test_bad_flag_is_usage_error_before_reading_input(self, capsys, tmp_path, argv):
        code, _, err = run_cli(capsys, *argv, "--input", str(tmp_path / "nope.txt"), "--m", "10")
        assert code == 1
        assert "cannot read" not in err


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["estimate", "--help"])
        out = capsys.readouterr().out
        for flag in ("--input", "--m", "--bootstrap", "--level", "--seed"):
            assert flag in out


def test_cli_import_leaves_out_scipy_stats():
    src = os.path.dirname(os.path.dirname(os.path.abspath(xustat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, xustat.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_out_scipy_special():
    src = os.path.dirname(os.path.dirname(os.path.abspath(xustat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, xustat.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    assert out.strip() == "False"


def test_package_import_loads_no_submodule():
    # the Python API is imported from its modules; the package itself re-exports nothing
    src = os.path.dirname(os.path.dirname(os.path.abspath(xustat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, xustat; print(sorted(m for m in sys.modules if m.startswith('xustat.')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "script, argv, code",
    [
        ("run_study.py", ["--configs", "nope.cfg"], 1),
        ("asymptotic_constants.py", ["--seed", "-1"], 2),
        ("asymptotic_constants.py", ["--gammas", "abc"], 2),
        ("asymptotic_constants.py", ["--rhos=-1,x"], 2),
    ],
)
def test_script_bad_argument_is_one_error_line(script, argv, code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(xustat.__file__)))
    scripts = os.path.join(os.path.dirname(src), "scripts")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, os.path.join(scripts, script), *argv], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert "Traceback" not in proc.stderr and "error: " in proc.stderr.splitlines()[-1]
