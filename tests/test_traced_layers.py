"""The benchmark's traced run reports every per-layer figure it declares.

The traced run (``bench/worker.py --trace``) wraps the module-level bindings
of xustat's public functions and reads each figure from the spans of one
public call; ``bench/run.py`` then looks up every ``per_layer`` name of
``BENCHMARK.json``.  A caller that stops going through such a binding drops
its figure, and the traced run ends with a KeyError.  This test runs one
operation of each workload and one in-process cli call under the tracer and
checks that the spans give every figure not taken from a probe.
"""

import json
import sys
from pathlib import Path

import pytest

import xustat

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

# figures that come from timing probes, not from spans
PROBES = {
    "python.start_s",
    "cli.import_s",
    "cli.main_s",
    "cli.process_s",
    "roofline.np_log_ns",
    "trace.overhead_s",
    "trace.top_span_coverage",
}


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import tracer
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return layers, tracer, workloads


def test_traced_operations_give_every_per_layer_figure(bench_modules, tmp_path):
    layers, tracer_mod, workloads = bench_modules
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in spec["per_layer"]} - PROBES
    trajectory = workloads.TrajectoryWorkload(1, str(tmp_path))
    montecarlo = workloads.MonteCarloWorkload(1, str(tmp_path))
    trajectory.setup()
    montecarlo.setup()
    cli = workloads.CliInputs(1, str(tmp_path))
    tracer = tracer_mod.Tracer()
    tracer.install(xustat)
    try:
        groups = {}
        for name, op in (
            ("trajectory", lambda: trajectory.op(0)),
            ("montecarlo", lambda: montecarlo.op(0)),
            ("cli", lambda: cli.in_process(cli.files[0], 20)),
        ):
            tracer.op = f"{name}:0"
            op()
            groups[name] = [(tracer.op, 1.0)]
    finally:
        tracer.uninstall()
    for workload in ("trajectory", "montecarlo"):
        metrics = layers.merge(workload, groups, tracer.spans)
        assert sorted(wanted - metrics.keys()) == [], workload
