"""The benchmark's trace hooks (bench/tracing.py) still find and wrap the
names they time. The bench is not part of this suite, so a renamed function
or a changed call path would otherwise only show when `bench/run.py --trace 1`
is run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from dqslam import cli
from dqslam.simulator import SensorConfig


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_record_spans(small_world):
    tracing = _load_tracing()
    originals = (cli.generate_dataset, cli.run_trial)
    with tracing.installed(tracing.Tracer()) as tracer:
        dataset = cli.generate_dataset(small_world, SensorConfig())
        cli.run_trial(dataset, mode="monocular")
    assert (cli.generate_dataset, cli.run_trial) == originals
    for name in (
        "simulator.generate_dataset",
        "simulator.project_cube_bbox",
        "pipeline.run_trial",
        "pipeline.build_graph",
        "initialization.initialize_quadrics",
        "solver.solve",
        "factors.GraphEvaluator.init",
        "factors.GraphEvaluator.residual",
        "factors.GraphEvaluator.jacobian",
        "solver.linear_step",
    ):
        assert tracer.n_calls(name) > 0, name
