from __future__ import annotations

import concurrent.futures
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import fields

import pytest

from dqslam.cli import _build_parser, main
from dqslam.dataset_io import read_dataset
from dqslam.factors import graph_residual
from dqslam.initialization import InitStrategy
from dqslam.pipeline import GraphNoiseConfig, build_graph, ground_truth_graph
from dqslam.simulator import SensorConfig, WorldConfig
from dqslam.solver import SolverConfig


SMALL = [
    "--n-landmarks", "4",
    "--trajectory-length", "65",
    "--n-loops", "1",
]
ZERO_NOISE = [
    "--bbox-corner-sigma-px", "0",
    "--odo-sigma", "0",
    "--odo-turn-omega-sigma", "0",
    "--relpos-sigma-m", "0",
]


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", "--seed", "7", "--out", str(a), *SMALL]) == 0
    assert main(["simulate", "--seed", "7", "--out", str(b), *SMALL]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_zero_noise_passes_ground_truth_oracle(tmp_path):
    out = tmp_path / "ds.json"
    code = main(
        ["simulate", "--seed", "3", "--landmark-shape", "sphere", "--out", str(out)]
        + SMALL
        + ZERO_NOISE
    )
    assert code == 0
    ds = read_dataset(out)
    g = ground_truth_graph(build_graph(ds, mode="with-relpos"), ds)
    _, cost = graph_residual(g)
    assert cost < 1e-10


def test_simulate_defaults_match_published_setup(capsys, tmp_path):
    # the documented defaults: 10 landmarks, 130 m, two loops, 1280x1024,
    # 1 px corner noise, 0.02 odometry noise, 0.1 turn noise, 10 cm relpos
    from dqslam.simulator import SensorConfig, WorldConfig

    w, s = WorldConfig(), SensorConfig()
    assert (w.n_landmarks, w.trajectory_length, w.n_loops) == (10, 130.0, 2)
    assert (w.landmark_z_sigma, w.cube_side_mean, w.cube_side_sigma, w.cube_side_floor) == (
        0.3, 0.5, 0.3, 0.2)
    assert (s.focal_mm, s.pixel_size_m) == (15.0, 10e-6)
    assert (s.image_width, s.image_height, s.detection_min_px) == (1280, 1024, 100.0)
    assert (s.bbox_corner_sigma_px, s.odo_sigma, s.odo_turn_omega_sigma, s.relpos_sigma_m) == (
        1.0, 0.02, 0.1, 0.1)


def test_simulate_rejects_invalid_flag_value(tmp_path, capsys):
    # Each value is rejected once, naming its flag, before any work starts:
    # the cross-field offset rule and the init threshold included.
    small_batch = ["--trials", "1", "--workers", "1", *SMALL]
    cases = [
        (["simulate", "--cube-side-floor", "-1", "--out", str(tmp_path / "x.json")],
         "--cube-side-floor"),
        (["evaluate", "--offset-min", "7", "--out-dir", str(tmp_path / "e1"), *small_batch],
         "--offset-min"),
        (["evaluate", "--condition-threshold", "2", "--out-dir", str(tmp_path / "e2"),
          *small_batch], "--condition-threshold"),
        (["evaluate", "--out-dir", str(tmp_path / "e3"), *small_batch, "--trials", "0"],
         "--trials"),
        (["evaluate", "--out-dir", str(tmp_path / "e4"), *small_batch, "--trials", "-2"],
         "--trials"),
        (["evaluate", "--out-dir", str(tmp_path / "e5"), *small_batch, "--workers", "-1"],
         "--workers"),
        (["evaluate", "--base-seed", "-1", "--out-dir", str(tmp_path / "e6"), *small_batch],
         "--base-seed"),
    ]
    for argv, flag in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error: argument " + flag in error
        assert error.count(flag) == 1
    assert not (tmp_path / "x.json").exists()
    for out_dir in ("e1", "e2", "e3", "e4", "e5", "e6"):
        assert not (tmp_path / out_dir).exists()


# Which config classes each subcommand exposes; evaluate takes each trial's
# seed from --base-seed, and InitStrategy.mode is --init because --mode
# selects the factor set.
_SUBCOMMAND_CONFIGS = {
    "simulate": (WorldConfig, SensorConfig),
    "solve": (InitStrategy, SolverConfig, GraphNoiseConfig),
    "evaluate": (InitStrategy, WorldConfig, SensorConfig, SolverConfig, GraphNoiseConfig),
}
_OTHER_FLAGS = {
    "simulate": {"--out"},
    "solve": {"--dataset", "--mode", "--out", "--svg"},
    "evaluate": {"--trials", "--base-seed", "--out-dir", "--workers"},
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_CONFIGS))
def test_config_flags_match_dataclass_fields(command):
    _, subparsers = _build_parser()
    sub = subparsers[command]
    flags = [s for a in sub._actions for s in a.option_strings if s.startswith("--")]
    expected = set(_OTHER_FLAGS[command]) | {"--help"}
    for cls in _SUBCOMMAND_CONFIGS[command]:
        for f in fields(cls):
            if command == "evaluate" and f.name == "seed":
                continue
            dest = "init" if (cls, f.name) == (InitStrategy, "mode") else f.name
            flag = "--" + dest.replace("_", "-")
            assert flags.count(flag) == 1, flag
            assert sub.get_default(dest) == f.default, flag
            assert type(sub.get_default(dest)) is type(f.default), flag
            expected.add(flag)
    assert set(flags) == expected


def test_solve_zero_noise_and_svg(tmp_path):
    ds_path = tmp_path / "ds.json"
    main(
        ["simulate", "--seed", "3", "--landmark-shape", "sphere", "--out", str(ds_path)]
        + SMALL
        + ZERO_NOISE
    )
    out = tmp_path / "res.json"
    svg = tmp_path / "map.svg"
    code = main(
        ["solve", "--dataset", str(ds_path), "--mode", "monocular",
         "--out", str(out), "--svg", str(svg)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "dqslam.results"
    assert doc["metrics"]["rmse_pos_slam"] < 1e-3
    assert doc["report"]["converged"]

    root = ET.parse(svg).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    circles = root.findall(f"{ns}circle")
    assert len(polylines) == 3
    n_landmarks = len(read_dataset(ds_path).landmarks)
    assert len(circles) == 3 * n_landmarks
    fills = {c.get("fill") for c in circles}
    assert len(fills) == 3  # one marker color per estimate set


def test_solve_manifest_lists_artifacts(tmp_path):
    ds_path = tmp_path / "ds.json"
    main(["simulate", "--seed", "1", "--out", str(ds_path)] + SMALL)
    out = tmp_path / "res.json"
    main(["solve", "--dataset", str(ds_path), "--out", str(out)])
    manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())
    assert str(out) in manifest["artifacts"]
    assert manifest["command"] == "solve"
    assert manifest["seeds"] == [1]


def test_evaluate_csv_format_and_determinism(tmp_path):
    args = ["evaluate", "--trials", "2", "--base-seed", "5"] + SMALL
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out-dir", str(d1), "--workers", "1"]) == 0
    assert main(args + ["--out-dir", str(d2), "--workers", "2"]) == 0
    csv1 = (d1 / "results.csv").read_bytes()
    csv2 = (d2 / "results.csv").read_bytes()
    assert csv1 == csv2

    lines = csv1.decode().splitlines()
    assert lines[0] == (
        "seed,mode,rmse_pos_init,rmse_pos_slam,rmse_lm,rmse_volume,"
        "volume_invalid_count,iterations,final_cost"
    )
    assert len(lines) == 1 + 2 * 2  # two seeds x two modes
    first = lines[1].split(",")
    assert first[0] == "5" and first[1] == "monocular"
    assert lines[2].split(",")[1] == "with-relpos"
    # >= 9 significant digits in decimal-point notation
    assert len(first[2].replace(".", "").replace("-", "").lstrip("0")) >= 9
    assert "e" not in first[2]


def test_evaluate_summary_single_trial_avg_equals_med(tmp_path):
    out = tmp_path / "r"
    main(["evaluate", "--trials", "1", "--base-seed", "0", "--out-dir", str(out),
          "--workers", "1"] + SMALL)
    summary = json.loads((out / "summary.json").read_text())
    agg = summary["aggregate"]["monocular"]
    assert agg["rmse_pos_slam"]["avg"] == agg["rmse_pos_slam"]["med"]
    assert summary["n_failures"] == 0


def test_unplaceable_landmark_is_an_input_error(tmp_path, capsys):
    # 1000 detections cannot fit on the 261-pose default trajectory.
    out = tmp_path / "x.json"
    assert main(["simulate", "--landmark-min-detections", "1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: could not place landmark 0") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []
    # evaluate records it as a failed trial
    d = tmp_path / "e"
    assert main(["evaluate", "--landmark-min-detections", "1000", "--trials", "1",
                 "--out-dir", str(d)]) == 1
    failures = json.loads((d / "summary.json").read_text())["failures"]
    assert failures["0"].startswith("ValueError: could not place landmark 0")


TINY = ["--n-landmarks", "1", "--trajectory-length", "20", "--n-loops", "1"]


@pytest.mark.parametrize(
    "trials, workers, width",
    [(1, 64, 1), (2, 64, 2), (3, 2, 2), (3, 0, min(os.cpu_count() or 1, 3))],
    ids=["one-trial", "wider-than-trials", "narrower-than-trials", "default-width"],
)
def test_evaluate_pool_width_at_most_trials(trials, workers, width, tmp_path, monkeypatch):
    widths = []

    class InlinePool:
        """Records its width and runs the jobs in this process."""

        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    out = tmp_path / "r"
    assert main(["evaluate", "--trials", str(trials), "--workers", str(workers),
                 "--out-dir", str(out), *TINY]) == 0
    assert widths == ([] if width == 1 else [width])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["workers"] == width


def test_rerun_reproduces_outputs(tmp_path):
    out = tmp_path / "r"
    main(["evaluate", "--trials", "2", "--base-seed", "3", "--out-dir", str(out),
          "--workers", "1"] + SMALL)
    csv_before = (out / "results.csv").read_bytes()
    assert main(["rerun", str(out / "run_manifest.json")]) == 0
    assert (out / "results.csv").read_bytes() == csv_before


@pytest.mark.parametrize(
    "manifest",
    [
        {"schema": "dqslam.run-manifest", "version": 1},
        {"schema": "dqslam.run-manifest", "version": 1,
         "argv": ["rerun", "{dir}/run_manifest.json"]},
        {"schema": "something-else", "version": 1, "argv": ["simulate", "--out", "{dir}/x.json"]},
    ],
    ids=["missing-argv", "recursive-argv", "wrong-schema"],
)
def test_rerun_rejects_malformed_manifest(manifest, tmp_path, capsys):
    path = tmp_path / "run_manifest.json"
    if "argv" in manifest:
        manifest = dict(manifest, argv=[a.format(dir=tmp_path) for a in manifest["argv"]])
    path.write_text(json.dumps(manifest))
    assert main(["rerun", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "x.json").exists()


def test_missing_dataset_reports_error(tmp_path, capsys):
    code = main(["solve", "--dataset", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err
