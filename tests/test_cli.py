from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import pytest

from dqslam import cli
from dqslam.cli import _build_parser, main
from dqslam.dataset_io import read_dataset
from dqslam.initialization import InitStrategy
from dqslam.metrics import MODES
from dqslam.pipeline import GraphNoiseConfig, build_graph
from dqslam.simulator import MAX_LANDMARKS, SensorConfig, WorldConfig, generate_dataset
from dqslam.solver import SolverConfig
from oracle import graph_residual, ground_truth_graph


DATA = Path(__file__).parent / "data"
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
        # Damping that escalates too slowly: the first pair hung a solve,
        # the second made thousands of linear solves in ten iterations.
        (["solve", "--dataset", str(tmp_path / "ds.json"), "--out", str(tmp_path / "r.json"),
          "--lambda-up", "1.000000000000001", "--lambda-down", "1e-300"], "--lambda-up"),
        (["evaluate", "--lambda-up", "1.001", "--lambda-down", "0.999", "--max-iterations", "10",
          "--out-dir", str(tmp_path / "e7"), *small_batch], "--lambda-up"),
        # Damping past the stall ceiling: once a 0-iteration "stalled" solve,
        # and a batch of unmoved rows with exit code 0.
        (["solve", "--dataset", str(tmp_path / "ds.json"), "--out", str(tmp_path / "r.json"),
          "--initial-lambda", "1e20"], "--initial-lambda"),
        (["evaluate", "--initial-lambda", "1e20", "--out-dir", str(tmp_path / "e8"),
          *small_batch], "--initial-lambda"),
        # Loops too short for their turns, and a step count that overflows:
        # once found mid-run, as a failed trial or a traceback.
        (["simulate", "--trajectory-length", "5", "--out", str(tmp_path / "x.json")],
         "--trajectory-length"),
        (["evaluate", "--out-dir", str(tmp_path / "e9"), *small_batch,
          "--trajectory-length", "5"], "--trajectory-length"),
        (["simulate", "--trajectory-length", "1e308", "--step-length", "1e-10",
          "--out", str(tmp_path / "x.json")], "--trajectory-length"),
        # A finite schedule too long to build: once an OverflowError
        # traceback from the schedule list.
        (["simulate", "--trajectory-length", "1e300", "--out", str(tmp_path / "x.json")],
         "--trajectory-length"),
        (["evaluate", "--out-dir", str(tmp_path / "e10"), *small_batch,
          "--trajectory-length", "1e300"], "--trajectory-length"),
        # Landmarks past the ceiling: no bound on the solve's memory.
        (["simulate", "--n-landmarks", str(MAX_LANDMARKS + 1), "--out", str(tmp_path / "x.json")],
         "--n-landmarks"),
        (["evaluate", "--out-dir", str(tmp_path / "e11"), *small_batch,
          "--n-landmarks", str(MAX_LANDMARKS + 1)], "--n-landmarks"),
        # The strict SVD mode is gone: svd-with-fallback is the one fit.
        (["evaluate", "--init", "svd", "--out-dir", str(tmp_path / "e12"), *small_batch],
         "--init"),
        # A pool or a seed table too large to start: once thousands of
        # forked workers, or minutes spent listing worlds before any check.
        (["evaluate", "--out-dir", str(tmp_path / "e13"), *small_batch, "--workers", "100000"],
         "--workers"),
        (["evaluate", "--out-dir", str(tmp_path / "e14"), *small_batch, "--trials", "10001"],
         "--trials"),
    ]
    for argv, flag in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error: argument " + flag in error
        assert error.count(flag) == 1
    assert not (tmp_path / "x.json").exists()
    assert not (tmp_path / "r.json").exists()
    for i in range(1, 15):
        assert not (tmp_path / f"e{i}").exists()
    # The ceilings themselves are accepted: built, not run.
    assert WorldConfig(n_landmarks=MAX_LANDMARKS).n_landmarks == MAX_LANDMARKS
    batch = cli.BatchConfig(trials=10_000, workers=256)
    assert (batch.trials, batch.workers) == (10_000, 256)


# Which config classes each subcommand exposes; evaluate takes each trial's
# seed from --base-seed, and InitStrategy.mode is --init because --mode
# selects the factor set.
_SUBCOMMAND_CONFIGS = {
    "simulate": (WorldConfig, SensorConfig),
    "solve": (InitStrategy, SolverConfig, GraphNoiseConfig),
    "evaluate": (cli.BatchConfig, InitStrategy, WorldConfig, SensorConfig, SolverConfig,
                 GraphNoiseConfig),
}
_OTHER_FLAGS = {
    "simulate": {"--out"},
    "solve": {"--dataset", "--mode", "--out", "--svg"},
    "evaluate": {"--out-dir"},
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
    n_landmarks = len(read_dataset(ds_path).landmark_sides)
    assert len(circles) == 3 * n_landmarks
    fills = {c.get("fill") for c in circles}
    assert len(fills) == 3  # one marker color per estimate set


# SHA-256 of results.json and of the SVG map of `dqslam solve --svg` on the
# default seed-0 dataset: the estimates at full precision, which results.csv
# rounds to 12 digits.
SOLVE_SEED0_SHA256 = {
    "monocular": (
        "239f23366bd1a49cd1531a9bac3937d52d1cdbbd0668ca66b6bb56e84dc08097",
        "72009dded27418d3efc1500bc8c70fb51b5b52318d30707907767b08a74203c8",
    ),
    "with-relpos": (
        "751f4bce4131ea9f40c35aadee8d44bca48130fbb6e541b10efe651e78903b09",
        "aed517d6caa032e932a18944f8b1df07692e632d2ca5759c8c0c775f49327e3a",
    ),
}


def test_solve_results_fingerprint(tmp_path):
    ds_path = tmp_path / "ds.json"
    assert main(["simulate", "--seed", "0", "--out", str(ds_path)]) == 0
    for mode, expected in SOLVE_SEED0_SHA256.items():
        out, svg = tmp_path / f"{mode}.json", tmp_path / f"{mode}.svg"
        assert main(["solve", "--dataset", str(ds_path), "--mode", mode,
                     "--out", str(out), "--svg", str(svg)]) == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, svg))
        assert digests == expected, mode


# SHA-256 of results.json of `dqslam solve` on the 40-landmark seed-3
# dataset, whose systems are four times larger than the default ones.
LARGE_MAP_SOLVE_SHA256 = {
    "monocular": "a90a728b6cdf0259d88f3cb639c1047cbe667d16dbf5f637890165fb3235c48c",
    "with-relpos": "6a6bb10878260a39b0afd4a81194f068f5a5a0ba6d17dce8353c1cf6de08e3b0",
}


def test_large_map_solve_fingerprint(tmp_path):
    ds_path = tmp_path / "ds.json"
    assert main(["simulate", "--seed", "3", "--n-landmarks", "40", "--out", str(ds_path)]) == 0
    for mode, expected in LARGE_MAP_SOLVE_SHA256.items():
        out = tmp_path / f"{mode}.json"
        assert main(["solve", "--dataset", str(ds_path), "--mode", mode, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected, mode


def test_solve_results_independent_of_blas_threads(tmp_path):
    # OpenBLAS splits a long dot product across its threads, so a cost
    # summed through BLAS changes in the last bit with the thread count. The
    # 40-landmark with-relpos map has 13 803 residual rows, enough to show it.
    # The simulator's stacked products, and a small evaluate batch, run
    # under the same two settings.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    datasets, docs, csvs = [], [], []
    for threads in ("1", "2"):
        ds_path = tmp_path / f"ds-{threads}.json"
        out = tmp_path / f"threads-{threads}.json"
        out_dir = tmp_path / f"evaluate-{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        for argv in (["simulate", "--seed", "1", "--n-landmarks", "40", "--out", str(ds_path)],
                     ["solve", "--dataset", str(ds_path), "--mode", "with-relpos",
                      "--out", str(out)],
                     ["evaluate", "--trials", "2", "--workers", "1", "--out-dir", str(out_dir)]):
            proc = subprocess.run([sys.executable, "-m", "dqslam", *argv],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        datasets.append(ds_path.read_bytes())
        docs.append(out.read_bytes())
        csvs.append((out_dir / "results.csv").read_bytes())
    assert datasets[0] == datasets[1]
    assert docs[0] == docs[1]
    assert csvs[0] == csvs[1]


def test_solve_manifest_lists_artifacts(tmp_path, capsys):
    ds_path = tmp_path / "ds.json"
    main(["simulate", "--seed", "1", "--out", str(ds_path)] + SMALL)
    out = tmp_path / "res.json"
    capsys.readouterr()
    main(["solve", "--dataset", str(ds_path), "--out", str(out)])
    manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())
    assert str(out) in manifest["artifacts"]
    assert manifest["command"] == "solve"
    assert manifest["seeds"] == [1]
    # scipy's import is timed apart from the solve.
    assert list(manifest["timings_s"]) == ["load_scipy", "solve"]
    # The solver's work is in the manifest and on the summary line, not in
    # the results document.
    work = manifest["solver_work"]
    assert work["linear_solves"] >= 1
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.endswith(f", {work['linear_solves']} linear solves")
    assert "linear_solves" not in out.read_text()


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


def _standard_json(text: str):
    """text parsed as standard JSON (RFC 8259): NaN and Infinity raise."""
    def refuse(constant):
        raise ValueError(f"{constant} is not standard JSON")
    return json.loads(text, parse_constant=refuse)


def test_undefined_statistic_written_as_null(tmp_path):
    # Seed 0's one-landmark monocular estimate is no ellipsoid, so its
    # volume error is undefined: null in the documents (once NaN, which
    # standard JSON parsers reject), still nan in results.csv.
    ds, res = tmp_path / "ds.json", tmp_path / "res.json"
    assert main(["simulate", "--n-landmarks", "1", "--seed", "0", "--out", str(ds)]) == 0
    assert main(["solve", "--dataset", str(ds), "--out", str(res)]) == 0
    assert _standard_json(res.read_text())["metrics"]["rmse_volume"] is None
    out = tmp_path / "e"
    assert main(["evaluate", "--trials", "1", "--n-landmarks", "1", "--workers", "1",
                 "--out-dir", str(out)]) == 0
    summary = _standard_json((out / "summary.json").read_text())
    volume = summary["aggregate"]["monocular"]["rmse_volume"]
    assert volume == {"avg": None, "med": None, "n_excluded": 1}
    for path in (tmp_path / "ds.json.manifest.json", tmp_path / "res.json.manifest.json",
                 out / "run_manifest.json"):
        _standard_json(path.read_text())
    monocular = (out / "results.csv").read_text().splitlines()[1].split(",")
    assert monocular[1] == "monocular" and monocular[5] == "nan"


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


# evaluate runs one job per (seed, mode): two per trial. --workers 0 means
# the CPUs in this process's affinity mask; cpus, when given, replaces it.
@pytest.mark.parametrize(
    "trials, workers, cpus, width",
    [(1, 64, None, 2), (2, 64, None, 4), (3, 2, None, 2),
     (3, 0, None, min(len(os.sched_getaffinity(0)), 6)), (3, 0, {0}, 1), (2, 1, None, 1)],
    ids=["one-trial", "wider-than-jobs", "narrower-than-jobs", "default-width", "one-cpu",
         "one-worker"],
)
def test_evaluate_pool_width_at_most_jobs(trials, workers, cpus, width, tmp_path, monkeypatch):
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
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


def test_evaluate_results_fingerprint(tmp_path):
    # The paper-batch reproduction command; its results.csv bytes are the
    # behaviour fingerprint that every refactor keeps. The committed copy
    # names each field that moved before the digest is compared.
    out = tmp_path / "r"
    assert main(["evaluate", "--trials", "8", "--base-seed", "0", "--workers", "2",
                 "--out-dir", str(out)]) == 0
    with open(out / "results.csv") as got, open(DATA / "evaluate_seeds_0-7.csv") as want:
        got, want = list(csv.DictReader(got)), list(csv.DictReader(want))
    assert [(r["seed"], r["mode"]) for r in got] == [(r["seed"], r["mode"]) for r in want]
    moved = [f"seed {w['seed']} {w['mode']} {name}: {g[name]} (was {w[name]})"
             for g, w in zip(got, want) for name in w if g[name] != w[name]]
    assert not moved, "\n".join(moved)
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == "0981c439a1c47840975642576c6ef728a99221e683401421b52add1c126a28d6"


def test_evaluate_job_failure_fails_its_seed_only(tmp_path, monkeypatch):
    argv = ["evaluate", "--trials", "3", "--base-seed", "4", "--workers", "1", *TINY]
    assert main(argv + ["--out-dir", str(tmp_path / "ok")]) == 0
    rows = (tmp_path / "ok" / "results.csv").read_text().splitlines()

    real_run_trial = cli.run_trial

    def run_trial(dataset, mode, **kwargs):
        if (dataset.seed, mode) == (5, "with-relpos"):
            raise RuntimeError("boom")
        return real_run_trial(dataset, mode=mode, **kwargs)

    monkeypatch.setattr(cli, "run_trial", run_trial)
    out = tmp_path / "failed"
    assert main(argv + ["--out-dir", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_failures"] == 1
    assert summary["failures"] == {"5": "RuntimeError: boom"}
    expected = [row for row in rows if not row.startswith("5,")]
    assert len(expected) == len(rows) - 2
    assert (out / "results.csv").read_text().splitlines() == expected

    # Every job's wall time is in the manifest, in seed then mode order.
    timings = json.loads((out / "run_manifest.json").read_text())["timings_s"]
    assert list(timings) == ["load_scipy", "evaluate"] + [
        f"trial/{seed}/{mode}" for seed in (4, 5, 6) for mode in MODES
    ]
    assert all(t > 0 for t in timings.values())
    # Each job's start offset from the batch start and the process that ran
    # it: this serial batch ran every job here, one after another, the
    # monocular ones first by descending detection count (seeds 6, 5 and 4
    # have 20, 15 and 13).
    jobs = json.loads((out / "run_manifest.json").read_text())["jobs"]
    assert list(jobs) == [f"{seed}/{mode}" for seed in (4, 5, 6) for mode in MODES]
    assert {job["pid"] for job in jobs.values()} == {os.getpid()}
    starts = [jobs[f"{seed}/{mode}"]["start_s"] for mode in MODES for seed in (6, 5, 4)]
    assert 0 <= starts[0] and starts == sorted(starts)
    assert starts[-1] < timings["evaluate"]


# Seeds 7-10 of TINY worlds have 10, 29, 29 and 16 detections.
SCHEDULED = ["evaluate", "--trials", "4", "--base-seed", "7", "--workers", "1", *TINY]


def _start_order(manifest) -> list:
    jobs = manifest["jobs"]
    return sorted(jobs, key=lambda key: jobs[key]["start_s"])


def test_evaluate_starts_longest_solves_first(tmp_path):
    out = tmp_path / "r"
    assert main(SCHEDULED + ["--out-dir", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    world, sensor = WorldConfig(n_landmarks=1, trajectory_length=20, n_loops=1), SensorConfig()
    counts = {str(seed): len(generate_dataset(replace(world, seed=seed), sensor).detections)
              for seed in range(7, 11)}
    assert manifest["schedule"]["detections"] == counts
    # Monocular jobs by descending count, ties by seed, then the with-relpos
    # jobs in the same seed order.
    assert _start_order(manifest) == [f"{seed}/{mode}" for mode in MODES for seed in (8, 9, 10, 7)]
    # A serial batch's ideal makespan is the sum of its job times, which
    # the batch's wall time includes.
    timings = manifest["timings_s"]
    ideal = manifest["schedule"]["ideal_s"]
    assert ideal == pytest.approx(sum(t for k, t in timings.items() if k.startswith("trial/")))
    assert 0 < ideal <= timings["evaluate"]


def test_evaluate_simulation_failure_fails_its_seed_only(tmp_path, monkeypatch):
    real_generate_dataset = cli.generate_dataset

    def generate_dataset(world, sensor):
        if world.seed == 9:
            raise RuntimeError("no world")
        return real_generate_dataset(world, sensor)

    monkeypatch.setattr(cli, "generate_dataset", generate_dataset)
    out = tmp_path / "r"
    assert main(SCHEDULED + ["--out-dir", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failures"] == {"9": "RuntimeError: no world"}
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["7", "7", "8", "8", "10", "10"]
    # Its count reads 0, so its jobs start last in each mode.
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["schedule"]["detections"]["9"] == 0
    assert _start_order(manifest) == [f"{seed}/{mode}" for mode in MODES for seed in (8, 10, 7, 9)]


def test_python_m_dqslam_runs_the_cli():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "dqslam", "evaluate", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "--workers" in proc.stdout


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


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("dataset") / "ds.json"
    assert main(["simulate", "--seed", "7", "--out", str(path)] + SMALL) == 0
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--dataset", "{dir}/nope.json", "--out", "{dir}/o.json"],
        ["solve", "--dataset", "{dir}", "--out", "{dir}/o.json"],
        ["simulate", "--out", "{dir}"] + SMALL,
        ["rerun", "{dir}"],
        ["evaluate", "--trials", "1", "--out-dir", "{dir}/file", "--workers", "1"] + SMALL,
        ["solve", "--dataset", "{dataset}", "--out", "{dir}/missing/r.json"],
        ["solve", "--dataset", "{dataset}", "--out", "{dir}/file/r.json"],
        ["solve", "--dataset", "{dataset}", "--out", "{dir}"],
        ["solve", "--dataset", "{dataset}", "--out", "{dir}/r.json",
         "--svg", "{dir}/missing/m.svg"],
        ["simulate", "--out", "{dir}/missing/ds.json"] + SMALL,
        ["solve", "--dataset", "{dir}/ds.json", "--out", "{dir}/./ds.json"],
        ["solve", "--dataset", "{dataset}", "--out", "{dir}/r.json", "--svg", "{dir}/r.json"],
        ["solve", "--dataset", "{dataset}", "--out", "{dir}/r.json",
         "--svg", "{dir}/r.json.manifest.json"],
        ["solve", "--dataset", "{dataset}", "--out", "{dir}/m.json"],
        ["simulate", "--out", "{dir}/m.json"] + SMALL,
        ["evaluate", "--trials", "2", "--out-dir", "{dir}/csv", "--workers", "1"] + SMALL,
        ["evaluate", "--trials", "2", "--out-dir", "{dir}/summary", "--workers", "1"] + SMALL,
        ["evaluate", "--trials", "2", "--out-dir", "{dir}/manifest", "--workers", "1"] + SMALL,
        ["solve", "--dataset", "{dir}/deep.json", "--out", "{dir}/r.json"],
        ["rerun", "{dir}/deep.json"],
    ],
    ids=["solve-missing-dataset", "solve-dataset-dir", "simulate-out-dir", "rerun-dir",
         "evaluate-out-dir-file", "solve-out-missing-parent", "solve-out-parent-file",
         "solve-out-dir", "solve-svg-missing-parent", "simulate-out-missing-parent",
         "solve-out-is-dataset", "solve-svg-is-out", "solve-svg-is-manifest",
         "solve-manifest-dir", "simulate-manifest-dir", "evaluate-results-dir",
         "evaluate-summary-dir", "evaluate-manifest-dir", "solve-deep-json", "rerun-deep-json"],
)
def test_missing_dataset_reports_error(argv, tmp_path, capsys, monkeypatch, small_dataset):
    # A bad path is refused before any work: no trial runs, no dataset is
    # made and no file is written. An output must not be the dataset, another
    # output or the run manifest (m.json's manifest path is a directory, as
    # is one output of each evaluate out-dir), and an input must not nest
    # beyond the JSON parser's recursion limit. evaluate's jobs swallow the
    # error no_work raises, so its calls are counted.
    calls = []

    def no_work(*args, **kwargs):
        calls.append(args)
        raise AssertionError("work started before the paths were checked")

    monkeypatch.setattr(cli, "run_trial", no_work)
    monkeypatch.setattr(cli, "generate_dataset", no_work)
    (tmp_path / "file").write_text("")
    (tmp_path / "ds.json").write_bytes(small_dataset.read_bytes())
    (tmp_path / "m.json.manifest.json").mkdir()
    # json.dumps recurses too, so the nested text is written directly.
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    for out_dir, name in (("csv", "results.csv"), ("summary", "summary.json"),
                          ("manifest", "run_manifest.json")):
        (tmp_path / out_dir / name).mkdir(parents=True)

    def snapshot():
        return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

    before = snapshot()
    code = main([a.format(dir=tmp_path, dataset=small_dataset) for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert snapshot() == before
    assert calls == []


def test_only_solving_commands_load_scipy(tmp_path):
    """simulate, --help, the dataset reader and a rerun of simulate load no
    scipy module; solve does. Run in a fresh interpreter, since this one
    has loaded scipy already."""
    script = """
import contextlib, io, json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
steps = {}
import dqslam
steps["import dqslam"] = scipy_loaded()
import dqslam.cli
from dqslam.cli import main
steps["import dqslam.cli"] = scipy_loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main(["--help"])
steps["--help"] = scipy_loaded()
ds, out = sys.argv[1] + "/ds.json", sys.argv[1] + "/r.json"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["simulate", "--out", ds] + sys.argv[2:]) == 0
steps["simulate"] = scipy_loaded()
from dqslam.dataset_io import read_dataset
read_dataset(ds)
steps["read_dataset"] = scipy_loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["rerun", ds + ".manifest.json"]) == 0
steps["rerun simulate"] = scipy_loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", "--dataset", ds, "--out", out]) == 0
steps["solve"] = scipy_loaded()
print(json.dumps(steps))
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)] + SMALL,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    solve = steps.pop("solve")
    assert steps == {step: [] for step in steps}
    assert "scipy.sparse.linalg" in solve
