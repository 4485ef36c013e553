"""Command-line harness: simulate datasets, solve trials, run batch
evaluations.

Subcommands:
    simulate   generate one dataset file for a seed
    solve      solve one dataset in either mode, write results (+ SVG map)
    evaluate   run n seeded trials through simulate -> solve -> metrics in
               both modes, write a per-trial CSV and an aggregate summary
    rerun      re-execute the command recorded in a run manifest

Every world, sensor, solver, factor-noise and quadric-initialization
parameter is a kebab-case flag generated from its config dataclass field;
defaults reproduce the published synthetic evaluation setup, and the
dataclasses are the only range check (a rejected value exits with code 2
before any work). Each command writes a run manifest listing its outputs,
and reruns with equal flags and seeds reproduce those outputs byte for byte.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .config import ConfigError
from .dataset_io import read_dataset, write_dataset
from .initialization import InitStrategy
from .metrics import MODES, aggregate, format_table
from .pipeline import GraphNoiseConfig, run_trial
from .simulator import SensorConfig, WorldConfig, generate_dataset
from .solver import SolverConfig
from .svgplot import trial_svg

__all__ = ["main"]

MANIFEST_SCHEMA = "dqslam.run-manifest"
RESULTS_SCHEMA = "dqslam.results"

CSV_COLUMNS = (
    "seed",
    "mode",
    "rmse_pos_init",
    "rmse_pos_slam",
    "rmse_lm",
    "rmse_volume",
    "volume_invalid_count",
    "iterations",
    "final_cost",
)


def _fmt_float(v: float) -> str:
    # Positional (decimal-point) notation with 12 significant digits.
    return np.format_float_positional(
        float(v), precision=12, unique=False, fractional=False
    )


# -- flag plumbing ---------------------------------------------------------

def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _dest(cls, name: str) -> str:
    # --mode already selects the factor set, so InitStrategy.mode is --init.
    return "init" if (cls, name) == (InitStrategy, "mode") else name


# The configs each subcommand builds from its flags, in --help order; the
# command receives them in this order after (args, argv).
_CONFIGS = {
    "simulate": (WorldConfig, SensorConfig),
    "solve": (InitStrategy, SolverConfig, GraphNoiseConfig),
    "evaluate": (InitStrategy, WorldConfig, SensorConfig, SolverConfig, GraphNoiseConfig),
    "rerun": (),
}


def _add_config_flags(parser, classes, skip=()) -> None:
    """One flag per config field, in field order: the type and default come
    from the field's default, choices and help from its declaration."""
    for cls in classes:
        for f in fields(cls):
            if f.name in skip:
                continue
            describe = f.metadata.get("help") or f.name.replace("_", " ")
            kwargs = dict(default=f.default, help=f"{describe} (default: {f.default})")
            if f.metadata.get("choices"):
                kwargs["choices"] = f.metadata["choices"]
            else:
                kwargs["type"] = type(f.default)
            parser.add_argument(_flag(_dest(cls, f.name)), **kwargs)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _configs(parser, args, classes) -> list:
    """One config per class from the parsed flags, built before any work; a
    rejected value ends the run through parser.error, naming its flag. A
    field without a flag (evaluate's seed) keeps its default."""
    values = vars(args)
    configs = []
    for cls in classes:
        names = {f.name: _dest(cls, f.name) for f in fields(cls)}
        kwargs = {name: values[dest] for name, dest in names.items() if dest in values}
        try:
            configs.append(cls(**kwargs))
        except ConfigError as exc:
            parser.error(f"argument {_flag(names[exc.name])}: {exc.requirement}")
    return configs


# -- manifest ---------------------------------------------------------------

def _write_manifest(path, command, argv, config: dict, seeds, artifacts, timings):
    doc = {
        "schema": MANIFEST_SCHEMA,
        "version": 1,
        "tool_version": __version__,
        "command": command,
        "argv": list(argv),
        "config": config,
        "seeds": list(seeds),
        "artifacts": [str(a) for a in artifacts],
        "timings_s": {k: float(v) for k, v in timings.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# -- simulate ---------------------------------------------------------------

def _cmd_simulate(args, argv, world, sensor) -> int:
    t0 = time.perf_counter()
    dataset = generate_dataset(world, sensor)
    write_dataset(dataset, args.out)
    elapsed = time.perf_counter() - t0

    counts = dataset.detections_per_landmark()
    print(f"wrote {args.out}")
    print(
        f"poses: {len(dataset.ground_truth_poses)}  "
        f"detections: {len(dataset.detections)}  "
        f"landmarks: {len(dataset.landmarks)}"
    )
    print("detections per landmark:", " ".join(f"{j}:{n}" for j, n in sorted(counts.items())))
    _write_manifest(
        _manifest_path(args.out),
        "simulate",
        argv,
        {"world": asdict(world), "sensor": asdict(sensor)},
        [world.seed],
        [args.out],
        {"simulate": elapsed},
    )
    return 0


def _manifest_path(out_path) -> str:
    return str(out_path) + ".manifest.json"


# -- solve ------------------------------------------------------------------

def _solve_svg(run) -> str:
    gt = np.array([[p.x, p.y] for p in run.dataset.ground_truth_poses])
    init = np.array([[p.x, p.y] for p in run.initial_graph.poses])
    slam = np.array([[p.x, p.y] for p in run.solved_graph.poses])
    gt_lm = np.array([lm.center[:2] for lm in run.dataset.landmarks])
    init_lm = np.array([q.centroid()[:2] for q in run.initial_graph.quadrics])
    slam_lm = np.array([q.centroid()[:2] for q in run.solved_graph.quadrics])
    return trial_svg(gt, init, slam, gt_lm, init_lm, slam_lm)


def _results_doc(run) -> dict:
    r = run.result
    return {
        "schema": RESULTS_SCHEMA,
        "version": 1,
        "seed": int(r.seed),
        "mode": r.mode,
        "report": {
            "iterations": run.report.iterations,
            "initial_cost": run.report.initial_cost,
            "final_cost": run.report.final_cost,
            "converged": run.report.converged,
            "termination_reason": run.report.termination_reason,
        },
        "metrics": {
            "rmse_pos_init": r.rmse_pos_init,
            "rmse_pos_slam": r.rmse_pos_slam,
            "rmse_lm": r.rmse_lm,
            "rmse_volume": r.rmse_volume,
            "volume_invalid_count": r.volume_invalid_count,
        },
        "estimates": {
            "poses": [[p.x, p.y, p.theta] for p in run.solved_graph.poses],
            "quadrics": [[float(v) for v in q.q] for q in run.solved_graph.quadrics],
        },
    }


def _cmd_solve(args, argv, strategy, solver_cfg, noise) -> int:
    dataset = read_dataset(args.dataset)

    t0 = time.perf_counter()
    run = run_trial(
        dataset,
        mode=args.mode,
        noise=noise,
        solver_config=solver_cfg,
        init_strategy=strategy,
    )
    elapsed = time.perf_counter() - t0

    doc = _results_doc(run)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    artifacts = [args.out]
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_solve_svg(run))
        artifacts.append(args.svg)

    rep = run.report
    r = run.result
    print(
        f"{args.mode}: {rep.termination_reason} after {rep.iterations} iterations, "
        f"cost {rep.initial_cost:.6g} -> {rep.final_cost:.6g}"
    )
    print(
        f"rmse_pos init {r.rmse_pos_init:.4f} m -> slam {r.rmse_pos_slam:.4f} m; "
        f"rmse_lm {r.rmse_lm:.4f} m"
    )
    _write_manifest(
        _manifest_path(args.out),
        "solve",
        argv,
        {
            "noise": asdict(noise),
            "solver": asdict(solver_cfg),
            "init": asdict(strategy),
            "mode": args.mode,
            "dataset": str(args.dataset),
        },
        [dataset.seed],
        artifacts,
        {"solve": elapsed},
    )
    failed = rep.termination_reason == "stalled" or not np.isfinite(rep.final_cost)
    return 1 if failed else 0


# -- evaluate ---------------------------------------------------------------

def _evaluate_seed(world, sensor, noise, solver_cfg, strategy):
    """Worker: one seed through both modes (shared dataset)."""
    try:
        dataset = generate_dataset(world, sensor)
        results = []
        for mode in MODES:
            run = run_trial(
                dataset,
                mode=mode,
                noise=noise,
                solver_config=solver_cfg,
                init_strategy=strategy,
            )
            results.append(run.result)
        return world.seed, results, None
    except Exception as exc:  # trial failure: recorded, run continues
        return world.seed, None, f"{type(exc).__name__}: {exc}"


def _csv_row(result) -> str:
    return ",".join(
        [
            str(result.seed),
            result.mode,
            _fmt_float(result.rmse_pos_init),
            _fmt_float(result.rmse_pos_slam),
            _fmt_float(result.rmse_lm),
            _fmt_float(result.rmse_volume),
            str(result.volume_invalid_count),
            str(result.iterations),
            _fmt_float(result.final_cost),
        ]
    )


def _cmd_evaluate(args, argv, strategy, world, sensor, solver_cfg, noise) -> int:
    seeds = [args.base_seed + i for i in range(args.trials)]
    worlds = [replace(world, seed=seed) for seed in seeds]
    job = functools.partial(
        _evaluate_seed, sensor=sensor, noise=noise, solver_cfg=solver_cfg, strategy=strategy
    )

    os.makedirs(args.out_dir, exist_ok=True)
    t0 = time.perf_counter()
    # A pool forks all its workers at the first submit; more than one per
    # trial would only sit idle.
    workers = min(args.workers or os.cpu_count() or 1, args.trials)
    if workers == 1:
        outcomes = list(map(job, worlds))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(job, worlds))
    elapsed = time.perf_counter() - t0

    all_results, failures = [], {}
    for seed, results, error in outcomes:
        if error is not None:
            failures[seed] = error
        else:
            all_results.extend(results)

    csv_path = os.path.join(args.out_dir, "results.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for result in all_results:
            fh.write(_csv_row(result) + "\n")

    summary = aggregate(all_results) if all_results else {}
    summary_doc = {
        "schema": "dqslam.summary",
        "version": 1,
        "n_trials": args.trials,
        "base_seed": args.base_seed,
        "n_failures": len(failures),
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "aggregate": summary,
    }
    summary_path = os.path.join(args.out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary_doc, fh, indent=1)
        fh.write("\n")

    if summary:
        print(format_table(summary))
    if failures:
        print(f"{len(failures)} of {args.trials} trials failed:", file=sys.stderr)
        for seed, msg in sorted(failures.items()):
            print(f"  seed {seed}: {msg}", file=sys.stderr)

    manifest_path = os.path.join(args.out_dir, "run_manifest.json")
    _write_manifest(
        manifest_path,
        "evaluate",
        argv,
        {
            "world": {k: v for k, v in asdict(world).items() if k != "seed"},
            "sensor": asdict(sensor),
            "noise": asdict(noise),
            "solver": asdict(solver_cfg),
            "init": asdict(strategy),
            "workers": workers,
        },
        seeds,
        [csv_path, summary_path],
        {"evaluate": elapsed},
    )
    return 1 if failures else 0


# -- rerun ------------------------------------------------------------------

def _cmd_rerun(args, _argv) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"{args.manifest}: not a run manifest")
    argv = doc.get("argv")
    # A rerun of a rerun could name its own manifest and never end.
    commands = [c for c in _COMMANDS if c != "rerun"]
    if not (
        isinstance(argv, list)
        and all(isinstance(a, str) for a in argv)
        and argv
        and argv[0] in commands
    ):
        raise ValueError(
            f"{args.manifest}: argv must be a list of strings starting with "
            f"one of {', '.join(commands)}"
        )
    return main(argv)


# -- parser -----------------------------------------------------------------

def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="dqslam",
        description="SLAM with dual-quadric object landmarks: synthetic "
        "dataset generation, solving and batch evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"dqslam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate",
        help="generate a dataset file",
        description="Generate one synthetic trial dataset. Defaults follow "
        "the published evaluation setup (130 m two-loop trajectory, 10 cube "
        "landmarks, 15 mm / 10 um / 1280x1024 camera, 1 px box noise).",
    )
    _add_config_flags(p_sim, _CONFIGS["simulate"])
    p_sim.add_argument("--out", required=True, help="output dataset path (JSON)")

    p_solve = sub.add_parser(
        "solve",
        help="solve one dataset",
        description="Solve a dataset in monocular or with-relpos mode and "
        "write results (and optionally an SVG map: blue = odometry "
        "initialization, green = ground truth, red = SLAM).",
    )
    p_solve.add_argument("--dataset", required=True, help="dataset path")
    p_solve.add_argument(
        "--mode", choices=MODES, default="monocular", help="factor set to use"
    )
    _add_config_flags(p_solve, _CONFIGS["solve"])
    p_solve.add_argument("--out", required=True, help="output results path (JSON)")
    p_solve.add_argument("--svg", default=None, help="optional SVG map path")

    p_eval = sub.add_parser(
        "evaluate",
        help="run a seeded batch of trials in both modes",
        description="Run n seeded trials (seed_i = base-seed + i) through "
        "simulate -> solve -> metrics in both modes, sharing each trial's "
        "dataset across modes, and write per-trial CSV plus an aggregate "
        "summary in the published table layout.",
    )
    seed_min = {f.name: f for f in fields(WorldConfig)}["seed"].metadata["ge"]
    p_eval.add_argument(
        "--trials", type=_int_at_least(1), default=50, help="number of trials (default: 50)"
    )
    p_eval.add_argument(
        "--base-seed", type=_int_at_least(seed_min), default=0, help="first seed (default: 0)"
    )
    p_eval.add_argument("--out-dir", required=True, help="output directory")
    p_eval.add_argument(
        "--workers",
        type=_int_at_least(0),
        default=0,
        help="worker processes, at most one per trial (default: 0 = available parallelism)",
    )
    _add_config_flags(p_eval, _CONFIGS["evaluate"], skip=("seed",))

    p_rerun = sub.add_parser(
        "rerun",
        help="re-execute a recorded run manifest",
        description="Re-execute the command stored in a run manifest; "
        "outputs are reproduced byte-identically.",
    )
    p_rerun.add_argument("manifest", help="path to a run manifest JSON")

    return parser, sub.choices


_COMMANDS = {
    "simulate": _cmd_simulate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "rerun": _cmd_rerun,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    configs = _configs(commands[args.command], args, _CONFIGS[args.command])
    try:
        return _COMMANDS[args.command](args, argv, *configs)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
