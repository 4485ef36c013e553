"""Command-line harness: simulate datasets, solve trials, run batch
evaluations.

Subcommands:
    simulate   generate one dataset file for a seed
    solve      solve one dataset in either mode, write results (+ SVG map)
    evaluate   run n seeded trials through simulate -> solve -> metrics in
               both modes, write a per-trial CSV and an aggregate summary
    rerun      re-execute the command recorded in a run manifest

Every world, sensor, solver, factor-noise and quadric-initialization
parameter is a kebab-case flag generated from its config dataclass field,
which declares the flag's name (if not its own), like its range; defaults
reproduce the published synthetic evaluation setup, and the dataclasses
are the only range check (a rejected value exits with code 2 before any
work). Each command writes a run manifest listing its outputs, and reruns
with equal flags and seeds reproduce those outputs byte for byte.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .config import ConfigError, Settings, setting
from .dataset_io import _check_schema, _read_json, read_dataset, write_dataset
from .geometry import QUADRIC_CENTROID
from .initialization import InitStrategy
from .metrics import METRICS, MODES, TrialResult, aggregate, format_table
from .pipeline import GraphNoiseConfig, run_trial
from .simulator import SensorConfig, WorldConfig, generate_dataset
from .solver import SolverConfig, load_scipy
from .svgplot import trial_svg

__all__ = ["main"]

MANIFEST_SCHEMA, MANIFEST_VERSION = "dqslam.run-manifest", 1
RESULTS_SCHEMA = "dqslam.results"
SUMMARY_SCHEMA = "dqslam.summary"

CSV_COLUMNS = tuple(f.name for f in fields(TrialResult))


def _fmt_float(v: float) -> str:
    # Positional (decimal-point) notation with 12 significant digits.
    return np.format_float_positional(
        float(v), precision=12, unique=False, fractional=False
    )


# -- flag plumbing ---------------------------------------------------------

def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@dataclass(frozen=True)
class BatchConfig(Settings):
    """evaluate's seeds, base_seed + i for each of the trials, and pool width."""

    trials: int = setting(50, ge=1, le=10_000, help="number of trials")
    base_seed: int = setting(0, help="first seed", ge=next(  # a trial seed's floor
        f.metadata["ge"] for f in fields(WorldConfig) if f.name == "seed"))
    workers: int = setting(0, ge=0, le=256, help="worker processes, at most one per job, i.e. two "
                           "per trial; 0 = the CPUs this process may use")


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
            parser.add_argument(_flag(f.metadata["flag"] or f.name), **kwargs)


def _configs(parser, args, classes) -> list:
    """One config per class from the parsed flags, built before any work; a
    rejected value ends the run through parser.error, naming its flag. A
    field without a flag (evaluate's seed) keeps its default."""
    values = vars(args)
    configs = []
    for cls in classes:
        names = {f.name: f.metadata["flag"] or f.name for f in fields(cls)}
        kwargs = {name: values[dest] for name, dest in names.items() if dest in values}
        try:
            configs.append(cls(**kwargs))
        except ConfigError as exc:
            parser.error(f"argument {_flag(names[exc.name])}: {exc.requirement}")
    return configs


# -- outputs ----------------------------------------------------------------

def _check_out_paths(outputs: dict, dataset=None) -> None:
    """Before any work, refuse an output path (outputs maps a label such as
    "--out" to it) that cannot be written as a file -- its parent is not an
    existing directory, or it is a directory -- and any two of the dataset
    read and the outputs that name the same file, so that no output
    overwrites the input or another output."""
    named = {} if dataset is None else {os.path.realpath(dataset): f"--dataset {dataset}"}
    for flag, path in outputs.items():
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValueError(f"{flag} {path}: {parent} is not an existing directory")
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path}: is a directory")
        real = os.path.realpath(path)
        if real in named:
            raise ValueError(f"{flag} {path}: same file as {named[real]}")
        named[real] = f"{flag} {path}"


# -- manifest ---------------------------------------------------------------

def _standard_json(value):
    """value with every non-finite float as None: standard JSON (RFC 8259)
    has null, but no NaN or Infinity."""
    if isinstance(value, dict):
        return {key: _standard_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_standard_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write(path, text: str) -> None:
    """Write an artifact: text, complete, as the file at path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path, doc) -> None:
    """Write doc as standard JSON, an undefined statistic (nan) as null."""
    _write(path, json.dumps(_standard_json(doc), indent=1, allow_nan=False) + "\n")


def _write_manifest(path, command, argv, config: dict, seeds, artifacts, timings, **extra):
    """Write a run manifest; `extra` adds command-specific entries."""
    doc = {
        "schema": MANIFEST_SCHEMA,
        "version": MANIFEST_VERSION,
        "tool_version": __version__,
        "command": command,
        "argv": list(argv),
        "config": config,
        "seeds": list(seeds),
        "artifacts": [str(a) for a in artifacts],
        "timings_s": {k: float(v) for k, v in timings.items()},
        **extra,
    }
    _write_json(path, doc)


# -- simulate ---------------------------------------------------------------

def _cmd_simulate(args, argv, world, sensor) -> int:
    manifest = _manifest_path(args.out)
    _check_out_paths({"--out": args.out, "manifest": manifest})
    t0 = time.perf_counter()
    dataset = generate_dataset(world, sensor)
    write_dataset(dataset, args.out)
    elapsed = time.perf_counter() - t0

    counts = dataset.detections_per_landmark()
    print(f"wrote {args.out}")
    print(
        f"poses: {len(dataset.ground_truth_poses)}  "
        f"detections: {len(dataset.detections)}  "
        f"landmarks: {len(dataset.landmark_sides)}"
    )
    print("detections per landmark:", " ".join(f"{j}:{n}" for j, n in enumerate(counts)))
    _write_manifest(
        manifest,
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

def _solve_svg(dataset, run) -> str:
    init, slam = run.initial_graph, run.solved_graph
    centroid_xy = QUADRIC_CENTROID[:2]
    return trial_svg(
        dataset.ground_truth_poses[:, :2],
        init.poses[:, :2],
        slam.poses[:, :2],
        dataset.landmark_centers[:, :2],
        init.quadrics[:, centroid_xy],
        slam.quadrics[:, centroid_xy],
    )


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
        "metrics": {name: getattr(r, name) for name in (*METRICS, "volume_invalid_count")},
        "estimates": {
            "poses": run.solved_graph.poses.tolist(),
            "quadrics": run.solved_graph.quadrics.tolist(),
        },
    }


def _cmd_solve(args, argv, strategy, solver_cfg, noise) -> int:
    manifest = _manifest_path(args.out)
    outputs = {"--out": args.out, "--svg": args.svg, "manifest": manifest}
    _check_out_paths({k: v for k, v in outputs.items() if v}, dataset=args.dataset)
    dataset = read_dataset(args.dataset)

    load_s = load_scipy()
    t0 = time.perf_counter()
    run = run_trial(
        dataset,
        mode=args.mode,
        noise=noise,
        solver_config=solver_cfg,
        init_strategy=strategy,
    )
    elapsed = time.perf_counter() - t0

    _write_json(args.out, _results_doc(run))
    artifacts = [args.out]
    if args.svg:
        _write(args.svg, _solve_svg(dataset, run))
        artifacts.append(args.svg)

    rep = run.report
    r = run.result
    print(
        f"{args.mode}: {rep.termination_reason} after {rep.iterations} iterations, "
        f"cost {rep.initial_cost:.6g} -> {rep.final_cost:.6g}, "
        f"{rep.linear_solves} linear solves"
    )
    print(
        f"rmse_pos init {r.rmse_pos_init:.4f} m -> slam {r.rmse_pos_slam:.4f} m; "
        f"rmse_lm {r.rmse_lm:.4f} m"
    )
    _write_manifest(
        manifest,
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
        {"load_scipy": load_s, "solve": elapsed},
        solver_work={"linear_solves": rep.linear_solves},
    )
    return 1 if rep.termination_reason == "stalled" else 0


# -- evaluate ---------------------------------------------------------------

def _detection_count(world, sensor) -> int:
    """Worker: the seed's detection count, evaluate's estimate of its solves'
    cost; 0 when its simulation raises, which its jobs then report."""
    try:
        return len(generate_dataset(world, sensor).detections)
    except Exception:
        return 0


def _evaluate_job(world, mode, sensor, noise, solver_cfg, strategy, batch_start):
    """Worker: one seed in one mode. The dataset is regenerated from the
    seed, which is deterministic and cheap next to a solve.

    Returns (result, error message, record); exactly one of result and
    error is None. The record holds the job's start in seconds after
    batch_start (a time.time()), its wall seconds and the pid that ran it.
    """
    start_s = time.time() - batch_start
    t0 = time.perf_counter()
    try:
        dataset = generate_dataset(world, sensor)
        run = run_trial(
            dataset,
            mode=mode,
            noise=noise,
            solver_config=solver_cfg,
            init_strategy=strategy,
        )
        result, error = run.result, None
    except Exception as exc:  # trial failure: recorded, run continues
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, {"start_s": start_s, "seconds": time.perf_counter() - t0,
                           "pid": os.getpid()}


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask (taskset, cgroup
    cpusets) where the platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _csv_row(result) -> str:
    values = (getattr(result, name) for name in CSV_COLUMNS)
    return ",".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in values)


def _cmd_evaluate(args, argv, batch, strategy, world, sensor, solver_cfg, noise) -> int:
    seeds = [batch.base_seed + i for i in range(batch.trials)]
    count = functools.partial(_detection_count, sensor=sensor)

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path, summary_path, manifest_path = (
        os.path.join(args.out_dir, name)
        for name in ("results.csv", "summary.json", "run_manifest.json")
    )
    _check_out_paths({"results": csv_path, "summary": summary_path, "manifest": manifest_path})
    # Before the pool forks, so that its workers inherit scipy.
    load_s = load_scipy()
    job = functools.partial(_evaluate_job, sensor=sensor, noise=noise, solver_cfg=solver_cfg,
                            strategy=strategy, batch_start=time.time())
    t0 = time.perf_counter()
    # One job per (seed, mode). A pool forks all its workers at the first
    # submit; more than one per job would only sit idle.
    workers = min(batch.workers or _available_cpus(), len(MODES) * len(seeds))
    worlds = {seed: replace(world, seed=seed) for seed in seeds}
    with (contextlib.nullcontext() if workers == 1 else
          concurrent.futures.ProcessPoolExecutor(max_workers=workers)) as pool:
        run = map if pool is None else pool.map
        # Longest solves first: a seed's detection count estimates the cost
        # of its solves, so a first pass simulates each seed to count them.
        # The monocular jobs, which take most of a batch's time, go in
        # descending count (ties by seed), then the with-relpos ones in the
        # same seed order; each job simulates its seed again.
        counts = dict(zip(seeds, run(count, worlds.values())))
        order = sorted(seeds, key=lambda seed: (-counts[seed], seed))
        jobs = [(seed, mode) for mode in MODES for seed in order]
        outcomes = list(run(job, [worlds[seed] for seed, _ in jobs], [mode for _, mode in jobs]))
    elapsed = time.perf_counter() - t0

    # Back into seed order, then MODES order. A seed with a failed mode
    # contributes no rows and one failure: its first failing mode's message.
    by_job = dict(zip(jobs, outcomes))
    job_log = {f"{seed}/{mode}": by_job[seed, mode][2] for seed in seeds for mode in MODES}
    job_seconds = [record["seconds"] for record in job_log.values()]
    all_results, failures = [], {}
    for seed in seeds:
        runs = [by_job[seed, mode] for mode in MODES]
        errors = [error for _, error, *_ in runs if error is not None]
        if errors:
            failures[seed] = errors[0]
        else:
            all_results.extend(result for result, *_ in runs)

    _write(csv_path, "".join(f"{line}\n" for line in (",".join(CSV_COLUMNS),
                                                      *map(_csv_row, all_results))))

    summary = aggregate(all_results) if all_results else {}
    summary_doc = {
        "schema": SUMMARY_SCHEMA,
        "version": 1,
        "n_trials": batch.trials,
        "base_seed": batch.base_seed,
        "n_failures": len(failures),
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "aggregate": summary,
    }
    _write_json(summary_path, summary_doc)

    if summary:
        print(format_table(summary))
    if failures:
        print(f"{len(failures)} of {batch.trials} trials failed:", file=sys.stderr)
        for seed, msg in sorted(failures.items()):
            print(f"  seed {seed}: {msg}", file=sys.stderr)

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
        {"load_scipy": load_s, "evaluate": elapsed},
        jobs=job_log,
        schedule={
            "detections": {str(seed): counts[seed] for seed in seeds},
            # The makespan had the jobs been split evenly between the workers.
            "ideal_s": max(sum(job_seconds) / workers, max(job_seconds)),
        },
    )
    return 1 if failures else 0


# -- rerun ------------------------------------------------------------------

def _cmd_rerun(args, _argv) -> int:
    doc = _read_json(args.manifest)
    _check_schema(doc, MANIFEST_SCHEMA, MANIFEST_VERSION, args.manifest)
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
    _add_config_flags(p_sim, _COMMANDS["simulate"][1])
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
    _add_config_flags(p_solve, _COMMANDS["solve"][1])
    p_solve.add_argument("--out", required=True, help="output results path (JSON)")
    p_solve.add_argument("--svg", default=None, help="optional SVG map path")

    p_eval = sub.add_parser(
        "evaluate",
        help="run a seeded batch of trials in both modes",
        description="Run n seeded trials (seed_i = base-seed + i) through "
        "simulate -> solve -> metrics in both modes, one pool job per seed "
        "and mode, and write per-trial CSV plus an aggregate summary in the "
        "published table layout. A first pass simulates each seed to count "
        "its detections; the monocular jobs start first, in descending "
        "count, then the with-relpos ones in the same seed order.",
    )
    p_eval.add_argument("--out-dir", required=True, help="output directory")
    _add_config_flags(p_eval, _COMMANDS["evaluate"][1], skip=("seed",))

    p_rerun = sub.add_parser(
        "rerun",
        help="re-execute a recorded run manifest",
        description="Re-execute the command stored in a run manifest; "
        "outputs are reproduced byte-identically.",
    )
    p_rerun.add_argument("manifest", help="path to a run manifest JSON")

    return parser, sub.choices


# Each subcommand's handler and the configs it builds from its flags, in
# --help order; the handler receives them in this order after (args, argv).
_COMMANDS = {
    "simulate": (_cmd_simulate, (WorldConfig, SensorConfig)),
    "solve": (_cmd_solve, (InitStrategy, SolverConfig, GraphNoiseConfig)),
    "evaluate": (_cmd_evaluate, (BatchConfig, InitStrategy, WorldConfig, SensorConfig,
                                 SolverConfig, GraphNoiseConfig)),
    "rerun": (_cmd_rerun, ()),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    handler, classes = _COMMANDS[args.command]
    configs = _configs(commands[args.command], args, classes)
    try:
        return handler(args, argv, *configs)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
