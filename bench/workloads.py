"""The three benchmark workloads.

Each workload visits a fixed pool of seeds whose outputs have committed
references (bench/reference/). The benchmark seed rotates the order in which
a serial workload visits its pool; every run therefore does the same work
and every output can be checked. Timing loops run whole passes over the
pool, one item at a time from this one process, until the requested seconds
have passed, so no run ends on a different share of cheap and dear items.

    paper-batch      `dqslam evaluate` on seeds 0-7 at nproc workers
    large-map-solve  run_trial in both modes on 40-landmark worlds, seeds 1 and 3
    simulate-io      generate_dataset -> dumps_dataset -> dataset_from_dict, seeds 0-6
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from dqslam import SensorConfig, WorldConfig, cli, generate_dataset, run_trial
from dqslam.solver import SolverConfig
from dqslam.dataset_io import dataset_from_dict, dumps_dataset
from dqslam.metrics import MODES

import reference
import tracing


@dataclass(frozen=True)
class Pool:
    seeds: tuple
    world: dict = field(default_factory=dict)  # WorldConfig overrides


POOLS = {
    "paper-batch": Pool(seeds=tuple(range(8))),
    # Seed 1's monocular solve takes 40 iterations and makes the tail; the
    # other three solves cost about 1 s each, so a run's median sits between
    # two like items. (Seed 0's monocular solve hits the iteration cap but
    # alone costs 14 s, too much for the run budget.)
    "large-map-solve": Pool(seeds=(1, 3), world={"n_landmarks": 40}),
    "simulate-io": Pool(seeds=tuple(range(7))),
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    solves: int = 0
    nonconverged: int = 0
    items: int = 0  # solves, or datasets on simulate-io, that were timed
    busy_s: float = 0.0  # time spent inside the timed calls
    item_ms: list = field(default_factory=list)  # latency samples
    prepare_s: float = 0.0
    pos_err: list = field(default_factory=list)
    lm_err: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    has_workers: bool = False  # the workload's own child processes count to peak RSS

    def count(self, failed: bool, nonconverged=None):
        """Count one item; nonconverged is None for an item that is no solve."""
        self.attempted += 1
        self.failed += bool(failed)
        if nonconverged is not None:
            self.solves += 1
            self.nonconverged += bool(nonconverged)


def rotated(items, seed):
    k = seed % len(items)
    return list(items[k:]) + list(items[:k])


def guarded(fn, *args, **kwargs):
    """fn's result, or the exception it raised: a failed item is counted,
    and the run goes on."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every failure is reported
        traceback.print_exc()
        return exc


def timed_passes(keys, run_item, check, seconds):
    """Run whole passes over keys until `seconds` have elapsed.

    check(key, output or exception) runs untimed right after each item, so
    that no output outlives its check; returns [(key, item ms, check's
    result)].
    """
    done = []
    t0 = time.perf_counter()
    while True:
        for key in keys:
            t = time.perf_counter()
            out = guarded(run_item, key)
            ms = (time.perf_counter() - t) * 1e3
            done.append((key, ms, check(key, out)))
        if time.perf_counter() - t0 >= seconds:
            return done


def _fill(o, done, n_keys):
    """Set o's timings from timed_passes; return the first pass's check
    results."""
    o.item_ms = [ms for _k, ms, _r in done]
    o.items = len(done)
    o.busy_s = sum(o.item_ms) / 1e3
    return [r for _k, _ms, r in done[:n_keys] if r is not None]


def serial(o, keys, run_item, check, seconds, tracer, out_dir):
    """Time run_item(key, tracer) over keys, one at a time.

    Untraced (tracer None): whole passes for `seconds`. Traced: one pass in
    which every key runs both untraced and under the shims, in alternating
    order, so that a slow or fast spell of the machine weighs on both sides
    of the tracing overhead alike.
    """
    def untraced_item(key):
        return run_item(key, None)

    if tracer is None:
        return _fill(o, timed_passes(keys, untraced_item, check, seconds), len(keys))

    def traced_item(key):
        tracer.item = ":".join(map(str, key)) if isinstance(key, tuple) else str(key)
        with tracing.installed(tracer):
            return tracer.call("bench.item", run_item, key, tracer)

    untraced, traced = [], []
    for i, key in enumerate(keys):
        pair = [(untraced, untraced_item), (traced, traced_item)]
        for sink, fn in pair[:: 1 if i % 2 == 0 else -1]:
            sink += timed_passes([key], fn, check, 0)
    o.per_layer = tracing.per_layer_metrics(
        tracer, "bench.item", [ms for _k, ms, _r in untraced], [ms for _k, ms, _r in traced])
    tracer.write(out_dir / "spans.csv")
    return _fill(o, untraced, len(keys))


def _world(pool, seed):
    return WorldConfig(seed=seed, **pool.world)


# -- paper-batch -------------------------------------------------------------

def evaluate_argv(pool, out_dir, workers):
    argv = ["evaluate", "--trials", str(len(pool.seeds)), "--base-seed", str(pool.seeds[0]),
            "--out-dir", str(out_dir), "--workers", str(workers)]
    for name, value in pool.world.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


def evaluate_csv(pool, out_dir, workers, tracer=None):
    """Run `dqslam evaluate` through cli.main; return results.csv bytes,
    or None when the command reported failed trials."""
    out_dir = Path(out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = guarded(tracing.call, tracer, "cli.evaluate", cli.main,
                     evaluate_argv(pool, out_dir, workers))
    return (out_dir / "results.csv").read_bytes() if rc == 0 else None


def _check_csv(outcome, csv_bytes, ref, pool):
    """Count every (seed, mode) item of one batch against the reference;
    return the batch's rows.

    The whole batch fails when its bytes differ from the reference capture
    (made serially), so the check holds at any worker count. results.csv
    carries no termination reason: a solve whose accepted iterations reach
    the solver's cap ended at max-iters; a stall fails its row through the
    iteration count.
    """
    expected = reference.rows_by_key(ref)
    batch_ok = csv_bytes is not None and reference.sha256(csv_bytes) == ref["results_csv_sha256"]
    cap = SolverConfig().max_iterations
    rows = {}
    if csv_bytes is not None:
        for row in csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))):
            rows[(int(row["seed"]), row["mode"])] = row
    for key in [(s, m) for s in pool.seeds for m in MODES]:
        row = rows.get(key)
        failed = not batch_ok or row is None or reference.solve_failed(row, expected.get(key))
        outcome.count(failed, row is None or int(row["iterations"]) >= cap)
    return list(rows.values())


def paper_batch(pool, ref, seed, seconds, out_dir, trace):
    """The user's reproduction command at the CLI's default width.

    An item for latency is one evaluate call: the time a user waits for the
    batch. `seed` does not change this workload's inputs: evaluate visits
    the seed slice in its own order.
    """
    workers = os.cpu_count() or 1
    o = Outcome(has_workers=True)
    batches = []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        batches.append(evaluate_csv(pool, out_dir / "nproc", workers))
        o.item_ms.append((time.perf_counter() - t) * 1e3)
        if time.perf_counter() - t0 >= seconds or trace:
            break
    o.items = 2 * len(pool.seeds) * len(batches)
    o.busy_s = sum(o.item_ms) / 1e3
    rows = [_check_csv(o, csv_bytes, ref, pool) for csv_bytes in batches]
    o.pos_err = [float(row["rmse_pos_slam"]) for row in rows[0]]
    o.lm_err = [float(row["rmse_lm"]) for row in rows[0]]
    fingerprint = reference.sha256(batches[-1]) if batches[-1] is not None else None
    o.notes["results_csv_sha256"] = fingerprint
    o.notes["workers"] = workers
    if trace:
        t = time.perf_counter()
        serial_csv = evaluate_csv(pool, out_dir / "serial", 1)
        untraced_ms = [(time.perf_counter() - t) * 1e3]
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            t = time.perf_counter()
            traced = evaluate_csv(pool, out_dir / "traced", 1, tracer)
            traced_ms = [(time.perf_counter() - t) * 1e3]
        for csv_bytes in (serial_csv, traced):
            _check_csv(o, csv_bytes, ref, pool)
        # Width independence: the nproc batch and the serial batches must
        # agree byte for byte, else every item of the batch fails.
        o.notes["width_independent"] = batches[0] is not None and batches[0] == serial_csv == traced
        if not o.notes["width_independent"]:
            o.failed = o.attempted
        o.per_layer = tracing.per_layer_metrics(tracer, "cli.evaluate", untraced_ms, traced_ms)
        tracer.write(out_dir / "spans.csv")
    return o


# -- large-map-solve ---------------------------------------------------------

def large_map_solve(pool, ref, seed, seconds, out_dir, trace):
    """Serial solves of a 4x-landmark map; datasets are made in set-up."""
    tracer = tracing.Tracer() if trace else None
    t = time.perf_counter()
    with tracing.installed(tracer) if trace else contextlib.nullcontext():
        datasets = {
            s: tracing.call(tracer, "simulator.generate_dataset", generate_dataset,
                            _world(pool, s), SensorConfig())
            for s in pool.seeds
        }
    o = Outcome(prepare_s=time.perf_counter() - t)
    bad_data = {s for s, ds in datasets.items()
                if reference.sha256(dumps_dataset(ds)) != ref["datasets"][str(s)]}
    expected = reference.rows_by_key(ref)
    keys = rotated([(s, m) for s in pool.seeds for m in MODES], seed)

    def solve(key, tracer):
        return tracing.call(tracer, "pipeline.run_trial", run_trial, datasets[key[0]], mode=key[1])

    def check(key, run):
        if isinstance(run, Exception):
            o.count(True, nonconverged=True)
            return None
        reason = run.report.termination_reason
        row = reference.solve_row(run.result, reason)
        o.count(key[0] in bad_data or reference.solve_failed(row, expected.get(key)),
                reason in reference.NONCONVERGED)
        return row

    rows = serial(o, keys, solve, check, seconds, tracer, out_dir)
    o.pos_err = [r["rmse_pos_slam"] for r in rows]
    o.lm_err = [r["rmse_lm"] for r in rows]
    return o


# -- simulate-io -------------------------------------------------------------

def _odometry_error(doc):
    """Mean planar distance between the odometry-chained trajectory and the
    ground truth: the position error a solve starts from."""
    gt = doc["ground_truth"]["poses"]
    x, y, th = gt[0]
    total = 0.0
    for (gx, gy, _gth), u in zip(gt[1:], doc["odometry"]):
        x, y, th = x + u["v"] * math.cos(th), y + u["v"] * math.sin(th), th + u["omega"]
        total += math.hypot(x - gx, y - gy)
    return total / len(gt)


def _relpos_errors(doc):
    """Distances between each relative-position measurement, placed in the
    world at its true pose, and the true cube center."""
    poses = doc["ground_truth"]["poses"]
    centers = {lm["id"]: lm["center"] for lm in doc["ground_truth"]["landmarks"]}
    errors = []
    for z in doc["relative_positions"]:
        px, py, th = poses[z["pose_index"]]
        zx, zy, zz = z["z"]
        cx, cy, cz = centers[z["landmark_id"]]
        wx = px + math.cos(th) * zx - math.sin(th) * zy
        wy = py + math.sin(th) * zx + math.cos(th) * zy
        errors.append(math.sqrt((wx - cx) ** 2 + (wy - cy) ** 2 + (zz - cz) ** 2))
    return errors


def simulate_io(pool, ref, seed, seconds, out_dir, trace):
    """The `simulate` / `solve --dataset` file path, with no solver work."""
    def item(s, tracer):
        ds = tracing.call(tracer, "simulator.generate_dataset", generate_dataset,
                          _world(pool, s), SensorConfig())
        text = tracing.call(tracer, "dataset_io.dumps_dataset", dumps_dataset, ds)
        doc = json.loads(text)
        back = tracing.call(tracer, "dataset_io.dataset_from_dict", dataset_from_dict, doc)
        return text, doc, back

    def check(s, out):
        if isinstance(out, Exception):
            o.count(True)
            return None
        text, doc, back = out
        o.count(reference.sha256(text) != ref["datasets"][str(s)]
                or guarded(dumps_dataset, back) != text)
        return _odometry_error(doc), _relpos_errors(doc)

    o = Outcome()
    keys = rotated(list(pool.seeds), seed)
    tracer = tracing.Tracer() if trace else None
    for pos_err, lm_errs in serial(o, keys, item, check, seconds, tracer, out_dir):
        o.pos_err.append(pos_err)
        o.lm_err.extend(lm_errs)
    return o


WORKLOADS = {
    "paper-batch": paper_batch,
    "large-map-solve": large_map_solve,
    "simulate-io": simulate_io,
}


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples above it, or the maximum when fewer than 20 samples leave that
    percentile below the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n
