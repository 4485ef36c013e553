"""In-memory span tracer and the timing shims the traced run installs.

A span is (name, start, end, parent, item, self_s): perf_counter seconds,
the index of the enclosing span (-1 at the top), the id of the benchmark
item it belongs to, and its self time (duration minus the time covered by
its direct children). Spans nest properly because every traced call runs
on the benchmark's one thread.

Shims replace a name where the caller looks it up -- GraphEvaluator methods
on the class, module functions on the module that calls them -- so nothing
under src/ changes. `installed` restores every original on exit.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self.counts = defaultdict(int)
        self.values = defaultdict(list)
        self._stack = []  # [span index, seconds covered by children]

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans[sid] = (name, start, end, parent, self.item, end - start - frame[1])

    def shim(self, name, fn, item_of=None):
        """A stand-in for fn that records a span per call; item_of(*args,
        **kwargs), when given, sets the current item id before the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if item_of is not None:
                self.item = item_of(*args, **kwargs)
            return call(self, name, fn, *args, **kwargs)

        return traced

    def self_ms(self, name):
        return [s[5] * 1e3 for s in self.spans if s[0] == name]

    def n_calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def item_totals(self, root):
        """Summed duration of the `root` spans, and the self time of every
        span inside them (root included), summed by name."""
        inside = []
        total = 0.0
        by_name = defaultdict(float)
        for name, start, end, parent, _item, self_s in self.spans:
            within = name == root or (parent >= 0 and inside[parent])
            inside.append(within)
            if name == root:
                total += end - start
            if within:
                by_name[name] += self_s
        return total, dict(by_name)

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_s", "end_s", "parent", "item", "self_s"))
            for i, (name, start, end, parent, item, self_s) in enumerate(self.spans):
                out.writerow((i, name, repr(start), repr(end), parent, item, repr(self_s)))


# -- what the shims observe -------------------------------------------------

def _observe_dataset(tracer, dataset):
    tracer.values["detections"].append(len(dataset.detections))


def _observe_bbox(tracer, corners):
    tracer.counts["bbox_hits"] += corners is not None


def _observe_solve(tracer, solved_and_report):
    tracer.values["lm_iterations"].append(solved_and_report[1].iterations)


def _observe_jacobian(tracer, J):
    tracer.values["jacobian.nnz"].append(J.nnz)
    tracer.values["jacobian.rows"].append(J.shape[0])
    tracer.values["jacobian.cols"].append(J.shape[1])


def _observe_dump(tracer, text):
    tracer.values["dumps_bytes"].append(len(text.encode("utf-8")))


OBSERVERS = {
    "simulator.generate_dataset": _observe_dataset,
    "simulator.project_cube_bbox": _observe_bbox,
    "solver.solve": _observe_solve,
    "factors.GraphEvaluator.jacobian": _observe_jacobian,
    "dataset_io.dumps_dataset": _observe_dump,
}


def call(tracer, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), inside a span when tracer is not None."""
    if tracer is None:
        return fn(*args, **kwargs)
    result = tracer.call(name, fn, *args, **kwargs)
    if name in OBSERVERS:
        OBSERVERS[name](tracer, result)
    return result


@contextlib.contextmanager
def installed(tracer):
    """Install the timing shims for the duration of the block."""
    from dqslam import cli, factors, pipeline, simulator, solver

    ev = factors.GraphEvaluator
    targets = [
        (cli, "generate_dataset", "simulator.generate_dataset",
         lambda world, sensor: world.seed),
        (cli, "run_trial", "pipeline.run_trial",
         lambda dataset, mode="monocular", **kw: f"{dataset.seed}:{mode}"),
        (simulator, "project_cube_bbox", "simulator.project_cube_bbox", None),
        (simulator, "pose_to_extrinsics", "geometry.pose_to_extrinsics", None),
        (pipeline, "build_graph", "pipeline.build_graph", None),
        (pipeline, "initialize_quadrics", "initialization.initialize_quadrics", None),
        (pipeline, "solve", "solver.solve", None),
        (ev, "__init__", "factors.GraphEvaluator.init", None),
        (ev, "residual", "factors.GraphEvaluator.residual", None),
        (ev, "jacobian", "factors.GraphEvaluator.jacobian", None),
        (solver, "linear_step", "solver.linear_step", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in targets]
    try:
        for owner, attr, name, item_of in targets:
            setattr(owner, attr, tracer.shim(name, getattr(owner, attr), item_of))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


# -- per-module metrics -----------------------------------------------------

PER_LAYER = (
    # name, unit
    ("simulator.generate_dataset.ms", "ms"),
    ("simulator.generate_dataset.detections", "count"),
    ("simulator.project_cube_bbox.calls", "count"),
    ("simulator.project_cube_bbox.hit_ratio", "ratio"),
    ("geometry.pose_to_extrinsics.calls", "count"),
    ("dataset_io.dumps_dataset.ms", "ms"),
    ("dataset_io.dumps_dataset.bytes", "bytes"),
    ("dataset_io.dataset_from_dict.ms", "ms"),
    ("pipeline.build_graph.ms", "ms"),
    ("initialization.initialize_quadrics.ms", "ms"),
    ("factors.GraphEvaluator.init.ms", "ms"),
    ("factors.GraphEvaluator.residual.calls", "count"),
    ("factors.GraphEvaluator.residual.ms", "ms"),
    ("factors.GraphEvaluator.jacobian.calls", "count"),
    ("factors.GraphEvaluator.jacobian.ms", "ms"),
    ("factors.jacobian.nnz", "count"),
    ("factors.jacobian.rows", "count"),
    ("factors.jacobian.cols", "count"),
    ("solver.solve.ms", "ms"),
    ("solver.solve.lm_iterations", "count"),
    ("solver.solve.accept_ratio", "ratio"),
    ("solver.linear_step.calls", "count"),
    ("solver.linear_step.ms", "ms"),
    ("pipeline.run_trial.ms", "ms"),
    ("cli.evaluate.self_ms", "ms"),
    ("trace.item_ms", "ms"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

_PER_DATASET = ("simulator.project_cube_bbox", "geometry.pose_to_extrinsics")


def median(values):
    """Median, or 0 when nothing was measured (a layer not exercised, or a
    run whose every item failed)."""
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, root, untraced_item_ms, traced_item_ms):
    """Every PER_LAYER metric from the spans and counts of a traced run.

    `.ms` is the median self time per call; `.calls` is calls per dataset
    (simulator, geometry) or per solve (factors, solver). A layer the
    workload does not exercise reads 0. `root` names the span that encloses
    one item; trace.attributed_frac is the share of the items' traced time
    that the module spans inside them account for as self time, and
    trace.overhead_frac compares the traced items with the same items run
    untraced.
    """
    datasets = len(tracer.values["detections"])
    iterations = tracer.values["lm_iterations"]
    m = {}
    for name, _unit in PER_LAYER:
        base, stat = name.rsplit(".", 1)
        if stat == "ms":
            m[name] = median(tracer.self_ms(base))
        elif stat == "calls":
            m[name] = _ratio(tracer.n_calls(base), datasets if base in _PER_DATASET else len(iterations))
    m["simulator.generate_dataset.detections"] = median(tracer.values["detections"])
    m["simulator.project_cube_bbox.hit_ratio"] = _ratio(
        tracer.counts["bbox_hits"], tracer.n_calls("simulator.project_cube_bbox"))
    m["dataset_io.dumps_dataset.bytes"] = median(tracer.values["dumps_bytes"])
    for k in ("nnz", "rows", "cols"):
        m[f"factors.jacobian.{k}"] = median(tracer.values[f"jacobian.{k}"])
    m["solver.solve.lm_iterations"] = median(iterations)
    m["solver.solve.accept_ratio"] = _ratio(sum(iterations), tracer.n_calls("solver.linear_step"))
    m["cli.evaluate.self_ms"] = median(tracer.self_ms("cli.evaluate"))
    item_s, self_by_name = tracer.item_totals(root)
    inside = sum(v for k, v in self_by_name.items() if k != root)
    m["trace.item_ms"] = median(traced_item_ms)
    m["trace.attributed_frac"] = _ratio(inside, item_s)
    m["trace.overhead_frac"] = _ratio(sum(traced_item_ms), sum(untraced_item_ms)) - 1.0
    return {name: m[name] for name, _unit in PER_LAYER}
