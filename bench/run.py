"""dqslam benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload paper-batch --seed 0 --seconds 10 --trace 0

Run from the repository root; the program is imported from src/. With
--trace 0 the run measures the end-to-end metrics untraced; with --trace 1
it runs the workload's items untraced and then under timing shims, and
reports the per-module metrics. Both check every output against
bench/reference/. Human-readable lines come first; the last line of
standard output is the JSON result, and a fuller record (machine facts,
tail percentile, fingerprint) is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
IMPORT_PROBES = 5

END_TO_END = (
    # name, unit
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("converged_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("pos_err_med_m", "m"),
    ("lm_err_med_m", "m"),
)


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dqslam.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t)
    return sorted(times)[IMPORT_PROBES // 2]


def git_sha() -> str:
    """HEAD's commit id, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy

    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "thread_env": {k: os.environ.get(k) for k in threads},
    }


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this process, plus that of its largest child
    when the workload's own children (pool workers) are to be counted
    (ru_maxrss is in KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def end_to_end(o, setup_s) -> dict:
    from tracing import median
    from workloads import tail

    tail_ms, tail_pct, n = tail(o.item_ms)
    o.notes["item_tail"] = {"percentile": tail_pct, "samples": n}
    o.notes["fail_frac"] = o.failed / o.attempted
    o.notes["nonconverged_frac"] = o.nonconverged / o.solves if o.solves else 0.0
    return {
        "setup_s": setup_s,
        "items_per_s": o.items / o.busy_s if o.busy_s else 0.0,
        "item_p50_ms": median(o.item_ms),
        "item_tail_ms": tail_ms,
        "ok_frac": 1.0 - o.notes["fail_frac"],
        # No solves (simulate-io): nothing failed to converge.
        "converged_frac": 1.0 - o.notes["nonconverged_frac"],
        "peak_rss_mb": peak_rss_mb(o.has_workers),
        "pos_err_med_m": median(o.pos_err),
        "lm_err_med_m": median(o.lm_err),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dqslam" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    import workloads
    from tracing import PER_LAYER

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    facts = machine_facts()
    setup_import_s = import_seconds()
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    pool = workloads.POOLS[args.workload]
    ref = reference.load(args.workload)
    o = workloads.WORKLOADS[args.workload](pool, ref, args.seed, args.seconds, out_dir,
                                           bool(args.trace))
    metrics = end_to_end(o, setup_import_s + o.prepare_s)
    units = dict(END_TO_END)
    if args.trace:
        metrics = o.per_layer
        units = dict(PER_LAYER)

    for name, value in metrics.items():
        print(f"{args.workload:<16} {name:<42} {value:>14.6g} {units[name]}")
    for key, value in o.notes.items():
        print(f"{args.workload:<16} {key:<42} {value}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pool": list(pool.seeds), "machine": facts,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "setup_import_s": setup_import_s, "prepare_s": o.prepare_s,
        "notes": o.notes, "metrics": metrics, "item_ms": o.item_ms,
    }
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({
        "correct": o.failed == 0,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
