"""Reference outputs for the benchmark workloads, and the check against them.

A solve is checked field by field: floats within REL_TOL relative (or
ABS_TOL absolute, for values near zero; NaN matches NaN), integers and the
termination reason exactly. A dataset is checked by the SHA-256 of its
dumps_dataset text. The references are captured once per program version:

    python3 bench/reference.py            # rewrite bench/reference/*.json
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FLOAT_FIELDS = ("rmse_pos_init", "rmse_pos_slam", "rmse_lm", "rmse_volume", "final_cost")
INT_FIELDS = ("volume_invalid_count", "iterations")
NONCONVERGED = ("max-iters", "stalled")


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def solve_row(result, termination_reason) -> dict:
    """The reference record of one (seed, mode) solve."""
    row = {"seed": int(result.seed), "mode": result.mode}
    row.update({k: float(getattr(result, k)) for k in FLOAT_FIELDS})
    row.update({k: int(getattr(result, k)) for k in INT_FIELDS})
    row["termination_reason"] = termination_reason
    return row


def row_mismatches(row: dict, ref: dict) -> list:
    """Names of the fields of `row` that differ from `ref`; a field absent
    from `row` is not compared (results.csv carries no termination reason)."""
    bad = []
    for k in FLOAT_FIELDS:
        a, b = float(row[k]), float(ref[k])
        if math.isnan(a) and math.isnan(b):
            continue
        if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            bad.append(k)
    bad += [k for k in INT_FIELDS if int(row[k]) != int(ref[k])]
    if "termination_reason" in row and row["termination_reason"] != ref["termination_reason"]:
        bad.append("termination_reason")
    return bad


def solve_failed(row: dict, ref: dict | None) -> bool:
    """A solve fails on a missing reference, any mismatch, a non-finite
    cost or a stalled termination."""
    return (
        ref is None
        or bool(row_mismatches(row, ref))
        or not math.isfinite(float(row["final_cost"]))
        or row.get("termination_reason", ref["termination_reason"]) == "stalled"
    )


def load(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def rows_by_key(ref: dict) -> dict:
    return {(r["seed"], r["mode"]): r for r in ref["solves"]}


def capture(workload: str, pool, out_dir: Path) -> dict:
    """Reference outputs of one workload's pool at the current program."""
    from dqslam import SensorConfig, WorldConfig, generate_dataset, run_trial
    from dqslam.dataset_io import dumps_dataset
    from dqslam.metrics import MODES

    import workloads

    doc = {"workload": workload, "seeds": list(pool.seeds), "world": dict(pool.world),
           "rel_tol": REL_TOL, "abs_tol": ABS_TOL, "datasets": {}, "solves": []}
    for seed in pool.seeds:
        ds = generate_dataset(WorldConfig(seed=seed, **pool.world), SensorConfig())
        doc["datasets"][str(seed)] = sha256(dumps_dataset(ds))
        if workload == "simulate-io":
            continue
        for mode in MODES:
            run = run_trial(ds, mode=mode)
            doc["solves"].append(solve_row(run.result, run.report.termination_reason))
    if workload == "paper-batch":
        # Captured serially: each paper-batch run at nproc workers must
        # reproduce these bytes, which makes the check width-independent.
        csv_bytes = workloads.evaluate_csv(pool, out_dir, workers=1)
        doc["results_csv_sha256"] = sha256(csv_bytes)
    return doc


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    import workloads

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, pool in workloads.POOLS.items():
        doc = capture(name, pool, root / ".bench_out" / "reference")
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {REFERENCE_DIR / (name + '.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
