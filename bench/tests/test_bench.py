"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench/tests -q

Each workload runs on a two-landmark, one-loop world against references
captured in a temporary directory, and must emit every metric that
BENCHMARK.json declares, with its unit. A corrupted reference must show as
a failed item.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"n_landmarks": 2, "trajectory_length": 40.0, "n_loops": 1}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Tiny pools, references captured now into tmp_path, outputs there too."""
    pools = {name: workloads.Pool(seeds=(0, 1), world=TINY) for name in workloads.POOLS}
    monkeypatch.setattr(workloads, "POOLS", pools)
    monkeypatch.setattr(reference, "REFERENCE_DIR", tmp_path / "reference")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    (tmp_path / "reference").mkdir()
    for name, pool in pools.items():
        write_reference(name, reference.capture(name, pool, tmp_path / "capture" / name))
    return tmp_path


def write_reference(name, doc):
    path = reference.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")


def run_once(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    result = run_once(capsys, workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_solve_reference_is_a_failure(tiny, capsys):
    doc = reference.load("large-map-solve")
    doc["solves"][0]["rmse_pos_slam"] *= 1.01
    write_reference("large-map-solve", doc)
    result = run_once(capsys, "large-map-solve", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_corrupted_batch_reference_is_a_failure(tiny, capsys):
    doc = reference.load("paper-batch")
    doc["solves"][-1]["iterations"] += 1
    write_reference("paper-batch", doc)
    result = run_once(capsys, "paper-batch", 0)
    assert result["failed"] == 1 and not result["correct"]


def test_batch_that_differs_from_the_reference_csv_fails_whole(tiny, capsys):
    doc = reference.load("paper-batch")
    doc["results_csv_sha256"] = "0" * 64
    write_reference("paper-batch", doc)
    result = run_once(capsys, "paper-batch", 0)
    assert result["failed"] == result["attempted"] >= 1 and not result["correct"]


def test_batch_convergence_is_read_from_the_csv(tiny, capsys, monkeypatch):
    class CapAtOne:
        max_iterations = 1

    monkeypatch.setattr(workloads, "SolverConfig", CapAtOne)
    result = run_once(capsys, "paper-batch", 0)
    assert result["correct"]
    assert result["metrics"]["converged_frac"]["value"] < 1.0


def test_corrupted_dataset_reference_is_a_failure(tiny, capsys):
    doc = reference.load("simulate-io")
    doc["datasets"]["0"] = "0" * 64
    write_reference("simulate-io", doc)
    result = run_once(capsys, "simulate-io", 0)
    assert result["failed"] >= 1 and not result["correct"]


def test_an_item_that_raises_is_a_failure_not_a_crash(tiny, capsys, monkeypatch):
    def broken(dataset, mode="monocular", **kwargs):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(workloads, "run_trial", broken)
    result = run_once(capsys, "large-map-solve", 0)
    assert result["failed"] == result["attempted"] >= 1 and not result["correct"]


def test_tolerance_accepts_rounding_and_rejects_drift():
    ref = {"rmse_pos_init": 1.0, "rmse_pos_slam": 0.5, "rmse_lm": 0.25,
           "rmse_volume": float("nan"), "final_cost": 10.0,
           "volume_invalid_count": 3, "iterations": 11, "termination_reason": "cost-tol"}
    rounded = dict(ref, rmse_pos_slam=0.500000000001)
    assert reference.row_mismatches(rounded, ref) == []
    assert reference.row_mismatches(dict(ref, rmse_lm=0.2501), ref) == ["rmse_lm"]
    assert reference.solve_failed(dict(ref, termination_reason="stalled"), ref)
    assert reference.solve_failed(dict(ref, final_cost=float("inf")), ref)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert workloads.tail(list(range(100))) == (89, 90.0, 100)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
