from __future__ import annotations

import functools
import json
import math
import re
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dqslam.cli import main
from dqslam.dataset_io import (
    SCHEMA,
    SCHEMA_VERSION,
    _UNITS,
    dataset_from_dict,
    dumps_dataset,
    read_dataset,
    write_dataset,
)
from dqslam.factors import Measurements
from dqslam.pipeline import run_trial
from dqslam.simulator import Dataset, SensorConfig, WorldConfig, generate_dataset


@pytest.fixture
def dataset(small_world):
    return generate_dataset(small_world, SensorConfig())


def test_round_trip_bytes_identical(tmp_path, dataset):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_dataset(dataset, p1)
    loaded = read_dataset(p1)
    write_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_zero_noise_sphere(tmp_path, small_world, zero_noise_sensor):
    ds = generate_dataset(replace(small_world, landmark_shape="sphere"), zero_noise_sensor)
    p = tmp_path / "ds.json"
    write_dataset(ds, p)
    assert dumps_dataset(read_dataset(p)) == dumps_dataset(ds)


def test_values_preserved_exactly(dataset):
    loaded = dataset_from_dict(json.loads(dumps_dataset(dataset)))
    assert loaded.seed == dataset.seed
    assert loaded.world_config == dataset.world_config
    assert loaded.sensor_config == dataset.sensor_config
    assert loaded.ground_truth_poses.tobytes() == dataset.ground_truth_poses.tobytes()
    assert loaded.landmark_centers.tobytes() == dataset.landmark_centers.tobytes()
    assert loaded.landmark_sides.tobytes() == dataset.landmark_sides.tobytes()
    for a, b in (
        (loaded.detections, dataset.detections),
        (loaded.relative_positions, dataset.relative_positions),
    ):
        assert np.array_equal(a.pose_index, b.pose_index)
        assert np.array_equal(a.landmark_id, b.landmark_id)
        assert a.values.tobytes() == b.values.tobytes()
    assert loaded.odometry.tobytes() == dataset.odometry.tobytes()
    assert np.array_equal(loaded.turn, dataset.turn)


def test_schema_validation(dataset):
    doc = json.loads(dumps_dataset(dataset))
    bad = dict(doc, schema="something-else")
    with pytest.raises(ValueError):
        dataset_from_dict(bad)
    bad = dict(doc, version=99)
    with pytest.raises(ValueError):
        dataset_from_dict(bad)


def test_document_is_self_describing(dataset):
    doc = json.loads(dumps_dataset(dataset))
    assert doc["schema"] == "dqslam.dataset"
    assert doc["version"] == 1
    assert "units" in doc
    # a plain json consumer can read it back
    assert json.loads(json.dumps(doc)) == doc


def _set(path, value):
    def corrupt(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return corrupt


def _delete(key):
    return lambda doc: doc.pop(key)


def _swap_landmark_ids(doc):
    a, b = doc["ground_truth"]["landmarks"][:2]
    a["id"], b["id"] = b["id"], a["id"]


def _triple_trajectory(doc):
    # Three times the poses, and one odometry entry fewer: a trajectory
    # that world_config's schedule does not take.
    poses = doc["ground_truth"]["poses"] = doc["ground_truth"]["poses"] * 3
    doc["odometry"] = (doc["odometry"] * 4)[:len(poses) - 1]


def _flip_turn_tag(doc):
    doc["odometry"][0]["turn"] = not doc["odometry"][0]["turn"]


# Each corruption, and the text its error must contain.
CORRUPTIONS = {
    "missing-odometry": (_delete("odometry"), "'odometry'"),
    "missing-ground-truth": (_delete("ground_truth"), "'ground_truth'"),
    "unknown-world-key": (_set(["world_config", "speed"], 1.0), "'speed'"),
    "missing-sensor-key": (lambda doc: doc["sensor_config"].pop("focal_mm"), "'focal_mm'"),
    "world-value-out-of-range": (_set(["world_config", "cube_side_sigma"], -1.0),
                                 "cube_side_sigma"),
    # Too short a loop for its four turns: no trajectory has this schedule.
    "infeasible-schedule": (_set(["world_config", "trajectory_length"], 5.0),
                            "world_config.trajectory_length"),
    # A schedule past the step ceiling, rejected before any list is built.
    "oversized-schedule": (_set(["world_config", "trajectory_length"], 1e300),
                           "world_config.trajectory_length"),
    "nan-box-line": (_set(["detections", 0, "lines", 0, 0], float("nan")),
                     "detections.lines"),
    "short-box-line": (_set(["detections", 0, "lines", 1], [0.0, 1.0]),
                       "detections.lines"),
    "string-pose": (_set(["ground_truth", "poses", 2, 0], "1.0"), "ground_truth.poses"),
    "infinite-odometry": (_set(["odometry", 3, "v"], float("inf")), "odometry.v"),
    "short-odometry": (lambda doc: doc["odometry"].pop(), "odometry"),
    "pose-index-out-of-range": (_set(["detections", 0, "pose_index"], 10**6),
                                "detections.pose_index"),
    "unknown-landmark": (_set(["relative_positions", 0, "landmark_id"], 99),
                         "relative_positions.landmark_id"),
    "duplicate-landmark-id": (_set(["ground_truth", "landmarks", 1, "id"], 0),
                              "ground_truth.landmarks.id"),
    "unordered-landmark-ids": (_swap_landmark_ids, "ground_truth.landmarks.id"),
    "non-integer-seed": (_set(["seed"], 3.0), "seed"),
    "seed-mismatch": (_set(["seed"], 5), "seed"),
    "zero-box-line": (_set(["detections", 0, "lines", 2], [0.0, 0.0, 0.0]),
                      "detections.lines"),
    # Finite, but the norm of its normal overflows to inf.
    "overflowing-box-line": (_set(["detections", 0, "lines", 0], [1.7e308, 1.7e308, 0.0]),
                             "detections.lines"),
    "non-positive-side": (_set(["ground_truth", "landmarks", 1, "side"], 0.0),
                          "ground_truth.landmarks.side"),
    # JSON booleans are no numbers, although numpy reads them as 0 and 1.
    "boolean-odometry": (_set(["odometry", 3, "v"], True), "odometry.v"),
    "boolean-side": (_set(["ground_truth", "landmarks", 2, "side"], True),
                     "ground_truth.landmarks.side"),
    "boolean-pose": (_set(["ground_truth", "poses", 5, 0], True), "ground_truth.poses"),
    "boolean-box-line": (_set(["detections", 0, "lines", 0, 2], False), "detections.lines"),
    "huge-integer-pose": (_set(["ground_truth", "poses", 1, 1], 10**400), "ground_truth.poses"),
    "boolean-world-int": (_set(["world_config", "n_landmarks"], True),
                          "world_config.n_landmarks"),
    "boolean-sensor-float": (_set(["sensor_config", "focal_mm"], True),
                             "sensor_config.focal_mm"),
    "number-for-pose-list": (_set(["ground_truth", "poses"], 5), "ground_truth.poses"),
    # Sizes other than world_config declares: each once got round the
    # landmark or schedule ceiling.
    "fewer-landmarks-declared": (_set(["world_config", "n_landmarks"], 3),
                                 "world_config.n_landmarks"),
    "more-landmarks-declared": (_set(["world_config", "n_landmarks"], 40),
                                "world_config.n_landmarks"),
    "tripled-trajectory": (_triple_trajectory, "world_config's schedule"),
    "flipped-turn-tag": (_flip_turn_tag, "odometry.turn"),
    "repeated-detections": (lambda doc: doc["detections"].extend(doc["detections"]),
                            "detections must list each (pose_index, landmark_id) pair once"),
    "repeated-relative-position": (
        lambda doc: doc["relative_positions"].append(doc["relative_positions"][0]),
        "relative_positions must list each (pose_index, landmark_id) pair once"),
    # Read, once, but written back in (pose, landmark) order: not the
    # document's bytes.
    "reversed-detections": (lambda doc: doc["detections"].reverse(),
                            "detections must list each (pose_index, landmark_id) pair once, "
                            "in (pose, landmark) order"),
    "reversed-relative-positions": (lambda doc: doc["relative_positions"].reverse(),
                                    "relative_positions must list each (pose_index, "
                                    "landmark_id) pair once, in (pose, landmark) order"),
    "too-few-detections": (
        lambda doc: doc.update(
            detections=[d for d in doc["detections"] if d["landmark_id"] != 0]),
        "detections: landmark 0",
    ),
}


def assert_solve_rejects(doc, tmp_path, capsys, *flags):
    """`dqslam solve` on the document exits 2 with one error line and
    writes no results."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "res.json"
    assert main(["solve", "--dataset", str(path), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_document_rejected_at_read(name, dataset, tmp_path, capsys):
    corrupt, expected = CORRUPTIONS[name]
    doc = json.loads(dumps_dataset(dataset))
    corrupt(doc)
    with pytest.raises(ValueError, match=re.escape(expected)):
        dataset_from_dict(doc)
    assert_solve_rejects(doc, tmp_path, capsys)


# -- the writer -----------------------------------------------------------------

def _native(value):
    if isinstance(value, (bool, int, str)):
        return value
    return float(value)


def _records(column: Measurements, key: str) -> list:
    return [
        {"pose_index": i, "landmark_id": j, key: value}
        for i, j, value in zip(
            column.pose_index.tolist(), column.landmark_id.tolist(), column.values.tolist()
        )
    ]


def _oracle_text(ds: Dataset) -> str:
    """The dataset's document built as Python objects, and written by
    json.dumps: the layout the writer must reproduce byte for byte."""
    doc = {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "units": _UNITS,
        "seed": int(ds.seed),
        "world_config": {k: _native(v) for k, v in asdict(ds.world_config).items()},
        "sensor_config": {k: _native(v) for k, v in asdict(ds.sensor_config).items()},
        "ground_truth": {
            "poses": ds.ground_truth_poses.tolist(),
            "landmarks": [
                {"id": j, "center": center, "side": side}
                for j, (center, side) in enumerate(
                    zip(ds.landmark_centers.tolist(), ds.landmark_sides.tolist())
                )
            ],
        },
        "odometry": [
            {"v": v, "omega": omega, "turn": turn}
            for (v, omega), turn in zip(ds.odometry.tolist(), ds.turn.tolist())
        ],
        "detections": _records(ds.detections, "lines"),
        "relative_positions": _records(ds.relative_positions, "z"),
    }
    return json.dumps(doc, indent=1) + "\n"


EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e+16, 1.7e308, 2.0, -1.5, 0.1, -1e-07, 123456789.0]


def _dataset(floats, n_poses, n_landmarks, n_detections, n_relpos, shape="cube",
             seed=0) -> Dataset:
    """A dataset of the given sizes, its float columns filled from floats in
    turn (cycled), its indices from 0, 1, ..."""
    def column(*dims):
        size = math.prod(dims)
        return np.resize(np.array(floats, dtype=float), size).reshape(dims)

    return Dataset(
        world_config=WorldConfig(landmark_shape=shape, seed=seed),
        sensor_config=SensorConfig(),
        ground_truth_poses=column(n_poses, 3),
        landmark_centers=column(n_landmarks, 3),
        landmark_sides=column(n_landmarks),
        odometry=column(n_poses - 1, 2),
        turn=np.arange(n_poses - 1) % 3 == 0,
        detections=Measurements(np.arange(n_detections), np.arange(n_detections)[::-1].copy(),
                                column(n_detections, 4, 3)),
        relative_positions=Measurements(np.arange(n_relpos), np.arange(n_relpos),
                                        column(n_relpos, 3)),
    )


_FINITE = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(floats=st.lists(_FINITE, min_size=1, max_size=40),
       sizes=st.tuples(st.integers(1, 5), st.integers(0, 3), st.integers(0, 3),
                       st.integers(0, 3)),
       shape=st.sampled_from(["cube", "sphere"]), seed=st.integers(0, 2**31))
@example(floats=EDGE_FLOATS, sizes=(4, 3, 2, 0), shape="sphere", seed=7)
def test_writer_matches_json_dumps(floats, sizes, shape, seed):
    ds = _dataset(floats, *sizes, shape=shape, seed=seed)
    assert dumps_dataset(ds) == _oracle_text(ds)


def test_writer_matches_json_dumps_on_simulated_sphere_world(small_world):
    ds = generate_dataset(replace(small_world, landmark_shape="sphere"), SensorConfig())
    assert dumps_dataset(ds) == _oracle_text(ds)
    no_relpos = replace(ds, relative_positions=ds.relative_positions[:0])
    assert dumps_dataset(no_relpos) == _oracle_text(no_relpos)
    assert '"relative_positions": []' in dumps_dataset(no_relpos)


# Each non-finite value, where it is put, and the column its error names.
NON_FINITE = {
    "pose": ("ground_truth_poses", (2, 1), "ground_truth.poses"),
    "center": ("landmark_centers", (0, 2), "ground_truth.landmarks.center"),
    "side": ("landmark_sides", (1,), "ground_truth.landmarks.side"),
    "odometry": ("odometry", (3, 0), "odometry"),
    "box-line": ("detections", (0, 1, 2), "detections.lines"),
    "relpos": ("relative_positions", (4, 0), "relative_positions.z"),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_writer_refuses_non_finite_values(name, bad, dataset, tmp_path):
    field, index, expected = NON_FINITE[name]
    column = getattr(dataset, field)
    if isinstance(column, Measurements):
        values = column.values.copy()
        values[index] = bad
        corrupted = replace(dataset, **{field: replace(column, values=values)})
    else:
        values = column.copy()
        values[index] = bad
        corrupted = replace(dataset, **{field: values})
    with pytest.raises(ValueError, match=re.escape(expected)):
        dumps_dataset(corrupted)
    path = tmp_path / "ds.json"
    with pytest.raises(ValueError, match=re.escape(expected)):
        write_dataset(corrupted, path)
    assert not path.exists()


# Documents the reader accepts, whose finite extremes overflow the residual
# of the solve mode given: solve rejects them before its first iteration.
OVERFLOWS = {
    "overflowing-odometry": (_set(["odometry", 3, "v"], -1e308), "monocular"),
    "overflowing-relpos": (_set(["relative_positions", 0, "z", 0], 1e308), "with-relpos"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_overflowing_document_rejected_at_solve(name, dataset, tmp_path, capsys):
    corrupt, mode = OVERFLOWS[name]
    doc = json.loads(dumps_dataset(dataset))
    corrupt(doc)
    loaded = dataset_from_dict(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warnings on the way
        with pytest.raises(ValueError, match="cost at the initial values is not finite"):
            run_trial(loaded, mode=mode)
    assert_solve_rejects(doc, tmp_path, capsys, "--mode", mode)


# -- properties of the reader ---------------------------------------------------

def _small_world(seed: int, shape: str) -> WorldConfig:
    return WorldConfig(
        n_landmarks=3, trajectory_length=65.0, n_loops=1, landmark_shape=shape, seed=seed
    )


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**31), shape=st.sampled_from(["cube", "sphere"]))
@example(seed=np.int64(5), shape="cube")  # a config field holding a numpy integer
def test_read_then_write_reproduces_the_text(seed, shape):
    text = dumps_dataset(generate_dataset(_small_world(seed, shape), SensorConfig()))
    assert dumps_dataset(dataset_from_dict(json.loads(text))) == text


@functools.lru_cache(maxsize=1)
def _small_document() -> str:
    return dumps_dataset(generate_dataset(_small_world(3, "cube"), SensorConfig()))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_corrupted_leaf_raises_only_value_error(data):
    # Walk from the root to a leaf, one drawn key or index per level, then
    # delete the leaf or replace it by a drawn JSON value. The reader may
    # accept the result (a changed number can be valid) but must reject
    # anything else with ValueError, never another exception.
    doc = json.loads(_small_document())
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        parent, key = node, data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                      else range(len(node))))
        node = parent[key]
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(_JSON_VALUES)
    try:
        dataset_from_dict(doc)
    except ValueError:
        pass
