from __future__ import annotations

import copy
import functools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqslam.cli import main
from dqslam.dataset_io import (
    dataset_from_dict,
    dataset_to_dict,
    dumps_dataset,
    read_dataset,
    write_dataset,
)
from dqslam.pipeline import run_trial
from dqslam.simulator import SensorConfig, WorldConfig, generate_dataset


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
    from dataclasses import replace

    ds = generate_dataset(replace(small_world, landmark_shape="sphere"), zero_noise_sensor)
    p = tmp_path / "ds.json"
    write_dataset(ds, p)
    assert dumps_dataset(read_dataset(p)) == dumps_dataset(ds)


def test_values_preserved_exactly(dataset):
    loaded = dataset_from_dict(dataset_to_dict(dataset))
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
    doc = dataset_to_dict(dataset)
    bad = dict(doc, schema="something-else")
    with pytest.raises(ValueError):
        dataset_from_dict(bad)
    bad = dict(doc, version=99)
    with pytest.raises(ValueError):
        dataset_from_dict(bad)


def test_document_is_self_describing(dataset):
    doc = dataset_to_dict(dataset)
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


# Each corruption, and the text its error must contain.
CORRUPTIONS = {
    "missing-odometry": (_delete("odometry"), "'odometry'"),
    "missing-ground-truth": (_delete("ground_truth"), "'ground_truth'"),
    "unknown-world-key": (_set(["world_config", "speed"], 1.0), "'speed'"),
    "missing-sensor-key": (lambda doc: doc["sensor_config"].pop("focal_mm"), "'focal_mm'"),
    "world-value-out-of-range": (_set(["world_config", "cube_side_sigma"], -1.0),
                                 "cube_side_sigma"),
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
    doc = copy.deepcopy(dataset_to_dict(dataset))
    corrupt(doc)
    with pytest.raises(ValueError, match=re.escape(expected)):
        dataset_from_dict(doc)
    assert_solve_rejects(doc, tmp_path, capsys)


# Documents the reader accepts, whose finite extremes overflow the residual
# of the solve mode given: solve rejects them before its first iteration.
OVERFLOWS = {
    "overflowing-odometry": (_set(["odometry", 3, "v"], -1e308), "monocular"),
    "overflowing-relpos": (_set(["relative_positions", 0, "z", 0], 1e308), "with-relpos"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_overflowing_document_rejected_at_solve(name, dataset, tmp_path, capsys):
    corrupt, mode = OVERFLOWS[name]
    doc = copy.deepcopy(dataset_to_dict(dataset))
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
