"""Dataset (de)serialization.

One self-describing JSON document per trial, with a versioned schema and
explicit units. Floats are written in Python's shortest round-trip
representation, so write -> read -> write reproduces the file byte for
byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, replace

import numpy as np

from .config import ConfigError
from .factors import Measurements, _wrap
from .geometry import DegenerateGeometryError, normalize_lines
from .simulator import Dataset, SensorConfig, WorldConfig

__all__ = ["SCHEMA", "SCHEMA_VERSION", "dataset_to_dict", "dataset_from_dict",
           "write_dataset", "read_dataset", "dumps_dataset"]

SCHEMA = "dqslam.dataset"
SCHEMA_VERSION = 1

_UNITS = {
    "poses": "x, y in meters; theta in radians",
    "landmark_center": "meters",
    "cube_side": "meters",
    "odometry": "v in meters/step; omega in radians/step",
    "bbox_lines": "normalized homogeneous pixel lines (unit line normal)",
    "relative_position": "meters, in the robot frame of pose_index",
}


def _native(value):
    if isinstance(value, (bool, int, str)):
        return value
    return float(value)


def dataset_to_dict(ds: Dataset) -> dict:
    return {
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
        "detections": _measurement_records(ds.detections, "lines"),
        "relative_positions": _measurement_records(ds.relative_positions, "z"),
    }


def _measurement_records(column: Measurements, key: str) -> list:
    return [
        {"pose_index": i, "landmark_id": j, key: value}
        for i, j, value in zip(
            column.pose_index.tolist(), column.landmark_id.tolist(), column.values.tolist()
        )
    ]


def _get(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    return obj[key]


def _column(records, key: str, where: str) -> list:
    if not (isinstance(records, list) and all(isinstance(r, dict) and key in r for r in records)):
        raise ValueError(f"{where} must be a list of objects with key {key!r}")
    return [r[key] for r in records]


def _numbers(values, shape: tuple, where: str) -> np.ndarray:
    """values, a list of entries of the given shape, as an (n, *shape)
    array of finite floats."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "fi" or not np.isfinite(a).all() or (
        a.shape[1:] != shape and a.shape != (0,)
    ):
        raise ValueError(f"{where} must be a list of finite numbers of shape {shape}")
    return a.astype(float).reshape((-1,) + shape)


def _indices(values: list, n: int, where: str) -> list:
    if not all(type(v) is int and 0 <= v < n for v in values):
        raise ValueError(f"{where} must be integers in [0, {n})")
    return values


def _measurements(doc: dict, where: str, key: str, shape: tuple, n_poses: int,
                  n_landmarks: int) -> Measurements:
    """The measurements listed under doc[where], with range-checked indices
    and finite values of the given shape under key."""
    records = _get(doc, where, "dataset")
    return Measurements(
        np.array(_indices(_column(records, "pose_index", where), n_poses,
                          f"{where}.pose_index"), dtype=int),
        np.array(_indices(_column(records, "landmark_id", where), n_landmarks,
                          f"{where}.landmark_id"), dtype=int),
        _numbers(_column(records, key, where), shape, f"{where}.{key}"),
    )


def _config(cls, doc: dict, key: str):
    values = _get(doc, key, "dataset")
    names = [f.name for f in fields(cls)]
    for name in names:
        _get(values, name, key)
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise ValueError(f"{key}: unknown key {unknown[0]!r}")
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ValueError(f"{key}.{exc}") from None


def dataset_from_dict(doc: dict) -> Dataset:
    """Rebuild a dataset from its document; a malformed one (missing or
    unknown key, config value out of range, non-finite number, index out of
    range, odometry not one entry shorter than the poses, seed unequal to
    world_config.seed, landmark ids other than 0, 1, ... in order,
    non-positive cube side, degenerate box line, a landmark detected fewer
    than world_config.landmark_min_detections times) raises ValueError
    naming the key. Pose headings are wrapped to (-pi, pi]."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(f"not a {SCHEMA} document")
    if doc.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('version')}")
    world = _config(WorldConfig, doc, "world_config")
    sensor = _config(SensorConfig, doc, "sensor_config")
    seed = _get(doc, "seed", "dataset")
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed != world.seed:
        raise ValueError(f"seed {seed} differs from world_config.seed {world.seed}")

    truth = _get(doc, "ground_truth", "dataset")
    poses = _numbers(_get(truth, "poses", "ground_truth"), (3,), "ground_truth.poses")
    poses[:, 2] = _wrap(poses[:, 2])
    lms, where = _get(truth, "landmarks", "ground_truth"), "ground_truth.landmarks"
    # Landmark j is row j of the columns below, and has id j.
    ids = _column(lms, "id", where)
    if not all(type(j) is int for j in ids) or ids != list(range(len(ids))):
        raise ValueError(f"{where}.id must be 0, 1, ... in order")
    sides = _numbers(_column(lms, "side", where), (), f"{where}.side")
    if (sides <= 0).any():
        raise ValueError(f"{where}.side must be positive")
    centers = _numbers(_column(lms, "center", where), (3,), f"{where}.center")

    odo = _get(doc, "odometry", "dataset")
    turns = _column(odo, "turn", "odometry")
    if len(turns) != len(poses) - 1:
        raise ValueError(f"odometry has {len(turns)} entries for {len(poses)} poses")
    if not all(type(t) is bool for t in turns):
        raise ValueError("odometry.turn must be booleans")
    odometry = np.column_stack([
        _numbers(_column(odo, "v", "odometry"), (), "odometry.v"),
        _numbers(_column(odo, "omega", "odometry"), (), "odometry.omega"),
    ])

    detections = _measurements(doc, "detections", "lines", (4, 3), len(poses), len(ids))
    try:
        detections = replace(detections, values=normalize_lines(detections.values))
    except DegenerateGeometryError as exc:
        raise ValueError(f"detections.lines: {exc}") from None
    dataset = Dataset(
        world_config=world,
        sensor_config=sensor,
        ground_truth_poses=poses,
        landmark_centers=centers,
        landmark_sides=sides,
        odometry=odometry,
        turn=np.array(turns, dtype=bool),
        detections=detections,
        relative_positions=_measurements(
            doc, "relative_positions", "z", (3,), len(poses), len(ids)
        ),
    )
    for j, n in enumerate(dataset.detections_per_landmark().tolist()):
        if n < world.landmark_min_detections:
            raise ValueError(
                f"detections: landmark {j} has {n} detections, fewer than "
                f"world_config.landmark_min_detections = {world.landmark_min_detections}"
            )
    return dataset


def dumps_dataset(ds: Dataset) -> str:
    return json.dumps(dataset_to_dict(ds), indent=1) + "\n"


def write_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_dataset(ds))


def read_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return dataset_from_dict(doc)
