"""Dataset (de)serialization.

One self-describing JSON document per trial, with a versioned schema and
explicit units. Floats are written in Python's shortest round-trip
representation, so write -> read -> write reproduces the file byte for
byte.

The writer emits the fixed layout of json.dumps(indent=1), one member per
line, straight from the Dataset columns: each bulky column is one
%-format call over a row template built once from its shape ("%r" of a
float is float.__repr__, the text json writes). json.dumps of the same
document built as Python objects is the tests' oracle for these bytes.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, fields, replace
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .config import ConfigError
from .factors import Measurements
from .geometry import DegenerateGeometryError, normalize_lines, wrap_angles
from .simulator import Dataset, SensorConfig, WorldConfig, ground_truth_odometry

__all__ = ["SCHEMA", "SCHEMA_VERSION", "dataset_from_dict",
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
    """A config value as a JSON scalar: an integral number (numpy's too)
    as int, any other number as float."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    return float(value)


def _finite_fields(column: np.ndarray, where: str) -> list:
    """The float column, (n, ...) rows, as one list of Python floats per
    scalar field of a row. A non-finite value, which JSON cannot hold,
    raises ValueError naming the column."""
    if not np.isfinite(column).all():
        raise ValueError(f"{where} must be finite numbers to be written")
    return column.reshape(len(column), math.prod(column.shape[1:])).T.tolist()


class _Rows(NamedTuple):
    """A JSON list of one member per row of columns, each laid out as row:
    a dict or list whose leaves are %-format fields, which take one value
    from each of columns in turn."""

    row: object
    columns: list


def _bracket(brackets: str, members: list, depth: int) -> str:
    """members, laid out at depth + 1, in an object or list opened at depth."""
    if not members:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(members) + "\n" + " " * depth + brackets[1]


def _layout(node, depth: int) -> str:
    """The JSON text of node at depth, one member per line with one space
    of indent per level: the layout of json.dumps(indent=1). A str node is
    already text."""
    if isinstance(node, str):
        return node
    if isinstance(node, _Rows):
        # One row template, repeated and filled by a single format call.
        template = _bracket("[]", [_layout(node.row, depth + 1)] * len(node.columns[0]), depth)
        return template % tuple(chain.from_iterable(zip(*node.columns)))
    if isinstance(node, dict):
        return _bracket("{}", [f"{json.dumps(key)}: {_layout(value, depth + 1)}"
                               for key, value in node.items()], depth)
    return _bracket("[]", [_layout(value, depth + 1) for value in node], depth)


def _scalars(values: dict) -> dict:
    return {key: json.dumps(_native(value)) for key, value in values.items()}


def _measurement_rows(column: Measurements, key: str, where: str) -> _Rows:
    row = np.full(column.values.shape[1:], "%r").tolist()
    return _Rows({"pose_index": "%r", "landmark_id": "%r", key: row},
                 [column.pose_index.tolist(), column.landmark_id.tolist(),
                  *_finite_fields(column.values, f"{where}.{key}")])


def dumps_dataset(ds: Dataset) -> str:
    """The dataset's document as JSON text: a versioned schema with explicit
    units, one member per line, floats in shortest round-trip form. A
    non-finite number raises ValueError naming its column."""
    doc = {
        "schema": json.dumps(SCHEMA),
        "version": json.dumps(SCHEMA_VERSION),
        "units": _scalars(_UNITS),
        "seed": json.dumps(int(ds.seed)),
        "world_config": _scalars(asdict(ds.world_config)),
        "sensor_config": _scalars(asdict(ds.sensor_config)),
        "ground_truth": {
            "poses": _Rows(["%r"] * 3,
                           _finite_fields(ds.ground_truth_poses, "ground_truth.poses")),
            "landmarks": _Rows(
                {"id": "%r", "center": ["%r"] * 3, "side": "%r"},
                [list(range(len(ds.landmark_sides))),
                 *_finite_fields(ds.landmark_centers, "ground_truth.landmarks.center"),
                 *_finite_fields(ds.landmark_sides, "ground_truth.landmarks.side")],
            ),
        },
        "odometry": _Rows({"v": "%r", "omega": "%r", "turn": "%s"},
                          [*_finite_fields(ds.odometry, "odometry"),
                           np.where(ds.turn, "true", "false").tolist()]),
        "detections": _measurement_rows(ds.detections, "lines", "detections"),
        "relative_positions": _measurement_rows(ds.relative_positions, "z",
                                                "relative_positions"),
    }
    return _layout(doc, 0) + "\n"


def _get(obj, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    return obj[key]


def _column(records, key: str, where: str) -> list:
    if isinstance(records, list):
        try:
            return list(map(itemgetter(key), records))
        except (TypeError, KeyError):  # a record that is no object, or lacks key
            pass
    raise ValueError(f"{where} must be a list of objects with key {key!r}")


def _types(values) -> set:
    return set(map(type, values))


def _numbers(values, shape: tuple, where: str) -> np.ndarray:
    """values, a list of entries of the given shape, as an (n, *shape)
    array of finite floats. The nesting and the leaf types are checked a
    level at a time: JSON booleans are no numbers here, although numpy
    would read them as 0 and 1."""
    malformed = ValueError(f"{where} must be a list of finite numbers of shape {shape}")
    if not isinstance(values, list):
        raise malformed
    leaves = values
    for dim in shape:
        if not (_types(leaves) <= {list} and set(map(len, leaves)) <= {dim}):
            raise malformed
        leaves = list(chain.from_iterable(leaves))
    if not _types(leaves) <= {int, float}:
        raise malformed
    try:
        a = np.array(leaves, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise malformed from None
    if not np.isfinite(a).all():
        raise malformed
    return a.reshape((-1,) + shape)


def _indices(values: list, n: int, where: str) -> list:
    if not (_types(values) <= {int} and (not values or 0 <= min(values) <= max(values) < n)):
        raise ValueError(f"{where} must be integers in [0, {n})")
    return values


def _measurements(doc: dict, where: str, key: str, shape: tuple, n_poses: int,
                  n_landmarks: int) -> Measurements:
    """The measurements listed under doc[where], with range-checked indices,
    (pose_index, landmark_id) pairs in strictly increasing (pose, landmark)
    order, and finite values of the given shape under key."""
    records = _get(doc, where, "dataset")
    pose_index = _indices(_column(records, "pose_index", where), n_poses, f"{where}.pose_index")
    landmark_id = _indices(_column(records, "landmark_id", where), n_landmarks,
                           f"{where}.landmark_id")
    pose_index, landmark_id = np.array(pose_index, dtype=int), np.array(landmark_id, dtype=int)
    rank = pose_index * n_landmarks + landmark_id  # a pair's place in (pose, landmark) order
    if (rank[1:] <= rank[:-1]).any():
        raise ValueError(f"{where} must list each (pose_index, landmark_id) pair once, "
                         "in (pose, landmark) order")
    return Measurements(
        pose_index, landmark_id, _numbers(_column(records, key, where), shape, f"{where}.{key}")
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
    unknown key, config value out of range, a non-finite number or a
    boolean where a number belongs, index out of range, odometry not one
    entry shorter than the poses, seed unequal to world_config.seed,
    landmark ids other than 0, 1, ... in order, a landmark count other than
    world_config.n_landmarks, odometry steps or turn tags other than
    world_config's schedule (ground_truth_odometry), detections or
    relative_positions not in strictly increasing (pose, landmark) order,
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
    poses[:, 2] = wrap_angles(poses[:, 2])
    lms, where = _get(truth, "landmarks", "ground_truth"), "ground_truth.landmarks"
    # Landmark j is row j of the columns below, and has id j.
    ids = _column(lms, "id", where)
    if not all(type(j) is int for j in ids) or ids != list(range(len(ids))):
        raise ValueError(f"{where}.id must be 0, 1, ... in order")
    if len(ids) != world.n_landmarks:
        raise ValueError(f"{where} lists {len(ids)} landmarks, but "
                         f"world_config.n_landmarks = {world.n_landmarks}")
    sides = _numbers(_column(lms, "side", where), (), f"{where}.side")
    if (sides <= 0).any():
        raise ValueError(f"{where}.side must be positive")
    centers = _numbers(_column(lms, "center", where), (3,), f"{where}.center")

    odo = _get(doc, "odometry", "dataset")
    turns = _column(odo, "turn", "odometry")
    if len(turns) != len(poses) - 1:
        raise ValueError(f"odometry has {len(turns)} entries for {len(poses)} poses")
    if not _types(turns) <= {bool}:
        raise ValueError("odometry.turn must be booleans")
    schedule = ground_truth_odometry(world)[1].tolist()
    if len(turns) != len(schedule):
        raise ValueError(f"odometry has {len(turns)} entries, but world_config's "
                         f"schedule takes {len(schedule)} steps")
    if turns != schedule:
        raise ValueError("odometry.turn must be the turn tags of world_config's schedule")
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


def write_dataset(ds: Dataset, path) -> None:
    text = dumps_dataset(ds)  # before opening, so a refused dataset leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_json(path):
    """The JSON document in the file at path. Nesting too deep for the
    parser raises ValueError naming the path, as malformed JSON does."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def read_dataset(path) -> Dataset:
    return dataset_from_dict(_read_json(path))
