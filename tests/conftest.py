from __future__ import annotations

import numpy as np
import pytest

from dqslam.geometry import CameraExtrinsics, CameraIntrinsics, wrap_angles
from dqslam.simulator import SensorConfig, WorldConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def canonical_projection():
    return np.hstack([np.eye(3), np.zeros((3, 1))])


@pytest.fixture
def default_intrinsics():
    return CameraIntrinsics(fx=1500.0, fy=1500.0, cx=640.0, cy=512.0, width=1280, height=1024)


@pytest.fixture
def zero_noise_sensor():
    return SensorConfig(
        bbox_corner_sigma_px=0.0,
        odo_sigma=0.0,
        odo_turn_omega_sigma=0.0,
        relpos_sigma_m=0.0,
    )


@pytest.fixture
def small_world():
    """Shorter, lighter world for fast end-to-end tests."""
    return WorldConfig(n_landmarks=4, trajectory_length=65.0, n_loops=1, seed=3)


def pose_rows(rows) -> np.ndarray:
    """A copy of (..., 3) pose rows (x, y, theta), headings wrapped to
    (-pi, pi] as every pose the package makes."""
    rows = np.array(rows, dtype=float)
    rows[..., 2] = wrap_angles(rows[..., 2])
    return rows


def look_at_extrinsics(eye, target, up=(0.0, 0.0, 1.0)) -> CameraExtrinsics:
    """World-to-camera extrinsics of a camera at eye looking at target."""
    eye = np.asarray(eye, dtype=float)
    target = np.asarray(target, dtype=float)
    z = target - eye
    z = z / np.linalg.norm(z)
    up = np.asarray(up, dtype=float)
    if abs(np.dot(up, z)) > 0.95:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(z, -up)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.stack([x, y, z])  # rows: camera axes in world coordinates
    return CameraExtrinsics(R, -R @ eye)


def ellipsoid_tangent_planes(center, semi_axes, rotation, directions) -> np.ndarray:
    """Analytic tangent planes of an ellipsoid at unit-sphere directions.

    Independent of the dual-quadric construction: uses the point-quadric
    gradient. directions: (n, 3) unit vectors in the body frame.
    """
    center = np.asarray(center, dtype=float)
    A = np.diag(np.asarray(semi_axes, dtype=float))
    R = np.asarray(rotation, dtype=float)
    planes = []
    for s in np.asarray(directions, dtype=float):
        x0 = center + R @ A @ s
        n = R @ np.linalg.solve(A, s)  # gradient direction of (x-c)^T M (x-c)
        planes.append(np.concatenate([n, [-float(n @ x0)]]))
    return np.array(planes)


def unit_sphere_directions(n, rng) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
