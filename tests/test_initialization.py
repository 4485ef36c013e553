from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from dqslam.factors import Measurements
from dqslam.geometry import (
    QUADRIC_CENTROID,
    CameraIntrinsics,
    DualQuadric,
    box_corners,
    box_lines,
    ellipsoid_to_dual_quadric,
    left_facing_mount,
    project_quadrics,
    projection_matrices,
)
from dqslam.initialization import (
    DegenerateSolutionError,
    InitStrategy,
    InsufficientObservationsError,
    fit_dual_quadric,
    init_poses,
    init_quadric_svd,
    initialize_quadrics,
)
from dqslam.simulator import SensorConfig, WorldConfig, generate_dataset
from conftest import ellipsoid_tangent_planes, look_at_extrinsics, unit_sphere_directions
from oracle import dual_conic_bbox, pose_to_extrinsics


K = CameraIntrinsics(1500, 1500, 640, 512, 1280, 1024)


def nonplanar_rig(quadric, center):
    """Stacked projections P (n, 3, 4) of cameras around the quadric, and
    their detections of it (landmark 0)."""
    eyes = [
        (4, 0, 1), (-4, 1, -2), (0, 4, 2), (1, -4, -1),
        (3, 3, 3), (-3, -3, 2), (0, 1, 4), (2, 0, -4),
    ]
    frames = [look_at_extrinsics(np.asarray(eye, float) + center, center) for eye in eyes]
    P = np.stack([projection_matrices(K, E.rotation, E.translation) for E in frames])
    lines = np.array([box_lines(box_corners(*dual_conic_bbox(C)))
                      for C in project_quadrics(P, quadric.matrix())])
    return P, Measurements(np.arange(len(P)), np.zeros(len(P), dtype=int), lines)


# -- pose chaining ------------------------------------------------------------

def test_init_poses_straight_chain():
    poses = init_poses([(1, 0)] * 5, (0, 0, 0))
    assert poses.shape == (6, 3)
    assert poses[:, 0].tolist() == pytest.approx(list(range(6)))
    assert np.all(poses[:, 1:] == 0)


def test_init_poses_square_closure():
    leg = [(1, 0)] * 3 + [(0, math.pi / 2)]
    poses = init_poses(leg * 4, (0, 0, 0))
    x, y, theta = poses[-1]
    assert abs(x) < 1e-12 and abs(y) < 1e-12
    assert abs(theta) < 1e-12


# -- fallback -----------------------------------------------------------------

def test_fallback_is_identity_matrix():
    quadrics, used_fallback = initialize_quadrics(
        [], [], K, left_facing_mount(), [0, 1], InitStrategy(mode="identity")
    )
    assert used_fallback == [True, True]
    assert quadrics.shape == (2, 9)
    for q in [DualQuadric.identity(), *map(DualQuadric, quadrics)]:
        assert np.array_equal(q.matrix(), np.eye(4))
        assert np.array_equal(q.q, [1, 0, 0, 0, 1, 0, 0, 1, 0])
        assert np.allclose(q.q[QUADRIC_CENTROID], 0)


# -- SVD fit -------------------------------------------------------------------

def test_fit_dual_quadric_recovers_ellipsoid(rng):
    center = np.array([0.5, -1.0, 0.8])
    axes = np.array([0.9, 0.5, 0.3])
    gt = ellipsoid_to_dual_quadric(center, axes)
    from dqslam.geometry import tangency_rows

    # 9 planes, the fewest accepted, give fewer rows than the 10 unknowns.
    for n in (40, 9):
        planes = ellipsoid_tangent_planes(center, axes, np.eye(3), unit_sphere_directions(n, rng))
        est = fit_dual_quadric(planes)
        assert np.max(np.abs(est.matrix() - gt.matrix())) < 1e-8
        assert est.matrix()[3, 3] == 1.0  # exact fixed scale

        # residual invariant: the fit annihilates its own constraint system
        planes_n = planes / np.linalg.norm(planes, axis=1, keepdims=True)
        A = tangency_rows(planes_n)
        qhat = np.append(est.q, 1.0)
        assert np.linalg.norm(A @ qhat) / np.linalg.norm(qhat) < 1e-10


def test_fit_dual_quadric_insufficient_rows(rng):
    with pytest.raises(InsufficientObservationsError):
        fit_dual_quadric(rng.normal(size=(8, 4)))


def test_fit_dual_quadric_degenerate_planes(rng):
    # planes all tangent to a sphere but drawn from a single pencil
    # (rotations about one axis): several quadrics fit them
    center = np.zeros(3)
    dirs = np.array(
        [[math.cos(t), math.sin(t), 0.0] for t in np.linspace(0, 2 * math.pi, 12, endpoint=False)]
    )
    planes = ellipsoid_tangent_planes(center, [1, 1, 1], np.eye(3), dirs)
    with pytest.raises(DegenerateSolutionError):
        fit_dual_quadric(planes)


def test_init_quadric_svd_requires_three_detections(rng):
    q = ellipsoid_to_dual_quadric([0, 0, 0], [1, 1, 1])
    P, dets = nonplanar_rig(q, np.zeros(3))
    with pytest.raises(InsufficientObservationsError):
        init_quadric_svd(dets[:2], P)


def test_init_quadric_svd_nonplanar_rig():
    center = np.array([0.3, -0.2, 0.15])
    gt = ellipsoid_to_dual_quadric(center, (0.4, 0.3, 0.25))
    P, dets = nonplanar_rig(gt, center)
    est = init_quadric_svd(dets, P)
    assert np.max(np.abs(est.matrix() - gt.matrix())) < 1e-6


def test_init_quadric_svd_planar_trajectory_degenerates(zero_noise_sensor):
    ds = generate_dataset(
        WorldConfig(seed=0, landmark_shape="sphere", landmark_min_condition=0.0,
                    landmark_min_detections=3),
        zero_noise_sensor,
    )
    poses = init_poses(ds.odometry, ds.ground_truth_poses[0])
    ids = range(len(ds.landmark_sides))
    _, fallback = initialize_quadrics(
        ds.detections, poses, ds.intrinsics(), ds.mount(), ids,
        InitStrategy(mode="svd-with-fallback"),
    )
    assert any(fallback)


def test_initialize_quadrics_identity_mode(zero_noise_sensor, small_world):
    ds = generate_dataset(small_world, zero_noise_sensor)
    ids = range(len(ds.landmark_sides))
    quads, fallback = initialize_quadrics(
        ds.detections, ds.ground_truth_poses, ds.intrinsics(), ds.mount(), ids,
        InitStrategy(mode="identity"),
    )
    assert all(fallback)
    assert all(np.array_equal(DualQuadric(q).matrix(), np.eye(4)) for q in quads)


@pytest.mark.parametrize("world", [WorldConfig(seed=0), WorldConfig(seed=3, n_landmarks=40)],
                         ids=["default", "40-landmarks"])
def test_initialize_quadrics_matches_per_detection_reference(world):
    # Reference: a scalar camera per detection and a back-projected plane
    # P^T l per box line, against projections formed once per trajectory;
    # numpy's bits can follow a stack's layout, so two layouts are checked.
    ds = generate_dataset(world, SensorConfig())
    poses = init_poses(ds.odometry, ds.ground_truth_poses[0])
    K_ds, mount = ds.intrinsics(), ds.mount()
    ref_quadrics, ref_fallback = [], []
    for j in range(len(ds.landmark_sides)):
        dets = ds.detections[ds.detections.landmark_id == j]
        planes = []
        for i, lines in zip(dets.pose_index.tolist(), dets.values):
            E = pose_to_extrinsics(poses[i], mount)
            P = projection_matrices(K_ds, E.rotation, E.translation)
            planes.extend(P.T @ line for line in lines)
        try:
            ref_quadrics.append(fit_dual_quadric(np.array(planes)).q)
            ref_fallback.append(False)
        except (InsufficientObservationsError, DegenerateSolutionError):
            ref_quadrics.append(DualQuadric.identity().q)
            ref_fallback.append(True)
    quadrics, fallback = initialize_quadrics(
        ds.detections, poses, K_ds, mount, range(len(ds.landmark_sides)),
        InitStrategy(mode="svd-with-fallback"),
    )
    assert fallback == ref_fallback
    assert not all(fallback) and any(fallback)  # both paths are compared
    assert quadrics.tobytes() == np.array(ref_quadrics).tobytes()


# SHA-256 of svd-with-fallback's quadric rows and fallback flags on the
# default world, seeds 0-7, at odometry-chained poses. The reference test
# above fits through fit_dual_quadric itself, so only this pin sees a bit
# change in the fit's shared arithmetic.
SVD_INIT_SHA256 = "73314f249ac4a79229defaba07a8a85a8a008febfa8690672b2078f074dcedfa"


def test_svd_initialization_bytes_pinned():
    digest = hashlib.sha256()
    for seed in range(8):
        ds = generate_dataset(WorldConfig(seed=seed), SensorConfig())
        quadrics, fallback = initialize_quadrics(
            ds.detections, init_poses(ds.odometry, ds.ground_truth_poses[0]),
            ds.intrinsics(), ds.mount(), range(len(ds.landmark_sides)),
            InitStrategy(mode="svd-with-fallback"),
        )
        digest.update(quadrics.tobytes())
        digest.update(bytes(fallback))
    assert digest.hexdigest() == SVD_INIT_SHA256


def test_initialize_quadrics_fallback_always_finite():
    sensor = SensorConfig()
    for seed in range(4):
        ds = generate_dataset(WorldConfig(seed=seed, n_landmarks=4,
                                          trajectory_length=65.0, n_loops=1), sensor)
        poses = init_poses(ds.odometry, ds.ground_truth_poses[0])
        ids = range(len(ds.landmark_sides))
        quads, _ = initialize_quadrics(
            ds.detections, poses, ds.intrinsics(), ds.mount(), ids,
            InitStrategy(mode="svd-with-fallback"),
        )
        for q in quads:
            assert np.all(np.isfinite(DualQuadric(q).matrix()))


def test_init_strategy_validation():
    with pytest.raises(ValueError):
        InitStrategy(mode="bogus")
    with pytest.raises(ValueError):
        InitStrategy(condition_threshold=0.0)
    with pytest.raises(ValueError):
        InitStrategy(condition_threshold=1.5)
