from __future__ import annotations

import math

import numpy as np
import pytest

from dqslam.dataset_io import dumps_dataset
from dqslam.geometry import RobotPose, left_facing_mount
from dqslam.initialization import init_poses
from dqslam.simulator import (
    CubeLandmark,
    SensorConfig,
    WorldConfig,
    _sample_landmark,
    corrupt_bbox,
    corrupt_odometry,
    generate_dataset,
    generate_world,
    ground_truth_odometry,
    inscribed_ellipsoid,
    measure_relative_position,
    project_cube_bbox,
    project_sphere_bbox,
)


K = SensorConfig().intrinsics()
MOUNT = left_facing_mount()


def test_intrinsics_from_published_parameters():
    # 15 mm focal length at 10 um pixels: 1500 px; principal point centered
    assert K.fx == pytest.approx(1500.0, rel=1e-12)
    assert K.fy == pytest.approx(1500.0, rel=1e-12)
    assert (K.cx, K.cy) == (640.0, 512.0)
    assert (K.width, K.height) == (1280, 1024)


def test_ground_truth_odometry_length_and_closure():
    cfg = WorldConfig()
    odo = ground_truth_odometry(cfg)
    assert abs(sum(u.v for u in odo) - cfg.trajectory_length) <= 0.5
    assert sum(u.turn for u in odo) == 4 * cfg.turn_steps * cfg.n_loops
    poses = init_poses(odo, RobotPose(0, 0, 0))
    # two loops: halfway pose matches the end pose (exact closure)
    half = poses[len(odo) // 2]
    last = poses[-1]
    assert (half.x, half.y) == pytest.approx((0, 0), abs=1e-12)
    assert (last.x, last.y) == pytest.approx((0, 0), abs=1e-12)


def test_generate_world_deterministic():
    t1, l1 = generate_world(WorldConfig(seed=9))
    t2, l2 = generate_world(WorldConfig(seed=9))
    assert all(a == b for a, b in zip(t1, t2))
    assert all(np.array_equal(a.center, b.center) and a.side == b.side for a, b in zip(l1, l2))


def test_sample_landmark_side_distribution(rng):
    cfg = WorldConfig()
    trajectory, _ = generate_world(cfg)
    sides = np.array(
        [_sample_landmark(cfg, trajectory, rng, 0).side for _ in range(10000)]
    )
    assert sides.min() == cfg.cube_side_floor  # the floor is active
    assert 0.5 <= sides.mean() <= 0.62


def test_project_cube_bbox_detection_ranges():
    # camera looks along +y from the origin; 0.5 m cube on the optical axis
    pose = RobotPose(0, 0, 0)
    near = CubeLandmark(id=0, center=np.array([0.0, 5.0, 0.0]), side=0.5)
    box = project_cube_bbox(near, pose, K, MOUNT, min_px=100.0)
    assert box is not None
    width = box[:, 0].max() - box[:, 0].min()
    assert 140 <= width <= 165  # ~ f * side / depth with corner-depth spread

    far = CubeLandmark(id=0, center=np.array([0.0, 10.0, 0.0]), side=0.5)
    assert project_cube_bbox(far, pose, K, MOUNT, min_px=100.0) is None

    behind = CubeLandmark(id=0, center=np.array([0.0, -5.0, 0.0]), side=0.5)
    assert project_cube_bbox(behind, pose, K, MOUNT, min_px=100.0) is None


def test_project_sphere_bbox_tangency():
    pose = RobotPose(0, 0, 0)
    lm = CubeLandmark(id=0, center=np.array([0.2, 5.0, -0.1]), side=0.5)
    box = project_sphere_bbox(lm, pose, K, MOUNT, min_px=0.0)
    assert box is not None
    # the silhouette box lines are exactly tangent to the projected conic
    from dqslam.geometry import projection_matrix, pose_to_extrinsics, project_quadric, bbox_to_lines, HomPoint2

    P = projection_matrix(K, pose_to_extrinsics(pose, MOUNT))
    C = project_quadric(P, inscribed_ellipsoid(lm))
    for line in bbox_to_lines([HomPoint2.from_xy(u, v) for u, v in box]):
        assert abs(line.coords @ C.C @ line.coords) < 1e-7 * np.abs(C.C).max()


def test_corrupt_bbox_zero_sigma_exact(rng):
    corners = np.array([[100.0, 100.0], [300.0, 100.0], [300.0, 250.0], [100.0, 250.0]])
    from dqslam.geometry import HomPoint2, bbox_to_lines

    exact = bbox_to_lines([HomPoint2.from_xy(u, v) for u, v in corners])
    noisy = corrupt_bbox(corners, 0.0, rng)
    for a, b in zip(exact, noisy):
        assert np.array_equal(a.coords, b.coords)


def test_corrupt_bbox_noise_statistics(rng):
    corners = np.array([[100.0, 100.0], [300.0, 100.0], [300.0, 250.0], [100.0, 250.0]])
    devs = []
    for _ in range(2500):
        lines = corrupt_bbox(corners, 1.0, rng)
        # recover the noisy corners as intersections of adjacent lines
        for k in range(4):
            p = np.cross(lines[(k - 1) % 4].coords, lines[k].coords)
            devs.append(p[:2] / p[2] - corners[k])
    devs = np.array(devs).ravel()
    assert 0.97 <= devs.std() <= 1.03


def test_corrupt_odometry_zero_sigma(rng):
    cfg = SensorConfig(odo_sigma=0.0, odo_turn_omega_sigma=0.0)
    odo = ground_truth_odometry(WorldConfig())
    noisy = corrupt_odometry(odo, cfg, rng)
    assert all(a == b for a, b in zip(odo, noisy))


def test_corrupt_odometry_turn_noise_ratio(rng):
    cfg = SensorConfig()
    odo = ground_truth_odometry(WorldConfig(trajectory_length=1300.0))  # many steps
    noisy = corrupt_odometry(odo, cfg, rng)
    d_straight = [n.omega - u.omega for n, u in zip(noisy, odo) if not u.turn]
    d_turn = [n.omega - u.omega for n, u in zip(noisy, odo) if u.turn]
    ratio = np.std(d_turn) / np.std(d_straight)
    assert 4.0 <= ratio <= 6.0


def test_noisy_odometry_drift_magnitude():
    cfg = WorldConfig()
    sensor = SensorConfig()
    finals = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        noisy = corrupt_odometry(ground_truth_odometry(cfg), sensor, rng)
        poses = init_poses(noisy, RobotPose(0, 0, 0))
        finals.append(math.hypot(poses[-1].x, poses[-1].y))
    assert np.mean(finals) > 1.0


def test_measure_relative_position_examples(rng):
    lm = CubeLandmark(id=0, center=np.array([0.0, 3.0, 0.0]), side=0.5)
    z = measure_relative_position(lm, RobotPose(0, 0, 0), 0.0, rng)
    assert np.allclose(z.z, [0, 3, 0])
    z = measure_relative_position(lm, RobotPose(0, 0, math.pi / 2), 0.0, rng)
    assert np.allclose(z.z, [3, 0, 0], atol=1e-15)


def test_measure_relative_position_noise_std(rng):
    lm = CubeLandmark(id=0, center=np.array([1.0, 2.0, 0.2]), side=0.5)
    draws = np.array(
        [measure_relative_position(lm, RobotPose(0, 0, 0), 0.1, rng).z for _ in range(10000)]
    )
    stds = draws.std(axis=0)
    assert np.all((0.095 <= stds) & (stds <= 0.105))


def test_generate_dataset_detection_floor(small_world, zero_noise_sensor):
    ds = generate_dataset(small_world, zero_noise_sensor)
    counts = ds.detections_per_landmark()
    assert all(n >= small_world.landmark_min_detections for n in counts.values())


def test_generate_dataset_deterministic(small_world):
    sensor = SensorConfig()
    a = dumps_dataset(generate_dataset(small_world, sensor))
    b = dumps_dataset(generate_dataset(small_world, sensor))
    assert a == b
    c = dumps_dataset(generate_dataset(WorldConfig(
        n_landmarks=4, trajectory_length=65.0, n_loops=1, seed=4), sensor))
    assert c != a


def test_generate_dataset_emitted_boxes_satisfy_predicate(small_world):
    sensor = SensorConfig()
    ds = generate_dataset(small_world, sensor)
    by_id = {lm.id: lm for lm in ds.landmarks}
    for det in ds.detections:
        pose = ds.ground_truth_poses[det.pose_index]
        assert project_cube_bbox(
            by_id[det.landmark_id], pose, K, MOUNT, sensor.detection_min_px
        ) is not None


def test_generate_dataset_relpos_paired(small_world):
    ds = generate_dataset(small_world, SensorConfig())
    det_keys = {(d.pose_index, d.landmark_id) for d in ds.detections}
    z_keys = {(z.pose_index, z.landmark_id) for z in ds.relative_positions}
    assert z_keys == det_keys


def test_relpos_noise_stream_independent_of_bbox(small_world):
    base = generate_dataset(small_world, SensorConfig())
    no_rel = generate_dataset(small_world, SensorConfig(relpos_sigma_m=0.0))
    # disabling relative-position noise must not perturb the box noise
    for a, b in zip(base.detections, no_rel.detections):
        assert all(np.array_equal(x.coords, y.coords) for x, y in zip(a.lines, b.lines))


def test_world_config_validation():
    with pytest.raises(ValueError):
        WorldConfig(landmark_shape="pyramid")
    with pytest.raises(ValueError):
        WorldConfig(offset_min=3.0, offset_max=2.0)
    with pytest.raises(ValueError):
        WorldConfig(landmark_min_detections=2)
    with pytest.raises(ValueError, match="landmark_z_sigma"):
        WorldConfig(landmark_z_sigma=-1.0)
    with pytest.raises(ValueError, match="cube_side_mean"):
        WorldConfig(cube_side_mean=0.0)
    with pytest.raises(ValueError, match="cube_side_sigma"):
        WorldConfig(cube_side_sigma=-1.0)
    with pytest.raises(ValueError, match="seed"):
        WorldConfig(seed=-1)
