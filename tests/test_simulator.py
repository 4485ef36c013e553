from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from dqslam.config import ConfigError
from dqslam.dataset_io import dumps_dataset
from dqslam.geometry import (
    box_corners,
    box_lines,
    camera_frames,
    left_facing_mount,
    project_quadrics,
    projection_matrices,
    tangency_rows,
)
from dqslam.initialization import init_poses
from dqslam.simulator import (
    MAX_SCHEDULE_STEPS,
    SensorConfig,
    WorldConfig,
    _landmark_condition,
    _sample_landmark,
    corrupt_bbox,
    corrupt_odometry,
    generate_dataset,
    ground_truth_odometry,
    inscribed_ellipsoid,
    measure_relative_position,
    project_cube_bbox,
    project_sphere_bbox,
)
from oracle import dual_conic_bbox, pose_to_extrinsics
from test_geometry import _reference_normalize


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
    odo, turn = ground_truth_odometry(cfg)
    assert odo.shape == (len(turn), 2) and turn.dtype == bool
    assert abs(odo[:, 0].sum() - cfg.trajectory_length) <= 0.5
    assert turn.sum() == 4 * cfg.turn_steps * cfg.n_loops
    assert np.all(odo[~turn, 1] == 0) and np.all(odo[turn, 1] > 0)
    poses = init_poses(odo, (0, 0, 0))
    # two loops: halfway pose matches the end pose (exact closure)
    half = poses[len(odo) // 2]
    last = poses[-1]
    assert tuple(half[:2]) == pytest.approx((0, 0), abs=1e-12)
    assert tuple(last[:2]) == pytest.approx((0, 0), abs=1e-12)


def test_sample_landmark_side_distribution(rng):
    cfg = WorldConfig()
    trajectory = init_poses(ground_truth_odometry(cfg)[0], (0, 0, 0))
    sides = np.array(
        [_sample_landmark(cfg, trajectory, rng)[1] for _ in range(10000)]
    )
    assert sides.min() == cfg.cube_side_floor  # the floor is active
    assert 0.5 <= sides.mean() <= 0.62


def test_camera_frames_match_pose_to_extrinsics():
    rng = np.random.default_rng(5)
    odometry, turn = ground_truth_odometry(WorldConfig())
    for trajectory in (
        init_poses(odometry, (0, 0, 0)),
        init_poses(corrupt_odometry(odometry, turn, SensorConfig(), rng), (0, 0, 0)),
        # Headings outside (-pi, pi], which both wrap.
        rng.uniform([-50, -50, -20], [50, 50, 20], (200, 3)),
    ):
        R, t = camera_frames(trajectory, MOUNT)
        assert R.shape == (len(trajectory), 3, 3) and t.shape == (len(trajectory), 3)
        P = projection_matrices(K, R, t)
        for i, pose in enumerate(trajectory):
            E = pose_to_extrinsics(pose, MOUNT)
            assert R[i].tobytes() == E.rotation.tobytes()
            assert t[i].tobytes() == E.translation.tobytes()
            assert P[i].tobytes() == projection_matrices(K, E.rotation, E.translation).tobytes()


def test_project_cube_bbox_detection_ranges():
    # camera looks along +y from the origin; 0.5 m cube on the optical axis
    R, t = camera_frames(np.zeros((1, 3)), MOUNT)
    near = np.array([0.0, 5.0, 0.0])
    seen, boxes = project_cube_bbox(near, 0.5, R, t, K, min_px=100.0)
    assert seen.tolist() == [True] and boxes.shape == (1, 4, 2)
    width = boxes[0, :, 0].max() - boxes[0, :, 0].min()
    assert 140 <= width <= 165  # ~ f * side / depth with corner-depth spread

    far = np.array([0.0, 10.0, 0.0])
    assert project_cube_bbox(far, 0.5, R, t, K, min_px=100.0)[0].tolist() == [False]

    behind = np.array([0.0, -5.0, 0.0])
    assert project_cube_bbox(behind, 0.5, R, t, K, min_px=100.0)[0].tolist() == [False]


def test_project_sphere_bbox_tangency():
    poses = np.array([[0, 0, 0], [0, 0, math.pi]])  # facing it, facing away
    R, t = camera_frames(poses, MOUNT)
    center, side = np.array([0.2, 5.0, -0.1]), 0.5
    seen, boxes = project_sphere_bbox(center, side, R, t, K, min_px=0.0)
    assert seen.tolist() == [True, False]
    box = boxes[0]
    # the silhouette box lines are exactly tangent to the projected conic
    E = pose_to_extrinsics(poses[0], MOUNT)
    P = projection_matrices(K, E.rotation, E.translation)
    (C,) = project_quadrics(P[None], inscribed_ellipsoid(center, side).matrix())
    for line in box_lines(box):
        assert abs(line @ C @ line) < 1e-7 * np.abs(C).max()
    # and equal, bit for bit, to the scalar conic box
    u_min, v_min, u_max, v_max = dual_conic_bbox(C)
    assert box.tolist() == [[u_min, v_min], [u_max, v_min], [u_max, v_max], [u_min, v_max]]


def test_project_quadrics_stacked_matches_one_camera():
    # The simulator projects each landmark into every frame at once; each
    # frame's conic is the one-camera call's, bit for bit.
    ds = generate_dataset(WorldConfig(seed=0), SensorConfig())
    P = projection_matrices(K, *camera_frames(ds.ground_truth_poses, MOUNT))
    for center, side in zip(ds.landmark_centers, ds.landmark_sides.tolist()):
        Q = inscribed_ellipsoid(center, side).matrix()
        C = project_quadrics(P, Q)
        assert C.shape == (len(P), 3, 3)
        for i in range(len(P)):
            assert C[i].tobytes() == project_quadrics(P[i][None], Q)[0].tobytes()


def test_landmark_condition_matches_back_projected_box_lines():
    # Reference: the scalar silhouette box, its normalized lines l and their
    # back-projected planes P^T l.
    ds = generate_dataset(WorldConfig(seed=0), SensorConfig())
    poses = ds.ground_truth_poses
    R, t = camera_frames(poses, MOUNT)
    for center, side in zip(ds.landmark_centers[:3], ds.landmark_sides[:3]):
        seen, boxes = project_cube_bbox(center, side, R, t, K, SensorConfig().detection_min_px)
        planes = []
        for i in np.flatnonzero(seen):
            E = pose_to_extrinsics(poses[i], MOUNT)
            P = projection_matrices(K, E.rotation, E.translation)
            (C,) = project_quadrics(P[None], inscribed_ellipsoid(center, side).matrix())
            box = dual_conic_bbox(C)
            planes.extend(P.T @ line for line in box_lines(box_corners(*box)))
        planes = np.array(planes)
        planes /= np.linalg.norm(planes, axis=1, keepdims=True)
        S = np.linalg.svd(tangency_rows(planes), compute_uv=False)
        condition = _landmark_condition(center, side, seen, R, t, K)
        assert condition == pytest.approx(S[-2] / S[0], rel=1e-9)


def test_corrupt_bbox_zero_sigma_exact(rng):
    corners = np.array([[100.0, 100.0], [300.0, 100.0], [300.0, 250.0], [100.0, 250.0]])
    (noisy,) = corrupt_bbox(corners[None], 0.0, rng)
    assert np.array_equal(box_lines(corners), noisy)


def test_corrupt_bbox_noise_statistics(rng):
    corners = np.array([[100.0, 100.0], [300.0, 100.0], [300.0, 250.0], [100.0, 250.0]])
    devs = []
    for lines in corrupt_bbox(np.broadcast_to(corners, (2500, 4, 2)), 1.0, rng):
        # recover the noisy corners as intersections of adjacent lines
        for k in range(4):
            p = np.cross(lines[(k - 1) % 4], lines[k])
            devs.append(p[:2] / p[2] - corners[k])
    devs = np.array(devs).ravel()
    assert 0.97 <= devs.std() <= 1.03


def test_corrupt_bbox_one_draw_equals_per_box_draws():
    # One (n, 4, 2) draw yields the values of n (4, 2) draws in order, and
    # each box's lines equal the normalized cross products of its noisy
    # corners bit for bit.
    boxes = np.random.default_rng(7).uniform(0, 1000, size=(30, 4, 2))
    batch = corrupt_bbox(boxes, 1.5, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    for box, lines in zip(boxes, batch):
        noisy = box + rng.normal(0.0, 1.5, size=(4, 2))
        points = np.column_stack([noisy, np.ones(4)])
        expected = [
            _reference_normalize(np.cross(points[k], points[(k + 1) % 4])) for k in range(4)
        ]
        assert [l.tobytes() for l in lines] == [l.tobytes() for l in expected]


def test_corrupt_odometry_zero_sigma(rng):
    cfg = SensorConfig(odo_sigma=0.0, odo_turn_omega_sigma=0.0)
    odo, turn = ground_truth_odometry(WorldConfig())
    noisy = corrupt_odometry(odo, turn, cfg, rng)
    assert np.array_equal(noisy, odo)


def test_corrupt_odometry_turn_noise_ratio(rng):
    cfg = SensorConfig()
    odo, turn = ground_truth_odometry(WorldConfig(trajectory_length=1300.0))  # many steps
    noisy = corrupt_odometry(odo, turn, cfg, rng)
    d_omega = noisy[:, 1] - odo[:, 1]
    ratio = np.std(d_omega[turn]) / np.std(d_omega[~turn])
    assert 4.0 <= ratio <= 6.0


def test_noisy_odometry_drift_magnitude():
    cfg = WorldConfig()
    sensor = SensorConfig()
    finals = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        noisy = corrupt_odometry(*ground_truth_odometry(cfg), sensor, rng)
        poses = init_poses(noisy, (0, 0, 0))
        finals.append(math.hypot(*poses[-1, :2]))
    assert np.mean(finals) > 1.0


def test_measure_relative_position_examples(rng):
    centers = np.array([[0.0, 3.0, 0.0], [0.0, 3.0, 0.0]])
    poses = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, math.pi / 2]])
    z = measure_relative_position(centers, poses, 0.0, rng)
    assert np.allclose(z[0], [0, 3, 0])
    assert np.allclose(z[1], [3, 0, 0], atol=1e-15)


def test_measure_relative_position_noise_std(rng):
    centers = np.broadcast_to([1.0, 2.0, 0.2], (10000, 3))
    draws = measure_relative_position(centers, np.zeros((10000, 3)), 0.1, rng)
    stds = draws.std(axis=0)
    assert np.all((0.095 <= stds) & (stds <= 0.105))


def test_measure_relative_position_matches_per_pose_formula():
    # Reference: the per-measurement formula with math.cos/math.sin and one
    # size-3 draw per measurement, in order; equal bit for bit.
    gen = np.random.default_rng(3)
    centers = gen.normal(0, 5, size=(200, 3))
    poses = np.column_stack([gen.normal(0, 20, size=(200, 2)), gen.uniform(-4, 4, 200)])
    z = measure_relative_position(centers, poses, 0.1, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for (cx, cy, cz), (x, y, theta), zk in zip(centers, poses, z):
        c, s = math.cos(theta), math.sin(theta)
        dx, dy = cx - x, cy - y
        expected = np.array([c * dx + s * dy, -s * dx + c * dy, cz]) + rng.normal(0, 0.1, 3)
        assert zk.tobytes() == expected.tobytes()


def test_generate_dataset_detection_floor(small_world, zero_noise_sensor):
    ds = generate_dataset(small_world, zero_noise_sensor)
    counts = ds.detections_per_landmark()
    assert counts.shape == (len(ds.landmark_sides),) and counts.sum() == len(ds.detections)
    assert counts.min() >= small_world.landmark_min_detections


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
    R, t = camera_frames(ds.ground_truth_poses, MOUNT)
    seen = [
        project_cube_bbox(center, side, R, t, K, sensor.detection_min_px)[0]
        for center, side in zip(ds.landmark_centers, ds.landmark_sides)
    ]
    for i, j in zip(ds.detections.pose_index, ds.detections.landmark_id):
        assert seen[j][i]
    # and every detectable (pose, landmark) pair is emitted
    assert sum(int(s.sum()) for s in seen) == len(ds.detections) > 0


# dumps_dataset SHA-256 of default-config datasets, seeds 0-49 (seeds 0 and 2
# as pinned in bench/reference/simulate-io.json): a simulator or writer change
# that moves a single byte of a default dataset must say so.
DEFAULT_DATASET_SHA256 = {
    0: "e41845a052d92c7107e5cad3d6e9a5de9e910f1c932d80742e2822f5a3eb5b25",
    1: "a78421c1b9bab902b03af26619374d107222a3542859bcf110abcf5e618862e1",
    2: "054a7829704a832d8126b5231059018d84c3bf389d5314fa8fc9ce1c03efcb60",
    3: "de2484dbac1e33da0364bce27474b595c6537e205202223bd70ac7b7a43ab233",
    4: "496fe9f870dc55cc8aac5c958eadcab92efb042acbdf8738e5f079424790ac4b",
    5: "cb6533b39b7d62145728dc4687fffadf44ce1193ddcfe63b582c6f92353a6cc2",
    6: "5c960696bb05680f1c2250d9ef123b855dc6e4d146c5606ebf177aff13231205",
    7: "c801c0927396f59229e27695e7914bd6cb83a912dba44ec7859369f781b7e0e2",
    8: "496a47d3254133b605926e8305dbec6f6b0d5f1d5027cab0e4b83c6424c0e062",
    9: "098077b84746c66de5bb333d2fe1d8af4c097e113230bbf370e38206b7798219",
    10: "e44107a56aad0f1e6ab905a2b679668e2c71046977b149f2beed9d1e5ce4f48d",
    11: "b6f747cb63059122e3f8f3d48a530b8d3ce9a18b6236620095261a363cc4651b",
    12: "7dcbd5964a068440eebe834145d2ea74e517f4b77ba4ac0f21be37d7dcc06574",
    13: "596b8823ba8da41c1f3fa709ad55a8b4298edbb4177fa5ce83fdc1807e378771",
    14: "1d754f0264e68ca708e20256ade7b67c2102b69c49ce34864dd842c76f44c632",
    15: "04ee45f29707ff2ce6b2dd13add21597f0e31af7088086b3242fa4f50405e330",
    16: "b797ae988af18df477b529181417e803c9376d72bd3b64288d47241fe574114c",
    17: "de7f8e559b2ab8ea7142aeb661a96a7b2f9aa20e0860c6c542f11beeddb6d2a5",
    18: "ae989dbf2e2d15115cc6d2caec5887bc5c4f6ba15759bac82b6a204476ec8499",
    19: "3aac0f2f5adc2f18ad9da6e20888f29fb41159f11920b78a8ea4268ceddfd66e",
    20: "abd44171b5ecbb59a721cc9045a37d81098d41fbaad75dd5534e4a0cc1ea5c0f",
    21: "c6d697fd382f7419724efa7e6ddb2054e88ad65c2b2d8aca5306246e6bf67852",
    22: "c68360330bd1f803a9c860cce3ed44276588664944278357c05d671f57809661",
    23: "e2ac3a91a1864220c9c34200641dbb9473161e57b5eae5fb69e7af71210217b6",
    24: "111307cdfd948e6e5861d2068173b73b2706c0108c192024205d55da5d14eade",
    25: "b86ff22a1196fa8e3b2ae3f7ab19528e5dceb821a572fbd4dfb56125a7ed60ba",
    26: "463e3dd33b9a6754749c8e9686d8907296624a26dd640b3d55db1394b26aaaa3",
    27: "50bb8f45eb1ee158b39ce0c772554e1cd1fe92f3489b6266df5983f5f213efa3",
    28: "53d8e1728ffd2a3416c5d1a74e9b550847e9b64a658c0eb87a32e586b1592719",
    29: "caf2412d5cf4fd2fbb75e5f9375dd3f4cfe5cb3f6ba3f79f8291352894e87a1f",
    30: "bfdcdec54743ebdc8b903113018af44bb8b157c9feb7cf610bc7fd5ffae5852c",
    31: "10405b334c7cde15d529b236705e473418907efa88d1c78daed7324758c1b642",
    32: "e91538dea0547e6d7d37675ea42bacaf44e2376bbe7215328c79e13a1d2e9a15",
    33: "4ee35979257b3ad07ff2279bb842ff6c76ee716d6ea88ebdbe4e1469891a54c5",
    34: "6414f2c3d5682bc3abf40f8dd7af83b14aef0e89977f7ccbacb9b93eca2bcf55",
    35: "1625143780f715145e0472c82165aaf0d7a5af49ca7841cec79deea22f251d8e",
    36: "b9e1f78bc7865415e73945e63a006502d8a7291db26379475721fda69ec1e6cd",
    37: "66da9f8eab291542536a1dac54d5a93336b26b809b6884e19f9eb927063b84a3",
    38: "bc6485ab2adadbd55fe582c52833a1046deb0e1235ccb259c3c6c5198c5cb133",
    39: "5b1834df1a9c80173e947c058cc65ad3c5e4034d1fb340dc60ff937e3487c8f3",
    40: "282f727d7cb9be85afd49b2c6317cafda10731377e8796d3e3379795f71b482a",
    41: "acdaae23bf866fabea18a245abb516ff35e3b2fa4727b181bc81a955a1bc8317",
    42: "3392e21484a040f50fcc3ef1b51aba0b85320bbccc00b753f0b6d70fc510e33a",
    43: "4287af3352a61d5cbf9c7b8319b2ae32d1da29494b66c923ef2d0cdde5ce45b0",
    44: "f0e6b52c4032c8c12795abd6567773081e838cbf630bea4159edf98a73aa4c5d",
    45: "5f5bd696a670f4fededb81fa9e2358b8db1d5c9d8050b2a936a903ed7285833c",
    46: "b1be66fa879287c56b9a36229612cb406e89d4ef1ae26327612c7a9c17353858",
    47: "67a9bea0bb345dda4a9db0959b008c01509e1da141cc5c1f59b24484e5f88c71",
    48: "138e95d5db8832a78ce398f5359722201314e0a2f0c34123aab593566ba1dfb8",
    49: "c2701c020a0f8c409eb5e21d7cb4864ddd711ddb7b5491ad6ea98c1e0f1ef6f4",
}


@pytest.mark.parametrize("seed", sorted(DEFAULT_DATASET_SHA256))
def test_default_dataset_fingerprint(seed):
    text = dumps_dataset(generate_dataset(WorldConfig(seed=seed), SensorConfig()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_DATASET_SHA256[seed]


# dumps_dataset SHA-256 of 40-landmark worlds (as pinned in
# bench/reference/large-map-solve.json), of the small world the end-to-end
# tests use, and of sphere-shape worlds, whose boxes take the other
# projection path.
WORLD_DATASET_SHA256 = {
    "40-landmarks-seed1": (
        WorldConfig(n_landmarks=40, seed=1),
        "93fc524043602a51be05449d115003449bb6eb1f8719e3a8514fbeafac2d9fbc",
    ),
    "40-landmarks-seed3": (
        WorldConfig(n_landmarks=40, seed=3),
        "8d586d108960b8cf30aa968593af24f06f55bbbc48a1b4859add1cace1d3365e",
    ),
    "small-world-seed3": (
        WorldConfig(n_landmarks=4, trajectory_length=65.0, n_loops=1, seed=3),
        "07d850ae2c5007886c8c17484da1a73e4db228c3a0ac7c28e9786dc5ab49eae2",
    ),
    "small-world-seed4": (
        WorldConfig(n_landmarks=4, trajectory_length=65.0, n_loops=1, seed=4),
        "dae600eff60467ca6be0cdead038ae56a666362741849b4b9e4ea9ccfd002ece",
    ),
    "sphere-seed0": (
        WorldConfig(landmark_shape="sphere", seed=0),
        "3058918364082cd5fdda2bd33fb8c2839ece05930f40c6ca1fc67bfa72cbf3b6",
    ),
    "sphere-seed1": (
        WorldConfig(landmark_shape="sphere", seed=1),
        "d5d87ed9d0f29bbed858aab28cd90fbad3f13bdf7f823021201d3f2669ddc3ec",
    ),
    "sphere-seed2": (
        WorldConfig(landmark_shape="sphere", seed=2),
        "652e75563bb86681e3daa27a1e677a353e0f9c68fdb647f24c7b351a5080f7f9",
    ),
    "sphere-seed3": (
        WorldConfig(landmark_shape="sphere", seed=3),
        "8946862b4fedd5ee3241cce1d2a96b731211de49c2e3f04e7eefd3bf5f391f51",
    ),
    "sphere-seed4": (
        WorldConfig(landmark_shape="sphere", seed=4),
        "e9d361eb955e16c456a54df0c574de6b6a36b71613a3ab5fd1513ed8e5db2c6f",
    ),
    "sphere-seed5": (
        WorldConfig(landmark_shape="sphere", seed=5),
        "63aedc3d5c899678a032e2fabb8af31e358c37dc5efe6e208e5d19b6ba4a334a",
    ),
    "sphere-seed6": (
        WorldConfig(landmark_shape="sphere", seed=6),
        "c4d85114dcc957c1910730f9d01f01f6065a911e0cf0ecff2454b1f7f1a7b8ee",
    ),
    "sphere-seed7": (
        WorldConfig(landmark_shape="sphere", seed=7),
        "21d6330f8d6e889ce6df4a9f52a3ff1fc3e9be2d45b69cfff4a3ca3b39f3e7b4",
    ),
    "sphere-seed8": (
        WorldConfig(landmark_shape="sphere", seed=8),
        "67d2f9204a5ae9ca72dd48210b865ac4070bac71b2c6fe1c075342f25c0d68d4",
    ),
    "sphere-seed9": (
        WorldConfig(landmark_shape="sphere", seed=9),
        "702f5816fe46ebfceb4d539af1a59a1dd57d31e923d5672b713bdf92b2ab47e4",
    ),
}


@pytest.mark.parametrize("name", sorted(WORLD_DATASET_SHA256))
def test_world_dataset_fingerprint(name):
    world, expected = WORLD_DATASET_SHA256[name]
    text = dumps_dataset(generate_dataset(world, SensorConfig()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


def test_generate_dataset_relpos_paired(small_world):
    ds = generate_dataset(small_world, SensorConfig())
    d, z = ds.detections, ds.relative_positions
    assert np.array_equal(d.pose_index, z.pose_index)
    assert np.array_equal(d.landmark_id, z.landmark_id)
    assert len(set(zip(d.pose_index.tolist(), d.landmark_id.tolist()))) == len(d)


def test_relpos_noise_stream_independent_of_bbox(small_world):
    base = generate_dataset(small_world, SensorConfig())
    no_rel = generate_dataset(small_world, SensorConfig(relpos_sigma_m=0.0))
    # disabling relative-position noise must not perturb the box noise
    assert np.array_equal(base.detections.values, no_rel.detections.values)


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


def test_schedule_step_ceiling():
    # The ceiling counts the steps of all loops together.
    step = WorldConfig.step_length
    assert len(ground_truth_odometry(WorldConfig(
        trajectory_length=MAX_SCHEDULE_STEPS * step, n_loops=4))[1]) == MAX_SCHEDULE_STEPS
    for length, n_loops in [(MAX_SCHEDULE_STEPS * step + step, 1),
                            ((MAX_SCHEDULE_STEPS // 4 + 1) * 4 * step, 4)]:
        with pytest.raises(ConfigError, match=f"trajectory_length.*at most {MAX_SCHEDULE_STEPS}"):
            WorldConfig(trajectory_length=length, n_loops=n_loops)
