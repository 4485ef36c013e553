"""Synthetic world and measurement generation.

A robot drives a rounded-square loop (twice, by default) with a camera
looking 90 degrees to its left. Cube landmarks are scattered inside the
loop; whenever a cube projects large enough and fully inside the image, a
bounding-box detection is generated, together with a relative-position
measurement of the cube center. Odometry, box corners and relative
positions are corrupted by Gaussian noise.

Randomness is split into one child stream per noise source (world layout,
odometry, box corners, relative positions), so toggling one noise source
off does not shift the draws of the others and every dataset is bit-exact
reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, check_fields, setting
from .factors import (
    BBoxDetection,
    OdometryMeasurement,
    RelativePositionMeasurement,
    _plane_constraint_rows,
)
from .geometry import (
    _EPS_SCALE,
    CameraExtrinsics,
    CameraIntrinsics,
    DualQuadric,
    HomPoint2,
    RobotPose,
    bbox_to_lines,
    ellipsoid_to_dual_quadric,
    left_facing_mount,
    pose_to_extrinsics,  # noqa: F401  (bench/tracing.py shims it by this name)
    rotz,
)
from .initialization import init_poses

__all__ = [
    "WorldConfig",
    "SensorConfig",
    "CubeLandmark",
    "Dataset",
    "ground_truth_odometry",
    "camera_frames",
    "project_cube_bbox",
    "project_sphere_bbox",
    "corrupt_bbox",
    "corrupt_odometry",
    "measure_relative_position",
    "generate_dataset",
    "inscribed_ellipsoid",
]

_PLACEMENT_RETRIES = 200


@dataclass(frozen=True)
class WorldConfig:
    """Ground-truth world layout parameters."""

    n_landmarks: int = setting(10, gt=0)
    landmark_z_sigma: float = setting(0.3, ge=0)
    cube_side_mean: float = setting(0.5, gt=0)
    cube_side_sigma: float = setting(0.3, ge=0)
    cube_side_floor: float = setting(0.2, gt=0)
    trajectory_length: float = setting(130.0, gt=0)
    n_loops: int = setting(2, gt=0)
    step_length: float = setting(0.5, gt=0)
    turn_steps: int = setting(6, gt=0)
    offset_min: float = setting(1.0, gt=0)
    offset_max: float = setting(6.0, gt=0)
    landmark_shape: str = setting("cube", choices=("cube", "sphere"))
    # 3 views x 4 lines = 12 constraints bound the 9 quadric DOF, so 3
    # detections is the hard floor; the default is higher because views
    # from adjacent poses are barely distinct viewpoints.
    landmark_min_detections: int = setting(10, ge=3)
    landmark_min_condition: float = setting(1e-4, ge=0)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_fields(self)
        if self.offset_min >= self.offset_max:
            raise ConfigError("offset_min", f"must be less than offset_max ({self.offset_max})")


@dataclass(frozen=True)
class SensorConfig:
    """Camera, detector and noise parameters."""

    focal_mm: float = setting(15.0, gt=0)
    pixel_size_m: float = setting(10e-6, gt=0)
    image_width: int = setting(1280, gt=0)
    image_height: int = setting(1024, gt=0)
    detection_min_px: float = setting(100.0, gt=0)
    bbox_corner_sigma_px: float = setting(1.0, ge=0)
    odo_sigma: float = setting(0.02, ge=0)
    odo_turn_omega_sigma: float = setting(0.1, ge=0)
    relpos_sigma_m: float = setting(0.1, ge=0)

    def __post_init__(self):
        check_fields(self)

    def intrinsics(self) -> CameraIntrinsics:
        f = self.focal_mm * 1e-3 / self.pixel_size_m
        return CameraIntrinsics(
            fx=f,
            fy=f,
            cx=self.image_width / 2.0,
            cy=self.image_height / 2.0,
            width=self.image_width,
            height=self.image_height,
        )


@dataclass(frozen=True)
class CubeLandmark:
    """Axis-aligned cube landmark."""

    id: int
    center: np.ndarray
    side: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float).reshape(3)
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        if self.side <= 0:
            raise ValueError("cube side must be positive")

    def corners(self) -> np.ndarray:
        h = self.side / 2.0
        offs = np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
        return self.center + h * offs


def inscribed_ellipsoid(landmark: CubeLandmark) -> DualQuadric:
    """Dual quadric of the sphere inscribed in the cube (the closest quadric
    stand-in for a cube in tangency oracles)."""
    h = landmark.side / 2.0
    return ellipsoid_to_dual_quadric(landmark.center, (h, h, h))


@dataclass
class Dataset:
    """One simulated trial: ground truth plus noisy measurements."""

    world_config: WorldConfig
    sensor_config: SensorConfig
    ground_truth_poses: list
    landmarks: list
    odometry: list
    detections: list
    relative_positions: list

    @property
    def seed(self) -> int:
        """The trial seed, which is the world configuration's."""
        return self.world_config.seed

    def intrinsics(self) -> CameraIntrinsics:
        return self.sensor_config.intrinsics()

    def mount(self) -> CameraExtrinsics:
        return left_facing_mount()

    def detections_per_landmark(self) -> dict:
        counts = {lm.id: 0 for lm in self.landmarks}
        for det in self.detections:
            counts[det.landmark_id] += 1
        return counts


def ground_truth_odometry(cfg: WorldConfig) -> list:
    """Noise-free odometry of the rounded-square loop, turn steps tagged.

    Each loop consists of four straight runs joined by four left quarter
    turns of `turn_steps` steps each; opposite straights have equal length
    so the loop closes exactly. The step count is rounded to the nearest
    closable schedule of the requested total length.
    """
    steps_per_loop = int(round(cfg.trajectory_length / cfg.n_loops / cfg.step_length))
    straight_total = steps_per_loop - 4 * cfg.turn_steps
    if straight_total < 4:
        raise ValueError("trajectory too short for the turn schedule")
    if straight_total % 2:
        straight_total -= 1  # keep opposite sides equal so the loop closes
    s_long = (straight_total + 2) // 4
    s_short = straight_total // 2 - s_long
    omega_turn = (math.pi / 2.0) / cfg.turn_steps
    v = cfg.step_length

    loop = []
    for straight in (s_long, s_short, s_long, s_short):
        loop.extend([OdometryMeasurement(v, 0.0)] * straight)
        loop.extend([OdometryMeasurement(v, omega_turn, turn=True)] * cfg.turn_steps)
    return loop * cfg.n_loops


def _sample_landmark(cfg: WorldConfig, trajectory, rng, lm_id: int) -> CubeLandmark:
    k = int(rng.integers(0, len(trajectory)))
    pose = trajectory[k]
    offset = float(rng.uniform(cfg.offset_min, cfg.offset_max))
    z = float(rng.normal(0.0, cfg.landmark_z_sigma))
    side = max(cfg.cube_side_floor, float(rng.normal(cfg.cube_side_mean, cfg.cube_side_sigma)))
    # Left normal of the heading: the camera-facing side of the route.
    cx = pose.x - offset * math.sin(pose.theta)
    cy = pose.y + offset * math.cos(pose.theta)
    return CubeLandmark(id=lm_id, center=np.array([cx, cy, z]), side=side)


def camera_frames(trajectory, mount: CameraExtrinsics):
    """World-to-camera rotations (n, 3, 3) and translations (n, 3) of the
    mounted camera at every pose of a trajectory.

    Same arithmetic as pose_to_extrinsics, stacked, so every frame equals
    pose_to_extrinsics(pose, mount) bit for bit.
    """
    R_wr = np.stack([rotz(x.theta) for x in trajectory])  # robot-to-world
    R_rw = R_wr.transpose(0, 2, 1)
    p = np.array([[x.x, x.y, 0.0] for x in trajectory])
    t_rw = (-R_rw @ p[:, :, None])[:, :, 0]
    R = mount.rotation @ R_rw
    t = (mount.rotation @ t_rw[:, :, None])[:, :, 0] + mount.translation
    return R, t


def _visible_boxes(u_min, v_min, u_max, v_max, seen, K: CameraIntrinsics, min_px):
    """Detectability mask and (n, 4, 2) cyclic box corners per pose."""
    seen = (
        seen
        & (u_min >= 0) & (v_min >= 0) & (u_max <= K.width) & (v_max <= K.height)
        & (np.maximum(u_max - u_min, v_max - v_min) >= min_px)
    )
    boxes = np.stack([u_min, v_min, u_max, v_min, u_max, v_max, u_min, v_max], -1)
    return seen, boxes.reshape(-1, 4, 2)


def project_cube_bbox(
    landmark: CubeLandmark, R, t, K: CameraIntrinsics, min_px: float = 100.0
):
    """Axis-aligned hull of the projected cube corners at every camera frame.

    R, t are the stacked world-to-camera frames from camera_frames. Returns
    (seen, boxes): seen[i] is False when any corner is behind camera i, the
    hull is not fully inside the image, or the hull's larger side is below
    min_px; boxes[i] holds the (4, 2) pixel corners in cyclic order (not
    meaningful where seen[i] is False).
    """
    cam = landmark.corners() @ R.transpose(0, 2, 1) + t[:, None, :]
    z = cam[:, :, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = K.fx * cam[:, :, 0] / z + K.cx
        v = K.fy * cam[:, :, 1] / z + K.cy
    return _visible_boxes(
        u.min(1), v.min(1), u.max(1), v.max(1), np.all(z > 0, axis=1), K, min_px
    )


def _projection_matrices(R, t, K: CameraIntrinsics) -> np.ndarray:
    """Stacked P = K [R | t], (n, 3, 4)."""
    return K.K @ np.concatenate([R, t[:, :, None]], axis=2)


def project_sphere_bbox(
    landmark: CubeLandmark, R, t, K: CameraIntrinsics, min_px: float = 100.0
):
    """Exact silhouette bounding box of the cube's inscribed sphere at every
    camera frame: the dual_conic_bbox formula on the image conics P Q* P^T.

    Unlike the cube-corner hull, these box lines are exactly tangent to the
    landmark's ground-truth quadric, which the noise-free consistency
    oracles rely on. Same arguments, detectability rules and result as
    project_cube_bbox; a view is also unseen when the sphere is not entirely
    in front of the camera or its conic has no real axis-aligned tangents.
    """
    P = _projection_matrices(R, t, K)
    C = P @ inscribed_ellipsoid(landmark).matrix() @ P.transpose(0, 2, 1)
    C = 0.5 * (C + C.transpose(0, 2, 1))
    c13, c23, c33 = C[:, 0, 2], C[:, 1, 2], C[:, 2, 2]
    # float_power calls C pow like the scalar ** 2 in dual_conic_bbox; array
    # ** 2 computes x * x, which can differ from pow in the last bit.
    du = np.float_power(c13, 2) - C[:, 0, 0] * c33
    dv = np.float_power(c23, 2) - C[:, 1, 1] * c33
    seen = (
        ((R @ landmark.center + t)[:, 2] > landmark.side / 2.0)
        & (np.abs(c33) >= _EPS_SCALE) & (du > 0) & (dv > 0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        hu, hv = np.sqrt(du) / np.abs(c33), np.sqrt(dv) / np.abs(c33)
        u0, v0 = c13 / c33, c23 / c33
    return _visible_boxes(u0 - hu, v0 - hv, u0 + hu, v0 + hv, seen, K, min_px)


def corrupt_bbox(corners: np.ndarray, sigma_px: float, rng) -> tuple:
    """Gaussian pixel noise on every corner coordinate, then lines.

    Noise is applied in pixel space before the lines are built and
    normalized.
    """
    noisy = np.asarray(corners, dtype=float) + rng.normal(0.0, sigma_px, size=(4, 2))
    points = [HomPoint2.from_xy(px, py) for px, py in noisy]
    return bbox_to_lines(points)


def corrupt_odometry(odometry, cfg: SensorConfig, rng) -> list:
    """Additive Gaussian noise on v and omega; turn steps use the larger
    omega sigma."""
    noisy = []
    for u in odometry:
        omega_sigma = cfg.odo_turn_omega_sigma if u.turn else cfg.odo_sigma
        noisy.append(
            OdometryMeasurement(
                v=u.v + float(rng.normal(0.0, cfg.odo_sigma)),
                omega=u.omega + float(rng.normal(0.0, omega_sigma)),
                turn=u.turn,
            )
        )
    return noisy


def measure_relative_position(
    landmark: CubeLandmark, x: RobotPose, sigma: float, rng, pose_index: int = 0
) -> RelativePositionMeasurement:
    """Cube center in the robot frame of pose x, with per-axis noise."""
    c, s = math.cos(x.theta), math.sin(x.theta)
    dx, dy = landmark.center[0] - x.x, landmark.center[1] - x.y
    local = np.array([c * dx + s * dy, -s * dx + c * dy, landmark.center[2]])
    return RelativePositionMeasurement(
        pose_index=pose_index,
        landmark_id=landmark.id,
        z=local + rng.normal(0.0, sigma, size=3),
    )


def _landmark_condition(landmark, seen, R, t, K: CameraIntrinsics) -> float:
    """Uniqueness margin of the landmark's plane-constraint system.

    Ratio of the second-smallest to largest singular value of the tangency
    system built from noise-free silhouette boxes at the views marked in
    seen. Near zero means several quadrics fit the views exactly (the planar
    degeneracy) and the landmark would be unrecoverable without depth
    measurements.
    """
    sphere_seen, boxes = project_sphere_bbox(landmark, R, t, K, min_px=0.0)
    views = seen & sphere_seen
    if 4 * np.count_nonzero(views) < 10:
        return 0.0
    P, boxes = _projection_matrices(R[views], t[views], K), boxes[views]
    # The box line v = v0 back-projects to the plane P[1] - v0 P[2], and
    # u = u0 to P[0] - u0 P[2]: the planes of bbox_to_lines' lines (top,
    # right, bottom, left) up to sign and scale, which the normalized
    # constraint rows do not see.
    rows = [1, 0, 1, 0]
    coords = np.stack([boxes[:, 0, 1], boxes[:, 1, 0], boxes[:, 2, 1], boxes[:, 3, 0]], 1)
    planes = (P[:, rows] - coords[:, :, None] * P[:, 2:3]).reshape(-1, 4)
    planes /= np.linalg.norm(planes, axis=1, keepdims=True)
    S = np.linalg.svd(_plane_constraint_rows(planes), compute_uv=False)
    return float(S[-2] / S[0])


def generate_dataset(world_cfg: WorldConfig, sensor_cfg: SensorConfig) -> Dataset:
    """Simulate one full trial.

    Landmark placements are resampled (bounded retries) until every
    landmark is detectable at least landmark_min_detections times from the
    ground-truth trajectory; 3 detections is the theoretical minimum for a
    determined quadric. Each candidate is projected once over the whole
    trajectory, and an accepted landmark's boxes are the ones measured.

    Raises:
        ValueError: if some landmark cannot be placed within the retries.
    """
    streams = np.random.SeedSequence(world_cfg.seed).spawn(4)
    world_rng = np.random.default_rng(streams[0])
    odo_rng = np.random.default_rng(streams[1])
    bbox_rng = np.random.default_rng(streams[2])
    relpos_rng = np.random.default_rng(streams[3])

    K = sensor_cfg.intrinsics()
    gt_odometry = ground_truth_odometry(world_cfg)
    trajectory = init_poses(gt_odometry, RobotPose(0.0, 0.0, 0.0))
    R, t = camera_frames(trajectory, left_facing_mount())
    min_px = sensor_cfg.detection_min_px
    project = project_cube_bbox if world_cfg.landmark_shape == "cube" else project_sphere_bbox
    min_det = world_cfg.landmark_min_detections
    landmarks, seen, boxes = [], [], []
    for lm_id in range(world_cfg.n_landmarks):
        for _ in range(_PLACEMENT_RETRIES):
            lm = _sample_landmark(world_cfg, trajectory, world_rng, lm_id)
            lm_seen, lm_boxes = project(lm, R, t, K, min_px)
            if np.count_nonzero(lm_seen) < min_det:
                continue
            if (
                world_cfg.landmark_min_condition > 0
                and _landmark_condition(lm, lm_seen, R, t, K)
                < world_cfg.landmark_min_condition
            ):
                continue
            landmarks.append(lm)
            seen.append(lm_seen)
            boxes.append(lm_boxes)
            break
        else:
            raise ValueError(
                f"could not place landmark {lm_id} with >= {min_det} "
                f"well-conditioned detections in {_PLACEMENT_RETRIES} tries"
            )

    detections, relpos = [], []
    # (pose, landmark) order: the noise streams are drawn in this order.
    for i, j in np.argwhere(np.array(seen).T).tolist():
        lm = landmarks[j]
        lines = corrupt_bbox(boxes[j][i], sensor_cfg.bbox_corner_sigma_px, bbox_rng)
        detections.append(BBoxDetection(pose_index=i, landmark_id=lm.id, lines=lines))
        relpos.append(
            measure_relative_position(
                lm, trajectory[i], sensor_cfg.relpos_sigma_m, relpos_rng, pose_index=i
            )
        )

    odometry = corrupt_odometry(gt_odometry, sensor_cfg, odo_rng)

    return Dataset(
        world_config=world_cfg,
        sensor_config=sensor_cfg,
        ground_truth_poses=trajectory,
        landmarks=landmarks,
        odometry=odometry,
        detections=detections,
        relative_positions=relpos,
    )
