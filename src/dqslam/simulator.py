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
    CameraExtrinsics,
    CameraIntrinsics,
    DualQuadric,
    HomPoint2,
    RobotPose,
    bbox_to_lines,
    ellipsoid_to_dual_quadric,
    left_facing_mount,
    pose_to_extrinsics,
)
from .initialization import init_poses

__all__ = [
    "WorldConfig",
    "SensorConfig",
    "CubeLandmark",
    "Dataset",
    "ground_truth_odometry",
    "generate_world",
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


def generate_world(cfg: WorldConfig, rng=None):
    """Ground-truth trajectory and landmark layout for one seed.

    Returns:
        (trajectory, landmarks): the planar pose sequence and the cubes.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[0])
    trajectory = init_poses(ground_truth_odometry(cfg), RobotPose(0.0, 0.0, 0.0))
    landmarks = [
        _sample_landmark(cfg, trajectory, rng, lm_id)
        for lm_id in range(cfg.n_landmarks)
    ]
    return trajectory, landmarks


def project_cube_bbox(
    landmark: CubeLandmark,
    x: RobotPose,
    K: CameraIntrinsics,
    mount: CameraExtrinsics,
    min_px: float = 100.0,
):
    """Axis-aligned hull of the projected cube corners, if detectable.

    Returns the (4, 2) pixel corners in cyclic order, or None when any
    corner is behind the camera, the hull is not fully inside the image,
    or the hull's larger side is below min_px.
    """
    E = pose_to_extrinsics(x, mount)
    cam = landmark.corners() @ E.rotation.T + E.translation
    z = cam[:, 2]
    if np.any(z <= 0):
        return None
    u = K.fx * cam[:, 0] / z + K.cx
    v = K.fy * cam[:, 1] / z + K.cy
    u_min, u_max = u.min(), u.max()
    v_min, v_max = v.min(), v.max()
    if u_min < 0 or v_min < 0 or u_max > K.width or v_max > K.height:
        return None
    if max(u_max - u_min, v_max - v_min) < min_px:
        return None
    return np.array(
        [[u_min, v_min], [u_max, v_min], [u_max, v_max], [u_min, v_max]]
    )


def project_sphere_bbox(
    landmark: CubeLandmark,
    x: RobotPose,
    K: CameraIntrinsics,
    mount: CameraExtrinsics,
    min_px: float = 100.0,
):
    """Exact silhouette bounding box of the cube's inscribed sphere.

    Unlike the cube-corner hull, these box lines are exactly tangent to the
    landmark's ground-truth quadric, which the noise-free consistency
    oracles rely on. Same detectability rules as project_cube_bbox.
    """
    from .geometry import DegenerateGeometryError, dual_conic_bbox, project_quadric, projection_matrix

    E = pose_to_extrinsics(x, mount)
    center_cam = E.transform(landmark.center)
    if center_cam[2] <= landmark.side / 2.0:
        return None  # sphere not entirely in front of the camera
    P = projection_matrix(K, E)
    try:
        u_min, v_min, u_max, v_max = dual_conic_bbox(
            project_quadric(P, inscribed_ellipsoid(landmark))
        )
    except DegenerateGeometryError:
        return None
    if u_min < 0 or v_min < 0 or u_max > K.width or v_max > K.height:
        return None
    if max(u_max - u_min, v_max - v_min) < min_px:
        return None
    return np.array(
        [[u_min, v_min], [u_max, v_min], [u_max, v_max], [u_min, v_max]]
    )


def _bbox_projector(shape: str):
    return project_cube_bbox if shape == "cube" else project_sphere_bbox


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


def _landmark_condition(landmark, detected_poses, K, mount) -> float:
    """Uniqueness margin of the landmark's plane-constraint system.

    Ratio of the second-smallest to largest singular value of the tangency
    system built from noise-free silhouette boxes at the detected poses.
    Near zero means several quadrics fit the views exactly (the planar
    degeneracy) and the landmark would be unrecoverable without depth
    measurements.
    """
    from .geometry import projection_matrix

    planes = []
    for pose in detected_poses:
        corners = project_sphere_bbox(landmark, pose, K, mount, min_px=0.0)
        if corners is None:
            continue
        P = projection_matrix(K, pose_to_extrinsics(pose, mount)).P
        for line in bbox_to_lines([HomPoint2.from_xy(u, v) for u, v in corners]):
            planes.append(P.T @ line.coords)
    if len(planes) < 10:
        return 0.0
    planes = np.array(planes)
    planes /= np.linalg.norm(planes, axis=1, keepdims=True)
    S = np.linalg.svd(_plane_constraint_rows(planes), compute_uv=False)
    return float(S[-2] / S[0])


def generate_dataset(world_cfg: WorldConfig, sensor_cfg: SensorConfig) -> Dataset:
    """Simulate one full trial.

    Landmark placements are resampled (bounded retries) until every
    landmark is detectable at least landmark_min_detections times from the
    ground-truth trajectory; 3 detections is the theoretical minimum for a
    determined quadric.
    """
    streams = np.random.SeedSequence(world_cfg.seed).spawn(4)
    world_rng = np.random.default_rng(streams[0])
    odo_rng = np.random.default_rng(streams[1])
    bbox_rng = np.random.default_rng(streams[2])
    relpos_rng = np.random.default_rng(streams[3])

    K = sensor_cfg.intrinsics()
    mount = left_facing_mount()

    gt_odometry = ground_truth_odometry(world_cfg)
    trajectory = init_poses(gt_odometry, RobotPose(0.0, 0.0, 0.0))
    min_px = sensor_cfg.detection_min_px
    project = _bbox_projector(world_cfg.landmark_shape)
    min_det = world_cfg.landmark_min_detections
    landmarks = []
    for lm_id in range(world_cfg.n_landmarks):
        for _ in range(_PLACEMENT_RETRIES):
            lm = _sample_landmark(world_cfg, trajectory, world_rng, lm_id)
            detected = [
                pose
                for pose in trajectory
                if project(lm, pose, K, mount, min_px) is not None
            ]
            if len(detected) < min_det:
                continue
            if (
                world_cfg.landmark_min_condition > 0
                and _landmark_condition(lm, detected, K, mount)
                < world_cfg.landmark_min_condition
            ):
                continue
            landmarks.append(lm)
            break
        else:
            raise RuntimeError(
                f"could not place landmark {lm_id} with >= {min_det} "
                "well-conditioned detections"
            )

    detections, relpos = [], []
    for i, pose in enumerate(trajectory):
        for lm in landmarks:
            corners = project(lm, pose, K, mount, min_px)
            if corners is None:
                continue
            lines = corrupt_bbox(corners, sensor_cfg.bbox_corner_sigma_px, bbox_rng)
            detections.append(
                BBoxDetection(pose_index=i, landmark_id=lm.id, lines=lines)
            )
            relpos.append(
                measure_relative_position(
                    lm, pose, sensor_cfg.relpos_sigma_m, relpos_rng, pose_index=i
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
