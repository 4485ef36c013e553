"""Synthetic world and measurement generation.

A robot drives a rounded-square loop (twice, by default) with a camera
looking 90 degrees to its left. Cube landmarks are scattered inside the
loop; whenever a cube projects large enough and fully inside the image, a
bounding-box detection is generated, together with a relative-position
measurement of the cube center. Odometry, box corners and relative
positions are corrupted by Gaussian noise. Camera frames are stacked once
per trajectory; each candidate landmark is projected into all of them anew.

Randomness is split into one child stream per noise source (world layout,
odometry, box corners, relative positions), so toggling one noise source
off does not shift the draws of the others and every dataset is bit-exact
reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, Settings, setting
from .factors import Measurements
from .geometry import (
    EPS_SCALE,
    CameraExtrinsics,
    CameraIntrinsics,
    DualQuadric,
    box_corners,
    box_lines,
    camera_frames,
    ellipsoid_to_dual_quadric,
    in_frame,
    left_facing_mount,
    pose_to_extrinsics,  # noqa: F401  (bench/tracing.py shims it by this name)
    project_quadrics,
    projection_matrices,
    tangency_svd,
)
from .initialization import init_poses

__all__ = [
    "WorldConfig",
    "SensorConfig",
    "Dataset",
    "ground_truth_odometry",
    "project_cube_bbox",
    "project_sphere_bbox",
    "corrupt_bbox",
    "corrupt_odometry",
    "measure_relative_position",
    "generate_dataset",
    "inscribed_ellipsoid",
    "MAX_SCHEDULE_STEPS",
    "MAX_LANDMARKS",
]

_PLACEMENT_RETRIES = 200
MAX_SCHEDULE_STEPS = 10_000  # odometry steps over all loops
MAX_LANDMARKS = 320  # a solve at the ceiling peaks near 230 MB of RSS (README)


def _loop_straights(cfg) -> tuple[int, int]:
    """The (long, short) straight runs of one loop (see ground_truth_odometry).
    Raises ConfigError on trajectory_length when the loop's step count is not
    finite, the schedule has more than MAX_SCHEDULE_STEPS steps over all
    loops, or a loop has fewer than 4 straight steps besides the turns."""
    try:
        steps = int(round(cfg.trajectory_length / cfg.n_loops / cfg.step_length))
    except OverflowError:
        raise ConfigError("trajectory_length", "must give a finite step count per loop") from None
    if steps * cfg.n_loops > MAX_SCHEDULE_STEPS:
        raise ConfigError("trajectory_length", f"must give at most {MAX_SCHEDULE_STEPS} steps "
                          f"over all loops, got {float(steps) * cfg.n_loops:.6g}")
    straight = steps - 4 * cfg.turn_steps
    if straight < 4:
        raise ConfigError("trajectory_length", f"must give each loop at least "
                          f"{4 * cfg.turn_steps + 4} steps (4 turns, 4 straight), got {steps}")
    straight -= straight % 2  # keep opposite sides equal so the loop closes
    s_long = (straight + 2) // 4
    return s_long, straight // 2 - s_long


@dataclass(frozen=True)
class WorldConfig(Settings):
    """Ground-truth world layout parameters."""

    n_landmarks: int = setting(10, gt=0, le=MAX_LANDMARKS)
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
        super().__post_init__()
        if self.offset_min >= self.offset_max:
            raise ConfigError("offset_min", f"must be less than offset_max ({self.offset_max})")
        _loop_straights(self)


@dataclass(frozen=True)
class SensorConfig(Settings):
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


# The eight corners of the cube of side 2 centered at the origin.
_CUBE_CORNERS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float
)


def inscribed_ellipsoid(center, side: float) -> DualQuadric:
    """Dual quadric of the sphere inscribed in the axis-aligned cube of the
    given center (3,) and side (the closest quadric stand-in for a cube in
    tangency oracles)."""
    h = side / 2.0
    return ellipsoid_to_dual_quadric(center, (h, h, h))


@dataclass
class Dataset:
    """One simulated trial: ground truth plus noisy measurements.

    The ground truth is columns: ground_truth_poses (n, 3) rows (x, y,
    theta), and axis-aligned cube landmarks, landmark j with center
    landmark_centers[j] (m, 3) and side landmark_sides[j] (m,).

    The odometry of the step from pose i to pose i + 1 is row i of
    odometry, (n - 1, 2) rows (v, omega), and turn[i] tags steps taken on a
    turn arc, which carry a different noise level than straight driving.
    detections hold bounding boxes as four normalized lines each, and
    relative_positions landmark positions in the robot frame, both in
    (pose, landmark) order.
    """

    world_config: WorldConfig
    sensor_config: SensorConfig
    ground_truth_poses: np.ndarray
    landmark_centers: np.ndarray
    landmark_sides: np.ndarray
    odometry: np.ndarray
    turn: np.ndarray
    detections: Measurements
    relative_positions: Measurements

    @property
    def seed(self) -> int:
        """The trial seed, which is the world configuration's."""
        return self.world_config.seed

    def intrinsics(self) -> CameraIntrinsics:
        return self.sensor_config.intrinsics()

    def mount(self) -> CameraExtrinsics:
        return left_facing_mount()

    def detections_per_landmark(self) -> np.ndarray:
        """Detection count of each landmark, indexed by landmark id."""
        return np.bincount(self.detections.landmark_id, minlength=len(self.landmark_sides))


def ground_truth_odometry(cfg: WorldConfig):
    """Noise-free odometry of the rounded-square loop: (odometry, turn),
    (n, 2) rows (v, omega) and the (n,) turn-step tags.

    Each loop consists of four straight runs joined by four left quarter
    turns of `turn_steps` steps each; opposite straights have equal length
    so the loop closes exactly. The step count is rounded to the nearest
    closable schedule of the requested total length.
    """
    s_long, s_short = _loop_straights(cfg)
    omega_turn = (math.pi / 2.0) / cfg.turn_steps
    v = cfg.step_length

    loop = []
    for straight in (s_long, s_short, s_long, s_short):
        loop += [False] * straight + [True] * cfg.turn_steps
    turn = np.array(loop * cfg.n_loops)
    return np.column_stack([np.full(turn.size, v), np.where(turn, omega_turn, 0.0)]), turn


def _sample_landmark(cfg: WorldConfig, trajectory, rng):
    """A candidate landmark beside a random pose of the trajectory: its
    (center (3,), side)."""
    k = int(rng.integers(0, len(trajectory)))
    x, y, theta = trajectory[k].tolist()
    offset = float(rng.uniform(cfg.offset_min, cfg.offset_max))
    z = float(rng.normal(0.0, cfg.landmark_z_sigma))
    side = max(cfg.cube_side_floor, float(rng.normal(cfg.cube_side_mean, cfg.cube_side_sigma)))
    # Left normal of the heading: the camera-facing side of the route.
    cx = x - offset * math.sin(theta)
    cy = y + offset * math.cos(theta)
    return np.array([cx, cy, z]), side


def _visible_boxes(u_min, v_min, u_max, v_max, seen, K: CameraIntrinsics, min_px):
    """Detectability mask and (n, 4, 2) cyclic box corners per pose."""
    seen = (
        seen
        & (u_min >= 0) & (v_min >= 0) & (u_max <= K.width) & (v_max <= K.height)
        & (np.maximum(u_max - u_min, v_max - v_min) >= min_px)
    )
    return seen, box_corners(u_min, v_min, u_max, v_max)


def project_cube_bbox(center, side: float, R, t, K: CameraIntrinsics, min_px: float):
    """Axis-aligned hull of the projected corners of the cube of the given
    center (3,) and side at every camera frame.

    R, t are the stacked world-to-camera frames from camera_frames. Returns
    (seen, boxes): seen[i] is False when any corner is behind camera i, the
    hull is not fully inside the image, or the hull's larger side is below
    min_px; boxes[i] holds the (4, 2) pixel corners in cyclic order (not
    meaningful where seen[i] is False).
    """
    corners = center + side / 2.0 * _CUBE_CORNERS
    cam = corners @ R.transpose(0, 2, 1) + t[:, None, :]
    z = cam[:, :, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = K.fx * cam[:, :, 0] / z + K.cx
        v = K.fy * cam[:, :, 1] / z + K.cy
    return _visible_boxes(
        u.min(1), v.min(1), u.max(1), v.max(1), np.all(z > 0, axis=1), K, min_px
    )


def project_sphere_bbox(center, side: float, R, t, K: CameraIntrinsics, min_px: float):
    """Exact silhouette bounding box of the cube's inscribed sphere at every
    camera frame, from the image conics C* = P Q* P^T of project_quadrics:
    the vertical tangents u = (C13 +- sqrt(C13^2 - C11 C33)) / C33, and
    likewise in v. The tests' scalar reference is `dual_conic_bbox` in
    tests/oracle.py.

    Unlike the cube-corner hull, these box lines are exactly tangent to the
    landmark's ground-truth quadric, which the noise-free consistency
    oracles rely on. Same arguments, detectability rules and result as
    project_cube_bbox; a view is also unseen when the sphere is not entirely
    in front of the camera or its conic has no real axis-aligned tangents.
    """
    Q = inscribed_ellipsoid(center, side).matrix()
    C = project_quadrics(projection_matrices(K, R, t), Q)
    c13, c23, c33 = C[:, 0, 2], C[:, 1, 2], C[:, 2, 2]
    # float_power calls C pow like a scalar ** 2 (as in the tests' reference);
    # array ** 2 computes x * x, which can differ from pow in the last bit.
    du = np.float_power(c13, 2) - C[:, 0, 0] * c33
    dv = np.float_power(c23, 2) - C[:, 1, 1] * c33
    seen = (
        ((R @ center + t)[:, 2] > side / 2.0)
        & (np.abs(c33) >= EPS_SCALE) & (du > 0) & (dv > 0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        hu, hv = np.sqrt(du) / np.abs(c33), np.sqrt(dv) / np.abs(c33)
        u0, v0 = c13 / c33, c23 / c33
    return _visible_boxes(u0 - hu, v0 - hv, u0 + hu, v0 + hv, seen, K, min_px)


def corrupt_bbox(corners: np.ndarray, sigma_px: float, rng) -> np.ndarray:
    """Gaussian pixel noise on every corner coordinate of n boxes, then lines.

    corners is (n, 4, 2), each box's pixel corners in cyclic order. Noise is
    applied in pixel space, drawn in one call (the same values as n draws in
    order), before the lines are built. Returns box_lines of the noisy
    corners, (n, 4, 3).
    """
    corners = np.asarray(corners, dtype=float)
    return box_lines(corners + rng.normal(0.0, sigma_px, size=corners.shape))


def corrupt_odometry(odometry, turn, cfg: SensorConfig, rng) -> np.ndarray:
    """Additive Gaussian noise on the (v, omega) rows of odometry; steps
    tagged in turn use the larger omega sigma. The noise is drawn in one
    call: the same values as a v draw and an omega draw per step, in order."""
    omega_sigma = np.where(turn, cfg.odo_turn_omega_sigma, cfg.odo_sigma)
    sigma = np.column_stack([np.full(len(turn), cfg.odo_sigma), omega_sigma])
    return odometry + rng.normal(0.0, sigma)


def measure_relative_position(centers, poses, sigma: float, rng) -> np.ndarray:
    """Landmark centers (n, 3) in the robot frames of poses (n, 3) rows
    (x, y, theta), with per-axis noise drawn in one call (the same values as
    n draws in order)."""
    centers = np.asarray(centers, dtype=float)
    poses = np.asarray(poses, dtype=float)
    # math, not np.cos/np.sin, which may differ from libm in the last bit.
    theta = poses[:, 2].tolist()
    c = np.array([math.cos(th) for th in theta])
    s = np.array([math.sin(th) for th in theta])
    dx, dy = centers[:, 0] - poses[:, 0], centers[:, 1] - poses[:, 1]
    local = np.stack([*in_frame(c, s, dx, dy), centers[:, 2]], axis=1)
    return local + rng.normal(0.0, sigma, size=local.shape)


def _landmark_condition(center, side: float, seen, R, t, K: CameraIntrinsics) -> float:
    """Uniqueness margin of the landmark's plane-constraint system.

    Ratio of the second-smallest to largest singular value of the system
    the SVD initializer solves (tangency_svd), built from noise-free
    silhouette boxes at the views marked in seen. Near zero means several
    quadrics fit the views exactly (the planar degeneracy) and the landmark
    would be unrecoverable without depth measurements.
    """
    R, t = R[seen], t[seen]
    views, boxes = project_sphere_bbox(center, side, R, t, K, min_px=0.0)
    P, boxes = projection_matrices(K, R[views], t[views]), boxes[views]
    # The box line v = v0 back-projects to the plane P[1] - v0 P[2], and
    # u = u0 to P[0] - u0 P[2]: the planes of box_lines' lines (top,
    # right, bottom, left) up to sign and scale, which the normalized
    # constraint rows do not see.
    rows = [1, 0, 1, 0]
    coords = np.stack([boxes[:, 0, 1], boxes[:, 1, 0], boxes[:, 2, 1], boxes[:, 3, 0]], 1)
    S, _ = tangency_svd((P[:, rows] - coords[:, :, None] * P[:, 2:3]).reshape(-1, 4))
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
    gt_odometry, turn = ground_truth_odometry(world_cfg)
    trajectory = init_poses(gt_odometry, (0.0, 0.0, 0.0))
    R, t = camera_frames(trajectory, left_facing_mount())
    min_px = sensor_cfg.detection_min_px
    project = project_cube_bbox if world_cfg.landmark_shape == "cube" else project_sphere_bbox
    min_det = world_cfg.landmark_min_detections
    centers, sides, seen, boxes = [], [], [], []
    for lm_id in range(world_cfg.n_landmarks):
        for _ in range(_PLACEMENT_RETRIES):
            center, side = _sample_landmark(world_cfg, trajectory, world_rng)
            lm_seen, lm_boxes = project(center, side, R, t, K, min_px)
            if np.count_nonzero(lm_seen) < min_det:
                continue
            if (
                world_cfg.landmark_min_condition > 0
                and _landmark_condition(center, side, lm_seen, R, t, K)
                < world_cfg.landmark_min_condition
            ):
                continue
            centers.append(center)
            sides.append(side)
            seen.append(lm_seen)
            boxes.append(lm_boxes[lm_seen])
            break
        else:
            raise ValueError(
                f"could not place landmark {lm_id} with >= {min_det} "
                f"well-conditioned detections in {_PLACEMENT_RETRIES} tries"
            )

    # Each landmark's boxes are in pose order; a stable sort by pose gives
    # (pose, landmark) order, in which the noise streams are drawn.
    of_lm, at_pose = np.nonzero(np.array(seen))
    order = np.argsort(at_pose, kind="stable")
    of_lm, at_pose = of_lm[order], at_pose[order]
    lines = corrupt_bbox(
        np.concatenate(boxes)[order], sensor_cfg.bbox_corner_sigma_px, bbox_rng
    )
    centers = np.array(centers).reshape(-1, 3)
    z = measure_relative_position(
        centers[of_lm],
        trajectory[at_pose],
        sensor_cfg.relpos_sigma_m,
        relpos_rng,
    )
    return Dataset(
        world_config=world_cfg,
        sensor_config=sensor_cfg,
        ground_truth_poses=trajectory,
        landmark_centers=centers,
        landmark_sides=np.array(sides),
        odometry=corrupt_odometry(gt_odometry, turn, sensor_cfg, odo_rng),
        turn=turn,
        detections=Measurements(at_pose, of_lm, lines),
        relative_positions=Measurements(at_pose, of_lm, z),
    )
