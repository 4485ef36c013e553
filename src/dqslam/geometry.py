"""Projective-geometry primitives for quadric-landmark SLAM.

Pinhole cameras, dual quadrics (surfaces defined by their tangent planes)
and the stacked kernels on them. Poses are (x, y, theta) rows, projection
matrices (..., 3, 4) arrays, and a dual quadric's image, the dual conic
C* = P Q* P^T (its tangent lines l satisfy l^T C* l = 0), a (..., 3, 3)
array from project_quadrics. Image points, image lines and 3D planes are
plain homogeneous arrays, (..., 3) and (..., 4); an image line l
back-projects to the plane P^T l.

Conventions used throughout the package:

* Image lines are stored normalized so that sqrt(l1^2 + l2^2) = 1, with the
  sign fixed by l3 >= 0 (ties broken by l1 > 0, then l2 > 0). The line at
  infinity is normalized to (0, 0, 1).
* A bounding box is its four pixel corners in cyclic order (box_corners),
  and its lines join corner k to corner k+1 (box_lines).
* Camera extrinsics are world-to-camera: X_cam = R @ X_world + t, so the
  projection matrix is literally P = K [R | t].
* A dual quadric is kept at the fixed scale where its 4x4 matrix has entry
  (4,4) = 1; after any congruence transform the matrix is renormalized by
  that entry.
* A dual quadric's parameters q1..q9 fill the upper triangle of that
  matrix row by row (`np.triu_indices(4)` order, whose tenth entry is the
  pinned (4,4)); the last column holds the centroid (q4, q7, q9), at the
  indices QUADRIC_CENTROID. This module alone spells out that layout. Its
  array kernels, shared by the other modules (`quadric_matrices`,
  `tangency_rows`, `wrap_angles`, `in_frame`), take stacked rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateGeometryError",
    "CameraIntrinsics",
    "CameraExtrinsics",
    "DualQuadric",
    "normalize_lines",
    "lines_through",
    "box_corners",
    "box_lines",
    "projection_matrices",
    "QUADRIC_CENTROID",
    "quadric_matrices",
    "vector_from_quadric",
    "ellipsoid_to_dual_quadric",
    "project_quadrics",
    "pose_to_extrinsics",
    "camera_frames",
    "left_facing_mount",
    "tangency_rows",
    "tangency_svd",
    "wrap_angles",
    "in_frame",
    "EPS_SCALE",
]

EPS_SCALE = 1e-12  # below this, a scale or a normal counts as zero

# Matrix entries (_ROWS[k], _COLS[k]) of the quadric parameters q1..q9 and,
# at k = 9, of the pinned (4,4) entry.
_ROWS, _COLS = np.triu_indices(4)
QUADRIC_CENTROID = np.flatnonzero(_COLS[:9] == 3)
QUADRIC_CENTROID.setflags(write=False)


class DegenerateGeometryError(ValueError):
    """Raised for degenerate geometric input (coincident points, zero-scale
    quadrics, lines that cannot be normalized)."""


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(shape)
    arr.setflags(write=False)
    return arr


def normalize_lines(lines) -> np.ndarray:
    """A normalized copy of homogeneous image lines (..., 3).

    Each line is scaled to a unit normal, sqrt(l1^2 + l2^2) = 1, with the
    sign fixed so l3 >= 0, breaking ties by l1 > 0 then l2 > 0; a line at
    infinity becomes (0, 0, 1). The tangency residual of a quadric is
    gauge-dependent in the line scale; this fixes the gauge.

    Raises:
        DegenerateGeometryError: some line is zero, has a normal whose norm
            is not finite (it overflows, and dividing by it would give the
            zero line), or has a vanishing normal and no third component to
            normalize by instead.
    """
    lines = np.array(lines, dtype=float)
    flat = lines.reshape(-1, 3)
    l1, l2, l3 = flat.T
    if not np.all(np.any(flat, axis=1)):
        raise DegenerateGeometryError("image line must be nonzero")
    # math.hypot, not np.hypot: they differ in the last bit on some lines.
    norm = np.array(list(map(math.hypot, l1.tolist(), l2.tolist())))
    if not np.all(np.isfinite(norm)):
        raise DegenerateGeometryError("image line normal has no finite norm")
    finite = norm > EPS_SCALE
    if np.any(~finite & (l3 == 0.0)):
        raise DegenerateGeometryError("image line cannot be normalized")
    # A line at infinity is scaled by its third component, the only one
    # carrying information. Skipping the division when the scale is already
    # 1 (to rounding, for a unit normal) makes normalization bit-exactly
    # idempotent, which serialization relies on.
    scale = np.where(finite, norm, np.abs(l3))
    divide = np.where(finite, np.abs(norm - 1.0) > 1e-12, scale != 1.0)
    flat[divide] /= scale[divide, None]
    flip = (l3 < 0) | ((l3 == 0) & ((l1 < 0) | ((l1 == 0) & (l2 < 0))))
    flat[flip] = -flat[flip]
    return lines


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")

    @property
    def K(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class CameraExtrinsics:
    """World-to-camera rigid transform: X_cam = rotation @ X_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = _frozen_array(self.rotation, (3, 3))
        t = _frozen_array(self.translation, (3,))
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-12, rtol=0.0):
            raise ValueError("rotation must be orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-12:
            raise ValueError("rotation must be proper (det = 1)")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)


@dataclass(frozen=True)
class DualQuadric:
    """Dual quadric with 9 free parameters.

    The quadric surface is defined by its tangent planes: pi^T Q* pi = 0.
    The symmetric 4x4 matrix Q* is stored as the 9-vector of its upper
    triangle with the trailing (4,4) entry pinned to 1, which makes the
    centroid directly readable as (q4, q7, q9).
    """

    q: np.ndarray

    def __post_init__(self):
        q = _frozen_array(self.q, (9,))
        object.__setattr__(self, "q", q)

    def matrix(self) -> np.ndarray:
        return quadric_matrices(self.q)

    @classmethod
    def identity(cls) -> "DualQuadric":
        return cls(np.array([1.0, 0, 0, 0, 1.0, 0, 0, 1.0, 0]))


def lines_through(a, b) -> np.ndarray:
    """Lines joining pairs of homogeneous 2D points, unnormalized.

    a, b are (..., 3) arrays of points; the result holds their cross
    products, (..., 3), for normalize_lines to normalize.

    Raises:
        DegenerateGeometryError: if some pair is proportional (coincident).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cross = np.cross(a, b)
    scale = np.maximum(np.abs(a).max(-1) * np.abs(b).max(-1), EPS_SCALE)
    if np.any(np.abs(cross).max(-1) <= EPS_SCALE * scale):
        raise DegenerateGeometryError("points are coincident; line is undefined")
    return cross


def box_corners(u_min, v_min, u_max, v_max) -> np.ndarray:
    """Corners (..., 4, 2) of axis-aligned pixel boxes in cyclic order:
    (u_min, v_min), (u_max, v_min), (u_max, v_max), (u_min, v_max)."""
    corners = np.stack([u_min, v_min, u_max, v_min, u_max, v_max, u_min, v_max], -1)
    return corners.reshape(corners.shape[:-1] + (4, 2))


def box_lines(corners) -> np.ndarray:
    """Normalized lines (..., 4, 3) of boxes given by their (..., 4, 2)
    pixel corners in cyclic order; line k joins corner k to corner k+1
    (wrapping).

    Raises:
        ValueError: if the last two axes are not (4, 2).
        DegenerateGeometryError: if two consecutive corners coincide.
    """
    corners = np.asarray(corners, dtype=float)
    if corners.shape[-2:] != (4, 2):
        raise ValueError(f"boxes must be (..., 4, 2) corners, got shape {corners.shape}")
    points = np.concatenate([corners, np.ones(corners.shape[:-1] + (1,))], axis=-1)
    return normalize_lines(lines_through(points, np.roll(points, -1, axis=-2)))


def projection_matrices(K: CameraIntrinsics, R, t) -> np.ndarray:
    """Stacked P = K [R | t], (..., 3, 4), of world-to-camera rotation
    arrays R (..., 3, 3) and translations t (..., 3)."""
    return K.K @ np.concatenate([R, t[..., None]], axis=-1)


def quadric_matrices(q) -> np.ndarray:
    """Expand dual-quadric parameter rows (..., 9) into their symmetric
    matrices (..., 4, 4), in the layout of the module docstring.

    Raises:
        ValueError: if the last axis does not hold 9 parameters.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (9,):
        raise ValueError(f"quadric parameter rows must have 9 entries, got shape {q.shape}")
    Q = np.empty(q.shape[:-1] + (4, 4))
    Q[..., _ROWS[:9], _COLS[:9]] = q
    Q[..., _COLS[:9], _ROWS[:9]] = q
    Q[..., 3, 3] = 1.0
    return Q


def vector_from_quadric(Q) -> np.ndarray:
    """Inverse of quadric_matrices on one matrix: renormalize so (4,4) = 1
    and read off q.

    Raises:
        DegenerateGeometryError: if the (4,4) entry is (near) zero, i.e. the
            quadric cannot be represented at the fixed scale.
    """
    Q = np.asarray(Q, dtype=float).reshape(4, 4)
    scale = Q[3, 3]
    if abs(scale) < EPS_SCALE:
        raise DegenerateGeometryError("quadric has (4,4) entry ~ 0; cannot fix scale")
    return (Q / scale)[_ROWS[:9], _COLS[:9]]


def ellipsoid_to_dual_quadric(center, semi_axes, rotation=None) -> DualQuadric:
    """Dual quadric of an ellipsoid with the given center, semi-axes and
    orientation (rotation maps body axes to world).

    Built as T diag(a^2, b^2, c^2, -1) T^T with T the body-to-world rigid
    transform, then renormalized to the fixed (4,4) = 1 scale.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    semi = np.asarray(semi_axes, dtype=float).reshape(3)
    if np.any(semi <= 0):
        raise ValueError("semi-axes must be positive")
    R = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float).reshape(3, 3)
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = center
    Q = T @ np.diag([semi[0] ** 2, semi[1] ** 2, semi[2] ** 2, -1.0]) @ T.T
    return DualQuadric(vector_from_quadric(Q))


def project_quadrics(P, Q) -> np.ndarray:
    """Perspective images C* = P Q* P^T, (..., 3, 3), of dual quadric
    matrices Q (..., 4, 4) under projections P (..., 3, 4), symmetrized.

    Keep the operands as they are: a stacked matmul's bits follow its
    layout, so P's transpose stays a view.
    """
    C = P @ Q @ P.swapaxes(-1, -2)
    return 0.5 * (C + C.swapaxes(-1, -2))


def left_facing_mount() -> CameraExtrinsics:
    """Robot-to-camera transform for a camera looking 90 degrees to the left.

    Optical center at the robot origin; optical axis along robot +y, image
    x axis along the robot heading, image y axis pointing down (world -z).
    """
    # Columns of the camera-to-robot rotation are the camera axes expressed
    # in the robot frame; the mount stores its inverse (robot-to-camera).
    cam_to_robot = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, -1.0, 0.0],
        ]
    )
    return CameraExtrinsics(cam_to_robot.T, np.zeros(3))


def pose_to_extrinsics(pose, mount: CameraExtrinsics) -> CameraExtrinsics:
    """camera_frames at one pose row (x, y, theta), as CameraExtrinsics."""
    R, t = camera_frames(np.asarray(pose, dtype=float).reshape(1, 3), mount)
    return CameraExtrinsics(R[0], t[0])


def camera_frames(poses, mount: CameraExtrinsics):
    """World-to-camera rotations (n, 3, 3) and translations (n, 3) of the
    mounted camera at (n, 3) pose rows (x, y, theta): each pose lifted to
    SE(3) on the z = 0 plane, heading wrapped to (-pi, pi], then composed
    with the robot-to-camera mount. Equal bit for bit to the scalar
    pose_to_extrinsics in tests/oracle.py; R_rw must stay a transposed
    view, as a stacked matmul's bits follow its layout.
    """
    theta = wrap_angles(poses[:, 2]).tolist()
    c, s = np.array([[math.cos(a) for a in theta], [math.sin(a) for a in theta]])
    R_wr = np.zeros((len(theta), 3, 3))
    R_wr[:, 0, 0], R_wr[:, 0, 1], R_wr[:, 1, 0], R_wr[:, 1, 1], R_wr[:, 2, 2] = c, -s, s, c, 1.0
    R_rw = R_wr.transpose(0, 2, 1)  # world-to-robot
    p = np.column_stack([poses[:, :2], np.zeros(len(poses))])
    t_rw = (-R_rw @ p[:, :, None])[:, :, 0]
    R = mount.rotation @ R_rw
    t = (mount.rotation @ t_rw[:, :, None])[:, :, 0] + mount.translation
    return R, t


def tangency_rows(planes) -> np.ndarray:
    """Tangency constraints as linear rows against (q1..q9, 1).

    Each plane pi (last axis, length 4) gives the 10 coefficients of
    pi^T Q* pi = 0 expanded over the parameters: pi_i pi_j for the entry
    (i, j) of each parameter, doubled off the diagonal where the symmetric
    matrix holds it twice, and pi_4^2 for the pinned (4,4) entry. The first
    nine coefficients are the derivative of the tangency residual with
    respect to the quadric parameters.
    """
    planes = np.asarray(planes, dtype=float)
    p = [planes[..., i] for i in range(4)]
    return np.stack(
        [(p[i] if i == j else 2.0 * p[i]) * p[j] for i, j in zip(_ROWS.tolist(), _COLS.tolist())],
        axis=-1,
    )


def tangency_svd(planes):
    """(S, Vt) of the SVD of the tangency_rows of planes (n, 4) scaled to
    unit norm; thin, except that below 10 rows Vt stays (10, 10), its last
    row spanning the nullspace the rows leave."""
    planes = np.asarray(planes, dtype=float)
    A = tangency_rows(planes / np.linalg.norm(planes, axis=1, keepdims=True))
    _, S, Vt = np.linalg.svd(A, full_matrices=len(A) < 10)
    return S, Vt


def wrap_angles(angles) -> np.ndarray:
    """A copy of angles wrapped to (-pi, pi], element by element; an angle
    already in range is returned unchanged (bit-exact), so wrapping is
    idempotent, and an infinite or NaN angle becomes NaN."""
    out = np.array(angles, dtype=float, copy=True)
    mask = (out <= -math.pi) | (out > math.pi)
    if np.any(mask):
        v = out[mask]
        w = v - math.tau * np.floor((v + math.pi) / math.tau)
        out[mask] = np.where(w <= -math.pi, w + math.tau, w)
    return out


def in_frame(c, s, dx, dy):
    """Planar offsets (dx, dy) expressed in frames with heading cosine c and
    sine s, as the pair of arrays (x, y)."""
    return c * dx + s * dy, -s * dx + c * dy
