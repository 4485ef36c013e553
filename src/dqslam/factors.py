"""Factor graph over robot poses and dual-quadric landmarks.

Four factor types tie the variables together: a gauge-fixing prior on one
pose, unicycle odometry between consecutive poses, bounding-box tangency
factors between a pose and a quadric (one scalar residual per box line),
and optional relative-position factors on the quadric centroid.

Residuals are whitened by each factor's noise model; the total cost is
half the squared norm of the stacked whitened residual. The stacking order
is deterministic: priors, then odometry by pose index, then bounding-box
factors by (pose, landmark), then relative-position factors by (pose,
landmark).

`graph_residual` / `graph_jacobian` evaluate a graph at the variables it
carries. `GraphEvaluator` compiles a graph once into flat arrays and
evaluates residual and sparse Jacobian at arbitrary variable values; it is
what the solver iterates with, and it matches the per-factor functions
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import (
    CameraExtrinsics,
    CameraIntrinsics,
    DualQuadric,
    ImageLine,
    RobotPose,
    wrap_angle,
)

__all__ = [
    "OdometryMeasurement",
    "BBoxDetection",
    "RelativePositionMeasurement",
    "NoiseModel",
    "PriorFactor",
    "OdometryFactor",
    "BBoxFactor",
    "RelPosFactor",
    "FactorGraph",
    "motion_model",
    "se2_boxminus",
    "odometry_residual",
    "prior_residual",
    "bbox_factor_residual",
    "relpos_residual",
    "graph_residual",
    "graph_jacobian",
    "GraphEvaluator",
]


@dataclass(frozen=True)
class OdometryMeasurement:
    """Per-step odometry: forward speed v (m/step) and turn rate omega
    (rad/step). `turn` tags steps taken on a turn arc, which carry a
    different noise level than straight driving."""

    v: float
    omega: float
    turn: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.omega)):
            raise ValueError("odometry measurement must be finite")


@dataclass(frozen=True)
class BBoxDetection:
    """One bounding-box observation: the four box lines seen from pose
    `pose_index`, belonging to landmark `landmark_id`."""

    pose_index: int
    landmark_id: int
    lines: tuple

    def __post_init__(self):
        lines = tuple(self.lines)
        if len(lines) != 4 or not all(isinstance(l, ImageLine) for l in lines):
            raise ValueError("a detection carries exactly four ImageLines")
        object.__setattr__(self, "lines", lines)

    def line_array(self) -> np.ndarray:
        return np.array([l.coords for l in self.lines])


@dataclass(frozen=True)
class RelativePositionMeasurement:
    """Landmark position measured in the robot frame of pose `pose_index`."""

    pose_index: int
    landmark_id: int
    z: np.ndarray

    def __post_init__(self):
        z = np.array(self.z, dtype=float).reshape(3)
        if not np.all(np.isfinite(z)):
            raise ValueError("relative position measurement must be finite")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian factor noise, stored as a covariance matrix.

    Whitening multiplies a residual by the inverse lower Cholesky factor of
    the covariance, so the whitened squared norm is the Mahalanobis distance.
    """

    covariance: np.ndarray
    sqrt_info: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = np.array(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be a square matrix")
        try:
            L = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc
        W = np.linalg.inv(L)
        cov.setflags(write=False)
        W.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "sqrt_info", W)

    @classmethod
    def isotropic(cls, sigma: float, dim: int) -> "NoiseModel":
        return cls(np.eye(dim) * sigma**2)

    @classmethod
    def diagonal(cls, sigmas) -> "NoiseModel":
        return cls(np.diag(np.square(np.asarray(sigmas, dtype=float))))

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def whiten(self, r: np.ndarray) -> np.ndarray:
        return self.sqrt_info @ r


@dataclass(frozen=True)
class PriorFactor:
    pose_index: int
    anchor: RobotPose
    noise: NoiseModel

    def __post_init__(self):
        if self.noise.dim != 3:
            raise ValueError("prior factor needs a 3D noise model")


@dataclass(frozen=True)
class OdometryFactor:
    """Connects pose_index and pose_index + 1 through the motion model."""

    pose_index: int
    measurement: OdometryMeasurement
    noise: NoiseModel

    def __post_init__(self):
        if self.noise.dim != 3:
            raise ValueError("odometry factor needs a 3D noise model")


@dataclass(frozen=True)
class BBoxFactor:
    detection: BBoxDetection
    noise: NoiseModel

    def __post_init__(self):
        if self.noise.dim != 4:
            raise ValueError("bounding-box factor needs a 4D noise model")


@dataclass(frozen=True)
class RelPosFactor:
    measurement: RelativePositionMeasurement
    noise: NoiseModel

    def __post_init__(self):
        if self.noise.dim != 3:
            raise ValueError("relative-position factor needs a 3D noise model")


@dataclass
class FactorGraph:
    """Variables (poses, quadrics) plus the factors constraining them.

    The camera intrinsics and robot-to-camera mount are shared by all
    bounding-box factors. The graph must contain at least one prior factor
    to anchor the global frame.
    """

    poses: list
    quadrics: list
    intrinsics: CameraIntrinsics
    mount: CameraExtrinsics
    prior_factors: list = field(default_factory=list)
    odometry_factors: list = field(default_factory=list)
    bbox_factors: list = field(default_factory=list)
    relpos_factors: list = field(default_factory=list)

    def validate(self) -> None:
        n, m = len(self.poses), len(self.quadrics)
        if not self.prior_factors:
            raise ValueError("graph needs at least one prior factor (gauge anchor)")
        for f in self.prior_factors:
            if not 0 <= f.pose_index < n:
                raise ValueError(f"prior references missing pose {f.pose_index}")
        for f in self.odometry_factors:
            if not 0 <= f.pose_index < n - 1:
                raise ValueError(f"odometry references missing pose pair {f.pose_index}")
        for f in self.bbox_factors:
            det = f.detection
            if not (0 <= det.pose_index < n and 0 <= det.landmark_id < m):
                raise ValueError("detection references missing variable")
        for f in self.relpos_factors:
            z = f.measurement
            if not (0 <= z.pose_index < n and 0 <= z.landmark_id < m):
                raise ValueError("relative-position factor references missing variable")

    def pose_array(self) -> np.ndarray:
        return np.array([[p.x, p.y, p.theta] for p in self.poses]).reshape(-1, 3)

    def quadric_array(self) -> np.ndarray:
        return np.array([q.q for q in self.quadrics]).reshape(-1, 9)

    def with_variables(self, poses: np.ndarray, quadrics: np.ndarray) -> "FactorGraph":
        """Copy of the graph with replaced variable values."""
        return FactorGraph(
            poses=[RobotPose.from_array(row) for row in poses],
            quadrics=[DualQuadric(row) for row in quadrics],
            intrinsics=self.intrinsics,
            mount=self.mount,
            prior_factors=self.prior_factors,
            odometry_factors=self.odometry_factors,
            bbox_factors=self.bbox_factors,
            relpos_factors=self.relpos_factors,
        )


def motion_model(x: RobotPose, u: OdometryMeasurement) -> RobotPose:
    """Unicycle step: advance v along the current heading, then turn by omega."""
    return RobotPose(
        x.x + u.v * math.cos(x.theta),
        x.y + u.v * math.sin(x.theta),
        wrap_angle(x.theta + u.omega),
    )


def se2_boxminus(a: RobotPose, b: RobotPose) -> np.ndarray:
    """SE(2) difference a (-) b: pose a expressed in the frame of pose b,
    as (dx, dy, dtheta) with dtheta wrapped to (-pi, pi]."""
    c, s = math.cos(b.theta), math.sin(b.theta)
    dx, dy = a.x - b.x, a.y - b.y
    return np.array([c * dx + s * dy, -s * dx + c * dy, wrap_angle(a.theta - b.theta)])


def odometry_residual(
    x_i: RobotPose, x_next: RobotPose, u: OdometryMeasurement
) -> np.ndarray:
    """Motion-model prediction from x_i minus the actual next pose, in SE(2)."""
    return se2_boxminus(motion_model(x_i, u), x_next)


def prior_residual(x_0: RobotPose, anchor: RobotPose) -> np.ndarray:
    """SE(2) difference between a pose and its anchor."""
    return se2_boxminus(x_0, anchor)


def bbox_factor_residual(
    x_i: RobotPose,
    q_j: DualQuadric,
    det: BBoxDetection,
    K: CameraIntrinsics,
    mount: CameraExtrinsics,
) -> np.ndarray:
    """Tangency defect of each of the four box lines against the projected
    quadric, under the camera at pose x_i."""
    from .geometry import pose_to_extrinsics, projection_matrix

    P = projection_matrix(K, pose_to_extrinsics(x_i, mount)).P
    Q = q_j.matrix()
    r = np.empty(4)
    for k, line in enumerate(det.lines):
        a = P.T @ line.coords
        r[k] = a @ Q @ a
    return r


def relpos_residual(
    x_i: RobotPose, q_j: DualQuadric, z: RelativePositionMeasurement
) -> np.ndarray:
    """Measured minus predicted landmark position in the robot frame.

    The quadric centroid is transformed into the frame of the planar pose;
    the z coordinate passes through unchanged.
    """
    c = q_j.centroid()
    cth, sth = math.cos(x_i.theta), math.sin(x_i.theta)
    dx, dy = c[0] - x_i.x, c[1] - x_i.y
    local = np.array([cth * dx + sth * dy, -sth * dx + cth * dy, c[2]])
    return z.z - local


def _sorted_factors(graph: FactorGraph):
    priors = sorted(graph.prior_factors, key=lambda f: f.pose_index)
    odo = sorted(graph.odometry_factors, key=lambda f: f.pose_index)
    bbox = sorted(
        graph.bbox_factors,
        key=lambda f: (f.detection.pose_index, f.detection.landmark_id),
    )
    relpos = sorted(
        graph.relpos_factors,
        key=lambda f: (f.measurement.pose_index, f.measurement.landmark_id),
    )
    return priors, odo, bbox, relpos


class GraphEvaluator:
    """Compiled residual/Jacobian evaluator for a fixed graph structure.

    Compilation freezes the factor ordering and copies measurements into
    flat arrays; evaluation is then vectorized across factors and is a pure
    function of the variable values, so results do not depend on insertion
    order or threading.
    """

    def __init__(self, graph: FactorGraph):
        graph.validate()
        self.n_poses = len(graph.poses)
        self.n_quadrics = len(graph.quadrics)
        priors, odo, bbox, relpos = _sorted_factors(graph)

        self._prior_idx = np.array([f.pose_index for f in priors], dtype=int)
        self._prior_anchor = np.array(
            [[f.anchor.x, f.anchor.y, f.anchor.theta] for f in priors]
        ).reshape(-1, 3)
        self._prior_W = np.array([f.noise.sqrt_info for f in priors]).reshape(-1, 3, 3)

        self._odo_idx = np.array([f.pose_index for f in odo], dtype=int)
        self._odo_u = np.array(
            [[f.measurement.v, f.measurement.omega] for f in odo]
        ).reshape(-1, 2)
        self._odo_W = np.array([f.noise.sqrt_info for f in odo]).reshape(-1, 3, 3)

        self._bb_pose = np.array([f.detection.pose_index for f in bbox], dtype=int)
        self._bb_quad = np.array([f.detection.landmark_id for f in bbox], dtype=int)
        self._bb_lines = np.array([f.detection.line_array() for f in bbox]).reshape(
            -1, 4, 3
        )
        self._bb_W = np.array([f.noise.sqrt_info for f in bbox]).reshape(-1, 4, 4)

        self._rp_pose = np.array([f.measurement.pose_index for f in relpos], dtype=int)
        self._rp_quad = np.array([f.measurement.landmark_id for f in relpos], dtype=int)
        self._rp_z = np.array([f.measurement.z for f in relpos]).reshape(-1, 3)
        self._rp_W = np.array([f.noise.sqrt_info for f in relpos]).reshape(-1, 3, 3)

        K = graph.intrinsics.K
        R_m, t_m = graph.mount.rotation, graph.mount.translation
        # Per line: m = K^T l, g = R_m^T m, and the constant term t_m . m.
        self._bb_g = self._bb_lines @ K @ R_m
        self._bb_tm = self._bb_lines @ K @ t_m

        self.n_rows = (
            3 * len(priors) + 3 * len(odo) + 4 * len(bbox) + 3 * len(relpos)
        )
        self.n_cols = 3 * self.n_poses + 9 * self.n_quadrics
        self._row_offsets = np.cumsum(
            [0, 3 * len(priors), 3 * len(odo), 4 * len(bbox)]
        )

    # -- residual ---------------------------------------------------------

    def residual(self, poses: np.ndarray, quadrics: np.ndarray) -> np.ndarray:
        """Stacked whitened residual at the given variable values."""
        return np.concatenate(
            [
                self._prior_residuals(poses),
                self._odo_residuals(poses),
                self._bbox_residuals(poses, quadrics)[0],
                self._relpos_residuals(poses, quadrics)[0],
            ]
        )

    def _prior_residuals(self, poses):
        if len(self._prior_idx) == 0:
            return np.zeros(0)
        x = poses[self._prior_idx]
        c, s = np.cos(self._prior_anchor[:, 2]), np.sin(self._prior_anchor[:, 2])
        dx = x[:, 0] - self._prior_anchor[:, 0]
        dy = x[:, 1] - self._prior_anchor[:, 1]
        r = np.stack(
            [
                c * dx + s * dy,
                -s * dx + c * dy,
                _wrap(x[:, 2] - self._prior_anchor[:, 2]),
            ],
            axis=1,
        )
        return np.einsum("fab,fb->fa", self._prior_W, r).ravel()

    def _odo_residuals(self, poses):
        if len(self._odo_idx) == 0:
            return np.zeros(0)
        xi = poses[self._odo_idx]
        xn = poses[self._odo_idx + 1]
        v, om = self._odo_u[:, 0], self._odo_u[:, 1]
        pred_x = xi[:, 0] + v * np.cos(xi[:, 2])
        pred_y = xi[:, 1] + v * np.sin(xi[:, 2])
        c, s = np.cos(xn[:, 2]), np.sin(xn[:, 2])
        dx, dy = pred_x - xn[:, 0], pred_y - xn[:, 1]
        r = np.stack(
            [c * dx + s * dy, -s * dx + c * dy, _wrap(xi[:, 2] + om - xn[:, 2])],
            axis=1,
        )
        return np.einsum("fab,fb->fa", self._odo_W, r).ravel()

    def _bbox_planes(self, poses):
        """Back-projected planes a = P^T l for every detection line.

        Returns (a, w, g) with a: (D,4,4); w = a[..., :3] is the plane
        normal, needed again by the Jacobian.
        """
        th = poses[self._bb_pose, 2]
        c, s = np.cos(th), np.sin(th)
        g1, g2, g3 = self._bb_g[..., 0], self._bb_g[..., 1], self._bb_g[..., 2]
        w1 = c[:, None] * g1 - s[:, None] * g2
        w2 = s[:, None] * g1 + c[:, None] * g2
        px, py = poses[self._bb_pose, 0], poses[self._bb_pose, 1]
        a4 = -(px[:, None] * w1 + py[:, None] * w2) + self._bb_tm
        return np.stack([w1, w2, g3, a4], axis=-1)

    def _bbox_residuals(self, poses, quadrics):
        if len(self._bb_pose) == 0:
            return np.zeros(0), None, None
        a = self._bbox_planes(poses)
        Q = _quadric_matrices(quadrics)[self._bb_quad]
        h = np.einsum("dab,dkb->dka", Q, a)
        raw = np.einsum("dka,dka->dk", a, h)
        white = np.einsum("dab,db->da", self._bb_W, raw)
        return white.ravel(), a, h

    def _relpos_residuals(self, poses, quadrics):
        if len(self._rp_pose) == 0:
            return np.zeros(0), None
        x = poses[self._rp_pose]
        cen = quadrics[self._rp_quad][:, [3, 6, 8]]
        c, s = np.cos(x[:, 2]), np.sin(x[:, 2])
        dx, dy = cen[:, 0] - x[:, 0], cen[:, 1] - x[:, 1]
        t1 = c * dx + s * dy
        t2 = -s * dx + c * dy
        r = self._rp_z - np.stack([t1, t2, cen[:, 2]], axis=1)
        white = np.einsum("fab,fb->fa", self._rp_W, r)
        return white.ravel(), (c, s, dx, dy, t1, t2)

    # -- Jacobian ---------------------------------------------------------

    def jacobian(self, poses: np.ndarray, quadrics: np.ndarray) -> sp.csr_matrix:
        """Sparse Jacobian of the stacked whitened residual.

        Row blocks follow the residual stacking; column blocks are 3 per
        pose (SE(2) tangent) then 9 per quadric, in variable order.
        """
        rows, cols, vals = [], [], []
        self._prior_jacobian(poses, rows, cols, vals)
        self._odo_jacobian(poses, rows, cols, vals)
        self._bbox_jacobian(poses, quadrics, rows, cols, vals)
        self._relpos_jacobian(poses, quadrics, rows, cols, vals)
        if rows:
            rows = np.concatenate(rows)
            cols = np.concatenate(cols)
            vals = np.concatenate(vals)
        return sp.csr_matrix(
            (vals, (rows, cols)), shape=(self.n_rows, self.n_cols)
        )

    def _block_indices(self, row_start, n_factors, block_rows, col_starts, block_cols):
        """Row/col index grids for dense (block_rows x block_cols) blocks."""
        r = (
            row_start
            + block_rows * np.arange(n_factors)[:, None, None]
            + np.arange(block_rows)[None, :, None]
        )
        c = col_starts[:, None, None] + np.arange(block_cols)[None, None, :]
        r = np.broadcast_to(r, (n_factors, block_rows, block_cols))
        c = np.broadcast_to(c, (n_factors, block_rows, block_cols))
        return r.ravel(), c.ravel()

    def _prior_jacobian(self, poses, rows, cols, vals):
        n = len(self._prior_idx)
        if n == 0:
            return
        c, s = np.cos(self._prior_anchor[:, 2]), np.sin(self._prior_anchor[:, 2])
        J = np.zeros((n, 3, 3))
        J[:, 0, 0] = c
        J[:, 0, 1] = s
        J[:, 1, 0] = -s
        J[:, 1, 1] = c
        J[:, 2, 2] = 1.0
        J = np.einsum("fab,fbc->fac", self._prior_W, J)
        r, cc = self._block_indices(0, n, 3, 3 * self._prior_idx, 3)
        rows.append(r)
        cols.append(cc)
        vals.append(J.ravel())

    def _odo_jacobian(self, poses, rows, cols, vals):
        n = len(self._odo_idx)
        if n == 0:
            return
        row0 = self._row_offsets[1]
        xi = poses[self._odo_idx]
        xn = poses[self._odo_idx + 1]
        v = self._odo_u[:, 0]
        ci, si = np.cos(xi[:, 2]), np.sin(xi[:, 2])
        c, s = np.cos(xn[:, 2]), np.sin(xn[:, 2])
        pred_x = xi[:, 0] + v * ci
        pred_y = xi[:, 1] + v * si
        dx, dy = pred_x - xn[:, 0], pred_y - xn[:, 1]
        r1 = c * dx + s * dy
        r2 = -s * dx + c * dy

        Ji = np.zeros((n, 3, 3))
        Ji[:, 0, 0] = c
        Ji[:, 0, 1] = s
        Ji[:, 0, 2] = c * (-v * si) + s * (v * ci)
        Ji[:, 1, 0] = -s
        Ji[:, 1, 1] = c
        Ji[:, 1, 2] = -s * (-v * si) + c * (v * ci)
        Ji[:, 2, 2] = 1.0

        Jn = np.zeros((n, 3, 3))
        Jn[:, 0, 0] = -c
        Jn[:, 0, 1] = -s
        Jn[:, 0, 2] = r2
        Jn[:, 1, 0] = s
        Jn[:, 1, 1] = -c
        Jn[:, 1, 2] = -r1
        Jn[:, 2, 2] = -1.0

        Ji = np.einsum("fab,fbc->fac", self._odo_W, Ji)
        Jn = np.einsum("fab,fbc->fac", self._odo_W, Jn)
        r, cc = self._block_indices(row0, n, 3, 3 * self._odo_idx, 3)
        rows.append(r)
        cols.append(cc)
        vals.append(Ji.ravel())
        r, cc = self._block_indices(row0, n, 3, 3 * (self._odo_idx + 1), 3)
        rows.append(r)
        cols.append(cc)
        vals.append(Jn.ravel())

    def _bbox_jacobian(self, poses, quadrics, rows, cols, vals):
        n = len(self._bb_pose)
        if n == 0:
            return
        row0 = self._row_offsets[2]
        a = self._bbox_planes(poses)
        Q = _quadric_matrices(quadrics)[self._bb_quad]
        h = np.einsum("dab,dkb->dka", Q, a)

        th = poses[self._bb_pose, 2]
        c, s = np.cos(th), np.sin(th)
        g1, g2 = self._bb_g[..., 0], self._bb_g[..., 1]
        w1, w2 = a[..., 0], a[..., 1]
        # d a / d theta: derivative of the rotated normal; a4 follows from
        # a4 = -p . w + const.
        w1p = -s[:, None] * g1 - c[:, None] * g2
        w2p = c[:, None] * g1 - s[:, None] * g2
        px, py = poses[self._bb_pose, 0], poses[self._bb_pose, 1]
        a4p = -(px[:, None] * w1p + py[:, None] * w2p)

        Jp = np.zeros((n, 4, 3))
        Jp[..., 0] = -2.0 * h[..., 3] * w1
        Jp[..., 1] = -2.0 * h[..., 3] * w2
        Jp[..., 2] = 2.0 * (h[..., 0] * w1p + h[..., 1] * w2p + h[..., 3] * a4p)

        Jq = np.empty((n, 4, 9))
        a1, a2, a3, a4 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
        Jq[..., 0] = a1 * a1
        Jq[..., 1] = 2 * a1 * a2
        Jq[..., 2] = 2 * a1 * a3
        Jq[..., 3] = 2 * a1 * a4
        Jq[..., 4] = a2 * a2
        Jq[..., 5] = 2 * a2 * a3
        Jq[..., 6] = 2 * a2 * a4
        Jq[..., 7] = a3 * a3
        Jq[..., 8] = 2 * a3 * a4

        Jp = np.einsum("dab,dbc->dac", self._bb_W, Jp)
        Jq = np.einsum("dab,dbc->dac", self._bb_W, Jq)
        r, cc = self._block_indices(row0, n, 4, 3 * self._bb_pose, 3)
        rows.append(r)
        cols.append(cc)
        vals.append(Jp.ravel())
        quad_col0 = 3 * self.n_poses + 9 * self._bb_quad
        r, cc = self._block_indices(row0, n, 4, quad_col0, 9)
        rows.append(r)
        cols.append(cc)
        vals.append(Jq.ravel())

    def _relpos_jacobian(self, poses, quadrics, rows, cols, vals):
        n = len(self._rp_pose)
        if n == 0:
            return
        row0 = self._row_offsets[3]
        _, aux = self._relpos_residuals(poses, quadrics)
        c, s, dx, dy, t1, t2 = aux

        Jp = np.zeros((n, 3, 3))
        Jp[:, 0, 0] = c
        Jp[:, 0, 1] = s
        Jp[:, 0, 2] = -t2
        Jp[:, 1, 0] = -s
        Jp[:, 1, 1] = c
        Jp[:, 1, 2] = t1

        # Centroid enters through q4, q7, q9 (columns 3, 6, 8 of the block).
        Jq = np.zeros((n, 3, 9))
        Jq[:, 0, 3] = -c
        Jq[:, 0, 6] = -s
        Jq[:, 1, 3] = s
        Jq[:, 1, 6] = -c
        Jq[:, 2, 8] = -1.0

        Jp = np.einsum("fab,fbc->fac", self._rp_W, Jp)
        Jq = np.einsum("fab,fbc->fac", self._rp_W, Jq)
        r, cc = self._block_indices(row0, n, 3, 3 * self._rp_pose, 3)
        rows.append(r)
        cols.append(cc)
        vals.append(Jp.ravel())
        quad_col0 = 3 * self.n_poses + 9 * self._rp_quad
        r, cc = self._block_indices(row0, n, 3, quad_col0, 9)
        rows.append(r)
        cols.append(cc)
        vals.append(Jq.ravel())


def _wrap(angles: np.ndarray) -> np.ndarray:
    """Vectorized wrap to (-pi, pi]; bit-identical to geometry.wrap_angle."""
    out = np.array(angles, dtype=float, copy=True)
    mask = (out <= -math.pi) | (out > math.pi)
    if np.any(mask):
        v = out[mask]
        w = v - math.tau * np.floor((v + math.pi) / math.tau)
        out[mask] = np.where(w <= -math.pi, w + math.tau, w)
    return out


def _quadric_matrices(quadrics: np.ndarray) -> np.ndarray:
    """(m, 9) parameter rows -> (m, 4, 4) symmetric matrices."""
    m = quadrics.shape[0]
    Q = np.empty((m, 4, 4))
    q = quadrics
    Q[:, 0, 0] = q[:, 0]
    Q[:, 0, 1] = Q[:, 1, 0] = q[:, 1]
    Q[:, 0, 2] = Q[:, 2, 0] = q[:, 2]
    Q[:, 0, 3] = Q[:, 3, 0] = q[:, 3]
    Q[:, 1, 1] = q[:, 4]
    Q[:, 1, 2] = Q[:, 2, 1] = q[:, 5]
    Q[:, 1, 3] = Q[:, 3, 1] = q[:, 6]
    Q[:, 2, 2] = q[:, 7]
    Q[:, 2, 3] = Q[:, 3, 2] = q[:, 8]
    Q[:, 3, 3] = 1.0
    return Q


def graph_residual(graph: FactorGraph):
    """Stacked whitened residual of a graph at its stored variables.

    Returns:
        (residual, cost) with cost = 0.5 * ||residual||^2.
    """
    ev = GraphEvaluator(graph)
    r = ev.residual(graph.pose_array(), graph.quadric_array())
    return r, 0.5 * float(r @ r)


def graph_jacobian(graph: FactorGraph) -> sp.csr_matrix:
    """Sparse Jacobian of the stacked whitened residual at the graph's
    stored variables."""
    ev = GraphEvaluator(graph)
    return ev.jacobian(graph.pose_array(), graph.quadric_array())
