"""Factor graph over robot poses and dual-quadric landmarks.

Four factor types tie the variables together: a gauge-fixing prior on one
pose, unicycle odometry between consecutive poses, bounding-box tangency
factors between a pose and a quadric (one scalar residual per box line),
and optional relative-position factors on the quadric centroid.

A graph holds each factor kind as columns: the variable indices, the
measurements, and the standard deviations of a diagonal Gaussian noise,
one per residual component. Whitening divides each residual component by
its sigma; the total cost is half the squared norm of the stacked whitened
residual. The stacking order is deterministic: priors, then odometry by
pose index, then bounding-box factors by (pose, landmark), then
relative-position factors by (pose, landmark).

`GraphEvaluator` compiles a graph once into flat arrays and a fixed
Jacobian sparsity pattern, then evaluates residual and sparse Jacobian at
arbitrary variable values; it is the one implementation of the factors,
and what the solver iterates with. It has one vectorized linearization per
factor kind, which yields the raw residual and its Jacobian blocks from
the same intermediate values, and whitens all kinds in one place, as a
scale per residual row. The scalar per-factor references the tests check
the evaluator against live in `tests/oracle.py`. The array kernels and the
quadric parameter layout come from `geometry`.

`GraphEvaluator.jacobian` imports scipy when it first builds a sparse
matrix, so that importing this module (as the simulator and the dataset
reader do) does not pay scipy's import time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    QUADRIC_CENTROID,
    CameraExtrinsics,
    CameraIntrinsics,
    in_frame,
    quadric_matrices,
    tangency_rows,
    wrap_angles,
)

__all__ = [
    "Measurements",
    "FactorGraph",
    "GraphEvaluator",
]


@dataclass(frozen=True)
class Measurements:
    """A column of k landmark measurements, as arrays: row r was taken from
    pose pose_index[r] (k,), observes landmark landmark_id[r] (k,), and
    measured values[r]. The values are four normalized box lines (k, 4, 3)
    for bounding-box detections, and landmark positions in the robot frame
    (k, 3) for relative-position measurements."""

    pose_index: np.ndarray
    landmark_id: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.pose_index)

    def __getitem__(self, rows) -> "Measurements":
        """The measurements in rows: a mask, an index array or a slice."""
        return Measurements(self.pose_index[rows], self.landmark_id[rows], self.values[rows])


def _rows(*shape, dtype=float):
    """A field defaulting to an empty column of rows of the given shape."""
    return field(default_factory=lambda: np.zeros((0, *shape), dtype))


def _no_measurements(*shape):
    return field(
        default_factory=lambda: Measurements(
            np.zeros(0, int), np.zeros(0, int), np.zeros((0, *shape))
        )
    )


@dataclass
class FactorGraph:
    """Variables (poses, quadrics) plus the factors constraining them.

    The variables are rows: poses (n, 3) of (x, y, theta), and quadrics
    (m, 9) of dual-quadric parameters (see DualQuadric), row j estimating
    landmark j.

    Each factor kind is a set of columns of k rows:

    - priors anchor poses prior_index (k,) at prior_anchor (k, 3) rows
      (x, y, theta);
    - odometry ties each pose odometry_index (k,) to the next one by
      odometry (k, 2) rows (v, omega);
    - bbox holds bounding-box detections, relpos relative-position
      measurements;

    and each kind has a (k, d) column of noise standard deviations, one per
    residual component (d = 3, 3, 4, 3). The camera intrinsics and
    robot-to-camera mount are shared by all bounding-box factors. The graph
    must contain at least one prior factor to anchor the global frame.
    """

    poses: np.ndarray
    quadrics: np.ndarray
    intrinsics: CameraIntrinsics
    mount: CameraExtrinsics
    prior_index: np.ndarray = _rows(dtype=int)
    prior_anchor: np.ndarray = _rows(3)
    prior_sigma: np.ndarray = _rows(3)
    odometry_index: np.ndarray = _rows(dtype=int)
    odometry: np.ndarray = _rows(2)
    odometry_sigma: np.ndarray = _rows(3)
    bbox: Measurements = _no_measurements(4, 3)
    bbox_sigma: np.ndarray = _rows(4)
    relpos: Measurements = _no_measurements(3)
    relpos_sigma: np.ndarray = _rows(3)

    def validate(self) -> None:
        """Check the variables' shapes, and every factor kind's columns:
        indices of existing variables, finite measurements and finite
        positive sigmas, each of its kind's shape.

        Raises:
            ValueError: naming the variables or the first factor kind that
                fails.
        """
        for name, width in (("poses", 3), ("quadrics", 9)):
            rows = getattr(self, name)
            if not isinstance(rows, np.ndarray) or rows.ndim != 2 or rows.shape[1] != width:
                raise ValueError(f"{name} must be an array of shape (k, {width}), "
                                 f"got {np.shape(rows)}")
        n, m = len(self.poses), len(self.quadrics)
        if len(self.prior_index) == 0:
            raise ValueError("graph needs at least one prior factor (gauge anchor)")
        b, z = self.bbox, self.relpos
        # kind, (index column, bound)s, measurements, row shape, sigmas, d
        for kind, indices, values, shape, sigma, d in (
            ("prior", [(self.prior_index, n)], self.prior_anchor, (3,), self.prior_sigma, 3),
            ("odometry", [(self.odometry_index, n - 1)], self.odometry, (2,),
             self.odometry_sigma, 3),
            ("bbox", [(b.pose_index, n), (b.landmark_id, m)], b.values, (4, 3),
             self.bbox_sigma, 4),
            ("relpos", [(z.pose_index, n), (z.landmark_id, m)], z.values, (3,),
             self.relpos_sigma, 3),
        ):
            k = len(indices[0][0])
            for index, bound in indices:
                index = np.asarray(index)
                if index.shape != (k,) or index.dtype.kind not in "iu" or (
                    k and not 0 <= index.min() <= index.max() < bound
                ):
                    raise ValueError(f"{kind} factors reference a missing variable")
            values = np.asarray(values, dtype=float)
            if values.shape != (k, *shape) or not np.isfinite(values).all():
                raise ValueError(f"{kind} measurements must be finite, of shape {(k, *shape)}")
            sigma = np.asarray(sigma, dtype=float)
            if sigma.shape != (k, d) or not (np.isfinite(sigma) & (sigma > 0)).all():
                raise ValueError(f"{kind} sigmas must be finite and positive, of shape {(k, d)}")


class GraphEvaluator:
    """Compiled residual/Jacobian evaluator for a fixed graph structure.

    Compilation freezes the factor ordering, copies measurements into flat
    arrays and fixes the Jacobian's CSR pattern: its column indices and row
    pointers depend only on which variables each factor touches. Each factor
    kind then has one linearization, vectorized across its factors, that
    returns the raw residual and, on request, the raw Jacobian blocks from
    the same intermediate values; whitening scales each residual row by the
    inverse of its sigma, once for all kinds. Evaluation is a pure function
    of the variable values, so results do not depend on insertion order or
    threading.
    """

    def __init__(self, graph: FactorGraph):
        graph.validate()
        self.n_poses = len(graph.poses)
        self.n_quadrics = len(graph.quadrics)
        # Stacking order: stable sorts by pose index, then landmark id.
        b, z = graph.bbox, graph.relpos
        prior = np.lexsort((graph.prior_index,))
        odo = np.lexsort((graph.odometry_index,))
        bbox = np.lexsort((b.landmark_id, b.pose_index))
        relpos = np.lexsort((z.landmark_id, z.pose_index))

        self._prior_idx = np.asarray(graph.prior_index)[prior]
        self._prior_anchor = np.asarray(graph.prior_anchor, dtype=float)[prior]
        self._odo_idx = np.asarray(graph.odometry_index)[odo]
        self._odo_u = np.asarray(graph.odometry, dtype=float)[odo]
        self._bb_pose = np.asarray(b.pose_index)[bbox]
        self._bb_quad = np.asarray(b.landmark_id)[bbox]
        lines = np.asarray(b.values, dtype=float)[bbox]
        self._rp_pose = np.asarray(z.pose_index)[relpos]
        self._rp_quad = np.asarray(z.landmark_id)[relpos]
        self._rp_z = np.asarray(z.values, dtype=float)[relpos]

        K = graph.intrinsics.K
        R_m, t_m = graph.mount.rotation, graph.mount.translation
        # Per line: m = K^T l, g = R_m^T m, and the constant term t_m . m.
        self._bb_g = lines @ K @ R_m
        self._bb_tm = lines @ K @ t_m

        # Per kind, in stacking order: the whitening scale of each residual
        # row, and the first column and width of each Jacobian block its
        # linearization returns, in the order it returns them.
        q0 = 3 * self.n_poses
        self._row_scale = [
            1.0 / np.asarray(sigma, dtype=float)[order]
            for sigma, order in (
                (graph.prior_sigma, prior),
                (graph.odometry_sigma, odo),
                (graph.bbox_sigma, bbox),
                (graph.relpos_sigma, relpos),
            )
        ]
        block_cols = [
            [(3 * self._prior_idx, 3)],
            [(3 * self._odo_idx, 3), (3 * (self._odo_idx + 1), 3)],
            [(3 * self._bb_pose, 3), (q0 + 9 * self._bb_quad, 9)],
            [(3 * self._rp_pose, 3), (q0 + 9 * self._rp_quad, 9)],
        ]
        # The CSR pattern. Each row stores its factor's blocks side by side,
        # and every kind returns its blocks in increasing column order, so
        # the blocks of a row, concatenated, are that row's CSR entries.
        indices, widths = [], []
        for w, blocks in zip(self._row_scale, block_cols):
            n, d = w.shape
            cols = np.concatenate(
                [col0[:, None] + np.arange(width) for col0, width in blocks], axis=1
            )
            indices.append(np.repeat(cols, d, axis=0).ravel())
            widths.append(np.full(n * d, cols.shape[1]))
        widths = np.concatenate(widths)
        self._indices = np.concatenate(indices).astype(np.int32)
        self._indptr = np.concatenate([[0], np.cumsum(widths)]).astype(np.int32)
        self.n_rows = widths.size
        self.n_cols = q0 + 9 * self.n_quadrics

    def _linearize(self, poses, quadrics, jac):
        """(raw residual, raw Jacobian blocks) per factor kind."""
        return [
            kind(poses, quadrics, jac)
            for kind in (self._prior, self._odometry, self._bbox, self._relpos)
        ]

    def residual(self, poses: np.ndarray, quadrics: np.ndarray) -> np.ndarray:
        """Stacked whitened residual at the given variable values."""
        kinds = self._linearize(poses, quadrics, False)
        return np.concatenate(
            [(w * r).ravel() for w, (r, _) in zip(self._row_scale, kinds)]
        )

    def jacobian(self, poses: np.ndarray, quadrics: np.ndarray) -> "scipy.sparse.csr_matrix":
        """Sparse Jacobian of the stacked whitened residual.

        Row blocks follow the residual stacking; column blocks are 3 per
        pose (SE(2) tangent) then 9 per quadric, in variable order.
        """
        import scipy.sparse as sp

        kinds = self._linearize(poses, quadrics, True)
        vals = np.concatenate(
            [
                (w[:, :, None] * np.concatenate(blocks, axis=2)).ravel()
                for w, (_, blocks) in zip(self._row_scale, kinds)
            ]
        )
        return sp.csr_matrix(
            (vals, self._indices, self._indptr), shape=(self.n_rows, self.n_cols)
        )

    # -- one linearization per factor kind --------------------------------
    # Each returns (r, blocks): the raw residual (f, d) and, when jac is
    # true, its raw Jacobian blocks (f, d, width) in block_cols order.

    def _prior(self, poses, quadrics, jac):
        x = poses[self._prior_idx]
        anchor = self._prior_anchor
        c, s = np.cos(anchor[:, 2]), np.sin(anchor[:, 2])
        dx = x[:, 0] - anchor[:, 0]
        dy = x[:, 1] - anchor[:, 1]
        r = np.stack([*in_frame(c, s, dx, dy), wrap_angles(x[:, 2] - anchor[:, 2])], axis=1)
        if not jac:
            return r, ()
        return r, (_planar_block(c, s, (0.0, 0.0, 1.0)),)

    def _odometry(self, poses, quadrics, jac):
        xi = poses[self._odo_idx]
        xn = poses[self._odo_idx + 1]
        v, om = self._odo_u[:, 0], self._odo_u[:, 1]
        ci, si = np.cos(xi[:, 2]), np.sin(xi[:, 2])
        c, s = np.cos(xn[:, 2]), np.sin(xn[:, 2])
        dx = xi[:, 0] + v * ci - xn[:, 0]
        dy = xi[:, 1] + v * si - xn[:, 1]
        r1, r2 = in_frame(c, s, dx, dy)
        r = np.stack([r1, r2, wrap_angles(xi[:, 2] + om - xn[:, 2])], axis=1)
        if not jac:
            return r, ()
        Ji = _planar_block(c, s, (*in_frame(c, s, -v * si, v * ci), 1.0))
        Jn = _planar_block(-c, -s, (r2, -r1, -1.0))
        return r, (Ji, Jn)

    def _bbox(self, poses, quadrics, jac):
        # Back-projected planes a = P^T l for every detection line: the
        # rotated normal (w1, w2, g3) and the offset a4 = -p . w + t_m . m.
        x = poses[self._bb_pose]
        c, s = np.cos(x[:, 2])[:, None], np.sin(x[:, 2])[:, None]
        px, py = x[:, 0, None], x[:, 1, None]
        g1, g2, g3 = self._bb_g[..., 0], self._bb_g[..., 1], self._bb_g[..., 2]
        w1 = c * g1 - s * g2
        w2 = s * g1 + c * g2
        a4 = -(px * w1 + py * w2) + self._bb_tm
        a = np.stack([w1, w2, g3, a4], axis=-1)
        Q = quadric_matrices(quadrics)[self._bb_quad]
        h = np.einsum("dab,dkb->dka", Q, a)
        r = np.einsum("dka,dka->dk", a, h)
        if not jac:
            return r, ()
        # d a / d theta: the derivative of the rotated normal, and of a4.
        w1p = -s * g1 - c * g2
        w2p = c * g1 - s * g2
        a4p = -(px * w1p + py * w2p)
        Jp = np.stack(
            [
                -2.0 * h[..., 3] * w1,
                -2.0 * h[..., 3] * w2,
                2.0 * (h[..., 0] * w1p + h[..., 1] * w2p + h[..., 3] * a4p),
            ],
            axis=-1,
        )
        return r, (Jp, tangency_rows(a)[..., :9])

    def _relpos(self, poses, quadrics, jac):
        x = poses[self._rp_pose]
        cen = quadrics[self._rp_quad][:, QUADRIC_CENTROID]
        c, s = np.cos(x[:, 2]), np.sin(x[:, 2])
        t1, t2 = in_frame(c, s, cen[:, 0] - x[:, 0], cen[:, 1] - x[:, 1])
        r = self._rp_z - np.stack([t1, t2, cen[:, 2]], axis=1)
        if not jac:
            return r, ()
        Jp = _planar_block(c, s, (-t2, t1, 0.0))
        # The centroid enters through its parameters alone.
        Jq = np.zeros((len(c), 3, 9))
        Jq[:, :, QUADRIC_CENTROID] = _planar_block(-c, -s, (0.0, 0.0, -1.0))
        return r, (Jp, Jq)


def _planar_block(c, s, heading_col):
    """(n, 3, 3) blocks [[c, s, h0], [-s, c, h1], [0, 0, h2]]: the planar
    frame rotation, with the third (heading) column given."""
    J = np.zeros((len(c), 3, 3))
    J[:, 0, 0] = c
    J[:, 0, 1] = s
    J[:, 1, 0] = -s
    J[:, 1, 1] = c
    J[:, 0, 2], J[:, 1, 2], J[:, 2, 2] = heading_col
    return J
