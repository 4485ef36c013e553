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
relative-position factors by (pose, landmark). Each kind's facts have
one home, the table `FactorGraph._kinds`, read by graph validation and by
the evaluator's compile step.

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
    residual component (d = 3, 3, 4, 3); `_kinds` tabulates them. The camera
    intrinsics and robot-to-camera mount are shared by all bounding-box
    factors. The graph must contain at least one prior factor to anchor the
    global frame.
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

    def _kinds(self) -> list:
        """The four factor kinds in stacking order, one tuple each: name,
        variable-index columns, measurements, measurement row shape, sigmas
        and residual width d. Each index column is (indices, bound, first
        Jacobian column, width): factor r references variable indices[r] <
        bound, whose Jacobian block spans columns first + width * indices[r]
        onward. A kind lists its columns in increasing column order."""
        n, m = len(self.poses), len(self.quadrics)
        q0 = 3 * n
        b, z = self.bbox, self.relpos
        return [
            ("prior", [(self.prior_index, n, 0, 3)], self.prior_anchor, (3,),
             self.prior_sigma, 3),
            # The next pose's block starts at 3 * (odometry_index + 1).
            ("odometry", [(self.odometry_index, n - 1, 0, 3), (self.odometry_index, n - 1, 3, 3)],
             self.odometry, (2,), self.odometry_sigma, 3),
            ("bbox", [(b.pose_index, n, 0, 3), (b.landmark_id, m, q0, 9)], b.values, (4, 3),
             self.bbox_sigma, 4),
            ("relpos", [(z.pose_index, n, 0, 3), (z.landmark_id, m, q0, 9)], z.values, (3,),
             self.relpos_sigma, 3),
        ]

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
        if len(self.prior_index) == 0:
            raise ValueError("graph needs at least one prior factor (gauge anchor)")
        for kind, columns, values, shape, sigma, d in self._kinds():
            k = len(columns[0][0])
            for index, bound, _, _ in columns:
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

    Compilation reads the graph's kind table in one loop: it freezes each
    kind's factor ordering, hands the sorted index columns and measurements
    to the kind's linearization, and fixes the Jacobian's CSR pattern, which
    depends only on which variables each factor touches. Each linearization,
    vectorized across its factors, returns the raw residual and, on request,
    the raw Jacobian blocks from the same intermediate values; whitening
    scales each residual row by the inverse of its sigma, once for all
    kinds. Evaluation is a pure function of the variable values, so results
    do not depend on insertion order or threading.
    """

    def __init__(self, graph: FactorGraph):
        graph.validate()
        self.n_poses = len(graph.poses)
        self.n_quadrics = len(graph.quadrics)
        K = graph.intrinsics.K
        R_m, t_m = graph.mount.rotation, graph.mount.translation
        # Per kind, in stacking order: its name, the arguments handed to its
        # linearization, and the whitening scale of each residual row. A row stores
        # its factor's blocks side by side, in increasing column order: the
        # row's CSR entries.
        self._kinds, indices, widths = [], [], []
        for name, columns, values, _, sigma, d in graph._kinds():
            # A stable sort by the index columns, the first one leading.
            order = np.lexsort([index for index, *_ in reversed(columns)])
            sorted_columns = [np.asarray(index)[order] for index, *_ in columns]
            values = np.asarray(values, dtype=float)[order]
            if name == "bbox":
                # Per line: m = K^T l, g = R_m^T m, and the constant term t_m . m.
                values = (values @ K @ R_m, values @ K @ t_m)
            self._kinds.append((name, (*sorted_columns, values),
                                1.0 / np.asarray(sigma, dtype=float)[order]))
            cols = np.concatenate(
                [first + width * index[:, None] + np.arange(width)
                 for index, (_, _, first, width) in zip(sorted_columns, columns)],
                axis=1,
            )
            indices.append(np.repeat(cols, d, axis=0).ravel())
            widths.append(np.full(len(order) * d, cols.shape[1]))
        widths = np.concatenate(widths)
        self._indices = np.concatenate(indices).astype(np.int32)
        self._indptr = np.concatenate([[0], np.cumsum(widths)]).astype(np.int32)
        self.n_rows = widths.size
        self.n_cols = 3 * self.n_poses + 9 * self.n_quadrics

    def _linearize(self, poses, quadrics, jac):
        """(raw residual, raw Jacobian blocks) per factor kind."""
        # Looked up per call: a bound method kept on self would be a cycle.
        return [getattr(self, "_" + name)(poses, quadrics, jac, *args)
                for name, args, _ in self._kinds]

    def residual(self, poses: np.ndarray, quadrics: np.ndarray) -> np.ndarray:
        """Stacked whitened residual at the given variable values."""
        kinds = self._linearize(poses, quadrics, False)
        return np.concatenate(
            [(w * r).ravel() for (_, _, w), (r, _) in zip(self._kinds, kinds)]
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
                for (_, _, w), (_, blocks) in zip(self._kinds, kinds)
            ]
        )
        return sp.csr_matrix(
            (vals, self._indices, self._indptr), shape=(self.n_rows, self.n_cols)
        )

    # -- one linearization per factor kind --------------------------------
    # Each takes its kind's sorted index columns and measurements, and
    # returns (r, blocks): the raw residual (f, d) and, when jac is true,
    # its raw Jacobian blocks (f, d, width), one per index column of the
    # graph's kind table, in that order.

    def _prior(self, poses, quadrics, jac, pose, anchor):
        x = poses[pose]
        c, s = np.cos(anchor[:, 2]), np.sin(anchor[:, 2])
        dx = x[:, 0] - anchor[:, 0]
        dy = x[:, 1] - anchor[:, 1]
        r = np.stack([*in_frame(c, s, dx, dy), wrap_angles(x[:, 2] - anchor[:, 2])], axis=1)
        if not jac:
            return r, ()
        return r, (_planar_block(c, s, (0.0, 0.0, 1.0)),)

    def _odometry(self, poses, quadrics, jac, pose, _, u):
        # The next pose's index column holds the same indices as pose's.
        xi = poses[pose]
        xn = poses[pose + 1]
        v, om = u[:, 0], u[:, 1]
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

    def _bbox(self, poses, quadrics, jac, pose, quad, lines):
        # Back-projected planes a = P^T l for every detection line: the
        # rotated normal (w1, w2, g3) and the offset a4 = -p . w + t_m . m,
        # from the lines' terms (g, t_m . m) precomputed at compile time.
        g, tm = lines
        x = poses[pose]
        c, s = np.cos(x[:, 2])[:, None], np.sin(x[:, 2])[:, None]
        px, py = x[:, 0, None], x[:, 1, None]
        g1, g2, g3 = g[..., 0], g[..., 1], g[..., 2]
        w1 = c * g1 - s * g2
        w2 = s * g1 + c * g2
        a4 = -(px * w1 + py * w2) + tm
        a = np.stack([w1, w2, g3, a4], axis=-1)
        Q = quadric_matrices(quadrics)[quad]
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

    def _relpos(self, poses, quadrics, jac, pose, quad, z):
        x = poses[pose]
        cen = quadrics[quad][:, QUADRIC_CENTROID]
        c, s = np.cos(x[:, 2]), np.sin(x[:, 2])
        t1, t2 = in_frame(c, s, cen[:, 0] - x[:, 0], cen[:, 1] - x[:, 1])
        r = z - np.stack([t1, t2, cen[:, 2]], axis=1)
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
