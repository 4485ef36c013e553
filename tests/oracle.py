"""Scalar reference implementations for the tests.

The package evaluates its factor graph only through the vectorized
`factors.GraphEvaluator`, forms camera frames only through
`geometry.camera_frames`, and projects sphere silhouettes only through
`simulator.project_sphere_bbox`. The functions here compute the same
quantities one item at a time, on one (x, y, theta) pose row, one
`DualQuadric`, one (3, 4) projection matrix or one (3, 3) dual conic:
one heading wrapped to (-pi, pi] (the reference of `geometry.wrap_angles`),
the mounted camera's frame at one pose, one raw residual per factor kind
(a prior is `se2_boxminus` of the pose and its anchor), the tangency
defect of one image line, and the bounding box of one dual conic. The
tests check the vectorized code against them.
`graph_residual` and `ground_truth_graph` are test helpers: the stacked
residual and cost of a graph at its stored variables, and a graph moved
to the simulator's ground truth.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from dqslam.factors import FactorGraph, GraphEvaluator
from dqslam.geometry import (
    EPS_SCALE,
    QUADRIC_CENTROID,
    CameraExtrinsics,
    CameraIntrinsics,
    DegenerateGeometryError,
    DualQuadric,
    projection_matrices,
)
from dqslam.initialization import init_poses
from dqslam.simulator import Dataset, inscribed_ellipsoid


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi].

    Values already in range are returned unchanged (bit-exact), so wrapping
    is idempotent.
    """
    theta = float(theta)
    if -math.pi < theta <= math.pi:
        return theta
    w = theta - math.tau * math.floor((theta + math.pi) / math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


def pose_to_extrinsics(pose, mount: CameraExtrinsics) -> CameraExtrinsics:
    """World-to-camera extrinsics of the mounted camera at one pose row
    (x, y, theta), the heading wrapped to (-pi, pi]: the SE(2) pose lifted
    to SE(3) on the z = 0 plane, composed with the robot-to-camera mount."""
    x, y, theta = pose
    theta = wrap_angle(theta)
    c, s = math.cos(theta), math.sin(theta)
    R_rw = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T  # world-to-robot
    t_rw = -R_rw @ np.array([x, y, 0.0])
    return CameraExtrinsics(mount.rotation @ R_rw, mount.rotation @ t_rw + mount.translation)


def se2_boxminus(a, b) -> np.ndarray:
    """SE(2) difference a (-) b of pose rows: pose a expressed in the frame
    of pose b, as (dx, dy, dtheta) with dtheta wrapped to (-pi, pi]."""
    c, s = math.cos(b[2]), math.sin(b[2])
    dx, dy = a[0] - b[0], a[1] - b[1]
    return np.array([c * dx + s * dy, -s * dx + c * dy, wrap_angle(a[2] - b[2])])


def odometry_residual(x_i, x_next, u) -> np.ndarray:
    """Motion-model prediction from pose row x_i under odometry
    u = (v, omega) minus the actual next pose, in SE(2)."""
    return se2_boxminus(init_poses([u], x_i)[1], x_next)


def bbox_factor_residual(
    x_i,
    q_j: DualQuadric,
    lines,
    K: CameraIntrinsics,
    mount: CameraExtrinsics,
) -> np.ndarray:
    """Tangency defect of each of the four box lines (4, 3) against the
    projected quadric, under the camera at pose row x_i."""
    E = pose_to_extrinsics(x_i, mount)
    P = projection_matrices(K, E.rotation, E.translation)
    Q = q_j.matrix()
    r = np.empty(4)
    for k, line in enumerate(np.asarray(lines, dtype=float).reshape(4, 3)):
        a = P.T @ line
        r[k] = a @ Q @ a
    return r


def relpos_residual(x_i, q_j: DualQuadric, z) -> np.ndarray:
    """Measured position z (3,) minus the predicted landmark position, in
    the robot frame.

    The quadric centroid is transformed into the frame of the planar pose
    row x_i; the z coordinate passes through unchanged.
    """
    c = q_j.q[QUADRIC_CENTROID]
    cth, sth = math.cos(x_i[2]), math.sin(x_i[2])
    dx, dy = c[0] - x_i[0], c[1] - x_i[1]
    local = np.array([cth * dx + sth * dy, -sth * dx + cth * dy, c[2]])
    return np.asarray(z, dtype=float) - local


def graph_residual(graph: FactorGraph):
    """Stacked whitened residual of a graph at its stored variables.

    Returns:
        (residual, cost) with cost = 0.5 * ||residual||^2.
    """
    ev = GraphEvaluator(graph)
    r = ev.residual(graph.poses, graph.quadrics)
    return r, 0.5 * float(r @ r)


def tangency_residual(l, P, q: DualQuadric) -> float:
    """Tangency defect l^T P Q* P^T l of an image line l, (3,), under the
    projection matrix P, (3, 4).

    Zero iff the plane P^T l back-projected from the line is tangent to the
    quadric; normalize_lines fixes the magnitude's gauge.
    """
    a = P.T @ np.asarray(l, dtype=float)
    return float(a @ q.matrix() @ a)


def dual_conic_bbox(C) -> tuple:
    """Axis-aligned bounding box (u_min, v_min, u_max, v_max) of a dual
    conic C, (3, 3).

    Solves for the two vertical and two horizontal tangent lines of the
    conic; this is the exact bounding box an ideal detector would report
    for the projected outline of an ellipsoid.

    Raises:
        DegenerateGeometryError: if the conic has no real axis-aligned
            tangents (not an ellipse-like outline).
    """
    M = np.asarray(C)
    if abs(M[2, 2]) < EPS_SCALE:
        raise DegenerateGeometryError("conic tangent box undefined ((3,3) entry ~ 0)")
    # Vertical tangents l = (1, 0, -u): C11 - 2 u C13 + u^2 C33 = 0.
    du = M[0, 2] ** 2 - M[0, 0] * M[2, 2]
    dv = M[1, 2] ** 2 - M[1, 1] * M[2, 2]
    if du <= 0 or dv <= 0:
        raise DegenerateGeometryError("conic has no real axis-aligned tangent lines")
    hu, hv = math.sqrt(du) / abs(M[2, 2]), math.sqrt(dv) / abs(M[2, 2])
    u0, v0 = M[0, 2] / M[2, 2], M[1, 2] / M[2, 2]
    return (u0 - hu, v0 - hv, u0 + hu, v0 + hv)


def ground_truth_graph(graph: FactorGraph, dataset: Dataset) -> FactorGraph:
    """The same graph with variables set to the simulator's ground truth:
    true poses and the inscribed-ellipsoid quadric of every cube."""
    quadrics = [
        inscribed_ellipsoid(center, side).q
        for center, side in zip(dataset.landmark_centers, dataset.landmark_sides.tolist())
    ]
    return replace(
        graph,
        poses=dataset.ground_truth_poses.copy(),
        quadrics=np.array(quadrics).reshape(-1, 9),
    )
