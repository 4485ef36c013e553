from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from dqslam.factors import (
    FactorGraph,
    GraphEvaluator,
    Measurements,
)
from dqslam.geometry import (
    CameraIntrinsics,
    DualQuadric,
    left_facing_mount,
    normalize_lines,
)
from dqslam.initialization import init_poses
from dqslam.pipeline import build_graph
from dqslam.simulator import SensorConfig, WorldConfig, generate_dataset, inscribed_ellipsoid
from conftest import pose_rows
from oracle import (
    bbox_factor_residual,
    graph_residual,
    ground_truth_graph,
    odometry_residual,
    relpos_residual,
    se2_boxminus,
)


K = CameraIntrinsics(1500, 1500, 640, 512, 1280, 1024)
MOUNT = left_facing_mount()


def random_graph(rng, n_poses=4, n_quadrics=2, with_relpos=True):
    poses = pose_rows(rng.normal(0, 1, (n_poses, 3)))
    quadrics = rng.normal(0, 1, (n_quadrics, 9)) + np.array([2, 0, 0, 0, 2, 0, 0, 2, 0])
    det_pose, det_lm, lines = [], [], []
    for j in range(n_quadrics):
        for i in rng.choice(n_poses, size=min(2, n_poses), replace=False):
            det_pose.append(int(i))
            det_lm.append(j)
            lines.append([rng.normal(size=3) for _ in range(4)])
    z_pose, z = [], []
    for j in range(n_quadrics if with_relpos else 0):
        z_pose.append(int(rng.integers(0, n_poses)))
        z.append(rng.normal(0, 2, 3))
    anchor = rng.normal(0, 0.1, 3)
    odometry = [
        (float(rng.uniform(0.2, 1.0)), float(rng.normal(0, 0.3))) for _ in range(n_poses - 1)
    ]
    return FactorGraph(
        poses=poses,
        quadrics=quadrics,
        intrinsics=K,
        mount=MOUNT,
        prior_index=np.array([0]),
        prior_anchor=np.array([anchor]),
        prior_sigma=np.full((1, 3), 0.3),
        odometry_index=np.arange(n_poses - 1),
        odometry=np.array(odometry).reshape(-1, 2),
        odometry_sigma=np.tile([0.05, 0.07, 0.03], (n_poses - 1, 1)),
        bbox=Measurements(np.array(det_pose), np.array(det_lm), normalize_lines(lines)),
        bbox_sigma=np.full((len(det_pose), 4), 1e5),
        relpos=Measurements(
            np.array(z_pose, dtype=int), np.arange(len(z_pose)), np.array(z).reshape(-1, 3)
        ),
        relpos_sigma=np.full((len(z_pose), 3), 0.1),
    )


def stacking_order(*keys):
    """Row order of a factor kind in the stacked residual: by the keys in
    turn (pose index, then landmark id), stable."""
    return sorted(range(len(keys[0])), key=lambda r: tuple(int(k[r]) for k in keys))


# -- motion model and residual conventions -----------------------------------

def test_motion_model_examples():
    assert init_poses([(1, 0)], (0, 0, 0))[1].tolist() == [1, 0, 0]
    p = init_poses([(2, 0)], (0, 0, math.pi / 2))[1]
    assert tuple(p) == pytest.approx((0, 2, math.pi / 2), abs=1e-15)
    p = init_poses([(0, math.pi / 2)], (1, 1, 0))[1]
    assert tuple(p) == pytest.approx((1, 1, math.pi / 2))
    # The heading is wrapped, at the start and after each turn.
    assert init_poses([(0, 0.5)], (0, 0, 3.0))[:, 2] == pytest.approx(
        [3.0, 3.5 - 2 * math.pi])
    assert init_poses([], (0, 0, 2 * math.pi + 0.3))[0, 2] == pytest.approx(0.3)


def test_odometry_residual_exact_prediction(rng):
    for _ in range(10):
        x = pose_rows(rng.normal(0, 2, 3))
        u = (float(rng.uniform(0, 1)), float(rng.normal(0, 0.5)))
        x_next = init_poses([u], x)[1]
        assert np.allclose(odometry_residual(x, x_next, u), 0, atol=1e-14)


def test_odometry_residual_overshoot_convention():
    r = odometry_residual([0, 0, 0], [2, 0, 0], (1, 0))
    assert np.allclose(r, [-1, 0, 0])


def test_odometry_residual_angle_wrap():
    # prediction theta = pi - 0.1, actual theta = -pi + 0.1
    x = [0, 0, math.pi - 0.1]
    r = odometry_residual(x, [0, 0, -math.pi + 0.1], (0, 0))
    assert r[2] == pytest.approx(-0.2, abs=1e-12)


def test_prior_residual():
    a = [0.3, -0.2, 0.4]
    assert np.allclose(se2_boxminus(a, a), 0)
    r = se2_boxminus([0.1, 0, 0], [0, 0, 0])
    assert np.allclose(r, [0.1, 0, 0])


def test_relpos_residual_examples():
    q = DualQuadric(np.array([1, 0, 0, 1, 1, 0, 2, 1, 0.3]))  # centroid (1, 2, 0.3)
    assert np.allclose(relpos_residual([0, 0, 0], q, [1, 2, 0.3]), 0)

    q2 = DualQuadric(np.array([1, 0, 0, 1, 1, 0, 1, 1, 0.0]))  # centroid (1, 1, 0)
    assert np.allclose(relpos_residual([1, 0, math.pi / 2], q2, [1, 0, 0]), 0, atol=1e-15)


def test_relpos_residual_z_passthrough(rng):
    for _ in range(10):
        pose = pose_rows(rng.normal(0, 3, 3))
        q = DualQuadric(rng.normal(0, 2, 9))
        z = rng.normal(0, 2, 3)
        r = relpos_residual(pose, q, z)
        assert r[2] == pytest.approx(z[2] - q.q[8], abs=1e-12)


# -- bbox factor ---------------------------------------------------------------

def test_bbox_residual_noise_free_silhouette(zero_noise_sensor):
    ds = generate_dataset(WorldConfig(seed=1, landmark_shape="sphere", n_landmarks=3), zero_noise_sensor)
    quads = [inscribed_ellipsoid(c, s) for c, s in zip(ds.landmark_centers, ds.landmark_sides)]
    dets = ds.detections[:40]
    for i, j, lines in zip(dets.pose_index, dets.landmark_id, dets.values):
        pose = ds.ground_truth_poses[i]
        r = bbox_factor_residual(pose, quads[j], lines, ds.intrinsics(), ds.mount())
        assert np.max(np.abs(r)) < 1e-8 * ds.intrinsics().fx**2


def test_bbox_residual_far_identity_quadric():
    lines = normalize_lines([[1, 0, -600.0], [0, 1, -500.0], [1, 0, -680.0], [0, 1, -560.0]])
    # identity quadric at the origin seen from far away: tiny box is far from
    # tangent, residuals large and positive
    r = bbox_factor_residual([30, 0, 0], DualQuadric.identity(), lines, K, MOUNT)
    assert np.all(r > 1e4)


def test_bbox_residual_renormalization_idempotent(rng):
    lines = normalize_lines(rng.normal(size=(4, 3)))
    pose = [0.5, -1.0, 0.3]
    q = DualQuadric(rng.normal(size=9))
    assert np.array_equal(
        bbox_factor_residual(pose, q, lines, K, MOUNT),
        bbox_factor_residual(pose, q, normalize_lines(lines), K, MOUNT),
    )


# -- noise -----------------------------------------------------------------------

def test_doubling_covariance_halves_cost(rng):
    g = random_graph(rng)
    _, cost1 = graph_residual(g)
    doubled = replace(
        g,
        prior_sigma=g.prior_sigma * math.sqrt(2),
        odometry_sigma=g.odometry_sigma * math.sqrt(2),
        bbox_sigma=g.bbox_sigma * math.sqrt(2),
        relpos_sigma=g.relpos_sigma * math.sqrt(2),
    )
    _, cost2 = graph_residual(doubled)
    assert cost2 == pytest.approx(cost1 / 2, rel=1e-12)


# -- whole-graph evaluation --------------------------------------------------------

def test_graph_requires_prior(rng):
    g = random_graph(rng)
    g.prior_index = g.prior_index[:0]
    with pytest.raises(ValueError):
        g.validate()


def _corrupt_column(name, value):
    def corrupt(g):
        kind, _, column = name.partition(".")
        if column:
            col = getattr(getattr(g, kind), column).copy()
            col[0] = value
            setattr(g, kind, replace(getattr(g, kind), **{column: col}))
        else:
            col = getattr(g, kind).copy()
            col[0] = value
            setattr(g, kind, col)
    return corrupt


# Each corruption of a valid graph's columns, and the factor kind its
# error must name.
BAD_COLUMNS = {
    "prior-pose-missing": (_corrupt_column("prior_index", 4), "prior"),
    "prior-anchor-nan": (_corrupt_column("prior_anchor", np.nan), "prior"),
    "prior-sigma-zero": (_corrupt_column("prior_sigma", 0.0), "prior"),
    "odometry-last-pose-has-no-successor": (_corrupt_column("odometry_index", 3), "odometry"),
    "odometry-negative-index": (_corrupt_column("odometry_index", -1), "odometry"),
    "odometry-inf": (_corrupt_column("odometry", np.inf), "odometry"),
    "odometry-sigma-negative": (_corrupt_column("odometry_sigma", -0.1), "odometry"),
    "odometry-sigma-wrong-shape": (lambda g: setattr(g, "odometry_sigma", g.odometry_sigma[:, :2]),
                                   "odometry"),
    "bbox-landmark-missing": (_corrupt_column("bbox.landmark_id", 2), "bbox"),
    "bbox-lines-nan": (_corrupt_column("bbox.values", np.nan), "bbox"),
    "bbox-lines-wrong-shape": (lambda g: setattr(g, "bbox", replace(g.bbox, values=g.bbox.values[:, :3])),
                               "bbox"),
    "bbox-float-index": (lambda g: setattr(g, "bbox", replace(g.bbox, pose_index=g.bbox.pose_index * 1.0)),
                         "bbox"),
    "bbox-sigma-inf": (_corrupt_column("bbox_sigma", np.inf), "bbox"),
    "bbox-sigma-short": (lambda g: setattr(g, "bbox_sigma", g.bbox_sigma[1:]), "bbox"),
    "relpos-pose-missing": (_corrupt_column("relpos.pose_index", 4), "relpos"),
    "relpos-z-inf": (_corrupt_column("relpos.values", -np.inf), "relpos"),
    "relpos-sigma-nan": (_corrupt_column("relpos_sigma", np.nan), "relpos"),
    "poses-two-columns": (lambda g: setattr(g, "poses", g.poses[:, :2]), "poses"),
    "quadrics-eight-columns": (lambda g: setattr(g, "quadrics", g.quadrics[:, :8]), "quadrics"),
}


@pytest.mark.parametrize("name", sorted(BAD_COLUMNS))
def test_graph_validate_rejects_bad_columns(name, rng):
    g = random_graph(rng)
    g.validate()
    corrupt, kind = BAD_COLUMNS[name]
    corrupt(g)
    with pytest.raises(ValueError, match=f"^{kind} "):
        g.validate()
    with pytest.raises(ValueError, match=f"^{kind} "):
        GraphEvaluator(g)


def test_graph_residual_matches_per_factor_functions(rng):
    g = random_graph(rng)
    r, cost = graph_residual(g)

    poses = g.poses
    quadrics = [DualQuadric(row) for row in g.quadrics]
    expected = []
    for k in stacking_order(g.prior_index):
        anchor = g.prior_anchor[k]
        expected.append(se2_boxminus(poses[g.prior_index[k]], anchor) / g.prior_sigma[k])
    for k in stacking_order(g.odometry_index):
        i = g.odometry_index[k]
        res = odometry_residual(poses[i], poses[i + 1], g.odometry[k])
        expected.append(res / g.odometry_sigma[k])
    b = g.bbox
    for k in stacking_order(b.pose_index, b.landmark_id):
        pose, quadric = poses[b.pose_index[k]], quadrics[b.landmark_id[k]]
        res = bbox_factor_residual(pose, quadric, b.values[k], g.intrinsics, g.mount)
        expected.append(res / g.bbox_sigma[k])
    z = g.relpos
    for k in stacking_order(z.pose_index, z.landmark_id):
        pose, quadric = poses[z.pose_index[k]], quadrics[z.landmark_id[k]]
        expected.append(relpos_residual(pose, quadric, z.values[k]) / g.relpos_sigma[k])
    expected = np.concatenate(expected)
    assert np.allclose(r, expected, rtol=1e-12, atol=1e-12)
    assert cost == pytest.approx(0.5 * expected @ expected, rel=1e-12)


def test_cost_invariant_to_insertion_order(rng):
    g = random_graph(rng)
    shuffled = replace(
        g,
        odometry_index=g.odometry_index[::-1],
        odometry=g.odometry[::-1],
        odometry_sigma=g.odometry_sigma[::-1],
        bbox=g.bbox[::-1],
        bbox_sigma=g.bbox_sigma[::-1],
        relpos=g.relpos[::-1],
        relpos_sigma=g.relpos_sigma[::-1],
    )
    r1, c1 = graph_residual(g)
    r2, c2 = graph_residual(shuffled)
    assert np.array_equal(r1, r2)
    assert c1 == c2


def test_zero_noise_graph_cost_at_ground_truth(zero_noise_sensor):
    ds = generate_dataset(WorldConfig(seed=5, landmark_shape="sphere"), zero_noise_sensor)
    g = build_graph(ds, mode="with-relpos")
    gt = ground_truth_graph(g, ds)
    _, cost = graph_residual(gt)
    assert cost < 1e-10


def test_residual_angles_in_range(rng):
    for _ in range(20):
        a = pose_rows(rng.uniform(-10, 10, 3))
        b = pose_rows(rng.uniform(-10, 10, 3))
        u = (float(rng.uniform(0, 1)), float(rng.normal(0, 2)))
        r = odometry_residual(a, b, u)
        assert -math.pi < r[2] <= math.pi
        assert -math.pi < se2_boxminus(a, b)[2] <= math.pi


# -- Jacobians -----------------------------------------------------------------------

def finite_difference_jacobian(ev, poses, quadrics, h=1e-6):
    x0 = np.concatenate([poses.ravel(), quadrics.ravel()])
    n_pose = poses.size

    def res(x):
        return ev.residual(x[:n_pose].reshape(-1, 3), x[n_pose:].reshape(-1, 9))

    J = np.zeros((ev.n_rows, x0.size))
    for c in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[c] += h
        xm[c] -= h
        J[:, c] = (res(xp) - res(xm)) / (2 * h)
    return J


def test_jacobian_matches_finite_differences(rng):
    for trial in range(10):
        g = random_graph(rng, n_poses=int(rng.integers(2, 6)), n_quadrics=int(rng.integers(1, 3)))
        ev = GraphEvaluator(g)
        P, Q = g.poses, g.quadrics
        J = ev.jacobian(P, Q).toarray()
        Jfd = finite_difference_jacobian(ev, P, Q)
        err = np.abs(J - Jfd)
        ok = (err < 1e-8) | (err < 1e-5 * np.abs(Jfd))
        assert np.all(ok)


def test_jacobian_sparsity_pattern(rng):
    # Every row stores exactly the columns of the variables its factor
    # touches, in the documented stacking order, and the stored pattern is
    # the same at any variable values.
    g = random_graph(rng, n_poses=5, n_quadrics=2)
    ev = GraphEvaluator(g)
    J = ev.jacobian(g.poses, g.quadrics)
    n = len(g.poses)

    def pose(i):
        return list(range(3 * i, 3 * i + 3))

    def quad(j):
        return list(range(3 * n + 9 * j, 3 * n + 9 * j + 9))

    b, z = g.bbox, g.relpos
    blocks = (
        [(3, pose(i)) for i in sorted(g.prior_index)]
        + [(3, pose(i) + pose(i + 1)) for i in sorted(g.odometry_index)]
        + [
            (4, pose(b.pose_index[k]) + quad(b.landmark_id[k]))
            for k in stacking_order(b.pose_index, b.landmark_id)
        ]
        + [
            (3, pose(z.pose_index[k]) + quad(z.landmark_id[k]))
            for k in stacking_order(z.pose_index, z.landmark_id)
        ]
    )
    assert len(g.prior_index) and len(g.odometry_index) and len(b) and len(z)
    row = 0
    for dim, cols in blocks:
        for k in range(row, row + dim):
            assert sorted(J.indices[J.indptr[k] : J.indptr[k + 1]]) == cols, k
        row += dim
    assert row == J.shape[0]

    poses = g.poses + rng.normal(0, 1, (n, 3))
    quadrics = g.quadrics + rng.normal(0, 1, (len(g.quadrics), 9))
    J2 = ev.jacobian(poses, quadrics)
    assert np.array_equal(J2.indices, J.indices)
    assert np.array_equal(J2.indptr, J.indptr)
    assert not np.array_equal(J2.data, J.data)


def einsum_whitened(ev, graph, poses, quadrics):
    """Residual and Jacobian whitened by full sqrt-information matrices, the
    inverse Cholesky factors of the covariances diag(sigma^2), and the
    Jacobian assembled from COO triplets: the evaluator's earlier whitening
    and assembly, applied to its raw linearizations."""
    n = len(graph.poses)
    b, z = graph.bbox, graph.relpos
    prior = stacking_order(graph.prior_index)
    odo = stacking_order(graph.odometry_index)
    bbox = stacking_order(b.pose_index, b.landmark_id)
    relpos = stacking_order(z.pose_index, z.landmark_id)

    def pose(index, order, shift=0):
        return 3 * (index[order] + shift)

    def quad(index, order):
        return 3 * n + 9 * index[order]

    kinds = [
        (graph.prior_sigma[prior], [(pose(graph.prior_index, prior), 3)]),
        (
            graph.odometry_sigma[odo],
            [(pose(graph.odometry_index, odo), 3), (pose(graph.odometry_index, odo, 1), 3)],
        ),
        (graph.bbox_sigma[bbox], [(pose(b.pose_index, bbox), 3), (quad(b.landmark_id, bbox), 9)]),
        (
            graph.relpos_sigma[relpos],
            [(pose(z.pose_index, relpos), 3), (quad(z.landmark_id, relpos), 9)],
        ),
    ]
    residuals, vals, rows, cols = [], [], [], []
    row0 = 0
    for (sigma, blocks), (r, Js) in zip(kinds, ev._linearize(poses, quadrics, True)):
        f, d = r.shape
        cov = np.zeros((f, d, d))
        cov[:, np.arange(d), np.arange(d)] = np.square(sigma)
        W = np.linalg.inv(np.linalg.cholesky(cov))
        residuals.append(np.einsum("fab,fb->fa", W, r).ravel())
        rr = row0 + d * np.arange(f)[:, None, None] + np.arange(d)[None, :, None]
        for (col0, width), Jb in zip(blocks, Js):
            vals.append(np.einsum("fab,fbc->fac", W, Jb).ravel())
            a, b = np.broadcast_arrays(rr, col0[:, None, None] + np.arange(width))
            rows.append(a.ravel())
            cols.append(b.ravel())
        row0 += f * d
    J = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row0, 3 * n + 9 * len(graph.quadrics)),
    )
    return np.concatenate(residuals), J


@pytest.mark.parametrize("seed", [0, 7])
def test_row_scale_whitening_matches_einsum_whitening(seed):
    # Bit for bit, at points away from the initial estimate.
    rng = np.random.default_rng(seed)
    g = build_graph(generate_dataset(WorldConfig(seed=seed), SensorConfig()), mode="with-relpos")
    ev = GraphEvaluator(g)
    for scale in (0.0, 0.05, 0.5):
        poses = g.poses + rng.normal(0, scale, (len(g.poses), 3))
        quadrics = g.quadrics + rng.normal(0, scale, (len(g.quadrics), 9))
        r_ref, J_ref = einsum_whitened(ev, g, poses, quadrics)
        assert np.array_equal(ev.residual(poses, quadrics), r_ref)
        J = ev.jacobian(poses, quadrics)
        assert J.shape == J_ref.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(J, name), getattr(J_ref, name)), name


def test_pose_hessian_block_tridiagonal_without_bbox(rng):
    g = random_graph(rng, n_poses=6, n_quadrics=1)
    g = replace(
        g,
        bbox=g.bbox[:0],
        bbox_sigma=g.bbox_sigma[:0],
        relpos=g.relpos[:0],
        relpos_sigma=g.relpos_sigma[:0],
        quadrics=g.quadrics[:0],
    )
    J = GraphEvaluator(g).jacobian(g.poses, g.quadrics).toarray()
    H = J.T @ J
    n = len(g.poses)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                assert not np.any(H[3 * i : 3 * i + 3, 3 * j : 3 * j + 3])


def test_removing_prior_leaves_gauge_nullspace(rng):
    g = random_graph(rng, n_poses=5, n_quadrics=2)
    J = GraphEvaluator(g).jacobian(g.poses, g.quadrics).toarray()
    n_prior_rows = 3 * len(g.prior_index)
    J_free = J[n_prior_rows:]
    eigs = np.linalg.eigvalsh(J_free.T @ J_free)
    near_zero = np.sum(eigs < 1e-8 * max(eigs.max(), 1.0))
    assert near_zero >= 3
