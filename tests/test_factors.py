from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from dqslam.factors import (
    BBoxDetection,
    BBoxFactor,
    FactorGraph,
    GraphEvaluator,
    NoiseModel,
    OdometryFactor,
    OdometryMeasurement,
    PriorFactor,
    RelativePositionMeasurement,
    RelPosFactor,
    bbox_factor_residual,
    graph_jacobian,
    graph_residual,
    motion_model,
    odometry_residual,
    prior_residual,
    relpos_residual,
)
from dqslam.geometry import (
    CameraIntrinsics,
    DualQuadric,
    ImageLine,
    RobotPose,
    left_facing_mount,
)
from dqslam.pipeline import build_graph, ground_truth_graph
from dqslam.simulator import SensorConfig, WorldConfig, generate_dataset, inscribed_ellipsoid


K = CameraIntrinsics(1500, 1500, 640, 512, 1280, 1024)
MOUNT = left_facing_mount()


def random_graph(rng, n_poses=4, n_quadrics=2, with_relpos=True):
    poses = [RobotPose(*rng.normal(0, 1, 3)) for _ in range(n_poses)]
    quadrics = [
        DualQuadric(rng.normal(0, 1, 9) + np.array([2, 0, 0, 0, 2, 0, 0, 2, 0]))
        for _ in range(n_quadrics)
    ]
    dets = [
        BBoxDetection(
            pose_index=int(i),
            landmark_id=j,
            lines=tuple(ImageLine(rng.normal(size=3)) for _ in range(4)),
        )
        for j in range(n_quadrics)
        for i in rng.choice(n_poses, size=min(2, n_poses), replace=False)
    ]
    relpos = (
        [
            RelPosFactor(
                RelativePositionMeasurement(
                    int(rng.integers(0, n_poses)), j, rng.normal(0, 2, 3)
                ),
                NoiseModel.isotropic(0.1, 3),
            )
            for j in range(n_quadrics)
        ]
        if with_relpos
        else []
    )
    return FactorGraph(
        poses=poses,
        quadrics=quadrics,
        intrinsics=K,
        mount=MOUNT,
        prior_factors=[
            PriorFactor(0, RobotPose(*rng.normal(0, 0.1, 3)), NoiseModel.isotropic(0.3, 3))
        ],
        odometry_factors=[
            OdometryFactor(
                i,
                OdometryMeasurement(float(rng.uniform(0.2, 1.0)), float(rng.normal(0, 0.3))),
                NoiseModel.diagonal([0.05, 0.07, 0.03]),
            )
            for i in range(n_poses - 1)
        ],
        bbox_factors=[BBoxFactor(d, NoiseModel.isotropic(1e5, 4)) for d in dets],
        relpos_factors=relpos,
    )


# -- motion model and residual conventions -----------------------------------

def test_motion_model_examples():
    assert motion_model(RobotPose(0, 0, 0), OdometryMeasurement(1, 0)) == RobotPose(1, 0, 0)
    p = motion_model(RobotPose(0, 0, math.pi / 2), OdometryMeasurement(2, 0))
    assert (p.x, p.y, p.theta) == pytest.approx((0, 2, math.pi / 2), abs=1e-15)
    p = motion_model(RobotPose(1, 1, 0), OdometryMeasurement(0, math.pi / 2))
    assert (p.x, p.y, p.theta) == pytest.approx((1, 1, math.pi / 2))


def test_odometry_residual_exact_prediction(rng):
    for _ in range(10):
        x = RobotPose(*rng.normal(0, 2, 3))
        u = OdometryMeasurement(float(rng.uniform(0, 1)), float(rng.normal(0, 0.5)))
        assert np.allclose(odometry_residual(x, motion_model(x, u), u), 0, atol=1e-14)


def test_odometry_residual_overshoot_convention():
    r = odometry_residual(RobotPose(0, 0, 0), RobotPose(2, 0, 0), OdometryMeasurement(1, 0))
    assert np.allclose(r, [-1, 0, 0])


def test_odometry_residual_angle_wrap():
    # prediction theta = pi - 0.1, actual theta = -pi + 0.1
    x = RobotPose(0, 0, math.pi - 0.1)
    u = OdometryMeasurement(0, 0)
    r = odometry_residual(x, RobotPose(0, 0, -math.pi + 0.1), u)
    assert r[2] == pytest.approx(-0.2, abs=1e-12)


def test_prior_residual():
    a = RobotPose(0.3, -0.2, 0.4)
    assert np.allclose(prior_residual(a, a), 0)
    r = prior_residual(RobotPose(0.1, 0, 0), RobotPose(0, 0, 0))
    assert np.allclose(r, [0.1, 0, 0])


def test_relpos_residual_examples():
    z = RelativePositionMeasurement(0, 0, np.array([1, 2, 0.3]))
    q = DualQuadric(np.array([1, 0, 0, 1, 1, 0, 2, 1, 0.3]))  # centroid (1, 2, 0.3)
    assert np.allclose(relpos_residual(RobotPose(0, 0, 0), q, z), 0)

    q2 = DualQuadric(np.array([1, 0, 0, 1, 1, 0, 1, 1, 0.0]))  # centroid (1, 1, 0)
    z2 = RelativePositionMeasurement(0, 0, np.array([1, 0, 0]))
    assert np.allclose(relpos_residual(RobotPose(1, 0, math.pi / 2), q2, z2), 0, atol=1e-15)


def test_relpos_residual_z_passthrough(rng):
    for _ in range(10):
        pose = RobotPose(*rng.normal(0, 3, 3))
        q = DualQuadric(rng.normal(0, 2, 9))
        z = RelativePositionMeasurement(0, 0, rng.normal(0, 2, 3))
        r = relpos_residual(pose, q, z)
        assert r[2] == pytest.approx(z.z[2] - q.q[8], abs=1e-12)


# -- bbox factor ---------------------------------------------------------------

def test_bbox_residual_noise_free_silhouette(zero_noise_sensor):
    ds = generate_dataset(WorldConfig(seed=1, landmark_shape="sphere", n_landmarks=3), zero_noise_sensor)
    quads = {lm.id: inscribed_ellipsoid(lm) for lm in ds.landmarks}
    for det in ds.detections[:40]:
        pose = ds.ground_truth_poses[det.pose_index]
        r = bbox_factor_residual(pose, quads[det.landmark_id], det, ds.intrinsics(), ds.mount())
        assert np.max(np.abs(r)) < 1e-8 * ds.intrinsics().fx**2


def test_bbox_residual_far_identity_quadric():
    det_lines = tuple(
        ImageLine(l)
        for l in ([1, 0, -600.0], [0, 1, -500.0], [1, 0, -680.0], [0, 1, -560.0])
    )
    det = BBoxDetection(0, 0, det_lines)
    # identity quadric at the origin seen from far away: tiny box is far from
    # tangent, residuals large and positive
    r = bbox_factor_residual(RobotPose(30, 0, 0), DualQuadric.identity(), det, K, MOUNT)
    assert np.all(r > 1e4)


def test_bbox_residual_renormalization_idempotent(rng):
    lines = tuple(ImageLine(rng.normal(size=3)) for _ in range(4))
    det1 = BBoxDetection(0, 0, lines)
    det2 = BBoxDetection(0, 0, tuple(ImageLine(l.coords.copy()) for l in lines))
    pose = RobotPose(0.5, -1.0, 0.3)
    q = DualQuadric(rng.normal(size=9))
    assert np.array_equal(
        bbox_factor_residual(pose, q, det1, K, MOUNT),
        bbox_factor_residual(pose, q, det2, K, MOUNT),
    )


# -- noise models ----------------------------------------------------------------

def test_noise_model_requires_pd():
    with pytest.raises(ValueError):
        NoiseModel(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        NoiseModel(np.zeros((3, 3)))


def test_noise_model_whitening_matches_mahalanobis(rng):
    A = rng.normal(size=(3, 3))
    cov = A @ A.T + 3 * np.eye(3)
    nm = NoiseModel(cov)
    r = rng.normal(size=3)
    w = nm.whiten(r)
    assert w @ w == pytest.approx(r @ np.linalg.solve(cov, r), rel=1e-12)


def test_factor_noise_dimension_checked():
    with pytest.raises(ValueError):
        PriorFactor(0, RobotPose(0, 0, 0), NoiseModel.isotropic(1.0, 4))
    with pytest.raises(ValueError):
        BBoxFactor(
            BBoxDetection(0, 0, tuple(ImageLine([1, 0, -i - 1.0]) for i in range(4))),
            NoiseModel.isotropic(1.0, 3),
        )


def test_doubling_covariance_halves_cost(rng):
    g = random_graph(rng)
    _, cost1 = graph_residual(g)
    doubled = FactorGraph(
        poses=g.poses,
        quadrics=g.quadrics,
        intrinsics=g.intrinsics,
        mount=g.mount,
        prior_factors=[
            PriorFactor(f.pose_index, f.anchor, NoiseModel(2 * f.noise.covariance))
            for f in g.prior_factors
        ],
        odometry_factors=[
            OdometryFactor(f.pose_index, f.measurement, NoiseModel(2 * f.noise.covariance))
            for f in g.odometry_factors
        ],
        bbox_factors=[
            BBoxFactor(f.detection, NoiseModel(2 * f.noise.covariance))
            for f in g.bbox_factors
        ],
        relpos_factors=[
            RelPosFactor(f.measurement, NoiseModel(2 * f.noise.covariance))
            for f in g.relpos_factors
        ],
    )
    _, cost2 = graph_residual(doubled)
    assert cost2 == pytest.approx(cost1 / 2, rel=1e-12)


# -- whole-graph evaluation --------------------------------------------------------

def test_graph_requires_prior(rng):
    g = random_graph(rng)
    g.prior_factors = []
    with pytest.raises(ValueError):
        g.validate()


def test_graph_residual_matches_per_factor_functions(rng):
    g = random_graph(rng)
    r, cost = graph_residual(g)

    expected = []
    for f in sorted(g.prior_factors, key=lambda f: f.pose_index):
        expected.append(f.noise.whiten(prior_residual(g.poses[f.pose_index], f.anchor)))
    for f in sorted(g.odometry_factors, key=lambda f: f.pose_index):
        expected.append(
            f.noise.whiten(
                odometry_residual(
                    g.poses[f.pose_index], g.poses[f.pose_index + 1], f.measurement
                )
            )
        )
    for f in sorted(g.bbox_factors, key=lambda f: (f.detection.pose_index, f.detection.landmark_id)):
        d = f.detection
        expected.append(
            f.noise.whiten(
                bbox_factor_residual(
                    g.poses[d.pose_index], g.quadrics[d.landmark_id], d, g.intrinsics, g.mount
                )
            )
        )
    for f in sorted(g.relpos_factors, key=lambda f: (f.measurement.pose_index, f.measurement.landmark_id)):
        z = f.measurement
        expected.append(
            f.noise.whiten(relpos_residual(g.poses[z.pose_index], g.quadrics[z.landmark_id], z))
        )
    expected = np.concatenate(expected)
    assert np.allclose(r, expected, rtol=1e-12, atol=1e-12)
    assert cost == pytest.approx(0.5 * expected @ expected, rel=1e-12)


def test_cost_invariant_to_insertion_order(rng):
    g = random_graph(rng)
    shuffled = FactorGraph(
        poses=g.poses,
        quadrics=g.quadrics,
        intrinsics=g.intrinsics,
        mount=g.mount,
        prior_factors=g.prior_factors,
        odometry_factors=list(reversed(g.odometry_factors)),
        bbox_factors=list(reversed(g.bbox_factors)),
        relpos_factors=list(reversed(g.relpos_factors)),
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
        a = RobotPose(*rng.uniform(-10, 10, 3))
        b = RobotPose(*rng.uniform(-10, 10, 3))
        u = OdometryMeasurement(float(rng.uniform(0, 1)), float(rng.normal(0, 2)))
        r = odometry_residual(a, b, u)
        assert -math.pi < r[2] <= math.pi
        assert -math.pi < prior_residual(a, b)[2] <= math.pi


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
        P, Q = g.pose_array(), g.quadric_array()
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
    J = ev.jacobian(g.pose_array(), g.quadric_array())
    n = len(g.poses)

    def pose(i):
        return list(range(3 * i, 3 * i + 3))

    def quad(j):
        return list(range(3 * n + 9 * j, 3 * n + 9 * j + 9))

    def by_pose_and_landmark(ms):
        return sorted(ms, key=lambda m: (m.pose_index, m.landmark_id))

    dets = by_pose_and_landmark(f.detection for f in g.bbox_factors)
    zs = by_pose_and_landmark(f.measurement for f in g.relpos_factors)
    blocks = (
        [(3, pose(f.pose_index)) for f in sorted(g.prior_factors, key=lambda f: f.pose_index)]
        + [
            (3, pose(f.pose_index) + pose(f.pose_index + 1))
            for f in sorted(g.odometry_factors, key=lambda f: f.pose_index)
        ]
        + [(4, pose(d.pose_index) + quad(d.landmark_id)) for d in dets]
        + [(3, pose(z.pose_index) + quad(z.landmark_id)) for z in zs]
    )
    assert g.prior_factors and g.odometry_factors and dets and zs
    row = 0
    for dim, cols in blocks:
        for k in range(row, row + dim):
            assert sorted(J.indices[J.indptr[k] : J.indptr[k + 1]]) == cols, k
        row += dim
    assert row == J.shape[0]

    poses = g.pose_array() + rng.normal(0, 1, (n, 3))
    quadrics = g.quadric_array() + rng.normal(0, 1, (len(g.quadrics), 9))
    J2 = ev.jacobian(poses, quadrics)
    assert np.array_equal(J2.indices, J.indices)
    assert np.array_equal(J2.indptr, J.indptr)
    assert not np.array_equal(J2.data, J.data)


def einsum_whitened(ev, graph, poses, quadrics):
    """Residual and Jacobian whitened by the full sqrt-information matrices,
    the Jacobian assembled from COO triplets: the evaluator's earlier
    whitening and assembly, applied to its raw linearizations."""
    n = len(graph.poses)

    def by_pair(m):
        return (m.pose_index, m.landmark_id)

    priors = sorted(graph.prior_factors, key=lambda f: f.pose_index)
    odo = sorted(graph.odometry_factors, key=lambda f: f.pose_index)
    bbox = sorted(graph.bbox_factors, key=lambda f: by_pair(f.detection))
    relpos = sorted(graph.relpos_factors, key=lambda f: by_pair(f.measurement))

    def pose(ms, shift=0):
        return 3 * (np.array([m.pose_index for m in ms], dtype=int) + shift)

    def quad(ms):
        return 3 * n + 9 * np.array([m.landmark_id for m in ms], dtype=int)

    dets = [f.detection for f in bbox]
    zs = [f.measurement for f in relpos]
    kinds = [
        (priors, [(pose(priors), 3)]),
        (odo, [(pose(odo), 3), (pose(odo, shift=1), 3)]),
        (bbox, [(pose(dets), 3), (quad(dets), 9)]),
        (relpos, [(pose(zs), 3), (quad(zs), 9)]),
    ]
    residuals, vals, rows, cols = [], [], [], []
    row0 = 0
    for (fs, blocks), (r, Js) in zip(kinds, ev._linearize(poses, quadrics, True)):
        f, d = r.shape
        W = np.array([x.noise.sqrt_info for x in fs]).reshape(f, d, d)
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
        poses = g.pose_array() + rng.normal(0, scale, (len(g.poses), 3))
        quadrics = g.quadric_array() + rng.normal(0, scale, (len(g.quadrics), 9))
        r_ref, J_ref = einsum_whitened(ev, g, poses, quadrics)
        assert np.array_equal(ev.residual(poses, quadrics), r_ref)
        J = ev.jacobian(poses, quadrics)
        assert J.shape == J_ref.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(J, name), getattr(J_ref, name)), name


def test_evaluator_rejects_non_diagonal_noise(rng):
    g = random_graph(rng)
    A = rng.normal(size=(3, 3))
    f = g.odometry_factors[1]
    g.odometry_factors[1] = OdometryFactor(
        f.pose_index, f.measurement, NoiseModel(A @ A.T + 3 * np.eye(3))
    )
    with pytest.raises(ValueError, match="diagonal noise"):
        GraphEvaluator(g)
    # The per-factor functions whiten with the full matrix, as before.
    xi, xn = g.poses[f.pose_index], g.poses[f.pose_index + 1]
    r = g.odometry_factors[1].noise.whiten(odometry_residual(xi, xn, f.measurement))
    assert r.shape == (3,) and np.all(np.isfinite(r))


def test_pose_hessian_block_tridiagonal_without_bbox(rng):
    g = random_graph(rng, n_poses=6, n_quadrics=1)
    g.bbox_factors = []
    g.relpos_factors = []
    g.quadrics = []
    J = graph_jacobian(g).toarray()
    H = J.T @ J
    n = len(g.poses)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                assert not np.any(H[3 * i : 3 * i + 3, 3 * j : 3 * j + 3])


def test_removing_prior_leaves_gauge_nullspace(rng):
    g = random_graph(rng, n_poses=5, n_quadrics=2)
    J = graph_jacobian(g).toarray()
    n_prior_rows = 3 * len(g.prior_factors)
    J_free = J[n_prior_rows:]
    eigs = np.linalg.eigvalsh(J_free.T @ J_free)
    near_zero = np.sum(eigs < 1e-8 * max(eigs.max(), 1.0))
    assert near_zero >= 3
