from __future__ import annotations

import contextlib
import signal
import warnings
from dataclasses import fields, replace
from datetime import timedelta

from hypothesis import HealthCheck, example, given, settings, strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from dqslam import solver
from dqslam.config import ConfigError
from dqslam.factors import FactorGraph
from dqslam.geometry import CameraIntrinsics, left_facing_mount
from dqslam.pipeline import build_graph, run_trial
from dqslam.simulator import SensorConfig, WorldConfig, generate_dataset
from dqslam.solver import (
    LinearSolveError,
    SolveReport,
    SolverConfig,
    linear_step,
    normal_equations,
    solve,
)
from conftest import pose_rows
from oracle import graph_residual, ground_truth_graph


K = CameraIntrinsics(1500, 1500, 640, 512, 1280, 1024)


def priors_only_graph(rng, n_poses=4, priors_per_pose=3):
    """Affine residuals only: a genuinely linear least-squares problem."""
    poses = pose_rows(rng.normal(0, 0.5, (n_poses, 3)))
    anchors, sigmas = [], []
    for _ in range(n_poses * priors_per_pose):
        anchors.append(pose_rows(rng.normal(0, 0.5, 3)))
        sigmas.append(rng.uniform(0.1, 1.0, 3))
    return FactorGraph(
        poses=poses,
        quadrics=np.zeros((0, 9)),
        intrinsics=K,
        mount=left_facing_mount(),
        prior_index=np.repeat(np.arange(n_poses), priors_per_pose),
        prior_anchor=np.array(anchors),
        prior_sigma=np.array(sigmas),
    )


# -- linear_step ---------------------------------------------------------------

def test_linear_step_gauss_newton_matches_pseudoinverse(rng):
    for _ in range(10):
        m, n = 40, 17
        J = rng.normal(size=(m, n))
        r = rng.normal(size=m)
        delta = linear_step(*normal_equations(sp.csr_matrix(J), r), lam=0.0)
        expected = -np.linalg.pinv(J) @ r
        assert np.allclose(delta, expected, atol=1e-10)


def test_linear_step_damping_shrinks_step(rng):
    J = rng.normal(size=(30, 10))
    r = rng.normal(size=30)
    JtJ, g = normal_equations(sp.csr_matrix(J), r)
    norms = [np.linalg.norm(linear_step(JtJ, g, lam)) for lam in (0, 1, 1e2, 1e4, 1e8)]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-6 * norms[0]


def test_linear_step_zero_residual(rng):
    J = rng.normal(size=(20, 6))
    delta = linear_step(*normal_equations(sp.csr_matrix(J), np.zeros(20)), lam=0.1)
    assert np.allclose(delta, 0)


def test_linear_step_singular_raises(rng):
    J = np.zeros((10, 4))
    J[:, 0] = rng.normal(size=10)  # three unconstrained columns
    with pytest.raises(LinearSolveError):
        linear_step(*normal_equations(sp.csr_matrix(J), rng.normal(size=10)), lam=0.0)


def damped_matrix(monkeypatch, JtJ, lam):
    """The matrix linear_step hands to splu (which is not run)."""
    seen = []

    class NoFactor:
        def solve(self, b):
            return np.zeros_like(b)

    def splu(M, *args, **kwargs):
        seen.append(M)
        return NoFactor()

    with monkeypatch.context() as m:
        m.setattr(scipy.sparse.linalg, "splu", splu)
        linear_step(JtJ, np.zeros(JtJ.shape[0]), lam)
    (M,) = seen
    return M


def reference_damped(JtJ, lam):
    """The damped matrix as built by adding a diagonal matrix, put in the
    canonical form that splu sorts its input into before factoring."""
    M = JtJ + sp.diags(lam * JtJ.diagonal(), format="csc")
    M.sum_duplicates()
    return M


def assert_same_csc(A, B):
    assert A.format == B.format == "csc"
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, name), getattr(B, name)), name


def test_linear_step_damped_matrix_matches_diagonal_sum(rng, monkeypatch):
    J = rng.normal(size=(30, 12)) * (rng.uniform(size=(30, 12)) < 0.4)
    J[:, 5] = 0.0  # an unconstrained variable: no diagonal entry to damp
    JtJ, _ = normal_equations(sp.csr_matrix(J), np.zeros(30))
    assert JtJ.has_sorted_indices and JtJ.has_canonical_format
    assert np.all(JtJ.data != 0)
    before = JtJ.copy()
    for lam in (0.0, 1e-4, 1.0, 1e12):
        # Canonical input: the sum itself, no sorting needed.
        M = damped_matrix(monkeypatch, JtJ, lam)
        assert_same_csc(M, JtJ + sp.diags(lam * JtJ.diagonal(), format="csc"))
        assert_same_csc(M, reference_damped(JtJ, lam))
    assert_same_csc(JtJ, before)  # damping works on a copy


def test_linear_step_missing_diagonal_raises(rng):
    J = rng.normal(size=(10, 4))
    J[:, 2] = 0.0  # column 2 of J^T J stores nothing, so damping adds nothing
    JtJ, g = normal_equations(sp.csr_matrix(J), rng.normal(size=10))
    assert JtJ.indptr[3] == JtJ.indptr[2]
    for lam in (0.0, 1e-4, 1e4):
        with pytest.raises(LinearSolveError):
            linear_step(JtJ, g, lam)


def test_linear_step_rejects_negative_damping(rng):
    with pytest.raises(ValueError):
        linear_step(*normal_equations(sp.csr_matrix(rng.normal(size=(5, 2))), rng.normal(size=5)), lam=-1.0)


def test_linear_step_takes_any_sparse_form_and_leaves_it_unchanged(rng):
    # The damped matrix is built on linear_step's own copy, so unsorted,
    # duplicate-entry and CSR input each give the step of their canonical
    # form, bit for bit, and keep their arrays as they were.
    J = rng.normal(size=(30, 12)) * (rng.uniform(size=(30, 12)) < 0.5)
    J[np.arange(12), np.arange(12)] = 1.0  # full column rank
    JtJ, g = normal_equations(sp.csr_matrix(J), rng.normal(size=30))
    columns = [np.arange(a, b) for a, b in zip(JtJ.indptr[:-1], JtJ.indptr[1:])]
    reversed_rows = np.concatenate([c[::-1] for c in columns])
    unsorted = sp.csc_matrix((JtJ.data[reversed_rows], JtJ.indices[reversed_rows],
                              JtJ.indptr.copy()), shape=JtJ.shape)
    # Each entry stored twice, as two exact halves.
    duplicated = sp.csc_matrix((np.repeat(JtJ.data / 2, 2), np.repeat(JtJ.indices, 2),
                                2 * JtJ.indptr), shape=JtJ.shape)
    assert not unsorted.has_canonical_format and not duplicated.has_canonical_format
    for M in (unsorted, duplicated, JtJ.tocsr()):
        before = [getattr(M, name).copy() for name in ("data", "indices", "indptr")]
        for lam in (0.0, 1e-4, 1.0, 1e6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                step = linear_step(M, g, lam)
            assert np.array_equal(step, linear_step(JtJ, g, lam))
        for name, array in zip(("data", "indices", "indptr"), before):
            assert np.array_equal(getattr(M, name), array), name


# -- linear_step in real solves ----------------------------------------------

@pytest.fixture
def splu_orders(monkeypatch):
    """The column order each splu call is asked for: None for the default
    (COLAMD)."""
    specs = []
    real = scipy.sparse.linalg.splu

    def splu(A, permc_spec=None, *args, **kwargs):
        specs.append(permc_spec)
        return real(A, permc_spec, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    return specs


@pytest.mark.parametrize("seed, world, mode", [
    (0, {}, "monocular"),
    (3, {"n_landmarks": 40}, "monocular"),
])
def test_linear_step_factors_once_per_trial_in_real_solves(seed, world, mode, splu_orders):
    ds = generate_dataset(WorldConfig(seed=seed, **world), SensorConfig())
    _, report = solve(build_graph(ds, mode=mode))
    assert report.linear_solves >= report.iterations > 0
    # One factorization per lambda trial, in SuperLU's default order.
    assert splu_orders == [None] * report.linear_solves


def test_linear_step_singular_and_non_finite_raise(splu_orders):
    def dense(a, b, c):
        return sp.csc_matrix(np.array([[a, b], [b, c]]))

    # Damped by lam = 0.5 this is [[1.5, 1.5], [1.5, 1.5]]: exactly singular.
    singular = dense(1.0, 1.5, 1.0)
    # Tiny but normal values against a huge gradient: the step overflows.
    overflowing = dense(2e-300, 1e-300, 2e-300)
    for JtJ, g in ((singular, np.ones(2)), (overflowing, np.full(2, 1e300))):
        start = len(splu_orders)
        with pytest.raises(LinearSolveError):
            linear_step(JtJ, g, 0.5)
        assert splu_orders[start:] == [None]  # factored once


# -- solve ---------------------------------------------------------------------

def test_solve_linear_problem_one_iteration(rng):
    g = priors_only_graph(rng)
    solved, report = solve(g, SolverConfig(initial_lambda=0.0))
    assert report.iterations <= 2

    # dense oracle: whitened linear least squares on the stacked system
    from dqslam.factors import GraphEvaluator

    ev = GraphEvaluator(g)
    J = ev.jacobian(g.poses, g.quadrics).toarray()
    r = ev.residual(g.poses, g.quadrics)
    x0 = np.concatenate([g.poses.ravel(), g.quadrics.ravel()])
    x_opt = x0 - np.linalg.pinv(J) @ r
    x_solved = np.concatenate([solved.poses.ravel(), solved.quadrics.ravel()])
    assert np.allclose(x_solved, x_opt, atol=1e-10)


def test_solve_at_ground_truth_converges_immediately(zero_noise_sensor):
    ds = generate_dataset(WorldConfig(seed=2, landmark_shape="sphere", n_landmarks=3), zero_noise_sensor)
    g = ground_truth_graph(build_graph(ds, mode="with-relpos"), ds)
    solved, report = solve(g)
    assert report.iterations <= 2
    assert report.final_cost < 1e-10
    assert report.converged


def test_solve_zero_noise_recovery(zero_noise_sensor):
    ds = generate_dataset(WorldConfig(seed=2, landmark_shape="sphere"), zero_noise_sensor)
    for mode in ("monocular", "with-relpos"):
        run = run_trial(ds, mode=mode)
        assert run.report.converged
        assert run.result.rmse_pos_slam < 1e-3
        assert run.result.rmse_lm < 5e-2


def test_solve_monotone_and_reported_costs(rng):
    ds = generate_dataset(WorldConfig(seed=4, n_landmarks=4, trajectory_length=65.0, n_loops=1),
                          __import__("dqslam.simulator", fromlist=["SensorConfig"]).SensorConfig())
    g = build_graph(ds, mode="monocular")
    _, cost0 = graph_residual(g)
    costs = []
    for k in (1, 2, 4, 8, 16):
        _, report = solve(g, SolverConfig(max_iterations=k))
        assert report.initial_cost == pytest.approx(cost0, rel=1e-12)
        assert report.final_cost <= report.initial_cost
        costs.append(report.final_cost)
    # accepted-step cost sequence is monotone in the iteration budget
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_solve_deterministic(zero_noise_sensor):
    ds = generate_dataset(WorldConfig(seed=6, n_landmarks=3, landmark_shape="sphere"), zero_noise_sensor)
    g = build_graph(ds, mode="monocular")
    s1, r1 = solve(g)
    s2, r2 = solve(g)
    assert r1 == r2
    assert np.array_equal(s1.poses, s2.poses)
    assert np.array_equal(s1.quadrics, s2.quadrics)


def test_solve_gradient_at_grad_tol_termination(rng):
    g = priors_only_graph(rng)
    cfg = SolverConfig(grad_tol=1e-8)
    solved, report = solve(g, cfg)
    if report.termination_reason == "grad-tol":
        from dqslam.factors import GraphEvaluator

        ev = GraphEvaluator(solved)
        J = ev.jacobian(solved.poses, solved.quadrics)
        r = ev.residual(solved.poses, solved.quadrics)
        assert np.abs(J.T @ r).max() < cfg.grad_tol


def test_solve_zero_initial_lambda_recovers_from_a_rejected_step(monkeypatch):
    # A rejected step at lam = 0 cannot be damped by escalating lam; the
    # solve restarts the damping at a fixed value instead of stalling.
    ds = generate_dataset(WorldConfig(seed=2), SensorConfig())
    real = solver.linear_step
    lams = []

    def counted(JtJ, g, lam):
        lams.append(lam)
        return real(JtJ, g, lam)

    monkeypatch.setattr(solver, "linear_step", counted)
    cfg = SolverConfig(initial_lambda=0.0, max_iterations=5)
    _, report = solve(build_graph(ds, mode="monocular"), cfg)
    assert report.termination_reason != "stalled"
    assert report.iterations > 1
    assert report.final_cost < report.initial_cost
    assert report.linear_solves == len(lams)
    assert lams[0] == 0.0 and max(lams) > 0.0


def test_solve_skips_damping_too_small_to_change_the_system(monkeypatch):
    # With a vanishing lambda_down, lambda falls far below the range where
    # damping changes any diagonal entry; each rejected step then climbs
    # back by lambda_up. Skipping the solves of that range must leave every
    # accepted step and the report, but for the solve count, as they are.
    ds = generate_dataset(WorldConfig(seed=2), SensorConfig())
    graph = build_graph(ds, mode="monocular")
    cfg = SolverConfig(lambda_down=1e-300, max_iterations=5)
    fast_graph, fast = solve(graph, cfg)
    monkeypatch.setattr(solver, "_LAMBDA_NOOP", 0.0)
    slow_graph, slow = solve(graph, cfg)
    assert replace(fast, linear_solves=0) == replace(slow, linear_solves=0)
    assert fast_graph.poses.tobytes() == slow_graph.poses.tobytes()
    assert fast_graph.quadrics.tobytes() == slow_graph.quadrics.tobytes()
    assert 10 * fast.linear_solves < slow.linear_solves


@pytest.mark.parametrize("mode", ["monocular", "with-relpos"])
def test_solve_heavy_damping_is_not_convergence(mode):
    # A step damped far beyond the curvature is short, and drops the cost by
    # a tiny fraction however far the optimum is: at lambda = 1e12 the first
    # step's drop falls below the convergence tests, which must not end the
    # solve as converged at its initial cost.
    graph = build_graph(generate_dataset(WorldConfig(seed=0), SensorConfig()), mode=mode)
    _, report = solve(graph, SolverConfig(initial_lambda=1e12))
    assert report.converged
    assert report.final_cost < 1e-4 * report.initial_cost
    # Heavier initial damping than the stall ceiling is refused up front.
    with pytest.raises(ConfigError, match="initial_lambda"):
        SolverConfig(initial_lambda=1e20)


def test_solve_stalls_on_unconstrained_variable(rng):
    g = priors_only_graph(rng, n_poses=2)
    g.quadrics = np.zeros((1, 9))  # no factor touches it
    solved, report = solve(g)
    assert report.termination_reason == "stalled"
    assert not report.converged


def _accepted(name):
    """Floats up to 1e300 that SolverConfig's declared bounds on `name` accept."""
    meta = next(f.metadata for f in fields(SolverConfig) if f.name == name)
    low = meta["gt"] if meta["ge"] is None else meta["ge"]
    high = meta["lt"] if meta["le"] is None else meta["le"]
    return st.floats(low, 1e300 if high is None else high,
                     exclude_min=meta["ge"] is None, exclude_max=meta["lt"] is not None)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, rather than hang, on work that runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=25, derandomize=True, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.builds(SolverConfig, max_iterations=st.integers(1, 5),
                        **{name: _accepted(name) for name in (
                            "initial_lambda", "lambda_up", "lambda_down")}),
       mode=st.sampled_from(["monocular", "with-relpos"]))
@example(config=SolverConfig(max_iterations=5, initial_lambda=0.0, lambda_up=2.0,
                             lambda_down=1e-300), mode="monocular")
@example(config=SolverConfig(max_iterations=5, initial_lambda=1e-300, lambda_up=2.0,
                             lambda_down=np.nextafter(1.0, 0.0)), mode="monocular")
@example(config=SolverConfig(max_iterations=5, initial_lambda=0.0, lambda_up=1e300,
                             lambda_down=1e-300), mode="with-relpos")
def test_solve_work_is_bounded_for_every_accepted_config(config, mode, small_world):
    # At least a doubling per rejected step: lambda climbs from the smallest
    # float past the no-op floor in ~1020 multiplications, and from there
    # past the stall ceiling in 95 solves, so an iteration makes at most 96.
    graph = build_graph(generate_dataset(small_world, SensorConfig()), mode=mode)
    with time_limit(20):
        _, report = solve(graph, config)
    assert report.termination_reason in ("cost-tol", "grad-tol", "max-iters", "stalled")
    assert np.isfinite(report.final_cost)
    assert report.final_cost <= report.initial_cost
    assert report.linear_solves <= 96 * config.max_iterations


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(lambda_up=0.5)
    with pytest.raises(ValueError):
        SolverConfig(lambda_up=1.5)
    assert SolverConfig(lambda_up=2.0).lambda_up == 2.0
    with pytest.raises(ValueError):
        SolverConfig(lambda_down=1.5)
    with pytest.raises(ValueError):
        SolverConfig(initial_lambda=-1.0)
    assert SolverConfig(initial_lambda=0.0).initial_lambda == 0.0
    # No heavier than the damping at which a solve stalls.
    assert SolverConfig(initial_lambda=1e12).initial_lambda == 1e12
    with pytest.raises(ValueError, match="initial_lambda"):
        SolverConfig(initial_lambda=np.nextafter(1e12, np.inf))


def test_solve_report_fields():
    r = SolveReport(3, 10.0, 1.0, "cost-tol")
    assert r.final_cost <= r.initial_cost
    assert r.linear_solves == 0
    # `converged` follows the termination reason; it cannot be set apart from it.
    for reason, converged in [("cost-tol", True), ("grad-tol", True),
                              ("max-iters", False), ("stalled", False)]:
        assert SolveReport(3, 10.0, 1.0, reason).converged is converged
