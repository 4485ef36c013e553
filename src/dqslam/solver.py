"""Batch Levenberg-Marquardt over a pose/quadric factor graph.

Damped normal equations with diagonal scaling, solved sparsely; accepted
steps never increase the whitened cost. Poses update on the SE(2) tangent
(additive with angle wrap), quadrics additively in their 9-vector.

Each lambda trial builds J^T J + lambda diag(J^T J) on its own copy of
J^T J and factors it once with SuperLU, in its default (COLAMD) column
order. `normal_equations` returns J^T J as canonical CSC only so that
SuperLU has no sort to do on each trial.

After a rejected step, lambda climbs past _LAMBDA_NOOP without a solve:
damping that small leaves the rejected system as it was. lambda_up is at
least 2, so that climb takes at most about 1020 multiplications, and an
iteration at most 96 linear solves.

scipy is imported where a sparse matrix is first built or factored, not
with this module, so that commands that never solve (simulate, the dataset
reader and writer, --help) do not pay its import, about half of the
package's cold start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .config import check_fields, setting
from .factors import FactorGraph, GraphEvaluator
from .geometry import wrap_angles

__all__ = [
    "SolverConfig",
    "SolveReport",
    "LinearSolveError",
    "load_scipy",
    "normal_equations",
    "linear_step",
    "solve",
]

_LAMBDA_MAX = 1e12
# Damping after a step rejected at lambda = 0 (also after lambda underflows
# to 0). Marquardt damping is relative to diag(J^T J), so it needs no scale.
_LAMBDA_RESTART = 1e-4
# Below 2**-55, lam * d is at most a quarter ulp of every diagonal entry d,
# so d + lam * d == d: the damped system is the undamped one.
_LAMBDA_NOOP = 2.0**-55
# Step-stagnation scale: steps this small relative to the variables cannot
# change the cost; treated as cost convergence. Like a tiny cost drop, a
# tiny step counts only at lambda <= 1, damping no larger than the
# curvature it scales: a more heavily damped step is short by
# construction, however far the optimum is.
_STEP_TOL = 1e-14


class LinearSolveError(RuntimeError):
    """The damped normal equations were singular or produced non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = setting(100, gt=0)
    initial_lambda: float = setting(1e-4, ge=0, le=_LAMBDA_MAX)
    lambda_up: float = setting(10.0, ge=2)
    lambda_down: float = setting(0.1, gt=0, lt=1)
    rel_cost_tol: float = setting(1e-8, gt=0)
    grad_tol: float = setting(1e-10, gt=0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    termination_reason: str  # cost-tol | grad-tol | max-iters | stalled
    linear_solves: int = 0  # lambda trials: linear_step calls

    @property
    def converged(self) -> bool:
        return self.termination_reason in ("cost-tol", "grad-tol")


def load_scipy() -> float:
    """Import the scipy modules a solve uses and return the seconds that
    took (next to none once they are loaded). Called ahead of timed work,
    it keeps the import out of the first solve, and a process pool forked
    afterwards inherits the modules."""
    t0 = time.perf_counter()
    import scipy.sparse.linalg  # noqa: F401

    return time.perf_counter() - t0


def normal_equations(J, r: np.ndarray):
    """The Gauss-Newton normal equations of a scipy-sparse Jacobian:
    (J^T J, J^T r). J^T J is canonical CSC (sorted row indices, no
    duplicates), which spares `splu` a sort on each damping trial.
    """
    JtJ = (J.T @ J).tocsc()
    JtJ.sum_duplicates()
    return JtJ, J.T @ r


def linear_step(JtJ, g: np.ndarray, lam: float) -> np.ndarray:
    """One damped Gauss-Newton step: solve (JtJ + lam diag(JtJ)) d = -g.

    JtJ, g are the normal equations, formed once per linearization and
    reused across damping retries; JtJ may be any scipy sparse matrix, and
    is left as it was. lam = 0 gives the plain Gauss-Newton step. The damped
    matrix, `JtJ + sp.diags(lam * JtJ.diagonal())`, is built on a CSC copy
    of JtJ and factored once, in SuperLU's default column order.

    Raises:
        ValueError: negative damping.
        LinearSolveError: singular system or non-finite solution.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if lam < 0:
        raise ValueError("damping must be nonnegative")
    d = JtJ.diagonal()
    M = sp.csc_matrix(JtJ, copy=True)
    M.setdiag(d + lam * d)
    M.eliminate_zeros()  # the zeros setdiag stores where JtJ has no diagonal entry
    try:
        delta = spla.splu(M).solve(-g)
    except RuntimeError as exc:
        raise LinearSolveError(f"damped normal equations not solvable: {exc}") from exc
    if not np.all(np.isfinite(delta)):
        raise LinearSolveError("linear solve produced non-finite update")
    return delta


def _retract(poses: np.ndarray, quadrics: np.ndarray, delta: np.ndarray):
    n = poses.shape[0]
    new_poses = poses + delta[: 3 * n].reshape(n, 3)
    new_poses[:, 2] = wrap_angles(new_poses[:, 2])
    new_quadrics = quadrics + delta[3 * n :].reshape(-1, 9)
    return new_poses, new_quadrics


def solve(graph: FactorGraph, config: SolverConfig | None = None):
    """Minimize the graph's whitened least-squares cost with LM.

    Returns:
        (updated_graph, SolveReport): a copy of the graph carrying the
        optimized variables, and the solve diagnostics.

    Raises:
        ValueError: the cost at the initial values is not finite (inputs
            so extreme that the residual overflows), so no step can be
            measured against it.
    """
    config = config or SolverConfig()
    ev = GraphEvaluator(graph)
    poses = np.array(graph.poses, dtype=float)
    quadrics = np.array(graph.quadrics, dtype=float)

    with np.errstate(over="ignore", invalid="ignore"):
        r = ev.residual(poses, quadrics)
        # Not r @ r: BLAS splits that sum across threads, and its last bit
        # (which the accept test reads) would follow the thread count.
        cost = 0.5 * float(np.sum(r * r))
    if not np.isfinite(cost):
        raise ValueError(
            f"cost at the initial values is not finite ({cost}): the "
            "measurements or the initial estimate overflow the residual"
        )
    initial_cost = cost
    lam = config.initial_lambda
    linear_solves = 0
    iterations = 0
    reason = None

    for _ in range(config.max_iterations):
        JtJ, g = normal_equations(ev.jacobian(poses, quadrics), r)
        # A valid graph has a prior on a pose: g and poses are never empty.
        if np.abs(g).max() < config.grad_tol:
            reason = "grad-tol"
            break

        scale = 1.0 + max(np.abs(poses).max(), np.abs(quadrics).max(initial=0.0))
        escalated = False
        while True:
            linear_solves += 1
            try:
                delta = linear_step(JtJ, g, lam)
            except LinearSolveError:
                reason = "stalled"
                break
            if lam <= 1 and np.abs(delta).max() <= _STEP_TOL * scale:
                reason = "cost-tol"
                break
            cand_poses, cand_quadrics = _retract(poses, quadrics, delta)
            cand_r = ev.residual(cand_poses, cand_quadrics)
            cand_cost = 0.5 * float(np.sum(cand_r * cand_r))
            if np.isfinite(cand_cost) and cand_cost < cost:
                break
            escalated = True
            lam = lam * config.lambda_up if lam > 0 else _LAMBDA_RESTART
            while lam < _LAMBDA_NOOP:
                lam *= config.lambda_up
            if lam > _LAMBDA_MAX:
                reason = "stalled"
                break
        if reason:
            break

        # A tiny drop only signals convergence when the step was taken at
        # the current damping (steps crippled by in-iteration escalation are
        # adaptation) and with lambda <= 1 (see _STEP_TOL).
        small_drop = not escalated and lam <= 1 and (
            cost - cand_cost <= config.rel_cost_tol * max(cand_cost, 1e-300))
        poses, quadrics, r, cost = cand_poses, cand_quadrics, cand_r, cand_cost
        lam *= config.lambda_down
        iterations += 1
        if small_drop:
            reason = "cost-tol"
            break
    else:
        reason = "max-iters"

    report = SolveReport(
        iterations=iterations,
        initial_cost=initial_cost,
        final_cost=cost,
        termination_reason=reason,
        linear_solves=linear_solves,
    )
    return replace(graph, poses=poses, quadrics=quadrics), report
