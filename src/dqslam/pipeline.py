"""End-to-end trial assembly: dataset -> factor graph -> solve -> metrics.

The measurement noise models used by the graph are configuration, separate
from the simulator's data noise. Odometry and relative-position factor
sigmas default to the simulator's (`SensorConfig`'s field defaults). The
bounding-box factor sigma is expressed in tangency-residual units (which
our line normalization fixes); its default was calibrated so that a
one-pixel corner error contributes roughly unit whitened residual at
typical viewing distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_fields, setting
from .factors import FactorGraph
from .initialization import InitStrategy, init_poses, initialize_quadrics
from .metrics import MODES, TrialResult, rmse_lm, rmse_pos, rmse_volume
from .simulator import Dataset, SensorConfig
from .solver import SolveReport, SolverConfig, solve

__all__ = [
    "GraphNoiseConfig",
    "build_graph",
    "run_trial",
    "TrialRun",
]


@dataclass(frozen=True)
class GraphNoiseConfig:
    """Factor noise models (standard deviations).

    prior_sigma anchors the first pose and fixes the gauge; it is kept very
    tight. Odometry sigmas are per component of the SE(2) residual, with a
    separate heading sigma on turn-tagged steps. bbox_line_sigma is the
    per-line tangency-residual sigma; relpos_sigma is per axis in meters.
    """

    prior_sigma: float = setting(1e-6, gt=0)
    odo_sigma_xy: float = setting(SensorConfig.odo_sigma, gt=0)
    odo_sigma_theta: float = setting(SensorConfig.odo_sigma, gt=0)
    odo_sigma_theta_turn: float = setting(SensorConfig.odo_turn_omega_sigma, gt=0)
    bbox_line_sigma: float = setting(1e6, gt=0)
    relpos_sigma: float = setting(SensorConfig.relpos_sigma_m, gt=0)

    def __post_init__(self):
        check_fields(self)


def build_graph(
    dataset: Dataset,
    mode: str = "monocular",
    noise: GraphNoiseConfig | None = None,
    init_strategy: InitStrategy | None = None,
) -> FactorGraph:
    """Assemble the factor graph for one trial.

    Poses are initialized by chaining the (noisy) odometry from the known
    start pose, which also anchors the prior. Quadrics are initialized per
    the strategy (identity by default). The dataset's measurement columns
    pass into the graph as they are, with the noise sigmas filled in; in
    monocular mode its relative-position measurements are left out. The
    graph is not validated here: `solve` validates it before any arithmetic.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    noise = noise or GraphNoiseConfig()
    init_strategy = init_strategy or InitStrategy()

    anchor = dataset.ground_truth_poses[:1].copy()
    poses = init_poses(dataset.odometry, anchor[0])
    intrinsics, mount = dataset.intrinsics(), dataset.mount()
    quadrics, _ = initialize_quadrics(
        dataset.detections,
        poses,
        intrinsics,
        mount,
        range(len(dataset.landmark_sides)),
        init_strategy,
    )

    n_odo = len(dataset.odometry)
    odometry_sigma = np.full((n_odo, 3), noise.odo_sigma_xy)
    odometry_sigma[:, 2] = np.where(
        dataset.turn, noise.odo_sigma_theta_turn, noise.odo_sigma_theta
    )
    relpos = dataset.relative_positions
    if mode == "monocular":
        relpos = relpos[:0]  # no rows
    return FactorGraph(
        poses=poses,
        quadrics=quadrics,
        intrinsics=intrinsics,
        mount=mount,
        prior_index=np.zeros(1, dtype=int),
        prior_anchor=anchor,
        prior_sigma=np.full((1, 3), noise.prior_sigma),
        odometry_index=np.arange(n_odo),
        odometry=dataset.odometry,
        odometry_sigma=odometry_sigma,
        bbox=dataset.detections,
        bbox_sigma=np.full((len(dataset.detections), 4), noise.bbox_line_sigma),
        relpos=relpos,
        relpos_sigma=np.full((len(relpos), 3), noise.relpos_sigma),
    )


@dataclass
class TrialRun:
    """What one trial solve produced: the graph it started from, the solved
    graph, the solver's report and the scored trial record. The dataset and
    mode are the caller's own arguments and are not repeated here."""

    initial_graph: FactorGraph
    solved_graph: FactorGraph
    report: SolveReport
    result: TrialResult


def run_trial(
    dataset: Dataset,
    mode: str = "monocular",
    noise: GraphNoiseConfig | None = None,
    solver_config: SolverConfig | None = None,
    init_strategy: InitStrategy | None = None,
) -> TrialRun:
    """Build, solve and score one trial."""
    graph = build_graph(dataset, mode, noise, init_strategy)
    solved, report = solve(graph, solver_config)

    gt_poses = dataset.ground_truth_poses
    vol_err, vol_invalid = rmse_volume(solved.quadrics, dataset.landmark_sides)
    result = TrialResult(
        seed=dataset.seed,
        mode=mode,
        rmse_pos_init=rmse_pos(graph.poses, gt_poses),
        rmse_pos_slam=rmse_pos(solved.poses, gt_poses),
        rmse_lm=rmse_lm(solved.quadrics, dataset.landmark_centers),
        rmse_volume=vol_err,
        volume_invalid_count=vol_invalid,
        iterations=report.iterations,
        final_cost=report.final_cost,
    )
    return TrialRun(
        initial_graph=graph,
        solved_graph=solved,
        report=report,
        result=result,
    )
