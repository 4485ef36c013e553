"""The trial record, its trajectory, landmark-centroid and volume error
metrics, and cross-trial aggregation.

`TrialResult` is the per-trial record; its fields, in order, are the
columns of `results.csv`. The position and centroid errors are mean
Euclidean distances (the square root sits inside the sum). Volumes compare
the cube of the smallest semi-axis of the estimated quadric against the
true cube volume; estimates whose shape matrix is not ellipsoidal are
left out of the volume error and counted in `volume_invalid_count`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import QUADRIC_CENTROID, quadric_matrices

__all__ = [
    "TrialResult",
    "rmse_pos",
    "rmse_lm",
    "quadric_volume_cube",
    "rmse_volume",
    "aggregate",
    "format_table",
    "MODES",
    "METRICS",
]

MODES = ("monocular", "with-relpos")

# The trial's error metrics in order, TrialResult field: (table label, width).
METRICS = {"rmse_pos_init": ("init pos", 12), "rmse_pos_slam": ("slam pos", 12),
           "rmse_lm": ("lm", 9), "rmse_volume": ("vol", 9)}


@dataclass(frozen=True)
class TrialResult:
    """Per-trial metric record; its fields, in order, are the columns of
    `results.csv`."""

    seed: int
    mode: str
    rmse_pos_init: float
    rmse_pos_slam: float
    rmse_lm: float
    rmse_volume: float  # nan when every landmark estimate is non-ellipsoidal
    volume_invalid_count: int  # landmark estimates that are not ellipsoids
    iterations: int
    final_cost: float


def rmse_pos(est, gt) -> float:
    """Mean planar distance between estimated and true robot positions,
    both (n, 3) pose rows (x, y, theta)."""
    if len(est) != len(gt):
        raise ValueError(f"trajectory length mismatch: {len(est)} vs {len(gt)}")
    d = est[:, :2] - gt[:, :2]
    dist = np.hypot(d[:, 0], d[:, 1])
    return float(np.mean(dist))


def rmse_lm(est, centers) -> float:
    """Mean distance between estimated quadric centroids, (m, 9) parameter
    rows, and true cube centers (m, 3): row j of each is landmark j."""
    if len(est) != len(centers):
        raise ValueError(f"landmark count mismatch: {len(est)} estimates, "
                         f"{len(centers)} landmarks")
    # Per row: norm(axis=1) differs from the 1-D norm in the last bit.
    dist = np.array(
        [np.linalg.norm(q[QUADRIC_CENTROID] - c) for q, c in zip(est, centers)]
    )
    return float(np.mean(dist))


def quadric_volume_cube(q):
    """Cube volume assigned to a quadric, a (9,) parameter row: (smallest
    semi-axis)^3.

    The quadric is translated to its centroid; the eigenvalues of the
    centered shape block (negated at the fixed (4,4)=1 scale) are the
    squared semi-axes. Returns None when they are not all positive, i.e.
    the estimate is not an ellipsoid.
    """
    Q = quadric_matrices(q)
    c = q[QUADRIC_CENTROID]
    H = np.eye(4)
    H[:3, 3] = -c
    Qc = H @ Q @ H.T
    block = Qc[:3, :3] / Qc[3, 3]
    semi_sq = -np.linalg.eigvalsh(block)
    if np.any(semi_sq <= 0):
        return None
    return float(np.min(np.sqrt(semi_sq)) ** 3)


def rmse_volume(est, sides) -> tuple[float, int]:
    """Mean absolute volume error over the ellipsoidal estimates, (m, 9)
    parameter rows, against the true cube sides (m,): row j of each is
    landmark j. Each estimate's volume is computed once.

    Returns (error, number of estimates that are not ellipsoids); the
    error is nan when no estimate is an ellipsoid.

    Raises:
        ValueError: if the counts differ.
    """
    if len(est) != len(sides):
        raise ValueError(f"landmark count mismatch: {len(est)} estimates, "
                         f"{len(sides)} landmarks")
    errors = []
    for q, side in zip(est, sides.tolist()):
        vol = quadric_volume_cube(q)
        if vol is not None:
            errors.append(abs(vol - side ** 3))
    error = float(np.mean(errors)) if errors else float("nan")
    return error, len(est) - len(errors)


def aggregate(results) -> dict:
    """Average and median of every metric, per mode.

    Returns a nested dict summary[mode][metric] = {"avg": .., "med": ..};
    trials whose volume error is undefined are excluded from the volume
    statistics, with summary[mode]["rmse_volume"]["n_excluded"] reporting
    the count. summary[mode]["volume_invalid_landmarks"] totals the trials'
    non-ellipsoid estimates.
    """
    results = list(results)
    if not results:
        raise ValueError("no trial results to aggregate")
    summary: dict = {}
    for mode in sorted({r.mode for r in results}):
        rows = [r for r in results if r.mode == mode]
        entry: dict = {}
        for metric in METRICS:
            values = np.array([getattr(r, metric) for r in rows])
            finite = values[np.isfinite(values)]
            stats = {
                "avg": float(np.mean(finite)) if finite.size else float("nan"),
                "med": float(np.median(finite)) if finite.size else float("nan"),
            }
            if metric == "rmse_volume":
                stats["n_excluded"] = int(values.size - finite.size)
            entry[metric] = stats
        entry["volume_invalid_landmarks"] = int(
            sum(r.volume_invalid_count for r in rows)
        )
        entry["n_trials"] = len(rows)
        summary[mode] = entry
    return summary


def format_table(summary: dict) -> str:
    """Render the aggregate summary as a fixed-width text table."""
    header = f"{'mode':<14}" + "".join(
        f" {label + ' avg':>{width}} {label + ' med':>{width}}"
        for label, width in METRICS.values()
    )
    lines = [header, "-" * len(header)]
    for mode, entry in summary.items():
        lines.append(f"{mode:<14}" + "".join(
            f" {entry[name]['avg']:>{width}.3f} {entry[name]['med']:>{width}.3f}"
            for name, (_, width) in METRICS.items()
        ))
    return "\n".join(lines)
