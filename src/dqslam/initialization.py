"""Variable initialization: odometry chaining for poses, plane-constraint
SVD fit (with identity fallback) for quadrics.

The SVD fit stacks one linear constraint per observed box line l, obtained
by expanding the tangency equation of its back-projected plane P^T l (P
formed once per pose) against the symmetric quadric matrix. A landmark
keeps the identity when the smallest singular value is not isolated; this
test does not detect planar trajectories, and accepts some of their fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Settings, setting
from .geometry import (
    CameraExtrinsics,
    CameraIntrinsics,
    DualQuadric,
    camera_frames,
    projection_matrices,
    tangency_svd,
    wrap_angles,
)

__all__ = [
    "InsufficientObservationsError",
    "DegenerateSolutionError",
    "InitStrategy",
    "init_poses",
    "fit_dual_quadric",
    "init_quadric_svd",
    "initialize_quadrics",
]

_MODES = ("identity", "svd-with-fallback")


class InsufficientObservationsError(ValueError):
    """Fewer detections than the quadric's degrees of freedom require."""


class DegenerateSolutionError(ValueError):
    """The plane-constraint system does not determine a usable quadric."""


@dataclass(frozen=True)
class InitStrategy(Settings):
    """How to initialize quadric landmarks.

    mode: "identity" for every quadric, or "svd-with-fallback": an SVD fit
    (init_quadric_svd) per landmark, the identity where that fit fails.

    condition_threshold: the SVD solution is accepted only when the ratio
    of the smallest to the second-smallest singular value falls below this,
    i.e. when the nullspace direction is isolated.
    """

    # --mode already selects the factor set, so this is --init.
    mode: str = setting("identity", choices=_MODES, help="quadric initialization strategy",
                        flag="init")
    condition_threshold: float = setting(
        0.1, gt=0, le=1, help="SVD acceptance ratio for the degeneracy test"
    )


def init_poses(odometry, x0) -> np.ndarray:
    """Chain the unicycle model (advance v along the heading, then turn by
    omega) through raw odometry, (n, 2) rows (v, omega), from x0, an (x, y,
    theta) row; returns the (n + 1, 3) pose rows, headings in (-pi, pi].
    A chained heading is wrapped (wrap_angles) only when it leaves that
    interval."""
    x, y, theta = float(x0[0]), float(x0[1]), float(wrap_angles(x0[2]))
    poses = [(x, y, theta)]
    for v, omega in np.asarray(odometry, dtype=float).reshape(-1, 2).tolist():
        x, y, theta = x + v * math.cos(theta), y + v * math.sin(theta), theta + omega
        if not -math.pi < theta <= math.pi:
            theta = float(wrap_angles(theta))
        poses.append((x, y, theta))
    return np.array(poses)


def fit_dual_quadric(
    planes: np.ndarray, condition_threshold: float = InitStrategy.condition_threshold
) -> DualQuadric:
    """Least-squares quadric from tangent planes, via SVD nullspace.

    planes: (n, 4) homogeneous plane rows, whose system tangency_svd
    assembles and decomposes.

    Raises:
        InsufficientObservationsError: fewer than 9 constraint rows.
        DegenerateSolutionError: the smallest singular value is not isolated
            (ratio test fails) or the fixed-scale coefficient vanishes.
    """
    planes = np.asarray(planes, dtype=float).reshape(-1, 4)
    if planes.shape[0] < 9:
        raise InsufficientObservationsError(
            f"{planes.shape[0]} planes constrain at most {planes.shape[0]} of 9 DOF"
        )
    S, Vt = tangency_svd(planes)
    v = Vt[-1]
    if len(S) < 10:  # fewer rows than unknowns: exact nullspace
        S = np.concatenate([S, np.zeros(10 - len(S))])
    ratio = S[-1] / S[-2] if S[-2] > 0 else 1.0
    if ratio >= condition_threshold:
        raise DegenerateSolutionError(
            f"nullspace not isolated (singular-value ratio {ratio:.3g})"
        )
    if abs(v[9]) < 1e-12:
        raise DegenerateSolutionError("fit has (4,4) coefficient ~ 0; scale is lost")
    return DualQuadric(v[:9] / v[9])


def init_quadric_svd(
    detections,
    P: np.ndarray,
    *,
    condition_threshold: float = InitStrategy.condition_threshold,
) -> DualQuadric:
    """SVD initialization of one landmark from its bounding-box detections
    (a Measurements column).

    P: (n, 3, 4) projection matrices, indexed by each detection's pose_index.

    Raises:
        InsufficientObservationsError: fewer than 3 detections (9 planes).
        DegenerateSolutionError: see fit_dual_quadric.
    """
    P = P[detections.pose_index]
    # P^T l per line, in the bits of P.T @ l (einsum and lines @ P differ).
    planes = np.matmul(P.transpose(0, 2, 1)[:, None], detections.values[..., None])
    return fit_dual_quadric(planes, condition_threshold)


def initialize_quadrics(
    detections,
    poses,
    intrinsics: CameraIntrinsics,
    mount: CameraExtrinsics,
    landmark_ids,
    strategy: InitStrategy | None = None,
):
    """Initialize every landmark in landmark_ids per the strategy, from the
    bounding-box detections (a Measurements column) seen from the mounted
    camera at the (n, 3) pose rows.

    Returns:
        (quadrics, used_fallback): (m, 9) parameter rows, one per landmark
        id, and flags marking which of them came from the identity fallback.
    """
    strategy = strategy or InitStrategy()
    landmark_ids = list(landmark_ids)
    quadrics = np.tile(DualQuadric.identity().q, (len(landmark_ids), 1))
    used_fallback = [True] * len(landmark_ids)
    if strategy.mode == "identity":
        return quadrics, used_fallback
    P = projection_matrices(intrinsics, *camera_frames(np.asarray(poses, dtype=float), mount))
    for k, j in enumerate(landmark_ids):
        try:
            quadrics[k] = init_quadric_svd(
                detections[detections.landmark_id == j], P,
                condition_threshold=strategy.condition_threshold,
            ).q
            used_fallback[k] = False
        except (InsufficientObservationsError, DegenerateSolutionError):
            pass
    return quadrics, used_fallback
