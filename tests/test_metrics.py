from __future__ import annotations

import numpy as np
import pytest

from dqslam.geometry import (
    QUADRIC_CENTROID,
    DualQuadric,
    ellipsoid_to_dual_quadric,
    vector_from_quadric,
)
from dqslam.metrics import (
    TrialResult,
    aggregate,
    format_table,
    quadric_volume_cube,
    rmse_lm,
    rmse_pos,
    rmse_volume,
)


def rows(quadrics):
    """(m, 9) parameter rows of DualQuadric estimates."""
    return np.array([q.q for q in quadrics]).reshape(-1, 9)


def trial(mode, seed=0, pos_init=1.0, pos=0.5, lm=0.3, vol=0.1, invalid=0):
    return TrialResult(
        seed=seed,
        mode=mode,
        rmse_pos_init=pos_init,
        rmse_pos_slam=pos,
        rmse_lm=lm,
        rmse_volume=vol,
        volume_invalid_count=invalid,
        iterations=5,
        final_cost=1.0,
    )


# -- rmse_pos -------------------------------------------------------------------

def test_rmse_pos_exact_zero():
    poses = np.array([[1, 2, 0.3], [-1, 0, 1.0]])
    assert rmse_pos(poses, poses) == 0.0


def test_rmse_pos_345():
    assert rmse_pos(np.array([[3.0, 4, 0]]), np.zeros((1, 3))) == pytest.approx(5.0)


def test_rmse_pos_is_mean_distance():
    est = np.array([[1.0, 0, 0], [3, 0, 0]])
    gt = np.zeros((2, 3))
    assert rmse_pos(est, gt) == pytest.approx(2.0)  # mean of {1, 3}


def test_rmse_pos_ignores_heading():
    est = np.array([[0, 0, 1.0]])
    gt = np.array([[0, 0, -1.0]])
    assert rmse_pos(est, gt) == 0.0


def test_rmse_pos_length_mismatch():
    with pytest.raises(ValueError):
        rmse_pos(np.zeros((1, 3)), np.zeros((0, 3)))


def test_rmse_pos_translation_invariant_error(rng):
    est = rng.normal(0, 3, (8, 3))
    gt = rng.normal(0, 3, (8, 3))
    shift = np.append(rng.normal(0, 10, 2), 0.0)
    est_shift = est + shift
    gt_shift = gt + shift
    assert rmse_pos(est_shift, gt_shift) == pytest.approx(rmse_pos(est, gt), rel=1e-12)


# -- rmse_lm --------------------------------------------------------------------

def test_rmse_lm_exact_and_mean():
    centers = np.array([[j, 0.0, 0.0] for j in range(10)])
    est = rows(ellipsoid_to_dual_quadric([j, 0, 0], [0.25] * 3) for j in range(10))
    assert rmse_lm(est, centers) == pytest.approx(0.0, abs=1e-12)
    est[3] = ellipsoid_to_dual_quadric([3, 0, 1.0], [0.25] * 3).q  # off by 1 m
    assert rmse_lm(est, centers) == pytest.approx(0.1)


def test_rmse_lm_centroid_consistency(rng):
    centers = np.array([[0.5, -1, 0.2]])
    q = DualQuadric(rng.normal(size=9))
    expected = np.linalg.norm(q.q[QUADRIC_CENTROID] - centers[0])
    assert rmse_lm(rows([q]), centers) == pytest.approx(expected)


def test_rmse_lm_id_mismatch():
    # Landmark 1 has no estimate.
    with pytest.raises(ValueError):
        rmse_lm(rows([DualQuadric.identity()]), np.zeros((2, 3)))


# -- volumes ---------------------------------------------------------------------

def test_quadric_volume_unit_sphere():
    q = ellipsoid_to_dual_quadric([1, 2, 3], [1, 1, 1])
    assert quadric_volume_cube(q.q) == pytest.approx(1.0)


def test_quadric_volume_smallest_axis_cubed():
    q = ellipsoid_to_dual_quadric([0, 0, 0], [0.5, 0.3, 0.9])
    assert quadric_volume_cube(q.q) == pytest.approx(0.027)


def test_quadric_volume_rotation_invariant(rng):
    axes = np.array([0.7, 0.4, 1.1])
    for _ in range(5):
        A, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(A) < 0:
            A[:, 0] = -A[:, 0]
        q = ellipsoid_to_dual_quadric(rng.normal(size=3), axes, A)
        assert quadric_volume_cube(q.q) == pytest.approx(0.4**3, rel=1e-9)


def test_quadric_volume_non_ellipsoid_flagged():
    # hyperboloid-like: mixed-sign shape eigenvalues
    Q = np.diag([-1.0, -1.0, 1.0, 1.0])
    q = DualQuadric(vector_from_quadric(Q))
    assert quadric_volume_cube(q.q) is None


def test_rmse_volume_exact_inscribed_mismatch():
    sides = [0.4, 0.6, 1.0]
    est = rows(ellipsoid_to_dual_quadric([j, 0, 0], [s / 2] * 3) for j, s in enumerate(sides))
    expected = np.mean([abs(s**3 - (s / 2) ** 3) for s in sides])
    error, invalid = rmse_volume(est, np.array(sides))
    assert error == pytest.approx(expected)
    assert invalid == 0


def test_rmse_volume_zero_when_matched():
    est = rows([ellipsoid_to_dual_quadric([0, 0, 0], [1, 1, 1])])  # volume rule gives 1 = side^3
    assert rmse_volume(est, np.array([1.0]))[0] == pytest.approx(0.0)


def test_rmse_volume_all_invalid_is_nan():
    q = DualQuadric(vector_from_quadric(np.diag([-1.0, -1.0, 1.0, 1.0])))
    error, invalid = rmse_volume(rows([q, q, q]), np.array([1.0, 0.5, 2.0]))
    assert np.isnan(error)
    assert invalid == 3


def test_rmse_volume_count_mismatch():
    # Landmark 1 has no estimate.
    with pytest.raises(ValueError, match="landmark count mismatch"):
        rmse_volume(rows([ellipsoid_to_dual_quadric([0, 0, 0], [1, 1, 1])]), np.ones(2))


# -- aggregation ------------------------------------------------------------------

def test_aggregate_single_trial():
    s = aggregate([trial("monocular")])
    entry = s["monocular"]
    for metric in ("rmse_pos_init", "rmse_pos_slam", "rmse_lm", "rmse_volume"):
        assert entry[metric]["avg"] == entry[metric]["med"]
    with pytest.raises(ValueError, match="no trial results"):
        aggregate([])


def test_aggregate_avg_and_median():
    trials = [trial("monocular", seed=i, pos=v) for i, v in enumerate([1.0, 2.0, 3.0, 10.0])]
    s = aggregate(trials)["monocular"]["rmse_pos_slam"]
    assert s["avg"] == pytest.approx(4.0)
    assert s["med"] == pytest.approx(2.5)


def test_aggregate_median_outlier_robust():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    base = aggregate([trial("monocular", seed=i, pos=v) for i, v in enumerate(values)])
    values[-1] = 1e6
    poked = aggregate([trial("monocular", seed=i, pos=v) for i, v in enumerate(values)])
    assert (
        poked["monocular"]["rmse_pos_slam"]["med"]
        == base["monocular"]["rmse_pos_slam"]["med"]
    )


def test_aggregate_excludes_invalid_volumes():
    ok = trial("monocular", seed=0, vol=0.2)
    bad = trial("monocular", seed=1, vol=float("nan"), invalid=10)
    s = aggregate([ok, bad])["monocular"]
    assert s["rmse_volume"]["avg"] == pytest.approx(0.2)
    assert s["rmse_volume"]["n_excluded"] == 1
    assert s["volume_invalid_landmarks"] == 10


def test_aggregate_per_mode():
    s = aggregate([trial("monocular", pos=1.0), trial("with-relpos", pos=0.5, seed=1)])
    assert s["monocular"]["rmse_pos_slam"]["med"] == 1.0
    assert s["with-relpos"]["rmse_pos_slam"]["med"] == 0.5


def test_format_table_mentions_modes():
    s = aggregate([trial("monocular"), trial("with-relpos", seed=1)])
    text = format_table(s)
    assert "monocular" in text and "with-relpos" in text
    # The exact text: one monocular trial has no volume error, and the one
    # with-relpos trial none at all, so its volume columns read nan.
    s = aggregate([
        trial("monocular", pos_init=1.25, pos=0.5, lm=0.375, vol=0.0625),
        trial("monocular", seed=1, pos_init=12.5, pos=1.5, lm=0.125, vol=np.nan, invalid=3),
        trial("with-relpos", pos_init=1.25, pos=0.25, lm=0.5, vol=np.nan, invalid=10),
    ])
    assert format_table(s) == "\n".join([
        "mode           init pos avg init pos med slam pos avg slam pos med"
        "    lm avg    lm med   vol avg   vol med",
        "-" * 106,
        "monocular             6.875        6.875        1.000        1.000"
        "     0.250     0.250     0.062     0.062",
        "with-relpos           1.250        1.250        0.250        0.250"
        "     0.500     0.500       nan       nan",
    ])


def test_volume_invalid_count():
    # Ellipsoids at landmarks 0 and 2, non-ellipsoids at 1 and 3: the error
    # averages over the ellipsoids alone and the count names the other two.
    hyperboloid = DualQuadric(vector_from_quadric(np.diag([-1.0, -1.0, 1.0, 1.0])))
    sides = np.array([1.0, 0.7, 0.4, 0.9])
    est = rows([
        ellipsoid_to_dual_quadric([0, 0, 0], [1, 1, 1]),
        hyperboloid,
        ellipsoid_to_dual_quadric([2, 0, 0], [0.2] * 3),
        hyperboloid,
    ])
    error, invalid = rmse_volume(est, sides)
    assert invalid == 2
    assert error == pytest.approx(np.mean([abs(1.0 - 1.0), abs(0.2**3 - 0.4**3)]))
