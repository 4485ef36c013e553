"""Acceptance suite: one test per gate criterion, each printing a
PASS/FAIL line (run with -s to see them alongside the pytest dots).

The 50-trial noisy batch is produced once through the CLI (worker pool
width 8) and shared by the trend criteria; the determinism criterion
reruns it at width 1 and compares bytes, and one more test pins those
bytes' SHA-256.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time

import numpy as np
import pytest

from dqslam.cli import main
from dqslam.factors import GraphEvaluator
from dqslam.geometry import (
    CameraIntrinsics,
    ellipsoid_to_dual_quadric,
    project_quadrics,
    projection_matrices,
)
from dqslam.initialization import InitStrategy, init_poses, init_quadric_svd, initialize_quadrics
from dqslam.pipeline import run_trial
from dqslam.simulator import SensorConfig, WorldConfig, generate_dataset
from conftest import ellipsoid_tangent_planes, look_at_extrinsics, unit_sphere_directions


N_TRIALS = 50
BASE_SEED = 0


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {name}: {detail}"


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    """The 50-trial evaluation batch (criterion 2), CLI path, 8 workers."""
    out = tmp_path_factory.mktemp("batch") / "w8"
    t0 = time.perf_counter()
    code = main(
        ["evaluate", "--trials", str(N_TRIALS), "--base-seed", str(BASE_SEED),
         "--out-dir", str(out), "--workers", "8"]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    return out, elapsed


def batch_medians(out_dir):
    rows = list(csv.DictReader(open(out_dir / "results.csv")))
    assert len(rows) == 2 * N_TRIALS
    by_mode = {"monocular": [], "with-relpos": []}
    for r in rows:
        by_mode[r["mode"]].append(r)
    return rows, by_mode


def test_criterion_1_noise_free_recovery():
    sensor = SensorConfig(
        bbox_corner_sigma_px=0.0, odo_sigma=0.0, odo_turn_omega_sigma=0.0,
        relpos_sigma_m=0.0,
    )
    worst_pos, worst_lm, worst_t = 0.0, 0.0, 0.0
    for seed in (3, 11):
        ds = generate_dataset(WorldConfig(seed=seed, landmark_shape="sphere"), sensor)
        for mode in ("monocular", "with-relpos"):
            t0 = time.perf_counter()
            result = run_trial(ds, mode=mode).result
            dt = time.perf_counter() - t0
            worst_pos = max(worst_pos, result.rmse_pos_slam)
            worst_lm = max(worst_lm, result.rmse_lm)
            worst_t = max(worst_t, dt)
    ok = worst_pos < 1e-3 and worst_lm < 5e-2 and worst_t < 30.0
    report(
        "1 (noise-free recovery)",
        ok,
        f"worst RMSE_pos={worst_pos:.2e} m (<1e-3), worst RMSE_LM={worst_lm:.2e} m "
        f"(<5e-2), worst runtime={worst_t:.1f} s (<30)",
    )


@pytest.mark.slow
def test_criterion_2_monocular_trend(batch_dir):
    out, elapsed = batch_dir
    _, by_mode = batch_medians(out)
    mono = by_mode["monocular"]
    med_odo = float(np.median([float(r["rmse_pos_init"]) for r in mono]))
    med_slam = float(np.median([float(r["rmse_pos_slam"]) for r in mono]))
    ok = (med_slam < med_odo) and (2.0 <= med_odo <= 8.1) and elapsed < 15 * 60
    report(
        "2 (monocular trend)",
        ok,
        f"median odometry RMSE_pos={med_odo:.2f} m in [2.0, 8.1], "
        f"median SLAM RMSE_pos={med_slam:.2f} m below it; batch took {elapsed:.0f} s (<900)",
    )


@pytest.mark.slow
def test_criterion_3_relpos_trend(batch_dir):
    out, _ = batch_dir
    _, by_mode = batch_medians(out)
    med = {
        (m, k): float(np.median([float(r[k]) for r in by_mode[m]]))
        for m in by_mode
        for k in ("rmse_pos_slam", "rmse_lm")
    }
    pos_rel = med[("with-relpos", "rmse_pos_slam")]
    pos_mono = med[("monocular", "rmse_pos_slam")]
    lm_rel = med[("with-relpos", "rmse_lm")]
    lm_mono = med[("monocular", "rmse_lm")]
    # paired per-seed comparison (the modes share each seed's dataset)
    mono_by_seed = {r["seed"]: float(r["rmse_pos_slam"]) for r in by_mode["monocular"]}
    rel_by_seed = {r["seed"]: float(r["rmse_pos_slam"]) for r in by_mode["with-relpos"]}
    frac = np.mean([rel_by_seed[s] <= mono_by_seed[s] for s in mono_by_seed])
    ok = pos_rel < pos_mono and lm_rel < lm_mono and frac >= 0.7
    report(
        "3 (relative-position trend)",
        ok,
        f"median RMSE_pos {pos_rel:.2f} < {pos_mono:.2f}, "
        f"median RMSE_LM {lm_rel:.2f} < {lm_mono:.2f} (with-relpos < monocular); "
        f"pairwise with-relpos <= monocular in {frac:.0%} of seeds (>=70%)",
    )


@pytest.mark.slow
def test_criterion_4_outlier_signature(batch_dir):
    out, _ = batch_dir
    _, by_mode = batch_medians(out)
    vals = [float(r["rmse_pos_slam"]) for r in by_mode["monocular"]]
    avg, med = float(np.mean(vals)), float(np.median(vals))
    ok = avg >= med
    report(
        "4 (outlier signature)",
        ok,
        f"monocular SLAM RMSE_pos avg={avg:.2f} >= med={med:.2f}",
    )


def test_criterion_5_jacobian_finite_differences(rng):
    from test_factors import finite_difference_jacobian, random_graph

    h = 1e-6
    worst = 0.0
    for _ in range(100):
        g = random_graph(
            rng,
            n_poses=int(rng.integers(2, 6)),
            n_quadrics=int(rng.integers(1, 3)),
        )
        ev = GraphEvaluator(g)
        P, Q = g.poses, g.quadrics
        J = ev.jacobian(P, Q).toarray()
        Jfd = finite_difference_jacobian(ev, P, Q, h=h)
        err = np.abs(J - Jfd)
        ok_mask = (err < 1e-8) | (err < 1e-5 * np.abs(Jfd))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(err >= 1e-8, err / np.abs(Jfd), 0.0)
        worst = max(worst, float(np.nanmax(rel)))
        if not np.all(ok_mask):
            break
    ok = bool(np.all(ok_mask))
    report(
        "5 (Jacobian vs finite differences)",
        ok,
        f"100 random graphs, h={h}; worst relative error above floor = {worst:.2e} (<1e-5)",
    )


def test_criterion_6_tangency_suite(rng):
    worst_plane = 0.0
    worst_line = 0.0
    # normalized-scale camera so the absolute line tolerance is meaningful
    K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=2)
    for i in range(1000):
        center = rng.normal(0, 2, 3)
        axes = rng.uniform(0.2, 1.5, 3)
        R = random_rotation(rng)
        q = ellipsoid_to_dual_quadric(center, axes, R)
        Q = q.matrix()

        planes = ellipsoid_tangent_planes(center, axes, R, unit_sphere_directions(10, rng))
        planes /= np.linalg.norm(planes[:, :3], axis=1, keepdims=True)
        res = np.einsum("na,ab,nb->n", planes, Q, planes)
        worst_plane = max(worst_plane, float(np.abs(res).max()))

        if i % 10 == 0:  # silhouette lines: a slower construction
            eye = center + rng.uniform(4, 8) * unit_sphere_directions(1, rng)[0]
            E = look_at_extrinsics(eye, center)
            P = projection_matrices(K, E.rotation, E.translation)
            (C,) = project_quadrics(P[None], Q)
            o = np.linalg.solve(np.diag(axes), R.T @ (eye - center))
            on = np.linalg.norm(o)
            e1 = np.array([1.0, 0, 0]) if abs(o[0] / on) < 0.9 else np.array([0, 1.0, 0])
            u = np.cross(o / on, e1)
            u /= np.linalg.norm(u)
            w = np.cross(o / on, u)
            for phi in np.linspace(0, 2 * math.pi, 6, endpoint=False):
                s = o / on**2 + math.sqrt(1 - 1 / on**2) * (
                    math.cos(phi) * u + math.sin(phi) * w
                )
                pi = ellipsoid_tangent_planes(center, axes, R, [s])[0]
                l, *_ = np.linalg.lstsq(P.T, pi, rcond=None)
                l = l / math.hypot(l[0], l[1])
                worst_line = max(worst_line, float(abs(l @ C @ l)))
    ok = worst_plane < 1e-9 and worst_line < 1e-8
    report(
        "6 (tangency invariants)",
        ok,
        f"1000 ellipsoids: max |pi^T Q* pi|={worst_plane:.2e} (<1e-9), "
        f"max |l^T C* l|={worst_line:.2e} (<1e-8)",
    )


def test_criterion_7_svd_initialization():
    from test_initialization import nonplanar_rig

    center = np.array([0.3, -0.2, 0.15])
    gt = ellipsoid_to_dual_quadric(center, (0.4, 0.3, 0.25))
    P, dets = nonplanar_rig(gt, center)
    est = init_quadric_svd(dets, P)
    rig_err = float(np.max(np.abs(est.matrix() - gt.matrix())))

    n_seeds = 20
    n_triggered = n_fell_back = n_landmarks = 0
    for seed in range(n_seeds):
        ds = generate_dataset(WorldConfig(seed=seed), SensorConfig())
        poses = init_poses(ds.odometry, ds.ground_truth_poses[0])
        _, fallback = initialize_quadrics(
            ds.detections, poses, ds.intrinsics(), ds.mount(),
            range(len(ds.landmark_sides)),
            InitStrategy(mode="svd-with-fallback"),
        )
        n_triggered += any(fallback)
        n_fell_back += sum(fallback)
        n_landmarks += len(fallback)
    ok = rig_err < 1e-6 and n_triggered >= 0.9 * n_seeds
    report(
        "7 (SVD initialization)",
        ok,
        f"non-planar rig max entry error={rig_err:.2e} (<1e-6); planar trajectory "
        f"triggered fallback in {n_triggered}/{n_seeds} seeds (>=90%), "
        f"{n_fell_back}/{n_landmarks} landmarks fell back",
    )


def test_criterion_8_projection_analytic():
    P = np.hstack([np.eye(3), np.zeros((3, 1))])
    q = ellipsoid_to_dual_quadric([0, 0, 5], [1, 1, 1])
    (C,) = project_quadrics(P[None], q.matrix())
    radius = math.sqrt(-C[0, 0] / C[2, 2])
    err = abs(radius - 1 / math.sqrt(24))
    ok = err < 1e-10
    report(
        "8 (analytic projection)",
        ok,
        f"unit sphere at depth 5: tangent-circle radius error={err:.2e} (<1e-10)",
    )


@pytest.mark.slow
def test_criterion_9_determinism(batch_dir, tmp_path):
    out8, _ = batch_dir
    out1 = tmp_path / "w1"
    code = main(
        ["evaluate", "--trials", str(N_TRIALS), "--base-seed", str(BASE_SEED),
         "--out-dir", str(out1), "--workers", "1"]
    )
    assert code == 0
    b8 = (out8 / "results.csv").read_bytes()
    b1 = (out1 / "results.csv").read_bytes()
    ok = b8 == b1
    report(
        "9 (determinism)",
        ok,
        f"results.csv byte-identical across worker widths 8 and 1 ({len(b8)} bytes)",
    )


@pytest.mark.slow
def test_batch_results_fingerprint(batch_dir):
    # The north star's behaviour fingerprint: the bytes of the 50-trial
    # batch's results.csv. A change that moves them explains the drift.
    out, _ = batch_dir
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == "45b9840203e373f4c3e645c8321d08c9711ef809a662a15f398a2ad8803ca257"
