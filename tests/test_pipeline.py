from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from dqslam.pipeline import GraphNoiseConfig, build_graph, run_trial
from dqslam.simulator import SensorConfig, generate_dataset
from oracle import graph_residual, ground_truth_graph


@pytest.fixture
def sphere_dataset(small_world, zero_noise_sensor):
    return generate_dataset(replace(small_world, landmark_shape="sphere"), zero_noise_sensor)


def test_build_graph_factor_counts(sphere_dataset):
    ds = sphere_dataset
    g = build_graph(ds, mode="monocular")
    assert g.prior_index.tolist() == [0]
    assert g.odometry_index.tolist() == list(range(len(ds.odometry)))
    # The dataset's measurement columns pass into the graph as they are.
    assert g.odometry is ds.odometry
    assert g.bbox is ds.detections
    assert len(g.relpos) == 0 and g.relpos_sigma.shape == (0, 3)
    g2 = build_graph(ds, mode="with-relpos")
    assert g2.relpos is ds.relative_positions


def test_build_graph_turn_noise_models(sphere_dataset):
    noise = GraphNoiseConfig(
        prior_sigma=1e-5, odo_sigma_xy=0.03, odo_sigma_theta=0.04, odo_sigma_theta_turn=0.2,
        bbox_line_sigma=2e5, relpos_sigma=0.3,
    )
    g = build_graph(sphere_dataset, mode="with-relpos", noise=noise)
    turn = sphere_dataset.turn
    assert turn.any() and not turn.all()
    expected_odometry = np.where(turn[:, None], [0.03, 0.03, 0.2], [0.03, 0.03, 0.04])
    assert np.array_equal(g.odometry_sigma, expected_odometry)
    assert np.array_equal(g.prior_sigma, [[1e-5] * 3])
    assert np.array_equal(g.bbox_sigma, np.full((len(g.bbox), 4), 2e5))
    assert np.array_equal(g.relpos_sigma, np.full((len(g.relpos), 3), 0.3))


def test_build_graph_rejects_unknown_mode(sphere_dataset):
    with pytest.raises(ValueError):
        build_graph(sphere_dataset, mode="stereo")


def test_ground_truth_cost_oracle(sphere_dataset):
    for mode in ("monocular", "with-relpos"):
        g = ground_truth_graph(build_graph(sphere_dataset, mode=mode), sphere_dataset)
        _, cost = graph_residual(g)
        assert cost < 1e-10


def test_run_trial_noise_free_recovery(sphere_dataset):
    for mode in ("monocular", "with-relpos"):
        run = run_trial(sphere_dataset, mode=mode)
        assert run.report.converged
        assert run.result.rmse_pos_slam < 1e-3
        assert run.result.rmse_lm < 5e-2
        assert run.result.mode == mode
        assert run.result.seed == sphere_dataset.seed


def test_run_trial_init_error_reported(small_world):
    ds = generate_dataset(small_world, SensorConfig())
    run = run_trial(ds, mode="monocular")
    # odometry-chained initialization drifts visibly under noise
    assert run.result.rmse_pos_init > 0.1
    assert run.result.rmse_pos_slam < run.result.rmse_pos_init


def test_noise_config_validation():
    with pytest.raises(ValueError):
        GraphNoiseConfig(bbox_line_sigma=0.0)
    with pytest.raises(ValueError):
        GraphNoiseConfig(prior_sigma=-1.0)
