"""Linear model, Gaussian sampling, and weight serialization."""

import numpy as np
import pytest

from co_pipeline import scheduling, two_stage
from co_pipeline.model import (
    PerturbationConfig,
    WeightVector,
    load_weights,
    sample_gaussians,
    save_weights,
)


def test_weight_vector_box():
    WeightVector(w=np.array([10.0, -10.0]), box_radius=10.0)
    with pytest.raises(ValueError):
        WeightVector(w=np.array([10.1]), box_radius=10.0)
    with pytest.raises(ValueError):
        WeightVector(w=np.array([0.0]), box_radius=0.0)


def test_perturbation_config_validation():
    PerturbationConfig(sigma=0.0, nsamples=1, seed=0)
    with pytest.raises(ValueError):
        PerturbationConfig(sigma=-0.1, nsamples=1, seed=0)
    with pytest.raises(ValueError):
        PerturbationConfig(sigma=1.0, nsamples=0, seed=0)


def test_pipeline_rejects_weight_dimension_mismatch():
    x = two_stage.generate_instance(2, 5, 1, seed=3)
    with pytest.raises(ValueError):
        two_stage.pipeline_solution(x, WeightVector(np.zeros(3), 1.0))


def test_raw_cost_weights_recover_theta_tilde():
    # picking out the raw first-stage-cost and mean-second-stage-cost
    # columns must reproduce the hand-built baseline parameters
    x = two_stage.generate_instance(3, 15, 4, seed=9)
    w = np.zeros(two_stage.TWO_STAGE_FEATURE_DIM)
    w[1] = 1.0  # first-stage cost column
    w[2] = 1.0  # mean second-stage cost column
    assert np.allclose(two_stage._raw_features(x) @ w, two_stage.theta_tilde(x))


def test_sample_gaussians_deterministic_and_nested():
    cfg5 = PerturbationConfig(sigma=1.0, nsamples=5, seed=42)
    a = sample_gaussians(cfg5, 3)
    b = sample_gaussians(cfg5, 3)
    assert a.shape == (5, 3)
    assert np.array_equal(a, b)
    # prefix nesting: more samples extend, never reshuffle
    cfg9 = PerturbationConfig(sigma=1.0, nsamples=9, seed=42)
    assert np.array_equal(sample_gaussians(cfg9, 3)[:5], a)


def test_sample_gaussians_moments():
    cfg = PerturbationConfig(sigma=1.0, nsamples=100_000, seed=7)
    z = sample_gaussians(cfg, 4)
    # 3 sigma / sqrt(N) band around 0 per coordinate
    assert np.all(np.abs(z.mean(axis=0)) < 0.02)
    # E ||Z||_2 <= sqrt(d), plus sampling slack
    assert np.linalg.norm(z, axis=1).mean() <= np.sqrt(4) + 0.02


def test_features_are_finite_with_one_row_per_decision_on_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(40):
        if rng.random() < 0.5:
            x = two_stage.generate_instance(
                int(rng.integers(2, 5)), int(rng.integers(1, 25)),
                int(rng.integers(1, 5)), seed=int(rng.integers(10_000)),
            )
            phi = two_stage.features(x)
            shape = (2 * x.num_edges, two_stage.TWO_STAGE_FEATURE_DIM)
        else:
            x = scheduling.generate_sched_instance(
                int(rng.integers(1, 15)), float(rng.uniform(0.2, 3.0)),
                seed=int(rng.integers(10_000)),
            )
            phi = scheduling.features(x)
            shape = (x.n, scheduling.SCHED_FEATURE_DIM)
        assert isinstance(phi, np.ndarray) and phi.dtype == float
        assert phi.shape == shape
        assert np.all(np.isfinite(phi))


def test_weights_round_trip(tmp_path):
    wv = WeightVector(w=np.array([0.5, -2.0, 3.25]), box_radius=4.0)
    path = tmp_path / "w.json"
    save_weights(path, wv)
    back = load_weights(path)
    assert back.w.tobytes() == wv.w.tobytes()
    assert back.box_radius == 4.0 and type(back.box_radius) is float
    assert back.dim == 3
    # same bytes when saved again (stable serialization)
    again = tmp_path / "w2.json"
    save_weights(again, back)
    assert path.read_bytes() == again.read_bytes()
