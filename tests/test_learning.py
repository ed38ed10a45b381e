"""Losses, the DIRECT search, imitation training, and the bound formulas."""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy import integrate

from co_pipeline import scheduling, two_stage
from co_pipeline.model import PerturbationConfig, sample_gaussians
from co_pipeline.learning import (
    BoundParams,
    LearnerConfig,
    LossConfig,
    config_hash,
    constant_C,
    direct_minimize,
    empirical_risk,
    excess_risk_bound,
    fyl_learn,
    learn_by_experience,
    loss,
    parallel_map,
    perturbed_expected_solution,
    perturbed_loss_saa,
    sigma_n,
)

# ---------------------------------------------------------------------------
# losses


def _toy_loss_config():
    """Loss = ||theta(w)||^2 on a fake 2-dim pipeline (quadratic, easy math)."""

    def cost(x, w):
        return float(np.sum((np.asarray(w) - x) ** 2))

    return LossConfig(
        pipeline_cost=cost, normalize=lambda x, c: c / 2.0, dim=2, perturbation=None
    )


def test_loss_applies_normalizer():
    cfg = _toy_loss_config()
    assert loss(np.zeros(2), np.array([2.0, 0.0]), cfg) == 2.0


def test_loss_two_stage_selector_hits_bound_on_one_edge():
    x = two_stage.TwoStageInstance(
        graph=two_stage.Graph(2, [(0, 1)]),
        c=np.array([-5.0]),
        d=np.array([[-3.0]]),
    )
    lb, _, _ = two_stage.lagrangian_bound(x, iters=1)
    cfg = two_stage.experience_loss_config([(x, lb)], None)
    val = loss(x, np.zeros(two_stage.TWO_STAGE_FEATURE_DIM), cfg)
    assert val == 0.0  # decode compares both stages; -5 is optimal, bound tight


def test_perturbed_loss_sigma_zero_equals_loss():
    cfg = _toy_loss_config()
    pert = LossConfig(
        pipeline_cost=cfg.pipeline_cost,
        normalize=cfg.normalize,
        dim=2,
        perturbation=PerturbationConfig(sigma=0.0, nsamples=7, seed=1),
    )
    w = np.array([0.3, -0.4])
    assert perturbed_loss_saa(np.zeros(2), w, pert) == loss(np.zeros(2), w, cfg)


def test_perturbed_loss_is_mean_over_fixed_samples():
    cfg = _toy_loss_config()
    pcfg = PerturbationConfig(sigma=0.5, nsamples=4, seed=9)
    pert = LossConfig(
        pipeline_cost=cfg.pipeline_cost, normalize=cfg.normalize, dim=2, perturbation=pcfg
    )
    w = np.array([1.0, 2.0])
    z = sample_gaussians(pcfg, 2)
    want = np.mean([loss(np.zeros(2), w + 0.5 * zk, cfg) for zk in z])
    assert perturbed_loss_saa(np.zeros(2), w, pert) == pytest.approx(want, rel=1e-12)


def test_empirical_risk_mean_and_determinism():
    cfg = _toy_loss_config()
    xs = [np.zeros(2), np.array([1.0, 1.0]), np.array([-2.0, 0.5])]
    w = np.array([0.1, 0.2])
    want = np.mean([loss(x, w, cfg) for x in xs])
    assert empirical_risk(xs, w, cfg) == pytest.approx(want, rel=1e-12)
    assert empirical_risk([xs[0], xs[0]], w, cfg) == loss(xs[0], w, cfg)
    with pytest.raises(ValueError):
        empirical_risk([], w, cfg)


def test_parallel_map_preserves_order():
    items = list(range(20))
    assert parallel_map(lambda v: v * v, items) == [v * v for v in items]


def test_loss_piecewise_constant_along_segments():
    # the pipeline loss sits on plateaus: a 1000-point segment in weight
    # space crosses only a small number of distinct values
    rng = np.random.default_rng(101)
    x = two_stage.generate_instance(4, 20, 3, seed=17)
    lb, _, _ = two_stage.lagrangian_bound(x, iters=150)
    cfg = two_stage.experience_loss_config([(x, lb)], None)
    for _ in range(3):
        w0 = rng.uniform(-10, 10, cfg.dim)
        w1 = rng.uniform(-10, 10, cfg.dim)
        values = {
            round(loss(x, w0 + t * (w1 - w0), cfg), 12)
            for t in np.linspace(0.0, 1.0, 1000)
        }
        assert len(values) <= 50


# ---------------------------------------------------------------------------
# DIRECT


def test_direct_sphere_2d():
    res = direct_minimize(
        lambda w: float(np.sum((w - 0.5) ** 2)),
        bounds=[(-1.0, 1.0)] * 2,
        budget=200,
    )
    assert res.value <= 1e-4
    assert res.n_evals <= 200


def test_direct_constant_objective():
    res = direct_minimize(lambda w: 3.25, bounds=[(-1.0, 1.0)] * 3, budget=40)
    assert res.value == 3.25
    assert len(res.trace) <= 40


def test_direct_trace_non_increasing():
    res = direct_minimize(
        lambda w: float(np.cos(3 * w[0]) + np.sin(2 * w[1]) + w[0] ** 2),
        bounds=[(-2.0, 2.0)] * 2,
        budget=150,
    )
    assert all(b <= a + 1e-15 for a, b in zip(res.trace, res.trace[1:]))
    assert res.value == res.trace[-1]


def test_direct_stays_inside_box_and_budget():
    seen = []

    def f(w):
        seen.append(np.array(w))
        return float(np.sum(w**2))

    res = direct_minimize(f, bounds=[(-3.0, 1.0), (0.0, 2.0)], budget=77)
    assert len(seen) == 77
    assert res.n_evals == 77
    for w in seen:
        assert -3.0 <= w[0] <= 1.0
        assert 0.0 <= w[1] <= 2.0
    assert -3.0 <= res.w[0] <= 1.0


def test_direct_handles_non_finite_values():
    def f(w):
        return float("nan") if w[0] > 0 else float(np.sum(w**2))

    res = direct_minimize(f, bounds=[(-1.0, 1.0)], budget=60)
    assert np.isfinite(res.value)


def test_direct_budget_one_returns_center():
    res = direct_minimize(lambda w: float(np.sum(w**2)), bounds=[(-4.0, 2.0)] * 2, budget=1)
    assert res.w.tolist() == [-1.0, -1.0]  # box center
    assert res.n_evals == 1


def test_direct_shifted_sphere_various_dims():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        target = rng.uniform(-0.8, 0.8, size=d)
        res = direct_minimize(
            lambda w: float(np.sum((w - target) ** 2)),
            bounds=[(-1.0, 1.0)] * d,
            budget=1000,
        )
        assert res.value <= 1e-3


def test_direct_invalid_inputs():
    with pytest.raises(ValueError):
        direct_minimize(lambda w: 0.0, bounds=[(1.0, -1.0)], budget=10)
    with pytest.raises(ValueError):
        direct_minimize(lambda w: 0.0, bounds=[(-1.0, 1.0)], budget=0)


# ---------------------------------------------------------------------------
# learn_by_experience


def test_learn_by_experience_single_seed_equals_direct():
    cfg = _toy_loss_config()
    learner = LearnerConfig(box_radius=1.0, budget=120, seeds=(3,))
    xs = [np.array([0.4, -0.2])]
    wv, report = learn_by_experience(xs, learner, cfg)
    direct = direct_minimize(
        lambda w: empirical_risk(xs, w, cfg), bounds=[(-1.0, 1.0)] * 2, budget=120, seed=3
    )
    assert np.array_equal(wv.w, direct.w)
    assert report["per_seed"][0]["best_value"] == direct.value


def test_learn_by_experience_best_of_seeds():
    cfg = _toy_loss_config()
    learner = LearnerConfig(box_radius=1.0, budget=60, seeds=(0, 1, 2))
    xs = [np.array([0.4, -0.2]), np.array([0.2, 0.1])]
    wv, report = learn_by_experience(xs, learner, cfg)
    best = min(row["best_value"] for row in report["per_seed"])
    assert empirical_risk(xs, wv.w, cfg) == pytest.approx(best, rel=1e-12)
    assert [row["seed"] for row in report["per_seed"]] == [0, 1, 2]
    assert np.max(np.abs(wv.w)) <= 1.0


def test_learn_by_experience_trivial_instances_reach_oracle():
    # every one-edge instance is solved exactly by the decoded pipeline at
    # any weights, so the learned risk must be zero
    xs, pairs = [], []
    for ce, de in ((-5.0, -3.0), (-1.0, -6.0), (-2.0, -2.0)):
        x = two_stage.TwoStageInstance(
            graph=two_stage.Graph(2, [(0, 1)]),
            c=np.array([ce]),
            d=np.array([[de]]),
        )
        lb, _, _ = two_stage.lagrangian_bound(x, iters=1)
        xs.append(x)
        pairs.append((x, lb))
    cfg = two_stage.experience_loss_config(pairs, None)
    learner = LearnerConfig(box_radius=10.0, budget=30, seeds=(0,))
    wv, report = learn_by_experience(xs, learner, cfg)
    assert report["per_seed"][0]["best_value"] == 0.0
    assert empirical_risk(xs, wv.w, cfg) == 0.0


def test_config_hash_stable_and_order_free():
    a = {"x": 1, "y": [1, 2, 3]}
    b = {"y": [1, 2, 3], "x": 1}
    assert config_hash(a) == config_hash(b)
    want = hashlib.sha256(json.dumps(a, sort_keys=True).encode()).hexdigest()
    assert config_hash(a) == want


# ---------------------------------------------------------------------------
# imitation benchmark


def test_perturbed_expected_solution_constant_region():
    # argmin locally constant -> estimator returns that vertex exactly
    def argmin_vec(theta):
        out = np.zeros(3)
        out[int(np.argmin(theta))] = 1.0
        return out

    theta = np.array([-100.0, 0.0, 0.0])
    z = np.random.default_rng(0).standard_normal((50, 3))
    got = perturbed_expected_solution(argmin_vec, theta, 0.01, z)
    assert got.tolist() == [1.0, 0.0, 0.0]


def test_perturbed_expected_solution_finite_difference():
    # d/dtheta of the sample-average of min_y <y, theta + eps Z> equals the
    # mean argmin over the same fixed Z (piecewise-linear duality)
    x = two_stage.TwoStageInstance(
        graph=two_stage.Graph(3, [(0, 1), (0, 2), (1, 2)]),
        c=np.array([-4.0, -1.0, -2.5]),
        d=np.array([[-2.0], [-3.0], [-1.0]]),
    )

    def argmin_vec(theta):
        return two_stage.easy_incidence(x, theta)

    rng = np.random.default_rng(7)
    theta = rng.normal(size=6) * 2.0
    eps = 0.8
    z = rng.standard_normal((400, 6))
    est = perturbed_expected_solution(argmin_vec, theta, eps, z)

    def saa_value(t):
        vals = [float(argmin_vec(t + eps * zk) @ (t + eps * zk)) for zk in z]
        return float(np.mean(vals))

    h = 1e-6
    for k in range(6):
        step = np.zeros(6)
        step[k] = h
        fd = (saa_value(theta + step) - saa_value(theta - step)) / (2 * h)
        assert fd == pytest.approx(est[k], abs=5e-4)


def test_fyl_learn_recovers_stage_choices_on_toy_set():
    instances = [two_stage.generate_instance(3, 20, 2, seed=s) for s in range(8)]
    pairs = []
    for x in instances:
        y = two_stage.easy_layer(x, two_stage.theta_tilde(x))
        pairs.append((x, two_stage.incidence_vector(x, y)))
    wv = fyl_learn(
        pairs,
        argmin_vec=two_stage.easy_incidence,
        features_of=two_stage.features,
        epsilon=0.5,
        n_z=15,
        steps=400,
        rate=0.1,
        box_radius=10.0,
        seed=0,
    )
    held_out = [two_stage.generate_instance(3, 20, 2, seed=100 + s) for s in range(4)]
    agree = total = 0
    for x in held_out:
        target = two_stage.incidence_vector(
            x, two_stage.easy_layer(x, two_stage.theta_tilde(x))
        )
        got = two_stage.easy_incidence(x, two_stage.features(x) @ wv.w)
        agree += int(np.sum(got == target))
        total += target.size
    assert agree / total >= 0.95


def test_fyl_learn_respects_box():
    x = two_stage.generate_instance(2, 10, 1, seed=1)
    y = two_stage.easy_layer(x, two_stage.theta_tilde(x))
    wv = fyl_learn(
        [(x, two_stage.incidence_vector(x, y))],
        argmin_vec=two_stage.easy_incidence,
        features_of=two_stage.features,
        epsilon=1.0,
        n_z=5,
        steps=50,
        rate=5.0,
        box_radius=0.5,
        seed=2,
    )
    assert np.max(np.abs(wv.w)) <= 0.5


# ---------------------------------------------------------------------------
# bound formulas


def test_constant_c_matches_quadrature():
    # oracle: adaptive quadrature of 48 * integral_0^1 sqrt(-log x) dx
    val, err = integrate.quad(lambda t: math.sqrt(-math.log(t)), 0.0, 1.0)
    assert err < 1e-8
    assert constant_C() == pytest.approx(48.0 * val, abs=1e-6)
    assert constant_C() == pytest.approx(24.0 * math.sqrt(math.pi), rel=1e-15)
    assert constant_C() > 0


def test_excess_risk_bound_arithmetic_oracle():
    params = BoundParams(M=1.0, d=2, sigma=1.0, n=100, delta=0.1)
    want = (24 * math.sqrt(math.pi)) * 1.0 * 2 / (1.0 * 10.0) + math.sqrt(
        2 * math.log(2 / 0.1) / 100
    )
    assert excess_risk_bound(params) == pytest.approx(want, rel=1e-12)


def test_excess_risk_bound_halves_when_n_quadruples():
    base = BoundParams(M=3.0, d=5, sigma=0.7, n=400, delta=0.05)
    big = BoundParams(M=3.0, d=5, sigma=0.7, n=1600, delta=0.05)
    assert excess_risk_bound(big) == pytest.approx(excess_risk_bound(base) / 2, rel=1e-12)


def test_sigma_n_arithmetic_oracle():
    params = BoundParams(
        M=10.0, d=4, n=10_000, b=1.0, kappa_phi=1.0, expectation_term=1.0
    )
    want = math.sqrt((24 * math.sqrt(math.pi)) * 10.0 * 2.0 / 100.0)
    assert sigma_n(params) == pytest.approx(want, rel=1e-12)


def test_sigma_n_quarter_root_scaling_and_monotonicity():
    base = BoundParams(M=2.0, d=9, n=50, b=0.5, kappa_phi=2.0, expectation_term=1.5)
    big = BoundParams(M=2.0, d=9, n=800, b=0.5, kappa_phi=2.0, expectation_term=1.5)
    assert sigma_n(big) == pytest.approx(sigma_n(base) / 2, rel=1e-12)
    larger_m = BoundParams(M=4.0, d=9, n=50, b=0.5, kappa_phi=2.0, expectation_term=1.5)
    assert sigma_n(larger_m) > sigma_n(base)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(M=1.0, d=2, delta=2.0)
    with pytest.raises(ValueError):
        excess_risk_bound(BoundParams(M=1.0, d=2, sigma=0.0))


def test_scheduling_loss_config_dimension():
    xs = [scheduling.generate_sched_instance(5, 1.0, seed=s) for s in range(3)]
    cfg = scheduling.experience_loss_config(xs, post="ls")
    assert cfg.dim == scheduling.SCHED_FEATURE_DIM
    risk = empirical_risk(xs, np.zeros(cfg.dim), cfg)
    assert risk > 0.0
