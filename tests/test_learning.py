"""Losses, the DIRECT search, imitation training, and the bound formulas."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from co_pipeline import scheduling, two_stage
from co_pipeline.model import PerturbationConfig, sample_gaussians
from co_pipeline.learning import (
    BoundParams,
    DirectResult,
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
    """Loss = ||w - x||^2 / 2 on a fake 2-dim pipeline (quadratic, easy math)."""

    def pipeline_loss(x, w):
        return float(np.sum((np.asarray(w) - x) ** 2)) / 2.0

    return LossConfig(pipeline_loss, dim=2, perturbation=None)


def test_loss_applies_normalizer():
    cfg = _toy_loss_config()
    assert loss(np.zeros(2), np.array([2.0, 0.0]), cfg) == 2.0


def test_perturbed_loss_sigma_zero_equals_loss():
    cfg = _toy_loss_config()
    pert = LossConfig(cfg.pipeline_loss, 2, PerturbationConfig(sigma=0.0, nsamples=7, seed=1))
    w = np.array([0.3, -0.4])
    assert perturbed_loss_saa(np.zeros(2), w, pert) == loss(np.zeros(2), w, cfg)


def test_perturbed_loss_is_mean_over_fixed_samples():
    cfg = _toy_loss_config()
    pcfg = PerturbationConfig(sigma=0.5, nsamples=4, seed=9)
    pert = LossConfig(cfg.pipeline_loss, 2, pcfg)
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
# DIRECT (its accuracy on shifted spheres: criterion 7)


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


def test_direct_invalid_inputs():
    with pytest.raises(ValueError):
        direct_minimize(lambda w: 0.0, bounds=[(1.0, -1.0)], budget=10)
    with pytest.raises(ValueError):
        direct_minimize(lambda w: 0.0, bounds=[(-1.0, 1.0)], budget=0)


@pytest.mark.parametrize("call, args, error, message", [
    pytest.param(LearnerConfig, (10.0, 1000, ()), ValueError,
                 "learner key 'seeds' must hold at least one seed", id="LearnerConfig-no-seeds"),
    pytest.param(direct_minimize, (lambda w: 0.0, [-1.0, 1.0], 10), ValueError,
                 "bounds must be (d, 2)", id="direct_minimize-bounds-1d"),
    pytest.param(direct_minimize, (lambda w: 0.0, [(-1.0, 0.0, 1.0)], 10), ValueError,
                 "bounds must be (d, 2)", id="direct_minimize-bounds-3-columns"),
    pytest.param(perturbed_expected_solution, (lambda th: th, np.zeros(2), 1.0, np.zeros((0, 2))),
                 ValueError, "at least one perturbation sample is required",
                 id="perturbed_expected_solution-no-samples"),
    pytest.param(fyl_learn, ([], None, None), ValueError, "no training pairs",
                 id="fyl_learn-no-pairs"),
])
def test_refused_arguments(call, args, error, message):
    with pytest.raises(error) as exc:
        call(*args)
    assert str(exc.value) == message


def test_direct_all_nan_objective_returns_center_without_warning():
    # every class minimum is +inf; inf - inf in the hull test used to warn,
    # and the suite turns warnings into errors
    res = direct_minimize(lambda w: float("nan"), [(-1, 1)] * 2, 20)
    assert res.value == math.inf
    assert res.n_evals == 20
    assert res.w.tolist() == [0.0, 0.0]


def _objective(kind, target):
    """A test objective around target (a point of the box): smooth,
    constant, piecewise constant, integer valued, or a sphere with a NaN
    region and a +inf region."""
    if kind == "sphere":
        return lambda w: float(np.sum((w - target) ** 2))
    if kind == "wavy":
        return lambda w: float(np.cos(3 * w[0]) + np.sin(2 * w[-1]) + w[0] ** 2)
    if kind == "constant":
        return lambda w: float(target[0] > 0)
    if kind == "floor_step":
        return lambda w: float(np.floor(3 * np.sum(w - target)))
    if kind == "integer":
        return lambda w: float(np.round(4 * np.abs(w - target).sum()))

    def holes(w):
        if w[0] > target[0]:
            return float("nan")
        if w[-1] < -abs(target[-1]) - 0.5:
            return float("inf")
        return float(np.sum((w - target) ** 2))

    return holes


_KINDS = ("sphere", "wavy", "constant", "floor_step", "integer", "holes")


@settings(max_examples=150)
@given(
    st.lists(st.tuples(st.floats(-5, 5), st.floats(0.1, 5)), min_size=1, max_size=6),
    st.integers(1, 200),
    st.integers(0, 2**32 - 1),
    st.sampled_from(_KINDS),
)
def test_direct_spends_its_budget_inside_the_box(box, budget, seed, kind):
    # the whole budget is spent, every point is in the box, and the
    # incumbent trace never increases and ends at the returned value
    bounds = np.array([(lo, lo + extent) for lo, extent in box])
    f = _objective(kind, bounds.mean(axis=1) + 0.3 * (bounds[:, 1] - bounds[:, 0]) / 2)
    seen = []

    def recording(w):
        seen.append(np.array(w))
        return f(w)

    res = direct_minimize(recording, bounds, budget, seed=seed)
    assert res.n_evals == budget == len(res.trace) == len(seen)
    for w in [*seen, res.w]:
        assert np.all(bounds[:, 0] <= w) and np.all(w <= bounds[:, 1])
    assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))
    assert res.value == res.trace[-1]


def _evals_to_reach(trace, level=1e-3):
    hits = np.flatnonzero(np.asarray(trace) <= level)
    return int(hits[0]) + 1 if hits.size else math.inf


def test_direct_matches_or_beats_scipy_direct():
    # the criterion 7 functions: ours ends at or below scipy's value and
    # reaches 1e-3 in no more evaluations
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(70_007)
    for d in (2, 3, 5):
        for _ in range(10):
            target = rng.uniform(-1.0, 1.0, size=d)
            values = []

            def f(w):
                values.append(float(np.sum((w - target) ** 2)))
                return values[-1]

            theirs = optimize.direct(f, [(-1.0, 1.0)] * d, maxfun=1000, locally_biased=False,
                                     vol_tol=0, len_tol=0)
            theirs_reach = _evals_to_reach(np.minimum.accumulate(values))
            ours = direct_minimize(f, [(-1.0, 1.0)] * d, budget=1000)
            assert ours.value <= theirs.fun
            assert _evals_to_reach(ours.trace) <= min(theirs_reach, 1000)


class _ReferenceBudgetExhausted(Exception):
    pass


def _reference_potentially_optimal(sizes: np.ndarray, values: np.ndarray) -> list[int]:
    """Oracle: the hull test on numpy scalars, with an equal-size branch."""
    fmin = values.min()
    selected = []
    for k in range(sizes.shape[0]):
        k_lo, k_hi = 0.0, np.inf
        dominated = False
        for j in range(sizes.shape[0]):
            if j == k:
                continue
            gap = sizes[j] - sizes[k]
            if gap > 0:
                k_hi = min(k_hi, (values[j] - values[k]) / gap)
            elif gap < 0:
                k_lo = max(k_lo, (values[k] - values[j]) / -gap)
            elif values[j] < values[k]:
                dominated = True
                break
        if dominated or k_lo > k_hi * (1 + 1e-12) + 1e-15:
            continue
        if np.isfinite(k_hi) and values[k] - k_hi * sizes[k] > fmin - 1e-4 * abs(fmin):
            continue
        selected.append(k)
    return selected


def _reference_direct_minimize(objective, bounds, budget: int, seed: int = 0):
    """Oracle: DIRECT on parallel lists, re-sizing every rectangle each round."""
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError("bounds must be (d, 2)")
    if not np.all(np.isfinite(bounds)) or np.any(bounds[:, 1] <= bounds[:, 0]):
        raise ValueError("bounds must be finite with positive extent")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lo = bounds[:, 0]
    span = bounds[:, 1] - bounds[:, 0]
    dim = lo.shape[0]
    rng = np.random.default_rng(seed)

    state = {"evals": 0, "best": np.inf, "best_u": np.full(dim, 0.5)}
    trace: list[float] = []

    def evaluate(u: np.ndarray) -> float:
        if state["evals"] >= budget:
            raise _ReferenceBudgetExhausted
        value = float(objective(lo + u * span))
        if not math.isfinite(value):
            value = np.inf
        state["evals"] += 1
        if value < state["best"]:
            state["best"] = value
            state["best_u"] = u.copy()
        trace.append(state["best"])
        return value

    centers = [np.full(dim, 0.5)]
    levels = [np.zeros(dim, dtype=int)]
    values = [evaluate(centers[0])]

    def rect_size(lv: np.ndarray) -> float:
        # summing in sorted order makes equal level-multisets bit-identical
        return 0.5 * float(np.sqrt((9.0 ** (-np.sort(lv).astype(float))).sum()))

    def divide(idx: int) -> None:
        lv = levels[idx]
        lmin = lv.min()
        dims = np.flatnonzero(lv == lmin)
        delta = 3.0 ** -(lmin + 1)
        children = []
        for i in dims:
            up = centers[idx].copy()
            up[i] += delta
            down = centers[idx].copy()
            down[i] -= delta
            v_up = evaluate(up)
            v_down = evaluate(down)
            children.append((min(v_up, v_down), int(i), up, v_up, down, v_down))
        children.sort(key=lambda item: (item[0], item[1]))
        current = lv.copy()
        for _, i, up, v_up, down, v_down in children:
            current = current.copy()
            current[i] += 1
            centers.append(up)
            levels.append(current)
            values.append(v_up)
            centers.append(down)
            levels.append(current)
            values.append(v_down)
        levels[idx] = current

    try:
        while state["evals"] < budget:
            # group live rectangles into size classes, keep per-class minima
            by_size: dict[float, list[int]] = {}
            for idx in range(len(values)):
                by_size.setdefault(rect_size(levels[idx]), []).append(idx)
            sizes = np.array(sorted(by_size))
            class_rects = []
            class_values = np.empty(sizes.shape[0])
            for pos, size in enumerate(sizes):
                members = by_size[size]
                vmin = min(values[i] for i in members)
                ties = [i for i in members if values[i] == vmin]
                if len(ties) > 1:
                    rng.shuffle(ties)
                class_values[pos] = vmin
                class_rects.append(ties)
            for pos in _reference_potentially_optimal(sizes, class_values):
                for idx in class_rects[pos]:
                    divide(idx)
    except _ReferenceBudgetExhausted:
        pass

    return DirectResult(
        w=lo + state["best_u"] * span,
        value=float(state["best"]),
        trace=trace,
        n_evals=state["evals"],
    )


def test_direct_matches_parallel_list_reference():
    # every evaluated point in order, the trace, w, the value and the count
    # agree with the oracle, on 1080 (objective, box, budget, seed) cases
    rng = np.random.default_rng(2024)
    cases = 0
    for d in (1, 2, 3, 5, 11, 34):
        for seed in (0, 1, 2, 7):
            for kind in ("sphere", "constant", "floor_step", "integer", "holes"):
                for budget in (1, *rng.integers(2, 401, size=8)):
                    lo = rng.uniform(-3.0, 0.0, d)
                    bounds = np.column_stack([lo, lo + rng.uniform(0.5, 4.0, d)])
                    f = _objective(kind, rng.uniform(bounds[:, 0], bounds[:, 1]))
                    runs = []
                    for minimize in (direct_minimize, _reference_direct_minimize):
                        seen = []

                        def recording(w):
                            seen.append(np.array(w))
                            return f(w)

                        with warnings.catch_warnings():
                            # the oracle warns on inf - inf
                            warnings.simplefilter("ignore", RuntimeWarning)
                            res = minimize(recording, bounds, int(budget), seed=seed)
                        runs.append((np.array(seen), res))
                    (seen, res), (want_seen, want) = runs
                    assert np.array_equal(seen, want_seen), (d, seed, kind, budget)
                    assert res.trace == want.trace
                    assert np.array_equal(res.w, want.w)
                    assert res.value == want.value and res.n_evals == want.n_evals
                    cases += 1
    assert cases == 1080


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
        two_stage.easy_incidence,
        two_stage.features,
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
        two_stage.easy_incidence,
        two_stage.features,
        epsilon=1.0,
        n_z=5,
        steps=50,
        rate=5.0,
        box_radius=0.5,
        seed=2,
    )
    assert np.max(np.abs(wv.w)) <= 0.5
    # a negative seed is named as its fyl key before numpy sees it
    with pytest.raises(ValueError, match=r"^fyl key 'seed' must be >= 0$"):
        fyl_learn([(x, two_stage.incidence_vector(x, y))], two_stage.easy_incidence,
                  two_stage.features, seed=-1)


def test_fyl_learn_checks_its_settings_before_it_draws_a_pair():
    x = two_stage.generate_instance(2, 10, 1, seed=1)
    target = two_stage.incidence_vector(x, two_stage.easy_layer(x, two_stage.theta_tilde(x)))
    settings = {"epsilon": 1.0, "n_z": 3, "steps": 20, "seed": 4}
    drawn = []

    def pairs():
        drawn.append(x)
        yield x, target

    args = (two_stage.easy_incidence, two_stage.features)
    # a one-shot iterator of pairs trains as its list does
    assert np.array_equal(fyl_learn(pairs(), *args, **settings).w,
                          fyl_learn([(x, target)], *args, **settings).w)
    drawn.clear()
    for key, value in (("epsilon", -1), ("n_z", 0), ("steps", -1), ("seed", -1),
                       ("box_radius", 0)):
        with pytest.raises(ValueError, match=rf"^fyl key {key!r} must be "):
            fyl_learn(pairs(), *args, **{**settings, key: value})
    assert drawn == []


# ---------------------------------------------------------------------------
# bound formulas (their scalings in n: criterion 11)


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


def test_excess_risk_bound_finite_at_subnormal_delta():
    # 2 / 1e-320 overflows a float, but the bound is finite; any delta whose
    # 2 / delta is finite keeps the bits of log(2 / delta)
    first = constant_C() * 10.0 * 34 / 10.0
    tiny = excess_risk_bound(BoundParams(M=10.0, d=34, n=100, delta=1e-320))
    assert tiny - first == pytest.approx(3.8406, abs=1e-4)
    for delta in (0.05, 0.1, 1e-5, 1e-300, 2.5e-308):
        got = excess_risk_bound(BoundParams(M=10.0, d=34, n=100, delta=delta))
        assert got == first + math.sqrt(2.0 * math.log(2.0 / delta) / 100)


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
    cfg = scheduling.experience_loss_config(post="ls")
    assert cfg.dim == scheduling.SCHED_FEATURE_DIM
    risk = empirical_risk(xs, np.zeros(cfg.dim), cfg)
    assert risk > 0.0
