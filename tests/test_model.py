"""Linear model, Gaussian sampling, weight serialization and the JSON casts."""

import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from co_pipeline import learning, model, scheduling, two_stage
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


def test_sample_gaussians_remembers_a_read_only_matrix():
    cfg = PerturbationConfig(sigma=1.0, nsamples=4, seed=3)
    want = np.random.default_rng(3).standard_normal((4, 2)).tobytes()
    first = sample_gaussians(cfg, 2)
    # another sigma draws the same matrix; the repeat has every bit
    again = sample_gaussians(PerturbationConfig(sigma=0.5, nsamples=4, seed=3), 2)
    assert first.tobytes() == again.tobytes() == want
    with pytest.raises(ValueError, match="read-only"):
        again[0, 0] = 0.0
    # another dim takes the one entry, and the next call draws again
    wide = np.random.default_rng(3).standard_normal((4, 3)).tobytes()
    assert sample_gaussians(cfg, 3).tobytes() == wide
    assert sample_gaussians(cfg, 2).tobytes() == want
    # a float seed equals its int, but is refused, as a fresh draw refuses it
    with pytest.raises(TypeError):
        sample_gaussians(PerturbationConfig(sigma=1.0, nsamples=4, seed=3.0), 2)


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


_NAN = float("nan")


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: learning.direct_minimize(lambda u: 0.0, [(-1, 1)] * 2, budget=_NAN),
                 "budget", id="direct_minimize-budget"),
    pytest.param(lambda: learning.LearnerConfig(box_radius=_NAN), "'box_radius'",
                 id="LearnerConfig-box_radius"),
    pytest.param(lambda: learning.LearnerConfig(budget=_NAN), "'budget'", id="LearnerConfig-budget"),
    pytest.param(lambda: learning.LearnerConfig(seeds=(0, _NAN)), "'seeds'",
                 id="LearnerConfig-seeds"),
    pytest.param(lambda: learning.fyl_learn([], None, None, box_radius=_NAN), "'box_radius'",
                 id="fyl_learn-box_radius"),
    pytest.param(lambda: learning.fyl_learn([], None, None, epsilon=_NAN), "'epsilon'",
                 id="fyl_learn-epsilon"),
    pytest.param(lambda: WeightVector(w=[0.0], box_radius=_NAN), "box radius",
                 id="WeightVector-box_radius"),
    pytest.param(lambda: PerturbationConfig(sigma=_NAN), "'sigma'", id="PerturbationConfig-sigma"),
    *[pytest.param(lambda key=key: learning.BoundParams(**{"M": 1.0, "d": 2, key: _NAN}),
                   repr(key), id=f"BoundParams-{key}")
      for key in ("M", "d", "n", "sigma", "delta", "b", "kappa_phi", "expectation_term")],
    pytest.param(lambda: learning.excess_risk_bound(SimpleNamespace(sigma=_NAN)), "'sigma'",
                 id="excess_risk_bound-sigma"),
    pytest.param(lambda: scheduling.generate_sched_instance(3, _NAN, seed=0), "rho",
                 id="generate_sched_instance-rho"),
    pytest.param(lambda: two_stage.generate_instance(_NAN, 5, 1, seed=0), "width",
                 id="generate_instance-width"),
    pytest.param(lambda: sample_gaussians(PerturbationConfig(sigma=1.0), _NAN), "dim",
                 id="sample_gaussians-dim"),
])
def test_nan_setting_raises_naming_its_parameter(build, name):
    # every comparison with NaN is false, so each limit is written as `not value >= least`
    # or `not value > 0`: a NaN fails it like any value out of range
    with pytest.raises(ValueError, match=re.escape(name)):
        build()


_INF = float("inf")


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: learning.LearnerConfig(box_radius=_INF),
                 "learner key 'box_radius' must be finite", id="LearnerConfig-box_radius"),
    pytest.param(lambda: learning.LearnerConfig(budget=_INF),
                 "learner key 'budget' must be finite", id="LearnerConfig-budget"),
    pytest.param(lambda: learning.LearnerConfig(seeds=(0, _INF)),
                 "learner key 'seeds' must be finite", id="LearnerConfig-seeds"),
    pytest.param(lambda: learning.fyl_learn([], None, None, box_radius=_INF),
                 "fyl key 'box_radius' must be finite", id="fyl_learn-box_radius"),
    pytest.param(lambda: WeightVector(w=[0.0], box_radius=_INF), "box radius must be finite",
                 id="WeightVector-box_radius"),
    pytest.param(lambda: PerturbationConfig(sigma=_INF), "perturbation key 'sigma' must be finite",
                 id="PerturbationConfig-sigma"),
    *[pytest.param(lambda key=key: learning.BoundParams(**{"M": 1.0, "d": 2, key: _INF}),
                   f"bounds key {key!r} must be finite", id=f"BoundParams-{key}")
      for key in ("M", "d", "n", "sigma", "b", "kappa_phi", "expectation_term")],
    pytest.param(lambda: scheduling.generate_sched_instance(3, _INF, seed=0), "rho must be finite",
                 id="generate_sched_instance-rho"),
    pytest.param(lambda: two_stage.lagrangian_bound(two_stage.generate_instance(2, 5, 1, seed=0),
                                                    iters=_INF),
                 "iters must be finite", id="lagrangian_bound-iters"),
])
def test_infinite_setting_raises_naming_its_parameter(build, message):
    # each lower limit comes with an upper one: +inf passes `not value > 0`
    # and `not value >= least`, and is refused by name before it is used
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: learning.LearnerConfig(box_radius=0.0),
                 "learner key 'box_radius' must be > 0", id="LearnerConfig-box_radius"),
    pytest.param(lambda: learning.fyl_learn([], None, None, box_radius=-1.0),
                 "fyl key 'box_radius' must be > 0", id="fyl_learn-box_radius"),
    pytest.param(lambda: WeightVector(w=[0.0], box_radius=0.0), "box radius must be > 0",
                 id="WeightVector-box_radius"),
    *[pytest.param(lambda key=key: learning.BoundParams(**{"M": 1.0, "d": 2, key: 0.0}),
                   f"bounds key {key!r} must be > 0", id=f"BoundParams-{key}")
      for key in ("M", "b", "kappa_phi", "expectation_term")],
    pytest.param(lambda: scheduling.generate_sched_instance(3, 0.0, seed=0), "rho must be > 0",
                 id="generate_sched_instance-rho"),
])
def test_positive_setting_at_zero_raises_naming_its_parameter(build, message):
    # one check (model._positive) writes every "must be > 0" limit of a finite setting
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("call, args, error, message", [
    pytest.param(WeightVector, (np.zeros((2, 2)), 1.0), ValueError, "w must be a vector",
                 id="WeightVector-2d"),
    pytest.param(WeightVector, ([0.0, _NAN], 1.0), ValueError, "w must be finite",
                 id="WeightVector-nan"),
    pytest.param(WeightVector, ([_INF], 1.0), ValueError, "w must be finite",
                 id="WeightVector-inf"),
])
def test_refused_arguments(call, args, error, message):
    with pytest.raises(error) as exc:
        call(*args)
    assert str(exc.value) == message


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=10,
)


def _no_bad_value(v) -> bool:
    """No boolean, no number a float cannot hold finitely and no empty list in v.

    A dict is a block that its own reader checks key by key, so its values are
    not walked here."""
    if isinstance(v, bool):
        return False
    if isinstance(v, (int, float)):
        return abs(v) <= sys.float_info.max
    if isinstance(v, (list, tuple)):
        return len(v) > 0 and all(map(_no_bad_value, v))
    return True


@given(st.sampled_from(sorted(model._CASTS)), _JSON_VALUES)
def test_casts_refuse_non_finite_numbers_empty_lists_and_booleans(kind, value):
    try:
        cast = model._CASTS[kind](value)
    except (TypeError, ValueError):
        return
    assert _no_bad_value(cast), (kind, value, cast)
