"""Learning by experience: losses, DIRECT search, and risk bounds.

The pipeline loss is piecewise constant in the weights (finitely many
combinatorial outputs), so gradients carry no signal and training is a
global derivative-free search over the weight box.  DIRECT (DIviding
RECTangles) partitions the box into hyperrectangles, always refining
those that are potentially optimal for some Lipschitz constant.

Also here: the smoothed (perturbed) loss estimated by sample average
approximation with common random numbers, an imitation benchmark trained
with a perturbed Fenchel-Young loss, and the excess-risk bound constants.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, astuple, dataclass
from typing import Callable

import numpy as np

from .model import PerturbationConfig, WeightVector, _at_least, _finite, _positive, sample_gaussians

__all__ = [
    "LossConfig",
    "LearnerConfig",
    "BoundParams",
    "DirectResult",
    "loss",
    "perturbed_loss_saa",
    "empirical_risk",
    "direct_minimize",
    "learn_by_experience",
    "perturbed_expected_solution",
    "fyl_learn",
    "constant_C",
    "sigma_n",
    "excess_risk_bound",
    "config_hash",
    "parallel_map",
]


@dataclass(frozen=True)
class LossConfig:
    """Application plug-in for the generic learner.

    pipeline_loss(x, w) runs the full pipeline (features, linear model,
    optimization layer, post-processing) and returns its hard-problem cost
    normalized to a size-comparable non-negative loss.  When perturbation
    is set, the smoothed loss is used.
    """

    pipeline_loss: Callable
    dim: int
    perturbation: PerturbationConfig | None = None


@dataclass(frozen=True)
class LearnerConfig:
    """Multi-seed DIRECT search over the weight box [-M, M]^d."""

    box_radius: float = 10.0
    budget: int = 1000
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)

    def __post_init__(self):
        _positive(self.box_radius, "learner key 'box_radius'")
        _at_least(self.budget, 1, "learner key 'budget'")
        if len(self.seeds) < 1:
            raise ValueError("learner key 'seeds' must hold at least one seed")
        if not all(seed >= 0 for seed in self.seeds):
            raise ValueError("learner key 'seeds' must hold values >= 0")
        _finite(max(self.seeds), "learner key 'seeds'")


def parallel_map(fn, items) -> list:
    """Order-preserving map."""
    return [fn(item) for item in items]


def _cached_pipeline(features, layer, cost) -> Callable:
    """The loss (x, w) -> cost(x, layer(x, features(x) @ w)), running features once per instance
    and cost once per (instance, layer output: a hashable key), in tables keyed by the instance."""
    phi_of, cost_of = functools.cache(features), functools.cache(cost)
    return lambda x, w: cost_of(x, layer(x, phi_of(x) @ w))


def loss(x, w, cfg: LossConfig) -> float:
    """Normalized pipeline cost at weights w (deterministic in (x, w))."""
    return float(cfg.pipeline_loss(x, np.asarray(w, dtype=float)))


def perturbed_loss_saa(x, w, cfg: LossConfig) -> float:
    """Sample-average of the loss at w + sigma*Z_k.

    The Gaussian matrix depends only on the perturbation config, so every
    w is evaluated on the same draws (common random numbers) and the
    smoothed risk surface is deterministic.
    """
    pert = cfg.perturbation
    w = np.asarray(w, dtype=float)
    if pert is None or pert.sigma == 0.0:
        return loss(x, w, cfg)
    gaussians = sample_gaussians(pert, w.shape[0])
    total = 0.0
    for z in gaussians:
        total += cfg.pipeline_loss(x, w + pert.sigma * z)
    return float(total / pert.nsamples)


def empirical_risk(training_set, w, cfg: LossConfig) -> float:
    """Mean (perturbed) loss over the training set."""
    if len(training_set) == 0:
        raise ValueError("training set is empty")
    f = perturbed_loss_saa if cfg.perturbation is not None else loss
    values = parallel_map(lambda x: f(x, w, cfg), training_set)
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# DIRECT


@dataclass
class DirectResult:
    w: np.ndarray
    value: float
    trace: list
    n_evals: int


class _BudgetExhausted(Exception):
    pass


def _potentially_optimal(sizes: list, values: list) -> list[int]:
    """Indices on the lower-right convex hull of (size, value) points.

    sizes are distinct and ascending.  A point k qualifies if some
    Lipschitz constant K >= 0 makes its bound value_k - K*size_k minimal
    and improves the incumbent by at least 1e-4*|f_min| (the classic
    potential-optimality test).  The slopes are Python floats: between two
    +inf values they are a silent nan, which min and max skip.
    """
    fmin = min(values)
    selected = []
    for k, (size, value) in enumerate(zip(sizes, values)):
        smaller, larger = zip(sizes[:k], values[:k]), zip(sizes[k + 1:], values[k + 1:])
        k_lo = max([0.0] + [(value - v) / (size - s) for s, v in smaller])
        k_hi = min([math.inf] + [(v - value) / (s - size) for s, v in larger])
        if k_lo > k_hi * (1 + 1e-12) + 1e-15:
            continue
        if math.isfinite(k_hi) and value - k_hi * size > fmin - 1e-4 * abs(fmin):
            continue
        selected.append(k)
    return selected


def direct_minimize(objective, bounds, budget: int, seed: int = 0):
    """Global minimization of a black box over a box by DIRECT.

    Deterministic given the seed: the unit cube is trisected along
    longest sides (lowest dimension index first on value ties), and the
    seed only permutes the division order among equally-valued candidate
    rectangles.  Non-finite objective values are treated as +inf, so the
    incumbent trace is non-increasing and finite evaluations win.

    Returns a DirectResult with the incumbent point (original
    coordinates), its value, the per-evaluation incumbent trace, and the
    number of evaluations spent (exactly min(budget, ...)).
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError("bounds must be (d, 2)")
    if not np.all(np.isfinite(bounds)) or np.any(bounds[:, 1] <= bounds[:, 0]):
        raise ValueError("bounds must be finite with positive extent")
    _at_least(budget, 1, "budget")
    lo, span = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    rng = np.random.default_rng(seed)

    best, best_u = np.inf, np.full(len(lo), 0.5)
    trace: list[float] = []

    def evaluate(u: np.ndarray) -> float:
        nonlocal best, best_u
        if len(trace) >= budget:
            raise _BudgetExhausted
        value = float(objective(lo + u * span))
        if not math.isfinite(value):
            value = np.inf
        if value < best:
            best, best_u = value, u
        trace.append(best)
        return value

    def rect_size(lv: np.ndarray) -> float:
        # summing in sorted order makes equal level-multisets bit-identical
        return 0.5 * float(np.sqrt((9.0 ** (-np.sort(lv).astype(float))).sum()))

    # one entry per rectangle: [value, size, centre, levels]; centres and
    # levels are never written to, so children may share them
    levels = np.zeros(len(lo), dtype=int)
    rects = [[evaluate(best_u), rect_size(levels), best_u, levels]]

    def divide(rect: list) -> None:
        _, _, centre, lv = rect
        lmin = lv.min()
        delta = 3.0 ** -(lmin + 1)
        children = []
        for i in np.flatnonzero(lv == lmin):
            up, down = centre.copy(), centre.copy()
            up[i] += delta
            down[i] -= delta
            v_up, v_down = evaluate(up), evaluate(down)
            children.append((min(v_up, v_down), int(i), up, v_up, down, v_down))
        children.sort(key=lambda item: item[:2])
        for _, i, up, v_up, down, v_down in children:
            lv = lv.copy()
            lv[i] += 1
            size = rect_size(lv)
            rects.extend(([v_up, size, up, lv], [v_down, size, down, lv]))
        rect[1], rect[3] = size, lv

    try:
        while len(trace) < budget:
            # size classes in ascending size; each keeps its minimal value and
            # its rectangles at that value, in shuffled order
            by_size: dict[float, list] = {}
            for rect in rects:
                by_size.setdefault(rect[1], []).append(rect)
            sizes = sorted(by_size)
            class_values, class_rects = [], []
            for size in sizes:
                vmin = min(rect[0] for rect in by_size[size])
                ties = [rect for rect in by_size[size] if rect[0] == vmin]
                rng.shuffle(ties)  # a single tie draws nothing from rng
                class_values.append(vmin)
                class_rects.append(ties)
            for pos in _potentially_optimal(sizes, class_values):
                for rect in class_rects[pos]:
                    divide(rect)
    except _BudgetExhausted:
        pass

    return DirectResult(w=lo + best_u * span, value=float(best), trace=trace, n_evals=len(trace))


def config_hash(payload) -> str:
    """Stable fingerprint of a JSON-serializable configuration."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def learn_by_experience(training_set, learner: LearnerConfig, loss_cfg: LossConfig):
    """Minimize empirical risk with DIRECT, once per seed; keep the best w.

    No target solutions are involved anywhere: the only training signal
    is the observed pipeline cost on the instances.  Returns the best
    WeightVector and a report with every seed's best risk (their average
    and minimum are the usual summary statistics).
    """
    bounds = [(-learner.box_radius, learner.box_radius)] * loss_cfg.dim

    def objective(w):
        return empirical_risk(training_set, w, loss_cfg)

    per_seed = []
    best = None
    for seed in learner.seeds:
        result = direct_minimize(objective, bounds, learner.budget, seed=seed)
        per_seed.append(
            {"seed": int(seed), "best_value": result.value, "evals": result.n_evals}
        )
        if best is None or result.value < best.value:
            best = result
    pert = loss_cfg.perturbation
    settings = {**asdict(learner), "dim": loss_cfg.dim,
                "perturbation": None if pert is None else list(astuple(pert))}
    report = {
        "per_seed": per_seed,
        "best_w": [float(v) for v in best.w],
        "config_hash": config_hash(settings),
    }
    return WeightVector(w=best.w, box_radius=learner.box_radius), report


# ---------------------------------------------------------------------------
# Imitation benchmark: perturbed Fenchel-Young loss


def perturbed_expected_solution(argmin_vec, theta: np.ndarray, epsilon: float, gaussians):
    """Monte-Carlo estimate of E_Z[yhat(theta + epsilon Z)].

    This is the gradient of the perturbed layer value
    E_Z[min_y <y, theta + epsilon Z>] and the data-independent half of
    the Fenchel-Young loss gradient.
    """
    acc = None
    count = 0
    for z in gaussians:
        y = np.asarray(argmin_vec(theta + epsilon * z), dtype=float)
        acc = y if acc is None else acc + y
        count += 1
    if acc is None:
        raise ValueError("at least one perturbation sample is required")
    return acc / count


def fyl_learn(
    pairs,
    argmin_vec,
    features_of,
    /,
    epsilon: float = 1.0,
    n_z: int = 20,
    steps: int = 500,
    rate: float = 0.05,
    box_radius: float = 10.0,
    seed: int = 0,
) -> WeightVector:
    """SGD on the perturbed Fenchel-Young loss against target solutions.

    pairs are (instance, target incidence vector) from any iterable, drawn
    after the settings pass their checks; argmin_vec(x, theta) returns the
    optimization layer's solution as an incidence vector (minimization
    orientation).  For that orientation the FY-loss gradient in theta space
    is y_target - E_Z[yhat(theta + epsilon Z)], pulled back through the
    feature matrix and followed downhill; w stays projected on the box.
    """
    for key, value, least in (("epsilon", epsilon, 0), ("n_z", n_z, 1), ("steps", steps, 0),
                              ("seed", seed, 0)):
        _at_least(value, least, f"fyl key {key!r}")
    _positive(box_radius, "fyl key 'box_radius'")
    pairs = list(pairs)
    phis = [features_of(x) for x, _ in pairs]
    if not phis:
        raise ValueError("no training pairs")
    dim = phis[0].shape[1]
    rng = np.random.default_rng(seed)
    w = np.zeros(dim)
    for _ in range(steps):
        i = int(rng.integers(len(pairs)))
        x, y_target = pairs[i]
        phi = phis[i]
        theta = phi @ w
        gaussians = rng.standard_normal((n_z, theta.shape[0]))
        y_mean = perturbed_expected_solution(
            lambda th: argmin_vec(x, th), theta, epsilon, gaussians
        )
        grad_w = phi.T @ (np.asarray(y_target, dtype=float) - y_mean)
        w = np.clip(w - rate * grad_w, -box_radius, box_radius)
    return WeightVector(w=w, box_radius=box_radius)


# ---------------------------------------------------------------------------
# Risk bounds


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the excess-risk bound and the sigma_n schedule.

    M and d describe the weight box, sigma the training perturbation, n
    the sample count, delta the confidence level; b is the slope of the
    loss growth in ||theta||_inf, kappa_phi bounds feature row norms and
    expectation_term is E[d(x) / u(x)].  sigma_n reads b, kappa_phi and
    expectation_term; excess_risk_bound reads sigma and delta.
    """

    M: float
    d: int
    sigma: float = 1.0
    n: int = 1
    delta: float = 0.05
    b: float = 1.0
    kappa_phi: float = 1.0
    expectation_term: float = 1.0

    def __post_init__(self):
        _positive(self.M, "bounds key 'M'")
        for key in ("d", "n"):
            _at_least(getattr(self, key), 1, f"bounds key {key!r}")
        if not 0 < self.delta < 1:
            raise ValueError("bounds key 'delta' must lie in (0, 1)")
        _at_least(self.sigma, 0, "bounds key 'sigma'")
        for key in ("b", "kappa_phi", "expectation_term"):
            _positive(getattr(self, key), f"bounds key {key!r}")


def constant_C() -> float:
    """The universal constant 48*Integral_0^1 sqrt(-log x) dx = 24*sqrt(pi)."""
    return 24.0 * math.sqrt(math.pi)


def excess_risk_bound(params: BoundParams) -> float:
    """High-probability excess risk of the perturbed empirical minimizer:
    C*M*d/(sigma*sqrt(n)) + sqrt(2*log(2/delta)/n)."""
    if not params.sigma > 0:
        raise ValueError("bounds key 'sigma' must be > 0")
    first = constant_C() * params.M * params.d / (params.sigma * math.sqrt(params.n))
    ratio = 2.0 / params.delta
    # 2/delta overflows for a subnormal delta; the difference of logs does
    # not, but it can differ in the last bit, so it is taken only there
    log_ratio = math.log(ratio) if math.isfinite(ratio) else math.log(2.0) - math.log(params.delta)
    second = math.sqrt(2.0 * log_ratio / params.n)
    return first + second


def sigma_n(params: BoundParams) -> float:
    """Perturbation schedule balancing smoothing bias against the C-term:
    sqrt(C*M*sqrt(d) / (sqrt(n)*b*kappa_phi*expectation_term)); decays as n^(-1/4)."""
    num = constant_C() * params.M * math.sqrt(params.d)
    den = math.sqrt(params.n) * params.b * params.kappa_phi * params.expectation_term
    return math.sqrt(num / den)
