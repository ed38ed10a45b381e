"""Acceptance checks: one criterion per test, one printed verdict line each.

Each test prints `criterion N: PASS/FAIL - detail` before asserting, so a
teed `pytest -v -s tests/test_acceptance.py` run reads as a checklist.
Desk-scale learning runs (criteria 8-10) pin their dataset master seeds
and learner budgets; every run of this file reproduces the same numbers.
"""

import itertools
import json
import math
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy import integrate

from co_pipeline import learning, model, scheduling, two_stage
from co_pipeline.cli import main as cli_main
from co_pipeline.graphs import (
    Graph,
    enumerate_spanning_trees,
    mst_constrained,
    mst_kruskal,
)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared generators


def _connected(num_vertices, pairs):
    adj = {v: [] for v in range(num_vertices)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == num_vertices


def _random_graph(rng, max_vertices=6, max_edges=None):
    while True:
        n = int(rng.integers(3, max_vertices + 1))
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < 0.6
        edges = [pairs[i] for i in range(len(pairs)) if keep[i]]
        if len(edges) < n - 1:
            continue
        if max_edges is not None and len(edges) > max_edges:
            continue
        if _connected(n, edges):
            return Graph(n, edges)


def _random_two_stage(rng, max_edges=8, max_scenarios=3):
    g = _random_graph(rng, max_vertices=5, max_edges=max_edges)
    n_scen = int(rng.integers(1, max_scenarios + 1))
    return two_stage.TwoStageInstance(
        graph=g,
        c=-rng.integers(0, 21, size=g.num_edges).astype(float),
        d=-rng.integers(0, 21, size=(g.num_edges, n_scen)).astype(float),
    )


@lru_cache(maxsize=None)
def _two_stage_desk_set(master_seed):
    cells = [(w, k, s) for w in (4, 5, 6) for k in (10, 20) for s in (3, 5)]
    seeds = np.random.SeedSequence(master_seed).spawn(len(cells) * 2)
    out, pos = [], 0
    for width, K, n_scen in cells:
        for _ in range(2):
            x = two_stage.generate_instance(
                width, K, n_scen, seed=int(seeds[pos].generate_state(1)[0])
            )
            lb, _, _ = two_stage.lagrangian_bound(x, iters=500)
            out.append((x, lb))
            pos += 1
    return out


@lru_cache(maxsize=None)
def _sched_desk_set(master_seed):
    cells = [(n, rho) for n in (8, 20) for rho in (0.2, 1.0, 3.0)]
    seeds = np.random.SeedSequence(master_seed).spawn(len(cells) * 3)
    out, pos = [], 0
    for n, rho in cells:
        for _ in range(3):
            out.append(
                scheduling.generate_sched_instance(
                    n, rho, seed=int(seeds[pos].generate_state(1)[0])
                )
            )
            pos += 1
    return out


def _ts_gap(x, lb, z):
    return 100.0 * (two_stage.evaluate_solution(x, z) - lb) / abs(lb)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_mst_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(10_001)
    checked = 0
    for _ in range(500):
        g = _random_graph(rng)
        w = rng.normal(size=g.num_edges)
        trees = enumerate_spanning_trees(g)
        weight = lambda t: sum(w[e] for e in t)  # noqa: E731
        tree = mst_kruskal(g, w)
        assert weight(tree) == min(weight(t) for t in trees)
        base = min(trees, key=weight)
        forced = frozenset(list(base)[:2])
        ctree = mst_constrained(g, w, forced)
        assert forced <= ctree
        assert weight(ctree) == min(weight(t) for t in trees if forced <= t)
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        checked == 500 and elapsed < 10.0,
        f"500 graphs match exhaustive enumeration in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_perturbation_inequality():
    start = time.perf_counter()
    rng = np.random.default_rng(20_002)
    violations = 0
    worst = -np.inf
    for _ in range(300):
        x = _random_two_stage(rng)
        opt, _ = two_stage.brute_force_optimum(x)
        base = two_stage.theta_tilde(x)
        for _ in range(10):
            p = rng.normal(size=2 * x.num_edges)
            scale = rng.uniform(0.0, 10.0)
            norm1 = float(np.abs(p).sum())
            p *= scale / max(norm1, 1e-12)
            z = two_stage.decode(x, two_stage.easy_layer(x, base + p))
            slack = (
                two_stage.evaluate_solution(x, z)
                - opt
                - 0.5 * abs(opt)
                - float(np.abs(p).sum())
            )
            worst = max(worst, slack)
            if slack > 1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        violations == 0 and elapsed < 60.0,
        f"3000 perturbed decodes, 0 violations (worst slack {worst:.2e}), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_baseline_half_ratio():
    rng = np.random.default_rng(30_003)
    violations = 0
    for _ in range(300):
        x = _random_two_stage(rng)
        opt, _ = two_stage.brute_force_optimum(x)
        cost = two_stage.evaluate_solution(x, two_stage.approx_baseline(x))
        if cost - opt > 0.5 * abs(opt) + 1e-9:
            violations += 1
    _report(3, violations == 0, "300 instances, baseline within half-ratio bound")


def test_criterion_04_lagrangian_bound_sanity():
    rng = np.random.default_rng(40_004)
    below = tight = singles = 0
    for i in range(200):
        x = _random_two_stage(rng, max_scenarios=1 if i % 2 == 0 else 3)
        lb, _, _ = two_stage.lagrangian_bound(x, iters=60)
        opt, _ = two_stage.brute_force_optimum(x)
        if lb <= opt + 1e-9:
            below += 1
        if x.num_scenarios == 1:
            singles += 1
            if abs(lb - opt) <= 1e-6:
                tight += 1
    _report(
        4,
        below == 200 and tight == singles and singles >= 100,
        f"bound <= optimum on 200/200; exact on {tight}/{singles} single-scenario",
    )


def test_criterion_05_spt_matches_brute_force():
    rng = np.random.default_rng(50_005)
    matches = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = scheduling.SchedInstance(
            p=rng.integers(1, 101, size=n).astype(float), r=np.zeros(n)
        )
        got = scheduling.evaluate_schedule(x, scheduling.spt_layer(x.p))[0]
        best, _ = scheduling.brute_force_schedule(x)
        if got == best:
            matches += 1
    _report(5, matches == 200, "SPT equals brute force on 200/200 no-release instances")


def test_criterion_06_srpt_lower_bound():
    rng = np.random.default_rng(60_006)
    ok = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = scheduling.SchedInstance(
            p=rng.integers(1, 101, size=n).astype(float),
            r=rng.integers(0, int(50.5 * n), size=n).astype(float),
        )
        srpt_total = float(scheduling.srpt_preemptive(x).completion.sum())
        best, _ = scheduling.brute_force_schedule(x)
        if srpt_total <= best + 1e-9:
            ok += 1
    _report(6, ok == 200, "preemptive relaxation below optimum on 200/200")


def test_criterion_07_direct_accuracy():
    start = time.perf_counter()
    rng = np.random.default_rng(70_007)
    worst = 0.0
    for d in (2, 3, 5):
        for _ in range(10):
            target = rng.uniform(-1.0, 1.0, size=d)
            res = learning.direct_minimize(
                lambda w: float(np.sum((w - target) ** 2)),
                bounds=[(-1.0, 1.0)] * d,
                budget=1000,
            )
            worst = max(worst, res.value)
    elapsed = time.perf_counter() - start
    _report(
        7,
        worst <= 1e-3 and elapsed < 5.0,
        f"worst value {worst:.2e} (<= 1e-3) over 30 runs in {elapsed:.1f}s (< 5s)",
    )


def test_criterion_08_two_stage_learning_beats_baseline():
    start = time.perf_counter()
    pairs_tr = _two_stage_desk_set(7)
    pairs_te = _two_stage_desk_set(4)
    cfg = two_stage.experience_loss_config(pairs_tr, None)
    train_set = [x for x, _ in pairs_tr]
    learner = learning.LearnerConfig(
        box_radius=10.0, budget=3000, seeds=tuple(range(10))
    )
    wv, _ = learning.learn_by_experience(train_set, learner, cfg)
    learned = float(
        np.mean([_ts_gap(x, lb, two_stage.pipeline_solution(x, wv)) for x, lb in pairs_te])
    )
    baseline = float(
        np.mean([_ts_gap(x, lb, two_stage.approx_baseline(x)) for x, lb in pairs_te])
    )
    elapsed = time.perf_counter() - start
    margin = baseline - learned
    _report(
        8,
        learned <= baseline and elapsed < 900.0,
        f"learned mean gap {learned:.3f}% <= baseline {baseline:.3f}% "
        f"(margin {margin:+.3f} pp vs 1.0 pp target) in {elapsed:.0f}s (< 15 min)",
    )


def test_criterion_09_sigma_sensitivity_ordering():
    pairs_tr = _two_stage_desk_set(7)
    pairs_ho = _two_stage_desk_set(4)
    ho_cfg = two_stage.experience_loss_config(pairs_ho, None)
    ho_set = [x for x, _ in pairs_ho]
    train_set = [x for x, _ in pairs_tr]
    risks = {}
    for sigma in (1e-3, 0.3):
        pert = model.PerturbationConfig(sigma=sigma, nsamples=20, seed=0)
        cfg = two_stage.experience_loss_config(pairs_tr, pert)
        learner = learning.LearnerConfig(box_radius=10.0, budget=300, seeds=(0, 1))
        wv, _ = learning.learn_by_experience(train_set, learner, cfg)
        risks[sigma] = learning.empirical_risk(ho_set, wv.w, ho_cfg)
    _report(
        9,
        risks[0.3] >= risks[1e-3],
        f"held-out risk sigma=0.3 ({risks[0.3]:.5f}) >= sigma=1e-3 ({risks[1e-3]:.5f})",
    )


def test_criterion_10_scheduling_desk_scale():
    train = _sched_desk_set(11)
    test = _sched_desk_set(22)
    cfg = scheduling.experience_loss_config(post="ls")
    learner = learning.LearnerConfig(
        box_radius=10.0, budget=1000, seeds=tuple(range(10))
    )
    wv, _ = learning.learn_by_experience(list(train), learner, cfg)
    gaps = []
    pert_violations = 0
    for x in test:
        costs = [
            scheduling.evaluate_schedule(x, scheduling.spt_layer(x.p))[0],
            scheduling.evaluate_schedule(x, scheduling.pipeline_order(x, wv, post="none"))[0],
            scheduling.evaluate_schedule(x, scheduling.pipeline_order(x, wv, post="ls"))[0],
            scheduling.evaluate_schedule(
                x, scheduling.perturbed_decode(x, wv, sigma=1.0, nsamples=150, seed=0)
            )[0],
        ]
        if x.n <= scheduling.BRUTE_FORCE_JOB_LIMIT:
            costs.append(scheduling.brute_force_schedule(x)[0])
        ref = min(costs)
        gaps.append(100.0 * (costs[2] - ref) / ref)
        if costs[3] > costs[2] + 1e-9:
            pert_violations += 1
    mean_gap = float(np.mean(gaps))
    _report(
        10,
        mean_gap <= 3.0 and pert_violations == 0,
        f"pipeline+LS mean gap {mean_gap:.3f}% (<= 3%), perturbed decode never "
        f"worse ({pert_violations} violations)",
    )


def test_criterion_11_constants_and_scalings():
    quad, _ = integrate.quad(lambda t: math.sqrt(-math.log(t)), 0.0, 1.0)
    c_ok = abs(learning.constant_C() - 48.0 * quad) <= 1e-6
    base = learning.BoundParams(M=2.0, d=6, sigma=0.5, n=100, delta=0.05)
    quad_n = learning.BoundParams(M=2.0, d=6, sigma=0.5, n=400, delta=0.05)
    bound_ok = learning.excess_risk_bound(quad_n) == pytest.approx(
        learning.excess_risk_bound(base) / 2.0, rel=1e-12
    )
    s_base = learning.BoundParams(M=2.0, d=6, n=100)
    s_16n = learning.BoundParams(M=2.0, d=6, n=1600)
    sigma_ok = learning.sigma_n(s_16n) == pytest.approx(
        learning.sigma_n(s_base) / 2.0, rel=1e-12
    )
    _report(
        11,
        c_ok and bound_ok and sigma_ok,
        f"C={learning.constant_C():.7f} within 1e-6 of quadrature; "
        "bound halves at 4n; sigma_n halves at 16n",
    )


def test_criterion_12_end_to_end_determinism(tmp_path):
    def chain(tag):
        gen = tmp_path / f"gen{tag}.json"
        gen.write_text(
            json.dumps(
                {
                    "application": "two_stage",
                    "widths": [3],
                    "K": [10],
                    "scenarios": [2],
                    "per_cell": 2,
                    "seed": 99,
                    "bound_iters": 150,
                }
            )
        )
        ds = tmp_path / f"ds{tag}"
        assert cli_main(["generate", "--config", str(gen), "--out", str(ds)]) == 0
        train = tmp_path / f"train{tag}.json"
        train.write_text(
            json.dumps(
                {
                    "application": "two_stage",
                    "dataset": str(ds),
                    "learner": {"budget": 60, "seeds": [0, 1]},
                }
            )
        )
        wdir = tmp_path / f"w{tag}"
        assert cli_main(["train", "--config", str(train), "--out", str(wdir)]) == 0
        ev = tmp_path / f"eval{tag}.json"
        ev.write_text(
            json.dumps(
                {
                    "application": "two_stage",
                    "dataset": str(ds),
                    "algorithms": [
                        {"name": "approx_baseline", "kind": "approx_baseline"},
                        {
                            "name": "pipeline",
                            "kind": "pipeline",
                            "weights": str(wdir / "weights.json"),
                        },
                    ],
                }
            )
        )
        edir = tmp_path / f"ev{tag}"
        assert cli_main(["eval", "--config", str(ev), "--out", str(edir)]) == 0
        return (edir / "gaps.csv").read_bytes()

    first = chain("a")
    second = chain("b")
    _report(
        12,
        first == second,
        f"generate->train->eval twice: identical {len(first)}-byte gap tables",
    )
