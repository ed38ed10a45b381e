"""Single-machine scheduling against step-by-step simulation oracles."""

import heapq
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co_pipeline import learning
from co_pipeline.model import WeightVector
from co_pipeline.scheduling import (
    BRUTE_FORCE_JOB_LIMIT,
    SCHED_FEATURE_DIM,
    SchedInstance,
    SrptStats,
    brute_force_schedule,
    evaluate_schedule,
    experience_loss_config,
    features,
    generate_sched_instance,
    load_sched_instance,
    local_search,
    perturbed_decode,
    pipeline_order,
    save_sched_instance,
    spt_layer,
    srpt_preemptive,
)
from co_pipeline.scheduling import _check_permutation, _total

# ---------------------------------------------------------------------------
# independent oracles


def simulate_schedule(p, r, order):
    """Plain sequential replay: start each job at max(release, machine free)."""
    t = 0.0
    completions = {}
    for j in order:
        t = max(t, r[j]) + p[j]
        completions[j] = t
    return sum(completions.values()), completions


def srpt_unit_time(p, r):
    """Unit-step SRPT for integer data: run the released unfinished job of
    least remaining time (ties to the lowest id) for one time unit."""
    n = len(p)
    remaining = [int(v) for v in p]
    completion = [None] * n
    first_start = [None] * n
    running = None
    preemptions = [0] * n
    t = 0
    while any(c is None for c in completion):
        ready = [j for j in range(n) if r[j] <= t and remaining[j] > 0]
        if not ready:
            t += 1
            continue
        pick = min(ready, key=lambda j: (remaining[j], j))
        if running is not None and running != pick and remaining[running] > 0:
            preemptions[running] += 1
        if first_start[pick] is None:
            first_start[pick] = t
        remaining[pick] -= 1
        t += 1
        if remaining[pick] == 0:
            completion[pick] = t
            running = None
        else:
            running = pick
    return completion, first_start, preemptions


def _random_instance(rng, n_max=8):
    n = int(rng.integers(1, n_max + 1))
    return SchedInstance(
        p=rng.integers(1, 30, size=n).astype(float),
        r=rng.integers(0, 40, size=n).astype(float),
    )


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_hand_recursions():
    x = SchedInstance(p=np.array([2.0, 3.0]), r=np.array([0.0, 0.0]))
    total, comp = evaluate_schedule(x, [0, 1])
    assert total == 7.0
    assert comp.tolist() == [2.0, 5.0]

    x2 = SchedInstance(p=np.array([2.0, 3.0]), r=np.array([4.0, 0.0]))
    total2, comp2 = evaluate_schedule(x2, [1, 0])
    assert comp2.tolist() == [6.0, 3.0]
    assert total2 == 9.0

    x3 = SchedInstance(p=np.array([5.0]), r=np.array([7.0]))
    assert evaluate_schedule(x3, [0])[0] == 12.0


def test_evaluate_matches_independent_simulator():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = _random_instance(rng)
        order = rng.permutation(x.n)
        total, comp = evaluate_schedule(x, order)
        want_total, want_comp = simulate_schedule(x.p, x.r, list(order))
        assert total == pytest.approx(want_total, abs=1e-9)
        for j, cj in want_comp.items():
            assert comp[j] == pytest.approx(cj, abs=1e-9)


def test_evaluate_rejects_non_permutation():
    x = SchedInstance(p=np.array([1.0, 2.0]), r=np.zeros(2))
    with pytest.raises(ValueError):
        evaluate_schedule(x, [0, 0])


# ---------------------------------------------------------------------------
# SPT layer


def test_spt_sorts_with_stable_ties():
    assert spt_layer([3.0, 1.0, 2.0]).tolist() == [1, 2, 0]
    assert spt_layer([5.0, 5.0, 5.0]).tolist() == [0, 1, 2]


def test_spt_optimal_without_releases():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        x = SchedInstance(p=rng.integers(1, 50, size=n).astype(float), r=np.zeros(n))
        got = evaluate_schedule(x, spt_layer(x.p))[0]
        best = min(
            simulate_schedule(x.p, x.r, list(perm))[0]
            for perm in itertools.permutations(range(n))
        )
        assert got == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# SRPT


def test_srpt_hand_example():
    x = SchedInstance(p=np.array([4.0, 1.0]), r=np.array([0.0, 1.0]))
    stats = srpt_preemptive(x)
    assert stats.completion.tolist() == [5.0, 2.0]
    assert stats.first_start.tolist() == [0.0, 1.0]
    assert stats.preemptions.tolist() == [1, 0]


def test_srpt_no_releases_equals_spt():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        x = SchedInstance(p=rng.integers(1, 60, size=n).astype(float), r=np.zeros(n))
        stats = srpt_preemptive(x)
        assert np.all(stats.preemptions == 0)
        _, comp = evaluate_schedule(x, spt_layer(x.p))
        assert np.allclose(stats.completion, comp)


def test_srpt_matches_unit_time_oracle():
    rng = np.random.default_rng(29)
    for _ in range(150):
        x = _random_instance(rng)
        stats = srpt_preemptive(x)
        comp, start, preempt = srpt_unit_time(x.p, x.r)
        assert stats.completion.tolist() == comp
        assert stats.first_start.tolist() == start
        assert stats.preemptions.tolist() == preempt
        assert np.all(stats.completion > x.r)


def test_srpt_lower_bounds_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(30):
        x = _random_instance(rng, n_max=7)
        srpt_total = float(srpt_preemptive(x).completion.sum())
        best, _ = brute_force_schedule(x)
        assert srpt_total <= best + 1e-9


def _reference_srpt(x: SchedInstance) -> SrptStats:
    """Event-driven preemptive SRPT (optimal for the preemptive relaxation).

    At every release or completion the job with the least remaining time
    among released unfinished jobs runs; remaining-time ties go to the
    lower job index.  A job is counted as preempted each time it is
    displaced while unfinished.
    """
    n = x.n
    remaining = x.p.astype(float).copy()
    completion = np.zeros(n)
    first_start = np.zeros(n)
    started = np.zeros(n, dtype=bool)
    preemptions = np.zeros(n, dtype=int)

    release_order = np.argsort(x.r, kind="stable")
    ptr = 0
    t = 0.0
    ready: list[tuple[float, int]] = []
    done = 0
    while done < n:
        while ptr < n and x.r[release_order[ptr]] <= t:
            j = int(release_order[ptr])
            heapq.heappush(ready, (remaining[j], j))
            ptr += 1
        if not ready:
            t = float(x.r[release_order[ptr]])
            continue
        rem, j = heapq.heappop(ready)
        if not started[j]:
            started[j] = True
            first_start[j] = t
        next_release = float(x.r[release_order[ptr]]) if ptr < n else np.inf
        if t + rem <= next_release:
            t += rem
            remaining[j] = 0.0
            completion[j] = t
            done += 1
        else:
            rem -= next_release - t
            remaining[j] = rem
            t = next_release
            while ptr < n and x.r[release_order[ptr]] <= t:
                k = int(release_order[ptr])
                heapq.heappush(ready, (remaining[k], k))
                ptr += 1
            if ready and ready[0] < (rem, j):
                preemptions[j] += 1
            heapq.heappush(ready, (rem, j))
    return SrptStats(completion=completion, first_start=first_start, preemptions=preemptions)


def test_srpt_matches_two_push_reference():
    # the single event loop against the previous implementation, which
    # pushed releases in two places and peeked the heap for preemptions
    rng = np.random.default_rng(37)
    cases = [
        SchedInstance(p=rng.integers(1, 5, size=n).astype(float),
                      r=rng.integers(0, 6, size=n).astype(float))
        for n in rng.integers(1, 13, size=1000)
    ]
    cases += [
        generate_sched_instance(int(n), rho, seed=k)
        for k, (n, rho) in enumerate(zip(rng.integers(1, 40, size=2000),
                                         itertools.cycle([0.05, 0.2, 1.0, 3.0])))
    ]
    for x in cases:
        got, want = srpt_preemptive(x), _reference_srpt(x)
        assert np.array_equal(got.completion, want.completion), (x.p, x.r)
        assert np.array_equal(got.first_start, want.first_start), (x.p, x.r)
        assert np.array_equal(got.preemptions, want.preemptions), (x.p, x.r)


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_two_jobs():
    x = SchedInstance(p=np.array([2.0, 3.0]), r=np.zeros(2))
    cost, order = brute_force_schedule(x)
    assert cost == 7.0
    assert order.tolist() == [0, 1]


def test_brute_force_matches_permutation_enumeration():
    rng = np.random.default_rng(71)
    for _ in range(40):
        x = _random_instance(rng, n_max=6)
        cost, order = brute_force_schedule(x)
        perms = list(itertools.permutations(range(x.n)))
        totals = [simulate_schedule(x.p, x.r, list(perm))[0] for perm in perms]
        best = min(totals)
        assert cost == pytest.approx(best, abs=1e-9)
        # identical tie-break: lexicographically first optimal permutation
        first = next(p for p, t in zip(perms, totals) if t == best)
        assert tuple(order.tolist()) == first


def test_brute_force_size_guard():
    x = SchedInstance(p=np.ones(BRUTE_FORCE_JOB_LIMIT + 1), r=np.zeros(10))
    with pytest.raises(ValueError):
        brute_force_schedule(x)


# ---------------------------------------------------------------------------
# local search and the decoders


def test_local_search_improves_hand_example():
    x = SchedInstance(p=np.array([3.0, 2.0]), r=np.zeros(2))
    out = local_search(x, [0, 1])
    assert out.tolist() == [1, 0]
    assert evaluate_schedule(x, out)[0] == 7.0


def _reference_local_search(x: SchedInstance, order) -> np.ndarray:
    """Oracle: the same descent, scoring one candidate per numpy call."""
    order = _check_permutation(x, order).copy()
    total = _total(x, order)
    n = x.n
    while True:
        improved = False
        for i in range(n - 1):
            cand = order.copy()
            cand[i], cand[i + 1] = cand[i + 1], cand[i]
            cand_total = _total(x, cand)
            if cand_total < total:
                order, total = cand, cand_total
                improved = True
                break
        if improved:
            continue
        for i in range(n):
            job = order[i]
            rest = np.delete(order, i)
            for k in range(n):
                if k == i:
                    continue
                cand = np.insert(rest, k, job)
                cand_total = _total(x, cand)
                if cand_total < total:
                    order, total = cand, cand_total
                    improved = True
                    break
            if improved:
                break
        if not improved:
            return order


def _differential_instance(rng, n, kind):
    if kind == "uniform":  # non-integer data, ties improbable
        return SchedInstance(p=rng.uniform(1, 100, n), r=rng.uniform(0, 50 * n, n))
    if kind == "ties":  # tiny integers, many equal totals
        return SchedInstance(p=rng.integers(1, 4, n).astype(float),
                             r=rng.integers(0, 3, n).astype(float))
    # near-equal processing times under large releases
    return SchedInstance(p=50 + rng.uniform(0, 1e-6, n), r=rng.uniform(0, 1e6, n))


def test_local_search_matches_scalar_scan():
    rng = np.random.default_rng(2024)
    kinds = ("uniform", "ties", "near_equal")
    cases = [(int(rng.integers(1, 31)), kinds[t % 3]) for t in range(1020)]
    cases += [(1, kind) for kind in kinds] + [(2, kind) for kind in kinds]
    cases += [(50, kind) for kind in kinds]
    for n, kind in cases:
        x = _differential_instance(rng, n, kind)
        start = rng.permutation(n)
        want = _reference_local_search(x, start)
        assert np.array_equal(local_search(x, start), want), (n, kind, x.p, x.r, start)


_jobs = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 20), min_size=n, max_size=n),
    st.lists(st.integers(0, 30), min_size=n, max_size=n),
    st.permutations(range(n)),
))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_jobs)
def test_local_search_never_increases_and_is_idempotent(jobs):
    # the output is a permutation, costs no more than the start, is its own
    # local optimum, and is bounded below by the preemptive relaxation
    p, r, start = jobs
    x = SchedInstance(p=np.array(p, dtype=float), r=np.array(r, dtype=float))
    out = local_search(x, start)
    assert sorted(out.tolist()) == list(range(x.n))
    total = evaluate_schedule(x, out)[0]
    assert total <= evaluate_schedule(x, start)[0]
    assert np.array_equal(local_search(x, out), out)
    assert srpt_preemptive(x).completion.sum() <= total


def test_pipeline_order_posts():
    x = generate_sched_instance(7, 1.0, seed=5)
    w = WeightVector(np.zeros(SCHED_FEATURE_DIM), 10.0)
    plain = pipeline_order(x, w, post="none")
    with_ls = pipeline_order(x, w, post="ls")
    assert evaluate_schedule(x, with_ls)[0] <= evaluate_schedule(x, plain)[0]
    with pytest.raises(ValueError):
        pipeline_order(x, w, post="nope")


def test_perturbed_decode_sigma_zero_is_plain():
    x = generate_sched_instance(6, 0.5, seed=8)
    rng = np.random.default_rng(0)
    w = WeightVector(rng.uniform(-1, 1, SCHED_FEATURE_DIM), 10.0)
    got = perturbed_decode(x, w, sigma=0.0, nsamples=9, seed=3)
    want = pipeline_order(x, w, post="ls")
    assert np.array_equal(got, want)


def test_perturbed_decode_never_worse_than_unperturbed():
    rng = np.random.default_rng(53)
    for _ in range(10):
        x = generate_sched_instance(int(rng.integers(3, 12)), 1.0, seed=int(rng.integers(99)))
        w = WeightVector(rng.uniform(-2, 2, SCHED_FEATURE_DIM), 10.0)
        pert = perturbed_decode(x, w, sigma=1.0, nsamples=20, seed=4)
        plain = pipeline_order(x, w, post="ls")
        assert evaluate_schedule(x, pert)[0] <= evaluate_schedule(x, plain)[0] + 1e-9


def test_perturbed_decode_monotone_in_nsamples():
    x = generate_sched_instance(10, 2.0, seed=21)
    w = WeightVector(np.linspace(-1, 1, SCHED_FEATURE_DIM), 10.0)
    costs = [
        evaluate_schedule(x, perturbed_decode(x, w, sigma=1.0, nsamples=k, seed=6))[0]
        for k in (1, 5, 20, 60)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def test_perturbed_decode_deterministic():
    x = generate_sched_instance(8, 1.0, seed=2)
    w = WeightVector(np.ones(SCHED_FEATURE_DIM), 10.0)
    a = perturbed_decode(x, w, sigma=0.7, nsamples=15, seed=11)
    b = perturbed_decode(x, w, sigma=0.7, nsamples=15, seed=11)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# features


def test_features_shape_and_single_job():
    x = SchedInstance(p=np.array([5.0]), r=np.array([7.0]))
    phi = features(x)
    assert phi.shape == (1, SCHED_FEATURE_DIM)
    assert phi[0, 0] == 1.0  # bias
    assert phi[0, 1] == 1.0  # p / pmax
    assert phi[0, 3] == 1.0 and phi[0, 4] == 1.0 and phi[0, 5] == 1.0  # ranks


def test_features_identical_jobs_identical_rows():
    x = SchedInstance(p=np.array([4.0, 4.0, 2.0]), r=np.array([3.0, 3.0, 0.0]))
    phi = features(x)
    assert np.array_equal(phi[0], phi[1])


def test_features_srpt_columns_from_hand_example():
    x = SchedInstance(p=np.array([4.0, 1.0]), r=np.array([0.0, 1.0]))
    phi = features(x)
    horizon = 5.0
    assert phi[:, 6].tolist() == [5.0 / horizon, 2.0 / horizon]
    assert phi[:, 7].tolist() == [0.0, 1.0 / horizon]
    assert phi[:, 8].tolist() == [0.5, 0.0]  # preemptions / n


# ---------------------------------------------------------------------------
# generator, files, loss


def test_generate_frozen_draws():
    x = generate_sched_instance(4, 1.0, seed=0)
    # frozen: first draws from the seeded generator stream
    assert x.p.tolist() == [86.0, 64.0, 52.0, 27.0]
    assert x.r.tolist() == [63.0, 9.0, 16.0, 4.0]


def test_generate_ranges():
    rng = np.random.default_rng(67)
    for _ in range(15):
        n = int(rng.integers(1, 40))
        rho = float(rng.choice([0.2, 0.5, 1.0, 2.0, 3.0]))
        x = generate_sched_instance(n, rho, seed=int(rng.integers(10_000)))
        assert np.all((x.p >= 1) & (x.p <= 100))
        assert np.all((x.r >= 1) & (x.r <= max(1, int(50.5 * n * rho))))
        assert x.rho == rho


def test_sched_file_round_trip(tmp_path):
    x = generate_sched_instance(9, 0.2, seed=31)
    path = tmp_path / "inst.json"
    save_sched_instance(path, x)
    payload = json.loads(path.read_text())
    assert set(payload) == {"n", "rho", "p", "r", "seed"}
    back = load_sched_instance(path)
    assert np.array_equal(back.p, x.p)
    assert np.array_equal(back.r, x.r)
    assert back.rho == 0.2 and back.seed == 31


def test_experience_loss_spt_selector_reaches_optimum_over_u():
    # weights picking the processing-time feature order jobs by SPT,
    # optimal whenever nothing is released late
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        x = SchedInstance(p=rng.integers(1, 80, size=n).astype(float), r=np.zeros(n))
        cfg = experience_loss_config(post="none")
        w = np.zeros(SCHED_FEATURE_DIM)
        w[1] = 1.0
        best, _ = brute_force_schedule(x)
        assert cfg.pipeline_loss(x, w) == pytest.approx(best / (n * (n + 1)), abs=1e-12)


def test_loss_cache_never_serves_a_freed_instance():
    # Each instance is scored once and dropped, so CPython hands its id()
    # to the next one; an id-keyed cache must not take it for the old one.
    shared = experience_loss_config(post="none")
    w = np.linspace(-1.0, 1.0, SCHED_FEATURE_DIM)
    stale = 0
    for seed in range(200):
        x = generate_sched_instance(8, 1.0, seed=seed)
        fresh = experience_loss_config(post="none")
        stale += learning.loss(x, w, shared) != learning.loss(x, w, fresh)
        del x
    assert stale == 0
