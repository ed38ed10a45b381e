"""Single-machine scheduling against step-by-step simulation oracles."""

import heapq
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from co_pipeline import learning, scheduling
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
from co_pipeline.scheduling import (_MEMO_SEARCHES, _MEMO_TABLES, _PASS_ENTRIES, _TABLES,
                                    _check_permutation, _reinsert_positions, _scan_passes, _total)
from oracles import lexicographic_optimal_schedule

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
# SPT layer (optimal without release dates: criterion 5)


def test_spt_sorts_with_stable_ties():
    assert spt_layer([3.0, 1.0, 2.0]).tolist() == [1, 2, 0]
    assert spt_layer([5.0, 5.0, 5.0]).tolist() == [0, 1, 2]


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, args, error, message", [
    pytest.param(SchedInstance, ([1.0, 2.0], [0.0]), ValueError,
                 "p and r must be equal-length non-empty vectors", id="SchedInstance-unequal"),
    pytest.param(SchedInstance, ([], []), ValueError,
                 "p and r must be equal-length non-empty vectors", id="SchedInstance-empty"),
    pytest.param(SchedInstance, ([1.0, _NAN], [0.0, 0.0]), ValueError, "p and r must be finite",
                 id="SchedInstance-p-nan"),
    pytest.param(SchedInstance, ([1.0], [_INF]), ValueError, "p and r must be finite",
                 id="SchedInstance-r-inf"),
    pytest.param(SchedInstance, ([1.0, 2.0], [0.0, -1.0]), ValueError,
                 "release dates must be >= 0", id="SchedInstance-negative-release"),
    pytest.param(spt_layer, ([[1.0, 2.0]],), ValueError, "theta must be a vector",
                 id="spt_layer-2d"),
    pytest.param(spt_layer, ([1.0, _NAN],), ValueError, "theta must be finite",
                 id="spt_layer-nan"),
    # release dates are drawn as int64
    pytest.param(generate_sched_instance, (4, 1e300, 0), ValueError,
                 "rho must keep the release horizon 50.5 * n * rho below 2**63",
                 id="generate_sched_instance-rho-beyond-int64"),
])
def test_refused_arguments(call, args, error, message):
    with pytest.raises(error) as exc:
        call(*args)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# SRPT (a lower bound on the optimum: criterion 6)


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


@settings(max_examples=300)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1, 100), min_size=n, max_size=n),
    st.lists(st.floats(0, 500), min_size=n, max_size=n),
)))
def test_brute_force_total_is_its_schedules_total(jobs):
    # non-integer p and r, so the order of the additions shows: the total
    # has the bits of evaluate_schedule on the permutation returned, and
    # the bound's sums on plain floats keep the bits of the search on numpy
    # scalars, so it prunes the same branches and returns the same order
    x = SchedInstance(p=np.array(jobs[0]), r=np.array(jobs[1]))
    total, order = brute_force_schedule(x)
    assert total == evaluate_schedule(x, order)[0]
    assert np.array_equal(order, lexicographic_optimal_schedule(x.p, x.r))


def test_brute_force_matches_its_old_search_on_ties():
    rng = np.random.default_rng(15)
    for n in [*range(1, 10), *rng.integers(5, 10, 40)]:
        x = SchedInstance(p=rng.integers(1, 4, n).astype(float),
                          r=rng.integers(0, 4, n).astype(float))
        total, order = brute_force_schedule(x)
        want = lexicographic_optimal_schedule(x.p, x.r)
        assert np.array_equal(order, want), (x.p, x.r)
        assert total == evaluate_schedule(x, want)[0]


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


def _reference_local_search(x: SchedInstance, order, path=None) -> np.ndarray:
    """Oracle: the same descent, scoring one candidate per numpy call; each
    order moved to is appended to path when one is given."""
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
        if not improved:
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
        if path is not None:
            path.append(order)


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
    # one reinsertion pass up to n = 25, two from n = 26
    cases += [(n, kind) for n in (25, 26, 27) for kind in kinds]
    for n, kind in cases:
        x = _differential_instance(rng, n, kind)
        assert x._exact is (kind == "ties")  # only tiny integers take the exact swap path
        start = rng.permutation(n)
        want = _reference_local_search(x, start)
        assert np.array_equal(local_search(x, start), want), (n, kind, x.p, x.r, start)


def test_scan_passes_are_the_scan_order_in_capped_whole_blocks():
    assert _scan_passes(1) == ()  # one job has no moves
    for n in [*range(2, 61), 100]:
        table, d = _reinsert_positions(n), np.arange(n - 1)
        swaps, *passes = _scan_passes(n)
        assert np.array_equal(swaps, table[d, d])
        assert np.array_equal(np.concatenate(passes), table.reshape(n * (n - 1), n))
        for rows in passes:
            assert rows.flags.c_contiguous
            assert rows.shape[0] % max(1, n - 1) == 0
            assert rows.size <= _PASS_ENTRIES or rows.shape[0] == n - 1
        if n in (25, 26, 50, 100):  # all blocks in one pass, then 25, 6 and 1 a pass
            assert len(passes) == {25: 1, 26: 2, 50: 9, 100: 100}[n]


_jobs = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 20), min_size=n, max_size=n),
    st.lists(st.integers(0, 30), min_size=n, max_size=n),
    st.permutations(range(n)),
))


@settings(max_examples=200)
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


def _reference_perturbed_decode(x, w, sigma, nsamples, seed):
    """The running-best loop perturbed_decode replaced: sample k wins only by a
    strictly lower total, so ties go to the lowest sample index.  Each sample
    is searched by the scalar oracle, which remembers nothing."""
    w = np.asarray(w.w, dtype=float)
    phi = features(x)

    def run(weights):
        order = _reference_local_search(x, spt_layer(phi @ weights))
        return _total(x, order), order

    best_cost, best_order = run(w)
    if sigma > 0 and nsamples > 0:
        gaussians = np.random.default_rng(seed).standard_normal((nsamples, w.shape[0]))
        for k in range(nsamples):
            cost, order = run(w + sigma * gaussians[k])
            if cost < best_cost:
                best_cost, best_order = cost, order
    return best_order


def test_perturbed_decode_matches_running_best_loop():
    rng = np.random.default_rng(71)
    for case in range(300):
        n = int(rng.integers(1, 10))
        if case % 3 == 0:
            # repeated (p, r) pairs: identical jobs tie in every sample
            p = rng.integers(1, 4, size=n).astype(float)
            r = rng.integers(0, 3, size=n).astype(float)
            x = SchedInstance(p=p, r=r)
        else:
            x = generate_sched_instance(n, float(rng.choice([0.2, 1.0, 3.0])), int(rng.integers(999)))
        w = WeightVector(rng.uniform(-1, 1, SCHED_FEATURE_DIM), 10.0)
        sigma = float(rng.choice([0.0, 0.1, 1.0, 5.0]))
        nsamples = int(rng.integers(0, 8))
        seed = int(rng.integers(50))
        got = perturbed_decode(x, w, sigma=sigma, nsamples=nsamples, seed=seed)
        want = _reference_perturbed_decode(x, w, sigma, nsamples, seed)
        assert np.array_equal(got, want), (case, sigma, nsamples, seed)


def test_perturbed_decode_rejects_bad_settings():
    x = generate_sched_instance(4, 1.0, seed=0)
    w = WeightVector(np.ones(SCHED_FEATURE_DIM), 10.0)
    for bad, message in (({"sigma": -0.1}, "sigma must be >= 0"),
                         ({"nsamples": -1}, "nsamples must be >= 0"),
                         ({"seed": -1}, "seed must be >= 0")):
        with pytest.raises(ValueError, match=message):
            perturbed_decode(x, w, **bad)


# ---------------------------------------------------------------------------
# the exact swap path on integer data


def _integer_instance(rng, n, kind):
    if kind == "generated":  # generate_sched_instance's draw at a random rho
        r_max = max(1, int(50.5 * n * rng.choice([0.2, 1.0, 3.0])))
        return rng.integers(1, 101, n).astype(float), rng.integers(1, r_max + 1, n).astype(float)
    return rng.integers(1, 4, n).astype(float), rng.integers(0, 6, n).astype(float)  # ties


def _starts(rng, p):
    """A random start, the SPT order and two SPT orders a few adjacent swaps away."""
    n = p.shape[0]
    starts = [rng.permutation(n), spt_layer(p)]
    for _ in range(2):
        start = spt_layer(p)
        for i in rng.integers(0, n - 1, 3) if n > 1 else ():
            start[[i, i + 1]] = start[[i + 1, i]]
        starts.append(start)
    return starts


def test_exact_swaps_match_the_numpy_swap_pass():
    # one instance takes the exact path and its twin, on the same data, the
    # numpy swap pass; each memo is filled by its own path
    rng = np.random.default_rng(31)
    for n in range(1, 31):
        for kind in ("generated", "ties", "generated", "ties"):
            p, r = _integer_instance(rng, n, kind)
            exact, numpy_pass = SchedInstance(p=p, r=r), SchedInstance(p=p, r=r)
            object.__setattr__(numpy_pass, "_exact", False)
            assert exact._exact, (n, kind)
            for start in _starts(rng, p):
                want = local_search(numpy_pass, start)
                got = local_search(exact, start)
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, kind, start)
            assert list(exact._searches) == list(numpy_pass._searches), (n, kind)
            for key, end in exact._searches.items():
                kept = numpy_pass._searches[key]
                assert end.dtype == kept.dtype and np.array_equal(end, kept), (n, kind)


def test_exact_path_guard(monkeypatch):
    # one non-integer value, or integer data whose totals could pass the
    # 2**52 margin, keeps the numpy swap pass; both still give the reference end
    swaps = []
    first_swap = scheduling._first_swap
    monkeypatch.setattr(scheduling, "_first_swap", lambda *a: swaps.append(1) or first_swap(*a))
    rng = np.random.default_rng(32)
    p, r = _integer_instance(rng, 12, "generated")
    fractional, huge = p.copy(), r.copy()
    fractional[5] += 0.5
    huge[3] = 2.0**52
    for x in (SchedInstance(p=fractional, r=r), SchedInstance(p=p, r=huge)):
        assert x._exact is False
        for start in _starts(rng, x.p):
            assert np.array_equal(local_search(x, start), _reference_local_search(x, start))
    assert swaps == []
    x = SchedInstance(p=p, r=r)
    assert x._exact is True
    start = rng.permutation(12)
    assert np.array_equal(local_search(x, start), _reference_local_search(x, start))
    assert swaps


# ---------------------------------------------------------------------------
# the search memo


def test_warm_search_memo_keeps_the_reference_bits():
    # each call runs twice on one instance, so the second reads the memo
    rng = np.random.default_rng(17)
    xs = [generate_sched_instance(n, rho, seed=n) for n in (5, 9, 20) for rho in (0.2, 3.0)]
    xs += [_differential_instance(rng, n, kind) for n in (5, 12)
           for kind in ("uniform", "ties", "near_equal")]
    for x in xs:
        w = WeightVector(rng.uniform(-1, 1, SCHED_FEATURE_DIM), 10.0)
        want_ls = _reference_local_search(x, pipeline_order(x, w, post="none"))
        want_pert = _reference_perturbed_decode(x, w, 5.0, 12, 3)
        for _ in range(2):
            assert np.array_equal(pipeline_order(x, w, post="ls"), want_ls)
            assert np.array_equal(perturbed_decode(x, w, sigma=5.0, nsamples=12, seed=3),
                                  want_pert)
        assert x._searches


def test_repeated_search_returns_a_fresh_writable_array():
    # from a local optimum the descent moves nothing, so a memo that kept the
    # caller's array, or handed out its own, would go stale through a write
    x = generate_sched_instance(9, 1.0, seed=4)
    start = local_search(x, np.arange(9))
    want = start.copy()
    first = local_search(x, start)
    start[:] = start[::-1]
    again = local_search(x, want)
    assert again.flags.writeable and not np.shares_memory(first, again)
    first[:] = 0
    again[:] = 0
    assert np.array_equal(local_search(x, want), want)


def test_warm_search_memo_still_refuses_invalid_orders():
    x = generate_sched_instance(4, 1.0, seed=0)
    local_search(x, [0, 1, 2, 3])
    for bad, error in (([0.0, 1.0, 2.0, 3.0], TypeError), ([0, 1, 2], ValueError),
                       ([0, 1, 2, 2], ValueError), ([[0, 1, 2, 3]], ValueError)):
        with pytest.raises(error):
            local_search(x, bad)


def test_search_memo_never_serves_another_instance():
    # equal p and r make two instances, each with its own memo; and as in
    # test_loss_cache_never_serves_a_freed_instance, a freed instance's id()
    # goes to the next one, which must search from scratch
    x = generate_sched_instance(8, 1.0, seed=0)
    twin = SchedInstance(p=x.p, r=x.r)
    end = local_search(x, np.arange(8))
    # one search stores its end under its start and every order it moved to
    assert np.arange(8).tobytes() in x._searches and twin._searches == {}
    assert all(np.array_equal(kept, end) for kept in x._searches.values())
    stale = 0
    for seed in range(200):
        x = generate_sched_instance(8, 1.0, seed=seed)
        stale += not np.array_equal(local_search(x, np.arange(8)),
                                    _reference_local_search(x, np.arange(8)))
        del x
    assert stale == 0


class _CountedMemo(dict):
    """A search memo that counts the lookups of orders a descent moved to."""

    hits = 0

    def get(self, key, default=None):
        kept = super().get(key, default)
        self.hits += kept is not None
        return kept


def test_merged_searches_keep_the_reference_ends():
    # starts a few swaps apart reach common orders, so later searches stop
    # where an earlier one passed; every answer, and every order left in the
    # memo, must give the reference descent's end from that order
    rng = np.random.default_rng(30)
    for kind in ("uniform", "ties", "near_equal"):
        x = _differential_instance(rng, 10, kind)
        object.__setattr__(x, "_searches", _CountedMemo())
        base = rng.permutation(10)
        for _ in range(60):
            start = base.copy()
            for i in rng.integers(0, 9, 3):
                start[[i, i + 1]] = start[[i + 1, i]]
            assert np.array_equal(local_search(x, start), _reference_local_search(x, start))
        assert x._searches.hits > 0, kind
        for key, end in x._searches.items():
            assert np.array_equal(end, _reference_local_search(x, np.frombuffer(key, int))), kind


def _store_each(memo, keys, size, value):
    """Test copy of the search memo's former store: each key in turn takes
    value and becomes the most recently used, and the least recently used
    entry goes when the memo holds size."""
    for key in keys:
        if memo.pop(key, None) is None and len(memo) >= size:
            del memo[next(iter(memo))]
        memo[key] = value


def _reference_memo_search(memo, x, start):
    """Oracle for the search memo: a remembered start is refreshed; otherwise
    the reference descent runs up to the first remembered order it moves
    to, its end goes under each order moved to and then under the start."""
    key = start.tobytes()
    if key in memo:
        _store_each(memo, [key], _MEMO_SEARCHES, memo[key])
        return
    path = []
    end = _reference_local_search(x, start, path)
    keys = []
    for order in path:
        keys.append(order.tobytes())
        if keys[-1] in memo:
            end = memo[keys[-1]]
            break
    _store_each(memo, keys, _MEMO_SEARCHES, end)
    _store_each(memo, [key], _MEMO_SEARCHES, end)


def test_search_memo_keeps_the_reference_key_order():
    # merged searches fill the memo past its size: after every search it holds
    # the oracle's keys in the oracle's order, with its ends, and two keys share
    # one end array exactly where the oracle's do
    rng = np.random.default_rng(33)
    for kind in ("uniform", "ties", "near_equal"):
        x = _differential_instance(rng, 10, kind)
        memo, seen = {}, set()
        base = rng.permutation(10)
        for _ in range(80):
            start = base.copy()
            for i in rng.integers(0, 9, 3):
                start[[i, i + 1]] = start[[i + 1, i]]
            local_search(x, start)
            _reference_memo_search(memo, x, start)
            seen.update(memo)
            assert list(x._searches) == list(memo), kind
            ends, want = list(x._searches.values()), list(memo.values())
            assert all(np.array_equal(a, b) for a, b in zip(ends, want)), kind
            assert ([next(i for i, b in enumerate(ends) if b is a) for a in ends]
                    == [next(i for i, b in enumerate(want) if b is a) for a in want]), kind
        assert len(seen) > len(memo) == _MEMO_SEARCHES, kind  # entries were dropped


def test_a_non_improving_swap_fails_at_once(monkeypatch):
    # a scoring fault that moves without lowering the total could make the
    # descent cycle; the exact swap path refuses the first such move
    x = generate_sched_instance(8, 1.0, seed=1)
    assert x._exact
    monkeypatch.setattr(scheduling, "_first_swap", lambda p, r, job, done, reach, start: (0, 0.0))
    with pytest.raises(RuntimeError, match="changes the total by 0.0"):
        local_search(x, np.arange(8)[::-1])
    assert x._searches == {}


def test_repeated_start_runs_no_descent(monkeypatch):
    # eval's pipeline_ls start is perturbed_decode's sample 0
    x = generate_sched_instance(20, 1.0, seed=3)
    w = WeightVector(np.random.default_rng(3).uniform(-1, 1, SCHED_FEATURE_DIM), 10.0)
    pipeline_order(x, w, post="ls")
    descents = []
    descend = scheduling._descend
    monkeypatch.setattr(scheduling, "_descend", lambda *a: descents.append(1) or descend(*a))
    pipeline_order(x, w, post="ls")
    perturbed_decode(x, w, sigma=0.0)
    assert descents == []


def test_search_memo_holds_at_most_its_size():
    x = generate_sched_instance(7, 1.0, seed=2)
    rng = np.random.default_rng(5)
    starts = {tuple(rng.permutation(7).tolist()) for _ in range(3 * _MEMO_SEARCHES)}
    assert len(starts) > _MEMO_SEARCHES
    for start in starts:
        local_search(x, start)
        assert len(x._searches) <= _MEMO_SEARCHES
    assert len(x._searches) == _MEMO_SEARCHES


# ---------------------------------------------------------------------------
# the scan-table memo


def test_remembered_scan_tables_are_fresh_scan_passes():
    # every pass is kept, and n = 1 has none
    for n in (1, 2, 5, 6, 20, 26):
        local_search(generate_sched_instance(n, 1.0, seed=n), np.arange(n))
        fresh = _scan_passes(n)
        assert len(_TABLES[n]) == len(fresh) and bool(fresh) == (n > 1)
        for kept, rows in zip(_TABLES[n], fresh):
            assert kept.dtype == rows.dtype and np.array_equal(kept, rows)


def test_remembered_scan_tables_are_read_only():
    for n in (2, 5, 6, 20, 26):
        local_search(generate_sched_instance(n, 1.0, seed=0), np.arange(n))
        assert _TABLES[n]
        for rows in _TABLES[n]:
            with pytest.raises(ValueError):
                rows[0, 0] = 0
        assert np.array_equal(_TABLES[n][0], _scan_passes(n)[0])


def test_scan_table_memo_holds_at_most_its_size():
    sizes = range(3, 3 + 3 * _MEMO_TABLES)
    for n in sizes:
        x = generate_sched_instance(n, 1.0, seed=n)
        start = np.arange(n)[::-1].copy()
        assert np.array_equal(local_search(x, start), _reference_local_search(x, start))
        assert len(_TABLES) <= _MEMO_TABLES and n in _TABLES
    assert list(_TABLES) == list(sizes[-_MEMO_TABLES:])


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
    assert back.p.tobytes() == x.p.tobytes()
    assert back.r.tobytes() == x.r.tobytes()
    assert back.rho == 0.2 and type(back.rho) is float
    assert back.seed == 31 and type(back.seed) is int


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


def _uncached_loss(x, w, post):
    return evaluate_schedule(x, pipeline_order(x, w, post=post))[0] / (x.n * (x.n + 1))


_WEIGHTS = st.lists(st.floats(-10, 10), min_size=SCHED_FEATURE_DIM, max_size=SCHED_FEATURE_DIM)


@settings(max_examples=60)
@given(st.sampled_from(["none", "ls"]), st.lists(_WEIGHTS, min_size=1, max_size=6))
def test_cached_loss_has_the_bits_of_an_uncached_pipeline(post, weights):
    xs = [generate_sched_instance(n, 1.0, seed=n) for n in (1, 5, 8)]
    cfg = experience_loss_config(post=post)
    for w in map(np.array, weights + weights[::-1]):
        for x in xs:
            assert cfg.pipeline_loss(x, w).hex() == _uncached_loss(x, w, post).hex()


@pytest.mark.parametrize("post, cost", [("none", "_total"), ("ls", "local_search")])
def test_cached_loss_computes_features_once_per_instance_and_cost_once_per_order(
        post, cost, monkeypatch):
    calls = {"features": [], cost: []}

    def counting(name):
        fn = getattr(scheduling, name)

        def counted(x, *order):
            calls[name].append((x, *(tuple(o.tolist()) for o in order)))
            return fn(x, *order)
        return counted

    for name in calls:
        monkeypatch.setattr(scheduling, name, counting(name))
    xs = [generate_sched_instance(6, 1.0, seed=seed) for seed in (1, 2)]
    weights = list(np.random.default_rng(9).uniform(-1, 1, (5, SCHED_FEATURE_DIM)))
    for _ in range(2):  # two configs never share an entry
        cfg = experience_loss_config(post=post)
        for w in weights + weights:
            for x in xs:
                cfg.pipeline_loss(x, w)
    orders = {(x, tuple(spt_layer(features(x) @ w).tolist())) for x in xs for w in weights}
    assert calls["features"] == [(x,) for x in xs] * 2
    first, second = calls[cost][:len(orders)], calls[cost][len(orders):]
    assert len(first) == len(orders) and set(first) == orders and second == first


def test_job_ids_must_be_integers():
    # a float id used to be truncated: [0.9, 1.2, 2.5, 3.7] scored as [0, 1, 2, 3]
    x = generate_sched_instance(4, 1.0, seed=0)
    total, by_job = evaluate_schedule(x, [0, 1, 2, 3])
    searched = local_search(x, [0, 1, 2, 3])
    for order in ([0.9, 1.2, 2.5, 3.7], [0.0, 1.0, 2.0, 3.0], np.arange(4.0)):
        for fn in (evaluate_schedule, local_search):
            with pytest.raises(TypeError, match="job ids must be integers"):
                fn(x, order)
    for order in (np.arange(4, dtype=np.int32), np.arange(4, dtype=np.uint8),
                  [np.int64(j) for j in range(4)]):
        got_total, got_by_job = evaluate_schedule(x, order)
        assert got_total.hex() == total.hex() and got_by_job.tobytes() == by_job.tobytes()
        assert local_search(x, order).tolist() == searched.tolist()


def test_instance_arrays_are_read_only_copies():
    # the loss caches key on the instance, so its arrays must not change
    p = np.array([5.0, 1.0, 2.0, 3.0])
    r = np.array([0.0, 4.0, 0.0, 1.0])
    x = SchedInstance(p=p, r=r)
    cfg = experience_loss_config(post="ls")
    w = np.linspace(-1.0, 1.0, SCHED_FEATURE_DIM)
    before = learning.loss(x, w, cfg)
    with pytest.raises(ValueError, match="read-only"):
        x.p[0] = 50.0
    with pytest.raises(ValueError, match="read-only"):
        x.r[0] = 9.0
    p[:] = [50.0, 1.0, 1.0, 1.0]  # the caller's arrays stay writeable, and apart
    r[0] = 9.0
    assert x.p.tolist() == [5.0, 1.0, 2.0, 3.0] and x.r.tolist() == [0.0, 4.0, 0.0, 1.0]
    assert learning.loss(x, w, cfg) == before
    assert learning.loss(x, w, experience_loss_config(post="ls")) == before
