"""Two-stage spanning-tree application against exhaustive oracles.

The independent oracle below enumerates every (first-stage forest,
per-scenario completion) split by brute force over edge subsets — a
second, slower route that shares no tree machinery with the package.
"""

import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from generators import connected_graphs, random_two_stage
from oracles import (
    components,
    constrained_reference,
    kruskal_reference,
    scipy_tree,
    spanning_trees,
)

from co_pipeline import graphs, two_stage
from co_pipeline.graphs import Graph, _joining, grid_graph, mst_constrained, mst_kruskal
from co_pipeline.two_stage import (
    BRUTE_FORCE_EDGE_LIMIT,
    TWO_STAGE_FEATURE_DIM,
    EasySolution,
    TwoStageInstance,
    TwoStageSolution,
    _complete_or_empty,
    _raw_features,
    _scenario_subproblems,
    approx_baseline,
    brute_force_optimum,
    decode,
    easy_layer,
    evaluate_solution,
    experience_loss_config,
    features,
    generate_instance,
    incidence_vector,
    lagrangian_bound,
    lagrangian_heuristic,
    load_instance,
    pipeline_solution,
    save_instance,
)

# ---------------------------------------------------------------------------
# independent oracle


def exhaustive_two_stage(x):
    """Minimum over all (forest, per-scenario tree completion) splits."""
    g = x.graph
    n, m = g.num_vertices, g.num_edges
    trees = spanning_trees(g)
    best = np.inf
    for bits in range(1 << m):
        forest = frozenset(e for e in range(m) if bits >> e & 1)
        # a forest iff |F| = |V| - (components of (V, F))
        if len(forest) != n - components(n, [g.edges[e] for e in forest]):
            continue
        total = sum(x.c[e] for e in forest)
        feasible = True
        for s in range(x.num_scenarios):
            comps = [sum(x.d[e, s] for e in t - forest) for t in trees if forest <= t]
            if not comps:
                feasible = False
                break
            total += min(comps) / x.num_scenarios
        if feasible and total < best:
            best = total
    return best


def _triangle(c, d):
    return TwoStageInstance(
        graph=Graph(3, [(0, 1), (0, 2), (1, 2)]),
        c=np.asarray(c, dtype=float),
        d=np.asarray(d, dtype=float),
    )


def _one_edge(c, d_row):
    return TwoStageInstance(
        graph=Graph(2, [(0, 1)]),
        c=np.array([float(c)]),
        d=np.array([[float(v) for v in d_row]]),
    )


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_single_edge_each_stage():
    x = _one_edge(-5, [-3])
    first = TwoStageSolution(frozenset({0}), (frozenset(),))
    second = TwoStageSolution(frozenset(), (frozenset({0}),))
    assert evaluate_solution(x, first) == -5.0
    assert evaluate_solution(x, second) == -3.0


def test_evaluate_triangle_hand_sum():
    x = _triangle([-5, -2, -4], [[-1, -6], [-3, -3], [-2, -7]])
    z = TwoStageSolution(frozenset({0}), (frozenset({2}), frozenset({1})))
    # by hand: -5 + ((-2) + (-3)) / 2
    assert evaluate_solution(x, z) == -7.5


def test_evaluate_rejects_overlap_naming_scenario():
    x = _triangle([-5, -2, -4], [[-1], [-3], [-2]])
    z = TwoStageSolution(frozenset({0, 1}), (frozenset({0, 2}),))
    with pytest.raises(ValueError, match="scenario 0"):
        evaluate_solution(x, z)


def test_evaluate_rejects_non_tree():
    x = _triangle([-5, -2, -4], [[-1], [-3], [-2]])
    z = TwoStageSolution(frozenset({0}), (frozenset(),))
    with pytest.raises(ValueError, match="scenario 0"):
        evaluate_solution(x, z)


def test_evaluate_rejects_cyclic_first_stage():
    # a first-stage triangle has as many edges as a spanning tree of the
    # triangle and its pendant vertex, and every second stage is empty
    x = TwoStageInstance(graph=Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
                         c=-np.ones(4), d=-np.ones((4, 2)))
    z = TwoStageSolution(frozenset({0, 1, 2}), (frozenset(), frozenset()))
    for _ in range(2):
        with pytest.raises(ValueError, match="^scenario 0: edge set is not a spanning tree$"):
            evaluate_solution(x, z)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("stage, at", [("first stage", 0), ("scenario 1", 2)],
                         ids=["first_stage", "scenario_1"])
def test_evaluate_refuses_ids_the_graph_does_not_have(stage, at, bad, warm):
    # a negative id would index the edge list from its end and be priced,
    # and an id past its end would raise IndexError
    x = _triangle([-5, -2, -4], [[-1, -6], [-3, -3], [-2, -7]])
    sets = [frozenset({0}), frozenset({2}), frozenset({1})]
    valid = TwoStageSolution(sets[0], tuple(sets[1:]))
    sets[at] = frozenset({bad})
    invalid = TwoStageSolution(sets[0], tuple(sets[1:]))
    for z in [valid, invalid, invalid, valid] if warm else [invalid, invalid, valid]:
        if z is valid:
            assert evaluate_solution(x, z) == -7.5
        else:
            with pytest.raises(ValueError) as exc:
                evaluate_solution(x, z)
            assert str(exc.value) == f"{stage}: edge id {bad} out of range"
    assert list(x._prices) == [((0,), ((2,), (1,)))]


# ---------------------------------------------------------------------------
# easy layer and decoding


def test_easy_layer_single_edge_prefers_cheaper_stage():
    x = _one_edge(-5, [-3])
    y = easy_layer(x, np.array([-5.0, -3.0]))
    assert y.first_stage == frozenset({0})
    assert y.second_stage == frozenset()


def test_easy_layer_rejects_theta_of_wrong_length():
    x = _triangle([-1, -4, -2], [[-3], [-1], [-2]])
    for size in (3, 5, 7):
        with pytest.raises(ValueError, match="2\\*num_edges"):
            easy_layer(x, np.full(size, -1.0))
    with pytest.raises(ValueError, match="2\\*num_edges"):
        easy_layer(x, np.full((2, 3), -1.0))


def test_easy_layer_rejects_non_finite_theta():
    x = _triangle([-1, -4, -2], [[-3], [-1], [-2]])
    # the last pair sums to NaN
    for at, bad in (([4], [np.nan]), ([4], [np.inf]), ([4], [-np.inf]),
                    ([1, 4], [np.inf, -np.inf])):
        theta = np.full(6, -1.0)
        theta[at] = bad
        with pytest.raises(ValueError, match="theta must be finite"):
            easy_layer(x, theta)


def test_easy_layer_takes_extreme_finite_theta():
    # a sum of these overflows, which would warn (an error under pytest)
    x = _triangle([-1, -4, -2], [[-3], [-1], [-2]])
    top = np.finfo(float).max
    y = easy_layer(x, np.array([top, top, top, -top, -top, -top]))
    assert y == EasySolution(frozenset(), frozenset({0, 1}))
    y = easy_layer(x, np.array([-top, top, -top, top, -top, top]))
    assert y == EasySolution(frozenset({0}), frozenset({1}))
    edgeless = TwoStageInstance(graph=Graph(1, []), c=np.zeros(0), d=np.zeros((0, 2)))
    assert easy_layer(edgeless, np.zeros(0)) == EasySolution(frozenset(), frozenset())


def test_easy_layer_tie_goes_first_stage():
    x = _triangle([-3, -3, -3], [[-3], [-3], [-3]])
    y = easy_layer(x, np.full(6, -3.0))
    assert y.second_stage == frozenset()
    assert len(y.first_stage) == 2


def test_easy_layer_triangle_mixed_stages():
    x = _triangle([-1, -4, -2], [[-3], [-1], [-2]])
    y = easy_layer(x, np.array([-1.0, -4.0, -2.0, -3.0, -1.0, -2.0]))
    # min-weights (-3, -4, -2): tree {0, 1}; edge 0 cheaper second stage
    assert y.first_stage == frozenset({1})
    assert y.second_stage == frozenset({0})


def test_easy_layer_objective_minimal_over_enumerated_splits():
    rng = np.random.default_rng(31)
    for _ in range(25):
        x = random_two_stage(rng)
        cbar = -rng.random(x.num_edges) * 10
        dbar = -rng.random(x.num_edges) * 10
        y = easy_layer(x, np.concatenate([cbar, dbar]))
        got = sum(cbar[e] for e in y.first_stage) + sum(dbar[e] for e in y.second_stage)
        # oracle: every spanning tree, every 2^{tree} stage split
        best = np.inf
        for tree in spanning_trees(x.graph):
            for k in range(len(tree) + 1):
                for first in itertools.combinations(sorted(tree), k):
                    val = sum(cbar[e] for e in first) + sum(dbar[e] for e in tree - set(first))
                    best = min(best, val)
        assert got == pytest.approx(best, abs=1e-9)


def test_decode_two_candidates():
    x = _one_edge(-5, [-3])
    y = EasySolution(frozenset({0}), frozenset())
    z = decode(x, y.first_stage)
    assert z.first_stage == frozenset({0})  # candidate A wins at -5 vs -3

    x2 = _one_edge(-1, [-5])
    z2 = decode(x2, y.first_stage)
    assert z2.first_stage == frozenset()  # candidate B (all second stage) wins
    assert z2.second_stage == (frozenset({0}),)

    # a 4-cycle has four trees per scenario, and B (-27) beats A (-18), whose
    # first edge costs 0, the most it can.  Each of B's second stages must be
    # its scenario's unique minimum tree: built from the maximum trees, B
    # (-18.5) would still win, so only the last check would see it.
    x3 = TwoStageInstance(graph=grid_graph(2, 2), c=np.zeros(4),
                          d=np.array([[-10.0, -2.0], [-9.0, -10.0], [-8.0, -9.0], [-1.0, -8.0]]))
    z3 = decode(x3, frozenset({0}))
    trees = spanning_trees(x3.graph)
    assert len(trees) == 4 and z3.first_stage == frozenset()
    assert z3.second_stage == tuple(min(trees, key=lambda t: sum(x3.d[e, s] for e in t))
                                    for s in range(x3.num_scenarios))


def test_decode_tie_keeps_candidate_a():
    x = _one_edge(-4, [-4])
    z = decode(x, frozenset({0}))
    assert z.first_stage == frozenset({0})


def test_decode_empty_first_stage_candidates_coincide():
    rng = np.random.default_rng(8)
    x = random_two_stage(rng)
    y = EasySolution(frozenset(), frozenset())
    z = decode(x, y.first_stage)
    assert z.first_stage == frozenset()
    trees = spanning_trees(x.graph)
    want = np.mean([min(sum(x.d[e, s] for e in t) for t in trees) for s in range(x.num_scenarios)])
    assert evaluate_solution(x, z) == pytest.approx(want, abs=1e-9)


@st.composite
def small_instances(draw):
    """A random connected graph on at most 8 vertices, 1-3 scenarios, and
    integer costs in [-20, 0]."""
    g = draw(connected_graphs())
    m, n_scen = g.num_edges, draw(st.integers(1, 3))
    size = m * (1 + n_scen)
    costs = np.array(draw(st.lists(st.integers(-20, 0), min_size=size, max_size=size)), dtype=float)
    return TwoStageInstance(graph=g, c=costs[:m], d=costs[m:].reshape(m, n_scen))


def _spans(x, edge_ids):
    """Whether the edge ids form a spanning tree, by scipy."""
    n = x.graph.num_vertices
    return len(edge_ids) == n - 1 and components(n, [x.graph.edges[e] for e in edge_ids]) == 1


@settings(max_examples=300)
@given(small_instances(), st.data())
def test_evaluate_solution_accepts_exactly_the_spanning_trees(x, data):
    # the first stage is part of one scipy tree; each scenario adds either
    # another scipy tree through it (its edges made the lightest) or a
    # random edge set
    m = x.num_edges

    def distinct_weights():
        return 2.0 + np.array(data.draw(st.permutations(range(m)))) / m

    tree = scipy_tree(x.graph, distinct_weights())
    first = frozenset(e for e in tree if data.draw(st.booleans()))
    second = []
    for _ in range(x.num_scenarios):
        if data.draw(st.booleans()):
            w = distinct_weights()
            w[list(first)] -= 1.0
            es = scipy_tree(x.graph, w)
        else:
            es = frozenset(data.draw(st.sets(st.integers(0, m - 1))))
        second.append(es - first)
    z = TwoStageSolution(first, tuple(second))
    if all(_spans(x, first | es) for es in second):
        acc = sum(x.d[e, s] for s, es in enumerate(second) for e in es)
        want = sum(x.c[e] for e in first) + acc / x.num_scenarios
        assert evaluate_solution(x, z) == pytest.approx(want, abs=1e-9)
    else:
        with pytest.raises(ValueError, match="not a spanning tree"):
            evaluate_solution(x, z)


@settings(max_examples=200)
@given(small_instances(), st.data())
def test_decode_always_feasible(x, data):
    theta = data.draw(st.lists(st.floats(-10, 10), min_size=2 * x.num_edges,
                               max_size=2 * x.num_edges))
    z = decode(x, easy_layer(x, np.array(theta)).first_stage)
    evaluate_solution(x, z)  # raises if infeasible
    assert all(_spans(x, z.first_stage | es) for es in z.second_stage)


# evaluate_solution against its per-edge form


def _same_bits(a, b):
    """Equal values with equal sign bits, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def float_cost_instances(draw, max_scenarios=4):
    """A random connected graph on at most 8 vertices, 1-4 scenarios, and
    non-integer costs in [-20, 0], signed zeros included."""
    g = draw(connected_graphs())
    m, n_scen = g.num_edges, draw(st.integers(1, max_scenarios))
    size = m * (1 + n_scen)
    costs = np.array(draw(st.lists(st.floats(-20, 0), min_size=size, max_size=size)))
    return TwoStageInstance(graph=g, c=costs[:m], d=costs[m:].reshape(m, n_scen))


def _evaluate_per_edge(x, z):
    """Oracle: evaluate_solution with one numpy scalar lookup per edge.  The
    builtin sum over numpy scalars adds with plain + on every Python version."""
    if len(z.second_stage) != x.num_scenarios:
        raise ValueError(
            f"expected {x.num_scenarios} second-stage sets, got {len(z.second_stage)}"
        )
    graph = x.graph
    for s, es in enumerate(z.second_stage):
        if z.first_stage & es:
            raise ValueError(f"scenario {s}: first and second stage overlap")
        union = z.first_stage | es
        joined = _joining(list(range(graph.num_vertices)), graph.edges, union)
        if len(union) != graph.num_vertices - 1 or len(list(joined)) != len(union):
            raise ValueError(f"scenario {s}: edge set is not a spanning tree")
    first = float(sum(x.c[e] for e in z.first_stage))
    second = sum(sum(x.d[e, s] for e in es) for s, es in enumerate(z.second_stage))
    return first + second / x.num_scenarios


def _outcome(evaluate, x, z):
    """(cost, None) for a feasible z, (None, message) for an infeasible one."""
    try:
        return evaluate(x, z), None
    except ValueError as exc:
        return None, str(exc)


def _assert_evaluations_match(x, z):
    got, got_error = _outcome(evaluate_solution, x, z)
    want, want_error = _outcome(_evaluate_per_edge, x, z)
    assert got_error == want_error
    if want_error is None:
        assert _same_bits(got, want)


def _random_solution(rng, x):
    """A feasible solution: a random part of one MST as the first stage,
    completed per scenario by an MST on random weights through it."""
    tree = sorted(mst_kruskal(x.graph, rng.random(x.num_edges)))
    first = frozenset(e for e in tree if rng.random() < 0.5)
    second = tuple(
        mst_constrained(x.graph, rng.random(x.num_edges), first) - first
        for _ in range(x.num_scenarios)
    )
    return TwoStageSolution(first, second)


def _broken(rng, x, z, s, kinds):
    """z with each of kinds applied in turn to scenario s's set: "overlap"
    adds a first-stage edge, "cycle" an edge outside the union, "drop"
    removes an edge; a kind that cannot apply is skipped."""
    es = z.second_stage[s]
    for kind in kinds:
        outside = sorted(set(range(x.num_edges)) - z.first_stage - es)
        if kind == "overlap" and z.first_stage:
            es = es | {rng.choice(sorted(z.first_stage))}
        elif kind == "cycle" and outside:
            es = es | {rng.choice(outside)}
        elif kind == "drop" and es:
            es = es - {rng.choice(sorted(es))}
    return TwoStageSolution(z.first_stage, z.second_stage[:s] + (es,) + z.second_stage[s + 1:])


@pytest.mark.parametrize("width", range(2, 9))
def test_evaluate_solution_equals_per_edge_sum_on_grids(width):
    # non-integer costs and 10 scenarios, so the order of the additions shows
    rng = np.random.default_rng(width)
    graph = grid_graph(width, width)
    x = TwoStageInstance(graph=graph, c=-rng.uniform(0, 20, graph.num_edges),
                         d=-rng.uniform(0, 20, (graph.num_edges, 10)))
    for _ in range(20):
        z = _random_solution(rng, x)
        _assert_evaluations_match(x, z)
        for kinds in (["overlap"], ["cycle"], ["drop"], ["drop", "overlap"], ["overlap", "cycle"]):
            _assert_evaluations_match(x, _broken(rng, x, z, int(rng.integers(10)), kinds))
    empty = TwoStageSolution(frozenset(), tuple(mst_kruskal(graph, x.d[:, s]) for s in range(10)))
    _assert_evaluations_match(x, empty)


@settings(max_examples=300)
@given(float_cost_instances(), st.data())
def test_evaluate_solution_equals_per_edge_sum(x, data):
    # the same cost bits on feasible solutions; on broken ones the same
    # message, naming the same first failing scenario
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z = _random_solution(rng, x)
    for s in range(x.num_scenarios):
        z = _broken(rng, x, z, s, data.draw(st.lists(st.sampled_from(["overlap", "cycle", "drop"]),
                                                     max_size=2)))
    _assert_evaluations_match(x, z)


# ---------------------------------------------------------------------------
# evaluate_solution's price memo


def _pipeline_outputs(x, data):
    """Two decodes, the baseline, the heuristic and a pipeline solution of x."""
    def floats(n):
        return np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))

    _, lam, _ = lagrangian_bound(x, iters=20)
    return [decode(x, easy_layer(x, floats(x.dim)).first_stage),
            decode(x, easy_layer(x, floats(x.dim)).first_stage),
            approx_baseline(x), lagrangian_heuristic(x, lam),
            pipeline_solution(x, floats(TWO_STAGE_FEATURE_DIM))]


@settings(max_examples=150)
@given(float_cost_instances(), st.data())
def test_memo_prices_every_output_like_a_fresh_check(x, data):
    # the decode rule prices the same solutions again and again; each call,
    # the first and every repeat, has the bits of a memo-free evaluation
    outputs = _pipeline_outputs(x, data)
    for z in outputs + outputs[::-1] + outputs:
        two_stage._check_feasible(x, z)
        assert _same_bits(evaluate_solution(x, z), two_stage._price(x, z))
        assert _same_bits(evaluate_solution(x, z), _evaluate_per_edge(x, z))


@settings(max_examples=100)
@given(float_cost_instances(), st.data())
def test_memo_never_stores_an_infeasible_solution(x, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z = _random_solution(rng, x)
    s = data.draw(st.integers(0, x.num_scenarios - 1))
    bad = _broken(rng, x, z, s, data.draw(st.lists(
        st.sampled_from(["overlap", "cycle", "drop"]), min_size=1, max_size=2)))
    _, want = _outcome(_evaluate_per_edge, x, bad)
    if want is None:
        return  # no kind applied, or a drop and a cycle that made another tree
    for _ in range(3):
        with pytest.raises(ValueError) as exc:
            evaluate_solution(x, bad)
        assert str(exc.value) == want
        assert _same_bits(evaluate_solution(x, z), two_stage._price(x, z))


def _order_sensitive_instance():
    """A 4x4 grid whose first-stage costs at edges 1, 9 and 17 sum to other
    bits in another order, with free second stages completing those edges."""
    graph = grid_graph(4, 4)
    c = np.full(graph.num_edges, -1.0)
    c[[1, 9, 17]] = [-0.1, -0.2, -0.3]
    x = TwoStageInstance(graph=graph, c=c, d=np.zeros((graph.num_edges, 2)))
    first = frozenset({1, 9, 17})
    return x, tuple(mst_constrained(graph, x.d[:, s], first) - first for s in range(2))


def test_memo_keeps_each_iteration_order_its_own_bits():
    # equal first stages built in other orders: the memo must not answer
    # one with the other's sum
    x, second = _order_sensitive_instance()
    firsts = {tuple(f): f for f in map(frozenset, itertools.permutations([1, 9, 17]))}
    assert len(firsts) > 1  # the test needs sets that iterate differently
    solutions = [TwoStageSolution(f, second) for f in firsts.values()]
    assert all(z == solutions[0] for z in solutions)
    prices = [two_stage._price(x, z) for z in solutions]
    assert len({p.hex() for p in prices}) > 1
    for _ in range(2):
        for z, want in zip(solutions, prices):
            assert _same_bits(evaluate_solution(x, z), want)


def test_memo_refuses_non_integer_ids():
    # a float id equals its int and hashes like it, so without the check a
    # float copy would get the int solution's price, and raise only when fresh
    def recast(z, kind):
        return TwoStageSolution(frozenset(map(kind, z.first_stage)),
                                tuple(frozenset(map(kind, es)) for es in z.second_stage))

    fresh = generate_instance(2, 5, 1, seed=0)
    want = evaluate_solution(fresh, approx_baseline(fresh))
    for floats_first in (False, True):
        x = generate_instance(2, 5, 1, seed=0)
        z = approx_baseline(x)
        calls = [recast(z, float), z] if floats_first else [z, recast(z, float)]
        for zz in calls + calls:
            if zz is z:
                assert _same_bits(evaluate_solution(x, zz), want)
            else:
                with pytest.raises(TypeError, match="edge ids must be integers"):
                    evaluate_solution(x, zz)
        assert _same_bits(evaluate_solution(x, recast(z, np.int64)), want)


def test_memo_is_bounded_and_per_instance(monkeypatch):
    checks = []
    check = two_stage._check_feasible
    monkeypatch.setattr(two_stage, "_check_feasible", lambda x, z: checks.append(z) or check(x, z))
    rng = np.random.default_rng(5)
    graph = grid_graph(3, 3)
    x, twin = (TwoStageInstance(graph=graph, c=-rng.uniform(0, 20, graph.num_edges),
                                d=-rng.uniform(0, 20, (graph.num_edges, 3))) for _ in range(2))
    solutions = [_random_solution(rng, x) for _ in range(3 * two_stage._MEMO_PRICES)]
    for z in solutions:
        evaluate_solution(x, z)
        assert len(x._prices) <= two_stage._MEMO_PRICES
    assert len(x._prices) == two_stage._MEMO_PRICES
    assert not twin._prices
    # the most recent prices are answered, the oldest priced again
    checks.clear()
    for z in solutions[-two_stage._MEMO_PRICES:]:
        evaluate_solution(x, z)
    assert checks == []
    evaluate_solution(x, solutions[0])
    assert checks == [solutions[0]]
    # the same solutions on another instance get that instance's prices
    for z in solutions[-two_stage._MEMO_PRICES:]:
        assert _same_bits(evaluate_solution(twin, z), two_stage._price(twin, z))
        assert evaluate_solution(twin, z) != evaluate_solution(x, z)


_NO_WIDTH = _triangle([-1, -1, -1], [[-1], [-1], [-1]])
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, args, error, message", [
    pytest.param(TwoStageInstance, (_NO_WIDTH.graph, -np.ones(2), -np.ones((3, 1))), ValueError,
                 "c must have one entry per edge", id="TwoStageInstance-c-short"),
    *[pytest.param(TwoStageInstance, (_NO_WIDTH.graph, -np.ones(3), d), ValueError,
                   "d must be (num_edges, num_scenarios)", id=f"TwoStageInstance-d-{name}")
      for name, d in (("vector", -np.ones(3)), ("rows", -np.ones((2, 1))),
                      ("no-scenario", -np.ones((3, 0))))],
    pytest.param(TwoStageInstance, (_NO_WIDTH.graph, [-1.0, _NAN, -1.0], -np.ones((3, 1))),
                 ValueError, "costs must be finite", id="TwoStageInstance-c-nan"),
    pytest.param(TwoStageInstance, (_NO_WIDTH.graph, -np.ones(3), [[-1.0], [-_INF], [-1.0]]),
                 ValueError, "costs must be finite", id="TwoStageInstance-d-inf"),
    pytest.param(TwoStageInstance, (_NO_WIDTH.graph, [-1.0, 0.5, -1.0], -np.ones((3, 1))),
                 ValueError, "costs must be <= 0", id="TwoStageInstance-c-positive"),
    pytest.param(TwoStageInstance, (_NO_WIDTH.graph, -np.ones(3), [[-1.0], [1.0], [-1.0]]),
                 ValueError, "costs must be <= 0", id="TwoStageInstance-d-positive"),
    pytest.param(evaluate_solution, (_NO_WIDTH, TwoStageSolution(frozenset(), ())), ValueError,
                 "expected 1 second-stage sets, got 0", id="evaluate_solution-no-scenario"),
    pytest.param(lagrangian_heuristic, (_NO_WIDTH, np.zeros((3, 2))), ValueError,
                 "duals must be (num_edges, num_scenarios)", id="lagrangian_heuristic-duals"),
    pytest.param(save_instance, (os.devnull, _NO_WIDTH), ValueError,
                 "only grid instances with a recorded width are serializable",
                 id="save_instance-no-width"),
    # scenario costs are drawn as int64
    pytest.param(generate_instance, (3, 1e300, 2, 0), ValueError, "K must be <= 2**63",
                 id="generate_instance-K-beyond-int64"),
])
def test_refused_arguments(call, args, error, message):
    with pytest.raises(error) as exc:
        call(*args)
    assert str(exc.value) == message


def test_instance_costs_are_read_only_copies():
    c = np.array([-1.0, -2.0, -3.0])
    d = np.array([[-1.0], [-2.0], [-3.0]])
    x = TwoStageInstance(graph=Graph(3, [(0, 1), (0, 2), (1, 2)]), c=c, d=d)
    with pytest.raises(ValueError, match="read-only"):
        x.c[0] = -5.0
    with pytest.raises(ValueError, match="read-only"):
        x.d[0, 0] = -5.0
    c[0] = d[0, 0] = -7.0  # the caller's arrays stay writeable, and apart
    assert x.c[0] == x.d[0, 0] == -1.0
    assert x._c_list == [-1.0, -2.0, -3.0] and x._d_cols == [[-1.0, -2.0, -3.0]]


# ---------------------------------------------------------------------------
# brute force vs the independent oracle


def test_brute_force_one_edge():
    cost, z = brute_force_optimum(_one_edge(-5, [-3]))
    assert cost == -5.0
    assert z.first_stage == frozenset({0})


def test_brute_force_free_first_stage():
    rng = np.random.default_rng(17)
    x = random_two_stage(rng)
    x0 = TwoStageInstance(graph=x.graph, c=np.zeros(x.num_edges), d=x.d)
    cost, _ = brute_force_optimum(x0)
    trees = spanning_trees(x.graph)
    want = np.mean([min(sum(x.d[e, s] for e in t) for t in trees) for s in range(x.num_scenarios)])
    assert cost == pytest.approx(want, abs=1e-9)


def test_brute_force_matches_independent_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(12):
        x = random_two_stage(rng, max_edges=7)
        cost, z = brute_force_optimum(x)
        assert cost == pytest.approx(exhaustive_two_stage(x), abs=1e-9)
        assert evaluate_solution(x, z) == pytest.approx(cost, abs=1e-9)


def test_brute_force_grid_matches_oracle():
    x = generate_instance(2, 12, 2, seed=3)  # 2x2 grid, 4 edges
    cost, _ = brute_force_optimum(x)
    assert cost == pytest.approx(exhaustive_two_stage(x), abs=1e-9)


def test_brute_force_cost_is_its_solutions_price():
    # non-integer costs, so the order of the additions shows: the optimum
    # has the bits of evaluate_solution on the solution returned
    rng = np.random.default_rng(0)
    for i in range(20):
        graph = grid_graph(3, 3) if i % 2 == 0 else grid_graph(4, 2)
        n_scen = int(rng.integers(1, 6))
        x = TwoStageInstance(graph=graph, c=-rng.uniform(0, 20, graph.num_edges),
                             d=-rng.uniform(0, 20, (graph.num_edges, n_scen)))
        cost, z = brute_force_optimum(x)
        assert _same_bits(cost, evaluate_solution(x, z))


def test_brute_force_size_guard():
    x = generate_instance(3, 10, 1, seed=0)  # 12 edges: at the limit
    assert x.num_edges == BRUTE_FORCE_EDGE_LIMIT
    brute_force_optimum(x)
    big = generate_instance(4, 10, 1, seed=0)
    with pytest.raises(ValueError):
        brute_force_optimum(big)


# ---------------------------------------------------------------------------
# baseline (its ½-ratio guarantee and robustness inequality: criteria 3 and 2)


def test_baseline_free_second_stage_picks_mst_on_c():
    rng = np.random.default_rng(2)
    x = random_two_stage(rng)
    x0 = TwoStageInstance(graph=x.graph, c=x.c, d=np.zeros_like(x.d))
    z = approx_baseline(x0)
    want = min(sum(x0.c[e] for e in t) for t in spanning_trees(x0.graph))
    assert evaluate_solution(x0, z) == pytest.approx(want, abs=1e-9)


def test_baseline_free_first_stage_returns_scenario_msts():
    rng = np.random.default_rng(21)
    x = random_two_stage(rng)
    x0 = TwoStageInstance(graph=x.graph, c=np.zeros(x.num_edges), d=x.d)
    z = approx_baseline(x0)
    assert z.first_stage == frozenset()
    assert evaluate_solution(x0, z) == pytest.approx(exhaustive_two_stage(x0), abs=1e-9)


# ---------------------------------------------------------------------------
# Lagrangian bound and heuristic


def _bound_slack(x, cost):
    """How far a computed Lagrangian bound may sit above a feasible cost.

    In exact arithmetic the bound is at most every feasible cost, so only
    rounding can put it above one, where the bound is tight.  The bound adds
    S trees of V - 1 weights and divides by S; the cost adds at most as many
    costs.  All are <= 0, and a sum of n floats of one sign is within about
    (n - 1) * 2**-53 * |sum| of the exact sum, under n - 1 ulps of |sum|.
    One ulp of |cost| per term of each sum, 2 * S * (V - 1) ulps, covers
    both sums and the division.  The multipliers' zero mean per edge also
    holds only up to rounding; the excess measured on the 240 desk
    instances (widths 4-6, K 10/20, S 5, seeds 0-39) is at most 1 ulp.
    """
    return 2 * x.num_scenarios * (x.graph.num_vertices - 1) * math.ulp(abs(cost))


def test_bound_single_scenario_tight():
    rng = np.random.default_rng(5)
    for _ in range(8):
        x = random_two_stage(rng, max_scenarios=1)
        lb, lam, _ = lagrangian_bound(x, iters=1)
        opt, _ = brute_force_optimum(x)
        assert lb == pytest.approx(opt, abs=1e-9)
        assert np.all(lam == 0.0)


def test_bound_below_optimum():
    rng = np.random.default_rng(6)
    for _ in range(15):
        x = random_two_stage(rng)
        lb, _, _ = lagrangian_bound(x, iters=120)
        opt, _ = brute_force_optimum(x)
        assert lb <= opt + _bound_slack(x, opt)


def test_bound_trace_non_decreasing():
    x = generate_instance(3, 20, 4, seed=11)
    _, _, trace = lagrangian_bound(x, iters=80)
    assert len(trace) == 80
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_duals_stay_zero_mean_per_edge():
    x = generate_instance(3, 20, 3, seed=2)
    _, lam, _ = lagrangian_bound(x, iters=60)
    assert np.allclose(lam.sum(axis=1), 0.0, atol=1e-9)


def test_heuristic_single_scenario_optimal():
    rng = np.random.default_rng(9)
    for _ in range(8):
        x = random_two_stage(rng, max_scenarios=1)
        _, lam, _ = lagrangian_bound(x, iters=5)
        z = lagrangian_heuristic(x, lam)
        opt, _ = brute_force_optimum(x)
        assert evaluate_solution(x, z) == pytest.approx(opt, abs=1e-9)


def test_heuristic_identical_scenarios_optimal():
    rng = np.random.default_rng(14)
    for _ in range(8):
        x = random_two_stage(rng, max_scenarios=1)
        d3 = np.repeat(x.d, 3, axis=1)
        x3 = TwoStageInstance(graph=x.graph, c=x.c, d=d3)
        _, lam, _ = lagrangian_bound(x3, iters=60)
        z = lagrangian_heuristic(x3, lam)
        opt, _ = brute_force_optimum(x3)
        assert evaluate_solution(x3, z) == pytest.approx(opt, abs=1e-9)


def test_heuristic_cost_at_least_bound():
    rng = np.random.default_rng(15)
    for _ in range(15):
        x = random_two_stage(rng)
        lb, lam, _ = lagrangian_bound(x, iters=60)
        z = lagrangian_heuristic(x, lam)
        cost = evaluate_solution(x, z)
        assert lb <= cost + _bound_slack(x, cost)


def test_stored_bound_at_most_every_feasible_cost():
    # the 500-iteration bound that generate stores, against each output that
    # eval prices; these seeds include tight bounds that round one ulp above
    # the heuristic's cost
    rng = np.random.default_rng(3)
    above = 0
    for width, K, seed in itertools.product((4, 5), (10, 20), range(20)):
        x = generate_instance(width, K, 5, seed=seed)
        lb, lam, _ = lagrangian_bound(x, iters=500)
        w = rng.uniform(-10, 10, TWO_STAGE_FEATURE_DIM)
        for z in (approx_baseline(x), lagrangian_heuristic(x, lam), pipeline_solution(x, w)):
            cost = evaluate_solution(x, z)
            assert lb <= cost + _bound_slack(x, cost)
            above += lb > cost
    assert above > 0


# the subgradient step against its per-scenario form


def _scenario_subproblems_per_scenario(x, lam):
    """Oracle: the relaxed MSTs with one numpy pass per scenario."""
    value = 0.0
    ybar = np.zeros((x.num_edges, x.num_scenarios))
    for s in range(x.num_scenarios):
        reduced = x.c + lam[:, s]
        weights = np.minimum(reduced, x.d[:, s])
        tree = np.fromiter(mst_kruskal(x.graph, weights), dtype=int)
        value += weights[tree].sum()
        take_first = tree[reduced[tree] <= x.d[tree, s]]
        ybar[take_first, s] = 1.0
    return value / x.num_scenarios, ybar


def _lagrangian_bound_per_scenario(x, iters):
    """Oracle: lagrangian_bound on the per-scenario step, means by ndarray.mean."""
    lam = np.zeros((x.num_edges, x.num_scenarios))
    best = -np.inf
    trace = []
    s0 = 1.0
    stall = 0
    for _ in range(iters):
        value, ybar = _scenario_subproblems_per_scenario(x, lam)
        if value > best:
            best = value
            stall = 0
        else:
            stall += 1
            if stall >= 50:
                s0 /= 2.0
                stall = 0
        trace.append(best)
        g = ybar - ybar.mean(axis=1, keepdims=True)
        g_sq = float((g * g).sum())
        if g_sq <= 1e-12:
            break
        scale = abs(best) if best != 0.0 else 1.0
        lam = lam + (s0 * scale / (g_sq + 1e-12)) * g
        lam -= lam.mean(axis=1, keepdims=True)
    return best, lam, trace


def _lagrangian_heuristic_per_scenario(x, lam):
    _, ybar = _scenario_subproblems_per_scenario(x, lam)
    score = ybar.mean(axis=1)
    order = sorted(np.flatnonzero(score >= 0.5).tolist(), key=lambda e: (-score[e], e))
    forest = _joining(list(range(x.graph.num_vertices)), x.graph.edges, order)
    return _complete_or_empty(x, frozenset(forest))


def _assert_bound_matches_per_scenario(x, iters):
    best, lam, trace = lagrangian_bound(x, iters=iters)
    want_best, want_lam, want_trace = _lagrangian_bound_per_scenario(x, iters)
    assert type(best) is type(want_best) is np.float64 and _same_bits(best, want_best)
    assert np.array_equal(lam, want_lam) and _same_bits(lam, want_lam)
    assert len(trace) == len(want_trace)
    assert all(type(a) is np.float64 and _same_bits(a, b) for a, b in zip(trace, want_trace))
    value, ybar = _scenario_subproblems(x)(lam)
    want_value, want_ybar = _scenario_subproblems_per_scenario(x, lam)
    assert type(value) is np.float64 and _same_bits(value, want_value)
    assert ybar.flags.c_contiguous and _same_bits(ybar, want_ybar)
    assert lagrangian_heuristic(x, lam) == _lagrangian_heuristic_per_scenario(x, lam)


@pytest.mark.parametrize("width", range(2, 13))
def test_bound_equals_per_scenario_loop_on_grids(width):
    # K = 0 makes every weight tie; S >= 8 sums the scenarios' (E, S) rows
    # with numpy's unrolled pairwise loop; non-integer costs show the order
    # of every addition
    for K in (0, 10):
        for n_scen in (1, 3, 4, 8, 10):
            _assert_bound_matches_per_scenario(generate_instance(width, K, n_scen, seed=width), 60)
    rng = np.random.default_rng(width)
    graph = grid_graph(width, width)
    for n_scen in (3, 10):
        x = TwoStageInstance(graph=graph, c=-rng.uniform(0, 20, graph.num_edges),
                             d=-rng.uniform(0, 20, (graph.num_edges, n_scen)))
        _assert_bound_matches_per_scenario(x, 60)


@settings(max_examples=150)
@given(float_cost_instances(max_scenarios=10))
def test_bound_equals_per_scenario_loop(x):
    _assert_bound_matches_per_scenario(x, 40)


def test_bound_on_one_vertex_without_edges():
    for n_scen in (1, 3):
        x = TwoStageInstance(graph=Graph(1, []), c=np.zeros(0), d=np.zeros((0, n_scen)))
        _assert_bound_matches_per_scenario(x, 5)
        best, lam, trace = lagrangian_bound(x, iters=5)
        assert best == 0.0 and lam.shape == (0, n_scen) and len(trace) == 1


def test_bound_arrays_do_not_leak():
    # one ascent writes its arrays in place; nothing it returns is shared
    # with another run or with a later step
    x = generate_instance(4, 10, 4, seed=3)
    best, lam, trace = lagrangian_bound(x, iters=60)
    kept = lam.copy()
    lam[...] = 7.0
    again, lam_again, trace_again = lagrangian_bound(x, iters=60)
    assert _same_bits(again, best) and _same_bits(lam_again, kept)
    assert np.array(trace_again).tobytes() == np.array(trace).tobytes()
    assert not np.shares_memory(lam, lam_again)
    value, ybar = _scenario_subproblems(x)(kept)
    value_again, ybar_again = _scenario_subproblems(x)(kept)
    assert not np.shares_memory(ybar, ybar_again)
    ybar[...] = 5.0
    assert _same_bits(value_again, value) and set(np.unique(ybar_again)) <= {0.0, 1.0}
    assert lagrangian_heuristic(x, kept) == _lagrangian_heuristic_per_scenario(x, kept)


def _bound_and_solutions(x):
    """Every output of the bound, the heuristic and the baseline, as bytes
    and edge ids in set iteration order."""
    best, lam, trace = lagrangian_bound(x, iters=250)
    out = [best.tobytes(), lam.tobytes(), np.array(trace).tobytes()]
    for z in (lagrangian_heuristic(x, lam), approx_baseline(x)):
        out += [list(z.first_stage), [list(es) for es in z.second_stage]]
        out.append(np.float64(evaluate_solution(x, z)).tobytes())
    return out


def test_kruskal_memo_keeps_every_bit(monkeypatch):
    # desk cells where the bound's per-scenario weights repeat most
    misses = calls = 0
    kruskal, mst = graphs._kruskal, two_stage.mst_kruskal

    def counted_kruskal(*args):
        nonlocal misses
        misses += 1
        return kruskal(*args)

    def counted_mst(*args):
        nonlocal calls
        calls += 1
        return mst(*args)

    cells = list(itertools.product((4, 6), (10, 20), range(2)))
    with monkeypatch.context() as m:
        m.setattr(graphs, "_kruskal", counted_kruskal)
        m.setattr(two_stage, "mst_kruskal", counted_mst)
        memo = [_bound_and_solutions(generate_instance(w, K, 4, seed=s)) for w, K, s in cells]
    assert misses < calls / 2  # the memo answered most calls
    monkeypatch.setattr(two_stage, "mst_kruskal", kruskal_reference)
    monkeypatch.setattr(two_stage, "mst_constrained", constrained_reference)
    for (w, K, s), got in zip(cells, memo):
        assert got == _bound_and_solutions(generate_instance(w, K, 4, seed=s))


# ---------------------------------------------------------------------------
# features


def _quantiles5_ref(values):
    """Sorted linear interpolation at (0, .25, .5, .75, 1)."""
    v = sorted(values)
    out = []
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        pos = q * (len(v) - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, len(v) - 1)
        out.append(v[lo] + (pos - lo) * (v[hi] - v[lo]))
    return out


def test_features_shape_and_bias():
    x = generate_instance(3, 10, 3, seed=1)
    phi = features(x)
    assert phi.shape == (2 * x.num_edges, TWO_STAGE_FEATURE_DIM)
    assert np.all(phi[:, 0] == 1.0)


def test_features_raw_one_edge_quantiles():
    x = _one_edge(-5, [-3, -1])
    phi = _raw_features(x)
    second = phi[1]
    assert second[2] == -2.0  # mean second-stage cost
    assert second[3:8].tolist() == _quantiles5_ref([-3.0, -1.0])
    assert second[3:8].tolist() == [-3.0, -2.5, -2.0, -1.5, -1.0]
    # first-stage row carries the raw c and zeros in the d blocks
    first = phi[0]
    assert first[1] == -5.0
    assert np.all(first[2:8] == 0.0)


def test_features_quantiles_match_reference_interpolation():
    x = generate_instance(3, 18, 5, seed=77)
    phi = _raw_features(x)
    for e in range(x.num_edges):
        assert phi[x.num_edges + e, 3:8].tolist() == pytest.approx(
            _quantiles5_ref(x.d[e].tolist()), abs=1e-12
        )


def test_features_constant_scenarios_quantiles_collapse():
    x = _triangle([-5, -2, -4], [[-3, -3, -3], [-3, -3, -3], [-3, -3, -3]])
    phi = _raw_features(x)
    assert np.all(phi[3:, 3:8] == -3.0)


def test_features_tree_graph_mst_indicator_all_ones():
    x = TwoStageInstance(
        graph=Graph(4, [(0, 1), (1, 2), (2, 3)]),
        c=np.array([-1.0, -2.0, -3.0]),
        d=np.array([[-1.0], [-1.0], [-1.0]]),
    )
    phi = _raw_features(x)
    assert np.all(phi[:3, 18] == 1.0)


def test_features_standardized_columns():
    x = generate_instance(4, 20, 4, seed=5)
    phi = features(x)
    mu = phi[:, 1:].mean(axis=0)
    sd = phi[:, 1:].std(axis=0)
    for j in range(mu.size):
        if sd[j] > 0:
            assert abs(mu[j]) < 1e-9
            assert sd[j] == pytest.approx(1.0, abs=1e-9)
        else:
            assert np.all(phi[:, 1 + j] == 0.0)


def _neighbour_quantiles_per_edge(x):
    """Oracle: the neighbour quantile blocks by two np.quantile calls per edge."""
    qs = [0.0, 0.25, 0.5, 0.75, 1.0]
    inc = x.graph.incident_edges()
    q_nc = np.empty((x.num_edges, 5))
    q_nd = np.empty((x.num_edges, 5))
    for e, (u, v) in enumerate(x.graph.edges):
        nb = sorted(set(inc[u]) | set(inc[v]))
        q_nc[e] = np.quantile(x.c[nb], qs)
        q_nd[e] = np.quantile(x.d[nb, :].ravel(), qs)
    return q_nc, q_nd


def _assert_neighbour_quantiles_match(x):
    phi = _raw_features(x)
    q_nc, q_nd = _neighbour_quantiles_per_edge(x)
    m = x.num_edges
    assert _same_bits(phi[:m, 8:13], q_nc)
    assert _same_bits(phi[m:, 13:18], q_nd)


@pytest.mark.parametrize("width", range(2, 13))
def test_features_neighbour_quantiles_equal_per_edge_loop_on_grids(width):
    x = generate_instance(width, 20, 3, seed=width)
    _assert_neighbour_quantiles_match(x)
    rng = np.random.default_rng(width)
    _assert_neighbour_quantiles_match(TwoStageInstance(
        graph=x.graph, c=-rng.uniform(0, 20, x.num_edges), d=-rng.uniform(0, 20, x.d.shape)
    ))


@settings(max_examples=200)
@given(float_cost_instances())
def test_features_neighbour_quantiles_equal_per_edge_loop(x):
    _assert_neighbour_quantiles_match(x)


def test_incidence_vector_layout():
    x = _triangle([-5, -2, -4], [[-1], [-3], [-2]])
    y = EasySolution(frozenset({1}), frozenset({0}))
    vec = incidence_vector(x, y)
    assert vec.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# generator and files


def test_generate_frozen_draws():
    x = generate_instance(2, 10, 2, seed=0)
    # frozen: first draw from the seeded generator stream
    assert x.c.tolist() == [-3.0, -7.0, -10.0, -15.0]
    assert x.d.tolist() == [
        [-7.0, -10.0],
        [-10.0, -10.0],
        [-9.0, -2.0],
        [-3.0, 0.0],
    ]
    assert x.graph.edges == ((0, 1), (2, 3), (0, 2), (1, 3))


def test_generate_ranges_and_determinism():
    rng = np.random.default_rng(55)
    for _ in range(10):
        width = int(rng.integers(2, 5))
        K = int(rng.integers(1, 30))
        x = generate_instance(width, K, 3, seed=int(rng.integers(10_000)))
        assert x.graph.num_vertices == width * width
        assert np.all((x.c >= -20) & (x.c <= 0))
        assert np.all((x.d >= -K) & (x.d <= 0))
    a = generate_instance(4, 15, 2, seed=99)
    b = generate_instance(4, 15, 2, seed=99)
    assert np.array_equal(a.c, b.c) and np.array_equal(a.d, b.d)


def test_generate_width_10_grid():
    x = generate_instance(10, 10, 1, seed=0)
    assert x.graph.num_vertices == 100
    assert x.num_edges == 180


def test_instance_file_round_trip(tmp_path):
    x = generate_instance(3, 17, 4, seed=123)
    path = tmp_path / "inst.json"
    save_instance(path, x)
    payload = json.loads(path.read_text())
    assert set(payload) == {"width", "num_scenarios", "c", "d", "seed", "K"}
    assert len(payload["d"]) == x.num_edges  # edge-major
    back = load_instance(path)
    assert back.c.tobytes() == x.c.tobytes()
    assert back.d.tobytes() == x.d.tobytes() and back.d.shape == x.d.shape
    assert back.width == 3 and back.K == 17 and back.seed == 123
    assert type(back.K) is int and type(back.seed) is int


def test_instance_file_shape_is_checked_before_the_grid(tmp_path, monkeypatch):
    # a grid of width 10**6 would exhaust memory before its costs are compared
    path = tmp_path / "inst.json"
    save_instance(path, generate_instance(3, 10, 2, seed=0))
    payload = json.loads(path.read_text())
    monkeypatch.setattr(two_stage, "grid_graph", _no_grid)
    for change, message in (({"width": 10**6}, "first-stage costs"),
                            ({"c": payload["c"] * 2}, "first-stage costs"),
                            ({"d": payload["d"][:-1]}, "scenario costs")):
        path.write_text(json.dumps({**payload, **change}))
        with pytest.raises(ValueError) as exc:
            load_instance(path)
        assert str(exc.value) == f"{path}: instance file {message} have the wrong shape"


def _no_grid(*args):
    raise AssertionError("the grid was built before the costs were checked")


# ---------------------------------------------------------------------------
# pipeline plumbing


def test_experience_loss_normalized_gap():
    x = _one_edge(-5, [-3])
    lb, _, _ = lagrangian_bound(x, iters=1)
    assert lb == -5.0  # single scenario: tight
    assert evaluate_solution(x, approx_baseline(x)) == lb
    cfg = experience_loss_config([(x, lb)], None)
    # one edge: the pipeline reaches the optimum at any weights -> zero gap
    for w in (np.zeros(TWO_STAGE_FEATURE_DIM), np.linspace(-3.0, 3.0, TWO_STAGE_FEATURE_DIM)):
        assert cfg.pipeline_loss(x, w) == 0.0


def _loss_pairs():
    xs = [generate_instance(3, 20, 2, seed=seed) for seed in (3, 4)]
    return [(x, lagrangian_bound(x, iters=30)[0]) for x in xs]


_LOSS_PAIRS = _loss_pairs()
_WEIGHTS = st.lists(st.floats(-10, 10), min_size=TWO_STAGE_FEATURE_DIM,
                    max_size=TWO_STAGE_FEATURE_DIM)


@settings(max_examples=60)
@given(st.lists(_WEIGHTS, min_size=1, max_size=6))
def test_cached_loss_has_the_bits_of_an_uncached_pipeline(weights):
    cfg = experience_loss_config(_LOSS_PAIRS, None)
    for w in map(np.array, weights + weights[::-1]):
        for x, lb in _LOSS_PAIRS:
            want = (evaluate_solution(x, pipeline_solution(x, w)) - lb) / max(1.0, abs(lb))
            assert _same_bits(cfg.pipeline_loss(x, w), want)


def test_cached_loss_computes_features_once_per_instance_and_decode_once_per_first_stage(
        monkeypatch):
    calls = {"features": [], "decode": []}

    def counting(name):
        fn = getattr(two_stage, name)

        def counted(x, *first):
            calls[name].append((x, *first))
            return fn(x, *first)
        return counted

    for name in calls:
        monkeypatch.setattr(two_stage, name, counting(name))
    weights = list(np.random.default_rng(9).uniform(-1, 1, (5, TWO_STAGE_FEATURE_DIM)))
    xs = [x for x, _ in _LOSS_PAIRS]
    for _ in range(2):  # two configs never share an entry
        cfg = experience_loss_config(_LOSS_PAIRS, None)
        for w in weights + weights:
            for x in xs:
                cfg.pipeline_loss(x, w)
    firsts = {(x, easy_layer(x, features(x) @ w).first_stage) for x in xs for w in weights}
    assert calls["features"] == [(x,) for x in xs] * 2
    first, second = calls["decode"][:len(firsts)], calls["decode"][len(firsts):]
    assert len(first) == len(firsts) and set(first) == firsts and second == first


def test_loss_rejects_an_instance_outside_its_pairs():
    # the gap needs the instance's lower bound, so the loss scores only
    # its own pairs; a lookalike instance is another key
    x = generate_instance(3, 20, 2, seed=5)
    cfg = experience_loss_config([(x, lagrangian_bound(x, iters=20)[0])], None)
    w = np.linspace(-1.0, 1.0, TWO_STAGE_FEATURE_DIM)
    assert cfg.pipeline_loss(x, w) >= 0.0
    with pytest.raises(KeyError):
        cfg.pipeline_loss(generate_instance(3, 20, 2, seed=5), w)
    with pytest.raises(KeyError):
        experience_loss_config([], None).pipeline_loss(x, w)
