"""Graph primitives against exhaustive enumeration oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from generators import connected_graphs, random_connected_graph
from oracles import (
    components,
    constrained_reference,
    kruskal_reference,
    scipy_tree,
    spanning_trees,
)

from co_pipeline.graphs import (
    _MEMO_TREES,
    Graph,
    _joining,
    _recall,
    grid_graph,
    mst_constrained,
    mst_kruskal,
)

# ---------------------------------------------------------------------------
# construction and validation


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(0, 0), (0, 1)])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0), (1, 2)])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 5)])


def test_graph_rejects_disconnected():
    with pytest.raises(ValueError, match="not connected"):
        Graph(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize("call, args, error, message", [
    pytest.param(Graph, (0, []), ValueError, "graph needs at least one vertex", id="Graph-empty"),
    pytest.param(grid_graph, (0, 3), ValueError, "grid dimensions must be positive",
                 id="grid_graph-width-0"),
    pytest.param(grid_graph, (1, 1), ValueError, "grid needs at least two vertices",
                 id="grid_graph-1x1"),
])
def test_refused_arguments(call, args, error, message):
    with pytest.raises(error) as exc:
        call(*args)
    assert str(exc.value) == message


@settings(max_examples=300)
@given(connected_graphs(), st.data())
def test_graph_rejects_exactly_the_disconnected_edge_sets(g, data):
    keep = data.draw(st.lists(st.booleans(), min_size=g.num_edges, max_size=g.num_edges))
    pairs = list(itertools.compress(g.edges, keep))
    if components(g.num_vertices, pairs) > 1:
        with pytest.raises(ValueError, match="not connected"):
            Graph(g.num_vertices, pairs)
    else:
        assert Graph(g.num_vertices, pairs).edges == tuple(pairs)


def test_joining_never_merges_same_component():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    parent = list(range(4))
    # (0, 2) would close a cycle, so it is refused and the forest is unchanged
    assert list(_joining(parent, edges, [0, 1, 2])) == [0, 1]
    assert list(_joining(parent, edges, [2, 3, 1])) == [3]
    assert list(_joining(parent, edges, range(4))) == []  # one tree: nothing joins


# ---------------------------------------------------------------------------
# grids


def test_grid_counts():
    g = grid_graph(10, 10)
    assert g.num_vertices == 100
    assert g.num_edges == 180
    assert grid_graph(2, 2).num_edges == 4
    g32 = grid_graph(3, 2)
    assert g32.num_vertices == 6
    assert g32.num_edges == 7


def test_grid_edge_order_contract():
    # horizontal edges in row-major order first, then vertical edges
    g = grid_graph(3, 2)
    assert g.edges == ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5))


# ---------------------------------------------------------------------------
# the enumeration oracle itself


def test_enumerate_triangle_and_path():
    assert len(spanning_trees(Graph(3, [(0, 1), (0, 2), (1, 2)]))) == 3
    assert len(spanning_trees(Graph(3, [(0, 1), (1, 2)]))) == 1


def test_enumerate_k4():
    k4 = Graph(4, list(itertools.combinations(range(4), 2)))
    # Cayley: 4^{4-2} = 16 spanning trees
    assert len(spanning_trees(k4)) == 16


# ---------------------------------------------------------------------------
# MSTs (against enumeration: criterion 1 of test_acceptance.py)


def test_mst_matches_scipy_on_random_grids():
    # scipy's csgraph is an independent implementation.  csgraph reads a
    # weight of 0 as a missing edge, so weights lie in [1, 2); they are
    # distinct, so the minimum spanning tree is unique.
    rng = np.random.default_rng(23)
    for _ in range(200):
        g = grid_graph(int(rng.integers(1, 8)), int(rng.integers(2, 8)))
        w = 1.0 + (rng.permutation(g.num_edges) + rng.random(g.num_edges)) / g.num_edges
        assert mst_kruskal(g, w) == scipy_tree(g, w)


def test_mst_tie_break_lowest_edge_ids():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert mst_kruskal(g, [1.0, 1.0, 1.0]) == frozenset({0, 1})


def test_mst_affine_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(rng)
        w = rng.normal(size=g.num_edges)  # continuous: ties have measure zero
        assert mst_kruskal(g, w) == mst_kruskal(g, 3.5 * w + 11.0)


def test_mst_constrained_empty_forced_equals_kruskal():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng)
    w = rng.normal(size=g.num_edges)
    assert mst_constrained(g, w, ()) == mst_kruskal(g, w)


def test_mst_constrained_rejects_forced_cycle():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError, match="cycle"):
        mst_constrained(g, [1.0, 1.0, 1.0], {0, 1, 2})


@settings(max_examples=300)
@given(connected_graphs(), st.data())
def test_mst_constrained_rejects_exactly_the_cyclic_forced_sets(g, data):
    # a forced set is a forest iff |F| = |V| - (components of (V, F))
    n = g.num_vertices
    keep = data.draw(st.lists(st.booleans(), min_size=g.num_edges, max_size=g.num_edges))
    forced = set(itertools.compress(range(g.num_edges), keep))
    w = data.draw(st.lists(st.integers(-3, 3), min_size=g.num_edges, max_size=g.num_edges))
    if len(forced) > n - components(n, [g.edges[e] for e in forced]):
        with pytest.raises(ValueError, match="cycle"):
            mst_constrained(g, w, forced)
    else:
        tree = mst_constrained(g, w, forced)
        assert forced <= tree and len(tree) == n - 1
        assert components(n, [g.edges[e] for e in tree]) == 1


def test_weight_validation():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="edge weights"):
        mst_kruskal(g, [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        mst_kruskal(g, [float("nan")])


_INF, _NAN = float("inf"), float("nan")


# non-finite weights alone, at either end of the sort, and as an inf/-inf mix
# whose sum is NaN
@pytest.mark.parametrize("weights", [
    [_INF, 1.0, 2.0], [1.0, -_INF, 2.0], [1.0, 2.0, _NAN], [_INF, -_INF, 1.0],
    [-_INF, _NAN, 1.0], [_INF, _NAN, 1.0], [_NAN] * 3, [-_INF] * 3,
])
def test_non_finite_weights_are_refused(weights):
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    for forced in (None, (), (2,)):
        with pytest.raises(ValueError, match="edge weights must be finite"):
            if forced is None:
                mst_kruskal(g, weights)
            else:
                mst_constrained(g, weights, forced)
    assert not g._trees


def test_huge_finite_weights_give_the_reference_tree():
    # their sum overflows, which a warning (an error under pytest) would show
    g = grid_graph(3, 3)
    n = g.num_edges
    for w in ([1e308] * n, [-1e308] * n, [1e308, -1e308] * (n // 2),
              [np.finfo(float).max, -np.finfo(float).max] * (n // 2)):
        w = np.array(w)
        want = kruskal_reference(g, w)
        _same_tree(mst_kruskal(g, w), want)
        assert mst_constrained(g, w, ()) == want


def test_edgeless_graph_has_the_empty_tree():
    g = Graph(1, [])
    for _ in range(2):
        assert mst_kruskal(g, []) == frozenset()
        assert mst_constrained(g, np.zeros(0), ()) == frozenset()


# ---------------------------------------------------------------------------
# the per-graph memo of Kruskal trees


@settings(max_examples=200)
@given(connected_graphs(), st.data())
def test_memo_returns_the_memo_free_tree(g, data):
    # a pool with integer ties, 0.0 and -0.0 (equal weights, other bytes),
    # visited in a sequence long enough to evict and recompute entries
    n = g.num_edges
    weight = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0])
    drawn = data.draw(st.lists(st.lists(weight, min_size=n, max_size=n), max_size=2 * _MEMO_TREES))
    pool = [[0.0] * n, [-0.0] * n] + drawn
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=3 * _MEMO_TREES))
    recent = []  # the weight bytes from least to most recently used
    for i in list(range(len(pool))) + picks:
        w = np.array(pool[i])
        tree = mst_kruskal(g, w)
        want = kruskal_reference(g, w)
        assert tree == want and list(tree) == list(want)
        if w.tobytes() in recent:
            recent.remove(w.tobytes())
        recent.append(w.tobytes())
        assert list(g._trees) == recent[-_MEMO_TREES:]
        assert len(g._trees) <= _MEMO_TREES


def test_memo_is_per_graph():
    # same edge count and weights, different edges: each graph its own tree
    g1 = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    g2 = Graph(4, [(0, 1), (2, 3), (1, 2), (0, 2)])
    w = [1.0, 2.0, 3.0, 4.0]
    for _ in range(2):
        assert mst_kruskal(g1, w) == frozenset({0, 1, 3})
        assert mst_kruskal(g2, w) == frozenset({0, 1, 2})


def test_memo_keeps_weight_validation():
    # the invalid weights below come after a valid call of the same length;
    # [[1, 2, 3]] even has the same bytes as the remembered [1, 2, 3]
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert mst_kruskal(g, [1.0, 2.0, 3.0]) == frozenset({0, 1})
    with pytest.raises(ValueError, match="finite"):
        mst_kruskal(g, [float("nan"), 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        mst_kruskal(g, [1.0, float("inf"), 3.0])
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError, match="edge weights"):
            mst_kruskal(g, bad)
    assert len(g._trees) == 1


# ---------------------------------------------------------------------------
# what mst_constrained reuses: the remembered tree and the last forced forest


def _same_tree(got, want):
    assert got == want and list(got) == list(want)


def _assert_latest_tree(g, w):
    key, (tree, _) = next(reversed(g._trees.items()))
    assert key == w.tobytes()
    _same_tree(tree, kruskal_reference(g, w))


@settings(max_examples=200)
@given(connected_graphs(max_vertices=9), st.data())
def test_constrained_reuse_keeps_every_bit(g, data):
    n = g.num_edges
    weight = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    pool = data.draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=2, max_size=4))
    pool = [np.array(w) for w in pool]

    def forest():
        # a subset of some spanning tree of g, so never cyclic
        tree = sorted(kruskal_reference(g, data.draw(st.sampled_from(pool))))
        keep = data.draw(st.lists(st.booleans(), min_size=len(tree), max_size=len(tree)))
        return frozenset(itertools.compress(tree, keep))

    forced = forest()
    for w in pool:  # cold: neither the tree nor the forest is known
        _same_tree(mst_constrained(g, w, set(forced)), constrained_reference(g, w, forced))
    for w in pool:  # the first call remembers the forest, the rest reuse it
        _same_tree(mst_constrained(g, w, forced), constrained_reference(g, w, forced))
    for w in pool[:-1]:  # the trees of all weights but the last are known
        _same_tree(mst_kruskal(g, w), kruskal_reference(g, w))
    for _ in range(2):
        for f in (forced, frozenset(forced), forest()):
            for w in pool:
                _same_tree(mst_constrained(g, w, f), constrained_reference(g, w, f))
                _assert_latest_tree(g, w)  # read and filled like mst_kruskal's

    # a set can change between calls: the forest is remembered by the frozen
    # value the set held, so a changed set gets the tree of what it holds now
    mutable = set(forced)
    for _ in range(3):
        _same_tree(mst_constrained(g, pool[0], mutable), constrained_reference(g, pool[0], mutable))
        if mutable:
            mutable.pop()
        else:
            mutable |= forest()

    # an invalid forced set raises on every call, also after a valid one
    bad = [frozenset({n}), frozenset({-1})]
    if n >= g.num_vertices:  # not a tree itself, so all edges close a cycle
        bad.append(frozenset(range(n)))
    for f in bad:
        for w in (pool[0], pool[-1]):
            for _ in range(2):
                with pytest.raises(ValueError, match="out of range|cycle"):
                    mst_constrained(g, w, f)
            _same_tree(mst_constrained(g, w, forced), constrained_reference(g, w, forced))
            _assert_latest_tree(g, w)


def test_constrained_reuse_rejects_invalid_weights_on_each_path():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    forced = frozenset({2})
    mst_kruskal(g, [1.0, 2.0, 3.0])
    assert mst_constrained(g, [1.0, 2.0, 3.0], forced) == frozenset({0, 2})
    for _ in range(2):
        with pytest.raises(ValueError, match="finite"):
            mst_constrained(g, [float("nan"), 2.0, 3.0], forced)
        with pytest.raises(ValueError, match="edge weights"):
            mst_constrained(g, [[1.0, 2.0, 3.0]], forced)


# ---------------------------------------------------------------------------
# _recall, the one lookup, fill and eviction of every bounded memo


@settings(max_examples=100)
@given(st.sampled_from([1, 4, _MEMO_TREES]), st.lists(st.integers(0, 20), max_size=60))
def test_recall_keeps_the_most_recently_used_entries(size, keys):
    memo, made, recent = {}, [], []  # recent: keys from least to most recently used
    for key in keys:
        remembered, calls = key in recent[-size:], len(made)
        assert _recall(memo, key, size, lambda k: made.append(k) or -k, key) == -key
        assert made[calls:] == ([] if remembered else [key])
        if key in recent:
            recent.remove(key)
        recent.append(key)
        assert list(memo) == recent[-size:]
        assert memo == {k: -k for k in recent[-size:]}


def test_recall_stores_nothing_when_make_raises():
    def make(key):
        if key < 0:
            raise ValueError("refused")
        return key

    memo = {}
    for key in (1, 2):
        _recall(memo, key, 2, make, key)
    for _ in range(2):
        with pytest.raises(ValueError, match="refused"):
            _recall(memo, -1, 2, make, -1)
        assert list(memo) == [1, 2]


# ---------------------------------------------------------------------------
# ids must be integers: a float, even an integral one, would be truncated


def test_graph_refuses_non_integer_vertex_ids():
    for edges in ([(0.5, 1), (1, 2.9)], [(0.0, 1), (1, 2)], [(0, 1), (1, np.float64(2))]):
        with pytest.raises(TypeError, match="vertex ids must be integers"):
            Graph(3, edges)
    g = Graph(3, np.array([[0, 1], [1, 2]], dtype=np.int32))
    assert g.edges == ((0, 1), (1, 2)) and all(type(end) is int for edge in g.edges for end in edge)


def test_mst_constrained_refuses_non_integer_forced_ids():
    g = grid_graph(2, 2)
    w = np.array([0.0, 1.0, 2.0, 3.0])
    want = mst_constrained(g, w, frozenset({1}))
    # the forced forest is remembered by value and frozenset({1.0}) == frozenset({1}),
    # so the check comes before the memo is read
    for forced in ({0.7}, frozenset({1.0}), {np.float64(1.0)}, [1, 0.5]):
        with pytest.raises(TypeError, match="forced edge ids must be integers"):
            mst_constrained(g, w, forced)
    for forced in ({np.int64(1)}, [np.int32(1)], (1,)):
        _same_tree(mst_constrained(g, w, forced), want)
        assert all(type(e) is int for e in mst_constrained(g, w, forced))
