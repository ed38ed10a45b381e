"""Graph primitives against exhaustive enumeration oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import connected, spanning_trees
from scipy.sparse.csgraph import connected_components

from co_pipeline.graphs import (
    _MEMO_TREES,
    Graph,
    _joining,
    _kruskal,
    grid_graph,
    mst_constrained,
    mst_kruskal,
)

# ---------------------------------------------------------------------------
# random graphs


@st.composite
def connected_graphs(draw, max_vertices=8):
    """A random spanning tree on shuffled vertex labels plus random extra
    edges, in shuffled edge order."""
    n = draw(st.integers(2, max_vertices))
    label = draw(st.permutations(range(n)))
    tree = {tuple(sorted((label[v], label[draw(st.integers(0, v - 1))]))) for v in range(1, n)}
    extra = [pair for pair in itertools.combinations(range(n), 2) if pair not in tree]
    keep = draw(st.lists(st.booleans(), min_size=len(extra), max_size=len(extra)))
    return Graph(n, draw(st.permutations(sorted(tree) + list(itertools.compress(extra, keep)))))


def components(num_vertices, pairs):
    """Number of connected components of ({0..num_vertices-1}, pairs), by scipy."""
    adj = np.zeros((num_vertices, num_vertices))
    for u, v in pairs:
        adj[u, v] = 1.0
    return connected_components(adj, directed=False)[0]


def random_connected_graph(rng, max_vertices=6):
    """Random connected graph on 3..max_vertices vertices."""
    while True:
        n = int(rng.integers(3, max_vertices + 1))
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < 0.6
        edges = [pairs[i] for i in range(len(pairs)) if keep[i]]
        if len(edges) >= n - 1 and connected(n, edges):
            return Graph(n, edges)


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


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
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
# MSTs vs the exhaustive oracle


def test_mst_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = random_connected_graph(rng)
        w = rng.normal(size=g.num_edges)
        tree = mst_kruskal(g, w)
        best = min(sum(w[e] for e in t) for t in spanning_trees(g))
        assert sum(w[e] for e in tree) == pytest.approx(best, abs=1e-9)


def test_mst_matches_scipy_on_random_grids():
    # scipy's csgraph is an independent implementation.  csgraph reads a
    # weight of 0 as a missing edge, so weights lie in [1, 2); they are
    # distinct, so the minimum spanning tree is unique.
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng(23)
    for _ in range(200):
        g = grid_graph(int(rng.integers(1, 8)), int(rng.integers(2, 8)))
        w = 1.0 + (rng.permutation(g.num_edges) + rng.random(g.num_edges)) / g.num_edges
        dense = np.zeros((g.num_vertices, g.num_vertices))
        eid = {}
        for e, (u, v) in enumerate(g.edges):
            dense[min(u, v), max(u, v)] = w[e]
            eid[min(u, v), max(u, v)] = e
        rows, cols = csgraph.minimum_spanning_tree(dense).nonzero()
        want = {eid[min(u, v), max(u, v)] for u, v in zip(rows.tolist(), cols.tolist())}
        assert mst_kruskal(g, w) == want


def test_mst_tie_break_lowest_edge_ids():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert mst_kruskal(g, [1.0, 1.0, 1.0]) == frozenset({0, 1})


def test_mst_affine_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(rng)
        w = rng.normal(size=g.num_edges)  # continuous: ties have measure zero
        assert mst_kruskal(g, w) == mst_kruskal(g, 3.5 * w + 11.0)


def test_mst_constrained_matches_restricted_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = random_connected_graph(rng)
        w = rng.normal(size=g.num_edges)
        trees = spanning_trees(g)
        base = min(trees, key=lambda t: sum(w[e] for e in t))
        forced = set(rng.choice(sorted(base), size=min(2, len(base)), replace=False))
        tree = mst_constrained(g, w, forced)
        assert forced <= tree
        best = min(
            sum(w[e] for e in t) for t in trees if forced <= t
        )
        assert sum(w[e] for e in tree) == pytest.approx(best, abs=1e-9)


def test_mst_constrained_empty_forced_equals_kruskal():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng)
    w = rng.normal(size=g.num_edges)
    assert mst_constrained(g, w, ()) == mst_kruskal(g, w)


def test_mst_constrained_rejects_forced_cycle():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError, match="cycle"):
        mst_constrained(g, [1.0, 1.0, 1.0], {0, 1, 2})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
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


# ---------------------------------------------------------------------------
# the per-graph memo of Kruskal trees


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
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
        want = _kruskal(g, w, list(range(g.num_vertices)), [])
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
