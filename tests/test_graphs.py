"""Graph primitives against exhaustive enumeration oracles."""

import itertools

import numpy as np
import pytest

from co_pipeline.graphs import (
    ENUMERATION_EDGE_LIMIT,
    Graph,
    UnionFind,
    enumerate_spanning_trees,
    grid_graph,
    mst_constrained,
    mst_kruskal,
)

# ---------------------------------------------------------------------------
# independent oracles (no package machinery beyond the Graph container)


def _connected(num_vertices, edges):
    """DFS connectivity check over an edge subset."""
    adj = {v: [] for v in range(num_vertices)}
    for u, v in edges:
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


def _trees_brute(graph):
    """All spanning trees by trying every (|V|-1)-subset of edges."""
    out = []
    for combo in itertools.combinations(range(graph.num_edges), graph.num_vertices - 1):
        chosen = [graph.edges[e] for e in combo]
        if _connected(graph.num_vertices, chosen):
            out.append(frozenset(combo))
    return out


def random_connected_graph(rng, max_vertices=6):
    """Random connected graph on 3..max_vertices vertices."""
    while True:
        n = int(rng.integers(3, max_vertices + 1))
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < 0.6
        edges = [pairs[i] for i in range(len(pairs)) if keep[i]]
        if len(edges) >= n - 1 and _connected(n, edges):
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


def test_union_find_never_merges_same_component():
    uf = UnionFind(4)
    assert uf.union(0, 1)
    assert uf.union(1, 2)
    assert not uf.union(0, 2)  # would close a cycle
    assert uf.num_components == 2
    assert uf.union(2, 3)
    assert uf.num_components == 1


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
    assert g.edges == [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_triangle_and_path():
    assert len(enumerate_spanning_trees(Graph(3, [(0, 1), (0, 2), (1, 2)]))) == 3
    assert len(enumerate_spanning_trees(Graph(3, [(0, 1), (1, 2)]))) == 1


def test_enumerate_k4():
    k4 = Graph(4, list(itertools.combinations(range(4), 2)))
    # Cayley: 4^{4-2} = 16 spanning trees
    assert len(enumerate_spanning_trees(k4)) == 16


def test_enumerate_matches_brute_subsets():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_connected_graph(rng)
        assert sorted(enumerate_spanning_trees(g), key=sorted) == sorted(
            _trees_brute(g), key=sorted
        )


def test_enumerate_size_guard():
    with pytest.raises(ValueError, match="enumeration limited"):
        enumerate_spanning_trees(grid_graph(4, 4))  # 24 edges
    assert ENUMERATION_EDGE_LIMIT == 20


# ---------------------------------------------------------------------------
# MSTs vs the exhaustive oracle


def test_mst_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = random_connected_graph(rng)
        w = rng.normal(size=g.num_edges)
        tree = mst_kruskal(g, w)
        best = min(sum(w[e] for e in t) for t in enumerate_spanning_trees(g))
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
        trees = enumerate_spanning_trees(g)
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


def test_weight_validation():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="edge weights"):
        mst_kruskal(g, [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        mst_kruskal(g, [float("nan")])
