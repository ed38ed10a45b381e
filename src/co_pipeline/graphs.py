"""Undirected graphs, deterministic Kruskal MSTs, and grid graphs.

Edges are identified by their position in the edge list.  All tree
computations break weight ties by ascending edge id, so every function in
this module is a pure deterministic map from its inputs.  That lets each
graph remember its recent Kruskal trees and its last forced forest (_recall).
"""

from __future__ import annotations

import math
import numbers
from itertools import islice

import numpy as np

__all__ = [
    "Graph",
    "mst_kruskal",
    "mst_constrained",
    "grid_graph",
]

# Kruskal trees each graph remembers, least recently used dropped first.
# Repeats come close together: a scenario's Lagrangian weights min(c + lam, d)
# stay the same for many subgradient steps (lam moves only where d wins the
# min), and decode recomputes the same buy-nothing trees on every call.  On
# the desk-scale two-stage benchmark chain 16 entries answer 9 044 calls, 96 %
# of the 9 414 a 64-entry memo answers; on its 12x12 chain 540 of 600, where
# 64 entries saved at most 4 % of train time and cost 0.3-0.5 MB more peak
# memory.  Repeats that come back only after 100 or more other weight
# vectors, like DIRECT seeds that share points, are left to recompute.
_MEMO_TREES = 16


def _recall(memo: dict, key, size: int, make, *args):
    """memo[key], or make(*args) (never None) stored under key on a miss; the
    memo keeps its `size` most recently used entries, and nothing that raised."""
    value = memo.pop(key, None)
    if value is None:
        value = make(*args)
        if len(memo) >= size:
            del memo[next(iter(memo))]
    memo[key] = value
    return value


def _joining(parent: list, edges, ids):
    """Yield, in order, each id in `ids` whose edge joins two trees of the
    forest `parent` (a parent list; roots point at themselves), linking them.

    Path halving keeps the trees shallow; which root is linked under which
    does not matter, because callers only use the edges that join."""
    for eid in ids:
        u, v = edges[eid]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            yield eid


class Graph:
    """Connected undirected graph with an ordered edge list.

    Parameters
    ----------
    num_vertices : int
        Vertices are 0..num_vertices-1.
    edges : sequence of (u, v)
        Integer vertex ids (a float raises TypeError), no self-loops, no
        duplicate unordered pairs.  The position of an edge in this sequence
        is its edge id.  Stored as a tuple, so remembered trees cannot go stale.
    """

    def __init__(self, num_vertices: int, edges):
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        self.num_vertices = int(num_vertices)
        edges = [tuple(edge) for edge in edges]
        if not all(isinstance(end, numbers.Integral) for edge in edges for end in edge):
            raise TypeError("vertex ids must be integers")
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        seen = set()
        for eid, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"edge {eid} is a self-loop")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge {eid}=({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        # each forest this module builds starts as a list of these roots
        self._roots = tuple(range(self.num_vertices))
        joined = _joining(list(self._roots), self.edges, range(self.num_edges))
        if len(list(joined)) != self.num_vertices - 1:
            raise ValueError("graph is not connected")
        # see mst_kruskal and mst_constrained
        self._trees: dict[bytes, tuple[frozenset[int], list[int]]] = {}
        self._forced: dict[frozenset, tuple[list[int], list[int]]] = {}

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incident_edges(self) -> list[list[int]]:
        """Edge ids incident to each vertex."""
        inc: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return inc


def _check_shape(graph: Graph, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (graph.num_edges,):
        raise ValueError(f"expected {graph.num_edges} edge weights, got shape {w.shape}")
    return w


def _kruskal(graph: Graph, order: list, parent: list, tree: list) -> list:
    """Extend the forest `tree` (already linked in parent) to a spanning tree
    by adding, in turn, the edges of `order` that join two of its trees;
    stops at |V| - 1 edges and returns the extended `tree`.

    Both callers always reach |V| - 1 edges: _kruskal_tree scans every edge
    of a graph that Graph checked is connected, and mst_constrained extends
    an acyclic forced forest with the edges of Kruskal's own spanning tree."""
    tree += islice(_joining(parent, graph.edges, order), graph.num_vertices - 1 - len(tree))
    return tree


def _kruskal_tree(graph: Graph, w: np.ndarray) -> tuple[frozenset[int], list[int]]:
    """The tree of finite weights w, and its edge ids in the order Kruskal accepted them.

    The sort puts -inf first and inf, then NaN, last, so the weights are
    finite when both ends of the order are."""
    order = w.argsort(kind="stable").tolist()
    if order and not (math.isfinite(w[order[0]]) and math.isfinite(w[order[-1]])):
        raise ValueError("edge weights must be finite")
    accepted = _kruskal(graph, order, list(graph._roots), [])
    return frozenset(accepted), accepted


def _forced_forest(graph: Graph, forced: frozenset) -> tuple[list[int], list[int]]:
    """The sorted ids of a forced edge set and the parent list of the forest they link."""
    ids = sorted(int(e) for e in forced)
    n_edges = graph.num_edges
    for eid in ids:
        if not (0 <= eid < n_edges):
            raise ValueError(f"forced edge id {eid} out of range")
    parent = list(graph._roots)
    if len(list(_joining(parent, graph.edges, ids))) != len(ids):
        raise ValueError("forced edges contain a cycle")
    return ids, parent


def mst_kruskal(graph: Graph, weights) -> frozenset[int]:
    """Minimum spanning tree (set of edge ids) by Kruskal's algorithm.

    Ties are broken by ascending edge id (stable sort on weight), so the
    returned tree is unique given (graph, weights).  The graph remembers its
    _MEMO_TREES most recent trees by the bytes of the weights, each with its
    edge ids in the order Kruskal accepted them; a repeat gets the frozenset
    the first call built, the same object in the same iteration order.  Only
    finite weights are remembered, so a repeat needs no finiteness check.
    """
    w = _check_shape(graph, weights)
    return _recall(graph._trees, w.tobytes(), _MEMO_TREES, _kruskal_tree, graph, w)[0]


def mst_constrained(graph: Graph, weights, forced) -> frozenset[int]:
    """Minimum spanning tree among trees containing every edge in `forced`.

    Seeds the forest with the forced edges (error if they close a
    cycle) and completes greedily with the same (weight, edge id) order
    as mst_kruskal.  With forced = ∅ the output equals mst_kruskal.

    Two memos of the graph save work without changing a bit:
    - The Kruskal tree T of the weights, read from or added to mst_kruskal's
      memo: only T's edges are scanned, in the order Kruskal accepted them.
      Every other edge is the largest, in (weight, edge id) order, on a
      cycle of lighter T edges, and contracting the forced forest keeps its
      ends joined by lighter edges, so the full scan would refuse it too.
    - The last forced set, by value, with its sorted ids and linked forest.
      Its ids must be integers, checked first, as a float id equals its
      int; an invalid forced set raises before anything is stored.
    """
    w = _check_shape(graph, weights)
    order = _recall(graph._trees, w.tobytes(), _MEMO_TREES, _kruskal_tree, graph, w)[1]
    forced = frozenset(forced)
    if not isinstance(sum(forced), numbers.Integral):
        raise TypeError("forced edge ids must be integers")
    ids, parent = _recall(graph._forced, forced, 1, _forced_forest, graph, forced)
    return frozenset(_kruskal(graph, order, parent.copy(), ids.copy()))


def grid_graph(width: int, height: int) -> Graph:
    """width x height grid with 4-neighbour edges.

    Vertex (row, col) is row*width + col.  Edge order is part of the
    contract: all horizontal edges in row-major order first, then all
    vertical edges in row-major order.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    if width * height < 2:
        raise ValueError("grid needs at least two vertices")
    edges = []
    for row in range(height):
        for col in range(width - 1):
            v = row * width + col
            edges.append((v, v + 1))
    for row in range(height - 1):
        for col in range(width):
            v = row * width + col
            edges.append((v, v + width))
    return Graph(width * height, edges)
