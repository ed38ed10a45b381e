"""Undirected graphs, deterministic Kruskal MSTs, and grid graphs.

Edges are identified by their position in the edge list.  All tree
computations break weight ties by ascending edge id, so every function in
this module is a pure deterministic map from its inputs.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

__all__ = [
    "Graph",
    "mst_kruskal",
    "mst_constrained",
    "grid_graph",
]


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
        No self-loops, no duplicate unordered pairs.  The position of an
        edge in this sequence is its edge id.
    """

    def __init__(self, num_vertices: int, edges):
        if num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        self.num_vertices = int(num_vertices)
        self.edges = [(int(u), int(v)) for u, v in edges]
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
        joined = _joining(list(range(self.num_vertices)), self.edges, range(self.num_edges))
        if len(list(joined)) != self.num_vertices - 1:
            raise ValueError("graph is not connected")

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


def _check_weights(graph: Graph, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (graph.num_edges,):
        raise ValueError(f"expected {graph.num_edges} edge weights, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("edge weights must be finite")
    return w


def _kruskal(graph: Graph, w: np.ndarray, parent: list, tree: list) -> frozenset[int]:
    """Extend the forest `tree` (already linked in parent) to a spanning tree
    by adding edges in (weight, edge id) order; stops at |V| - 1 edges."""
    size = graph.num_vertices - 1
    order = np.argsort(w, kind="stable").tolist()
    tree += islice(_joining(parent, graph.edges, order), size - len(tree))
    if len(tree) != size:
        raise ValueError("edge set is not spanning")
    return frozenset(tree)


def mst_kruskal(graph: Graph, weights) -> frozenset[int]:
    """Minimum spanning tree (set of edge ids) by Kruskal's algorithm.

    Ties are broken by ascending edge id (stable sort on weight), so the
    returned tree is unique given (graph, weights).
    """
    return _kruskal(graph, _check_weights(graph, weights), list(range(graph.num_vertices)), [])


def mst_constrained(graph: Graph, weights, forced) -> frozenset[int]:
    """Minimum spanning tree among trees containing every edge in `forced`.

    Seeds the forest with the forced edges (error if they close a
    cycle) and completes greedily with the same (weight, edge id) order
    as mst_kruskal.  With forced = ∅ the output equals mst_kruskal.
    """
    w = _check_weights(graph, weights)
    forced = sorted(int(e) for e in forced)
    n_edges = graph.num_edges
    for eid in forced:
        if not (0 <= eid < n_edges):
            raise ValueError(f"forced edge id {eid} out of range")
    parent = list(range(graph.num_vertices))
    if len(list(_joining(parent, graph.edges, forced))) != len(forced):
        raise ValueError("forced edges contain a cycle")
    return _kruskal(graph, w, parent, forced)


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
