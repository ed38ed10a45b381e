"""Undirected graphs, deterministic Kruskal MSTs, and spanning-tree utilities.

Edges are identified by their position in the edge list.  All tree
computations break weight ties by ascending edge id, so every function in
this module is a pure deterministic map from its inputs.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

__all__ = [
    "Graph",
    "UnionFind",
    "mst_kruskal",
    "mst_constrained",
    "enumerate_spanning_trees",
    "grid_graph",
]

ENUMERATION_EDGE_LIMIT = 20


class UnionFind:
    """Disjoint sets over {0..n-1} with path compression and union by rank."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.num_components = n

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, u: int, v: int) -> bool:
        """Merge the sets of u and v; returns False if already joined."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self.rank[ru] < self.rank[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        if self.rank[ru] == self.rank[rv]:
            self.rank[ru] += 1
        self.num_components -= 1
        return True


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
        uf = UnionFind(self.num_vertices)
        for u, v in self.edges:
            uf.union(u, v)
        if uf.num_components != 1:
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
    if not np.all(np.isfinite(w)):
        raise ValueError("edge weights must be finite")
    return w


def _kruskal(graph: Graph, w: np.ndarray, uf: UnionFind, tree: list) -> frozenset[int]:
    """Extend the forest `tree` (already merged in uf) to a spanning tree by
    adding edges in (weight, edge id) order; stops at |V| - 1 edges."""
    size = graph.num_vertices - 1
    for eid in np.argsort(w, kind="stable"):
        u, v = graph.edges[eid]
        if uf.union(u, v):
            tree.append(int(eid))
            if len(tree) == size:
                break
    if len(tree) != size:
        raise ValueError("edge set is not spanning")
    return frozenset(tree)


def mst_kruskal(graph: Graph, weights) -> frozenset[int]:
    """Minimum spanning tree (set of edge ids) by Kruskal's algorithm.

    Ties are broken by ascending edge id (stable sort on weight), so the
    returned tree is unique given (graph, weights).
    """
    return _kruskal(graph, _check_weights(graph, weights), UnionFind(graph.num_vertices), [])


def mst_constrained(graph: Graph, weights, forced) -> frozenset[int]:
    """Minimum spanning tree among trees containing every edge in `forced`.

    Seeds the union-find with the forced edges (error if they close a
    cycle) and completes greedily with the same (weight, edge id) order
    as mst_kruskal.  With forced = ∅ the output equals mst_kruskal.
    """
    w = _check_weights(graph, weights)
    forced = sorted(int(e) for e in forced)
    uf = UnionFind(graph.num_vertices)
    for eid in forced:
        if not (0 <= eid < graph.num_edges):
            raise ValueError(f"forced edge id {eid} out of range")
        u, v = graph.edges[eid]
        if not uf.union(u, v):
            raise ValueError("forced edges contain a cycle")
    return _kruskal(graph, w, uf, forced)


def enumerate_spanning_trees(graph: Graph) -> list[frozenset[int]]:
    """All spanning trees, as sets of edge ids (exhaustive; |E| <= 20)."""
    if graph.num_edges > ENUMERATION_EDGE_LIMIT:
        raise ValueError(
            f"enumeration limited to {ENUMERATION_EDGE_LIMIT} edges, got {graph.num_edges}"
        )
    size = graph.num_vertices - 1
    trees = []
    for combo in combinations(range(graph.num_edges), size):
        uf = UnionFind(graph.num_vertices)
        ok = True
        for eid in combo:
            u, v = graph.edges[eid]
            if not uf.union(u, v):
                ok = False
                break
        if ok and uf.num_components == 1:
            trees.append(frozenset(combo))
    return trees


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
