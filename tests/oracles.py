"""Test oracles, by depth-first search, exhaustive enumeration, plain
Kruskal and scipy's csgraph.

They share no code with the package, so a test that checks Kruskal or the
constrained MST against them does not check the package's union-find
against itself, and the scheduling branch and bound is checked against a
separate copy of its search.
"""

import itertools

import numpy as np
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree


def connected(num_vertices, pairs):
    """Whether the edge list `pairs` connects all of 0..num_vertices-1, by DFS."""
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


def components(num_vertices, pairs):
    """Number of connected components of ({0..num_vertices-1}, pairs), by scipy."""
    adj = np.zeros((num_vertices, num_vertices))
    for u, v in pairs:
        adj[u, v] = 1.0
    return connected_components(adj, directed=False)[0]


def scipy_tree(graph, weights):
    """Edge ids of scipy's minimum spanning tree.  csgraph reads a weight of
    0 as a missing edge, so the weights must be positive; distinct weights
    make the tree unique."""
    dense = np.zeros((graph.num_vertices, graph.num_vertices))
    eid = {}
    for e, (u, v) in enumerate(graph.edges):
        dense[min(u, v), max(u, v)] = weights[e]
        eid[min(u, v), max(u, v)] = e
    rows, cols = minimum_spanning_tree(dense).nonzero()
    return frozenset(eid[min(u, v), max(u, v)] for u, v in zip(rows.tolist(), cols.tolist()))


def spanning_trees(graph):
    """All spanning trees of graph, as sets of edge ids, by trying every
    (|V|-1)-subset of its edges."""
    return [
        frozenset(combo)
        for combo in itertools.combinations(range(graph.num_edges), graph.num_vertices - 1)
        if connected(graph.num_vertices, [graph.edges[e] for e in combo])
    ]


def constrained_reference(graph, weights, forced):
    """The package's constrained MST, bit for bit, by plain Kruskal: the
    sorted forced ids, then every edge by (weight, edge id) that joins two
    components of a fresh union-find, collected in that order into the
    frozenset (whose iteration order depends on the insertion order).
    The forced ids must be a forest of graph."""
    root = list(range(graph.num_vertices))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    ids = sorted(forced)
    for e in ids:
        u, v = graph.edges[e]
        root[find(u)] = find(v)
    tree = list(ids)
    for e in sorted(range(graph.num_edges), key=lambda e: (float(weights[e]), e)):
        ru, rv = (find(v) for v in graph.edges[e])
        if ru != rv:
            root[ru] = rv
            tree.append(e)
    return frozenset(tree)


def kruskal_reference(graph, weights):
    """The package's MST, bit for bit, by plain Kruskal (see
    constrained_reference)."""
    return constrained_reference(graph, weights, ())


def lexicographic_optimal_schedule(p, r):
    """The lexicographically first optimal permutation of the jobs with
    float64 arrays p and r, by brute_force_schedule's depth-first search
    with its bound summed over numpy scalars (sorted values, builtin sum),
    which never compensates: the package's search must match it bit for bit."""
    n = len(p)
    best_total = np.inf
    best = None
    seq = []

    def lower_bound(mask, t):
        rest = [j for j in range(n) if not mask >> j & 1]
        ps = sorted(p[j] for j in rest)
        acc = 0.0
        c = t
        for dur in ps:
            c += dur
            acc += c
        floor = sum(max(r[j], t) + p[j] for j in rest)
        return max(acc, floor)

    def search(mask, t, acc):
        nonlocal best_total, best
        if mask == (1 << n) - 1:
            if acc < best_total:
                best_total = acc
                best = np.array(seq)
            return
        if acc + lower_bound(mask, t) >= best_total:
            return
        for j in range(n):
            if mask >> j & 1:
                continue
            c = max(t, r[j]) + p[j]
            seq.append(j)
            search(mask | 1 << j, c, acc + c)
            seq.pop()

    search(0, 0.0, 0.0)
    return best
