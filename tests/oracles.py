"""Test oracles for graphs, by depth-first search and exhaustive enumeration.

They share no code with the package, so a test that checks Kruskal or the
constrained MST against them does not check the package's union-find
against itself.
"""

import itertools


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


def spanning_trees(graph):
    """All spanning trees of graph, as sets of edge ids, by trying every
    (|V|-1)-subset of its edges."""
    return [
        frozenset(combo)
        for combo in itertools.combinations(range(graph.num_edges), graph.num_vertices - 1)
        if connected(graph.num_vertices, [graph.edges[e] for e in combo])
    ]
