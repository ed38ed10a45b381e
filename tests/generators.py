"""Random graphs and two-stage instances for the tests, built with the
package's own Graph and TwoStageInstance.

Each generator draws its examples in a fixed order from the given numpy
generator or hypothesis `draw`, so a test draws the same examples on every
run.
"""

import itertools

from hypothesis import strategies as st
from oracles import connected

from co_pipeline.graphs import Graph
from co_pipeline.two_stage import TwoStageInstance


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


def random_connected_graph(rng, max_vertices=6, max_edges=None):
    """Random connected graph on 3..max_vertices vertices, each vertex pair an
    edge with probability 0.6, and at most max_edges edges."""
    while True:
        n = int(rng.integers(3, max_vertices + 1))
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < 0.6
        edges = [pairs[i] for i in range(len(pairs)) if keep[i]]
        if len(edges) < n - 1 or max_edges is not None and len(edges) > max_edges:
            continue
        if connected(n, edges):
            return Graph(n, edges)


def random_two_stage(rng, max_edges=8, max_scenarios=3):
    """A random connected graph on 3..5 vertices, 1..max_scenarios scenarios
    and integer costs in [-20, 0]."""
    g = random_connected_graph(rng, max_vertices=5, max_edges=max_edges)
    n_scen = int(rng.integers(1, max_scenarios + 1))
    return TwoStageInstance(
        graph=g,
        c=-rng.integers(0, 21, size=g.num_edges).astype(float),
        d=-rng.integers(0, 21, size=(g.num_edges, n_scen)).astype(float),
    )
