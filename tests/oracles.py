"""Test oracles, by depth-first search, exhaustive enumeration, plain
Kruskal, scipy's csgraph and copies of replaced scheduling code.

They share no code with the package, so a test that checks Kruskal or the
constrained MST against them does not check the package's union-find
against itself, the scheduling branch and bound is checked against a
separate copy of its search, a schedule is priced by a plain-Python copy of
the package's float64 operations, and the SRPT simulation and features are
checked against the numpy-scalar code they replaced.
"""

import heapq
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


def _pairwise_sum(values, lo, n):
    """numpy's pairwise float64 sum of values[lo:lo + n]: a plain loop below 8
    terms, eight interleaved running sums up to 128, halves beyond."""
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= 128:
        acc = values[lo:lo + 8]
        i = 8
        while i < n - n % 8:
            for k in range(8):
                acc[k] += values[lo + i + k]
            i += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for i in range(i, n):
            total += values[lo + i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def schedule_total(p, r, order):
    """Total completion time of order over the lists p and r, in plain Python
    with the float64 operations of the package's numpy pricing: prefix sums
    P of p, C_k = P_k + max_{t<=k} (r_t - P_{t-1}), and numpy's pairwise sum
    of the C_k.  So it has the package's bits on any data, and a descent
    scored by it takes the package's decisions; the scalar-scan test checks
    those bits on every start it draws."""
    times, pref, peak = [], 0.0, -np.inf
    for j in order:
        pref += p[j]
        start = r[j] - (pref - p[j])
        peak = start if start > peak else peak
        times.append(pref + peak)
    return _pairwise_sum(times, 0, len(times))


def srpt_numpy_scalars(p, r):
    """Preemptive SRPT as the package ran it on numpy scalars (completion,
    first start and preemptions per job): at each release or completion the
    released unfinished job of least remaining time runs, ties to the lower
    job index."""
    n = len(p)
    remaining = p.copy()
    completion = np.zeros(n)
    first_start = np.full(n, -1.0)
    preemptions = np.zeros(n, dtype=int)
    release_order = np.argsort(r, kind="stable")
    ptr = 0
    t = 0.0
    ready = []
    prev = -1
    while ptr < n or ready:
        if not ready:
            t = float(r[release_order[ptr]])
        while ptr < n and r[release_order[ptr]] <= t:
            j = int(release_order[ptr])
            heapq.heappush(ready, (remaining[j], j))
            ptr += 1
        rem, j = heapq.heappop(ready)
        if j != prev and prev >= 0 and remaining[prev] > 0:
            preemptions[prev] += 1
        prev = j
        if first_start[j] < 0:
            first_start[j] = t
        next_release = float(r[release_order[ptr]]) if ptr < n else np.inf
        if t + rem <= next_release:
            t += rem
            remaining[j] = 0.0
            completion[j] = t
        else:
            remaining[j] = rem - (next_release - t)
            t = next_release
            heapq.heappush(ready, (remaining[j], j))
    return completion, first_start, preemptions


def sched_features_np_unique(p, r):
    """The package's (n, 11) scheduling features as it built them with the
    SRPT statistics above and jobs grouped by np.unique over (p, r) rows."""
    n = float(len(p))

    def min_rank(key):
        return np.searchsorted(np.sort(key), key, side="left") + 1.0

    def group_mean(values, group):
        out = values.astype(float)
        for g in np.flatnonzero(np.bincount(group) > 1):
            mask = group == g
            out[mask] = values[mask].mean()
        return out

    completion, first_start, preemptions = srpt_numpy_scalars(p, r)
    horizon = completion.max()
    _, group = np.unique(np.column_stack([p, r]), axis=0, return_inverse=True)
    return np.column_stack([
        np.ones(len(p)),
        p / p.max(),
        r / max(1.0, r.max()),
        min_rank(p) / n,
        min_rank(r) / n,
        min_rank(r + p) / n,
        group_mean(completion, group) / horizon,
        group_mean(first_start, group) / horizon,
        group_mean(preemptions.astype(float), group) / n,
        r / p.sum(),
        p / p.mean(),
    ])
