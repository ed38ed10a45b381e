"""Single-machine scheduling with release dates, minimizing total completion time.

Hard problem: one machine, jobs with processing times p_j >= 1 and
release dates r_j >= 0, no preemption; minimize the sum of completion
times.  Easy layer: sort jobs by a per-job parameter theta (the SPT rule
on predicted virtual processing times).  Post-processing: local search
over adjacent swaps and reinsertions, optionally wrapped in a perturbed
multi-sample decode.

Jobs are indexed 0..n-1; a schedule is a permutation of all job indices.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from . import learning
from .graphs import _recall
from .model import (PerturbationConfig, _as_number, _as_weight_array, _at_least, _draw,
                    _positive, _read_json, _write_json)

__all__ = [
    "SchedInstance",
    "SrptStats",
    "SCHED_FEATURE_DIM",
    "BRUTE_FORCE_JOB_LIMIT",
    "evaluate_schedule",
    "spt_layer",
    "srpt_preemptive",
    "features",
    "local_search",
    "perturbed_decode",
    "brute_force_schedule",
    "generate_sched_instance",
    "save_sched_instance",
    "load_sched_instance",
    "pipeline_order",
    "experience_loss_config",
    "SchedulingApplication",
    "APPLICATION",
]

SCHED_FEATURE_DIM = 11
BRUTE_FORCE_JOB_LIMIT = 9
# positions per local-search pass over the reinsertion blocks: 128 KB of float64
_PASS_ENTRIES = 2**14
# Orders whose descent's end each instance remembers, least recently used
# dropped first: each search's start and every order it moved to.  Searches
# from nearby starts (neighbouring DIRECT points, perturbed samples) meet
# on the way down, and eval repeats whole searches: pipeline_ls's search is
# perturbed_decode's sample 0, and perturbed samples often share an SPT
# order.  Over the 40 chains of the scheduling benchmark pool (seed 11),
# 4 282 searches make 129 552 scan passes when only starts are remembered.
# Remembering every order skips 14.4 % of them at 64 entries (train 21.7 %,
# eval 7.4 %; eval's 1 680 searches run 1 364 descents, not 1 417), 16.9 %
# at 256 and 17.3 % at 1 024.  An entry is an n-long int64 key (193 B at
# n = 20) and the search's end, one array shared by every key of that
# search (272 B at n = 20): 64 take at most 30 KB there.
_MEMO_SEARCHES = 64
# Scan tables local search keeps, one per job count, least recently used
# dropped first.  A run meets few n: the scheduling benchmark chain meets 3
# (8, 12 and 20) and acceptance criterion 10 meets 2 (8 and 20).  A table
# holds n(n-1) + n - 1 rows of n int64 positions, about n^3 * 8 B: 64 KB at
# n = 20, so 4 take 256 KB there, and 8 MB at n = 100, where 4 take 32 MB.
_MEMO_TABLES = 4
_TABLES: dict = {}


@dataclass(frozen=True, eq=False)
class SchedInstance:
    """Jobs with processing times p >= 1 and release dates r >= 0.

    Instances compare and hash by identity, and p and r are read-only
    copies of the caller's arrays, so per-instance caches can key on the
    instance itself.
    """

    p: np.ndarray
    r: np.ndarray
    rho: float | None = None
    seed: int | None = None

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        r = np.array(self.r, dtype=float)
        if p.ndim != 1 or p.shape != r.shape or p.shape[0] < 1:
            raise ValueError("p and r must be equal-length non-empty vectors")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(r))):
            raise ValueError("p and r must be finite")
        if p.min() < 1:
            raise ValueError("processing times must be >= 1")
        if r.min() < 0:
            raise ValueError("release dates must be >= 0")
        p.flags.writeable = r.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        # local_search's memo (see _MEMO_SEARCHES)
        object.__setattr__(self, "_searches", {})
        # local_search scores swaps in plain Python (_first_swap) on integer
        # data whose every schedule total, at most n * (max r + sum p), stays
        # below 2**53; the test asks for 2**52, a margin for its own rounding
        jobs, releases = p.tolist(), r.tolist()
        object.__setattr__(self, "_exact", all(map(float.is_integer, jobs + releases))
                           and len(jobs) * (max(releases) + sum(jobs)) < 2**52)

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class SrptStats:
    """Per-job statistics of the preemptive SRPT relaxation."""

    completion: np.ndarray
    first_start: np.ndarray
    preemptions: np.ndarray


def _check_permutation(x: SchedInstance, order) -> np.ndarray:
    order = np.asarray(order)
    if order.dtype.kind not in "iu":
        raise TypeError("job ids must be integers")
    if order.shape != (x.n,) or not np.array_equal(np.sort(order), np.arange(x.n)):
        raise ValueError("schedule must be a permutation of all jobs")
    return order.astype(int, copy=False)


def _totals(p_ord: np.ndarray, r_ord: np.ndarray) -> np.ndarray:
    # C_k = max(r_k, C_{k-1}) + p_k unrolls to a running maximum:
    # C_k = P_k + max_{t<=k} (r_t - P_{t-1}) with P the prefix sums of p.
    # Applied along the last axis, so a matrix holds one order per row.
    pref = p_ord.cumsum(axis=-1)
    return pref + np.maximum.accumulate(r_ord - (pref - p_ord), axis=-1)


def _total(x: SchedInstance, order: np.ndarray) -> float:
    """Total completion time of a permutation known to be valid."""
    return float(_totals(x.p[order], x.r[order]).sum())


def evaluate_schedule(x: SchedInstance, order):
    """Total completion time and per-job completion times of a permutation."""
    order = _check_permutation(x, order)
    completions = _totals(x.p[order], x.r[order])
    by_job = np.empty(x.n)
    by_job[order] = completions
    return float(completions.sum()), by_job


def spt_layer(theta) -> np.ndarray:
    """Sort jobs by ascending theta; ties by ascending job index."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError("theta must be a vector")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    return np.argsort(theta, kind="stable")


def srpt_preemptive(x: SchedInstance) -> SrptStats:
    """Event-driven preemptive SRPT (optimal for the preemptive relaxation).

    At every release or completion the job with the least remaining time
    among released unfinished jobs runs; remaining-time ties go to the
    lower job index.  A job is counted as preempted each time it is
    displaced while unfinished.
    """
    n = x.n
    remaining = x.p.copy()
    completion = np.zeros(n)
    first_start = np.full(n, -1.0)  # every start time is >= 0
    preemptions = np.zeros(n, dtype=int)

    release_order = np.argsort(x.r, kind="stable")
    ptr = 0
    t = 0.0
    ready: list[tuple[float, int]] = []
    prev = -1
    while ptr < n or ready:
        if not ready:
            t = float(x.r[release_order[ptr]])
        while ptr < n and x.r[release_order[ptr]] <= t:
            j = int(release_order[ptr])
            heapq.heappush(ready, (remaining[j], j))
            ptr += 1
        rem, j = heapq.heappop(ready)
        if j != prev and prev >= 0 and remaining[prev] > 0:
            preemptions[prev] += 1
        prev = j
        if first_start[j] < 0:
            first_start[j] = t
        next_release = float(x.r[release_order[ptr]]) if ptr < n else np.inf
        if t + rem <= next_release:
            t += rem
            remaining[j] = 0.0
            completion[j] = t
        else:
            remaining[j] = rem - (next_release - t)
            t = next_release
            heapq.heappush(ready, (remaining[j], j))
    return SrptStats(completion=completion, first_start=first_start, preemptions=preemptions)


def _min_rank(key: np.ndarray) -> np.ndarray:
    # 1 + #{k : key_k < key_j}; identical jobs get identical ranks.
    return np.searchsorted(np.sort(key), key, side="left") + 1.0


def _group_mean(values: np.ndarray, group: np.ndarray) -> np.ndarray:
    # a group of one job averages to its own value, so only repeated
    # (p, r) pairs are visited
    out = values.astype(float)
    for g in np.flatnonzero(np.bincount(group) > 1):
        mask = group == g
        out[mask] = values[mask].mean()
    return out


def features(x: SchedInstance) -> np.ndarray:
    """(n, 11) per-job features mixing raw data, ranks, and SRPT statistics.

    All entries are normalized by instance quantities (max, sum, horizon),
    so no further standardization is applied.  SRPT statistics are averaged
    over groups of jobs with identical (p, r): exchangeable jobs must get
    identical rows even though the simulation breaks their tie by id.
    """
    n = float(x.n)
    srpt = srpt_preemptive(x)
    horizon = srpt.completion.max()
    _, group = np.unique(np.column_stack([x.p, x.r]), axis=0, return_inverse=True)
    return np.column_stack([
        np.ones(x.n),
        x.p / x.p.max(),
        x.r / max(1.0, x.r.max()),
        _min_rank(x.p) / n,
        _min_rank(x.r) / n,
        _min_rank(x.r + x.p) / n,
        _group_mean(srpt.completion, group) / horizon,
        _group_mean(srpt.first_start, group) / horizon,
        _group_mean(srpt.preemptions.astype(float), group) / n,
        x.r / x.p.sum(),
        x.p / x.p.mean(),
    ])


def _reinsert_positions(n: int) -> np.ndarray:
    # block i, row j takes the job at position i out and puts it back at
    # position k, where k runs over 0..n-1 without i in ascending order
    i = np.arange(n)[:, None, None]
    k = np.arange(n - 1)[None, :, None]
    k = k + (k >= i)
    q = np.arange(n)
    rest = q - (q > k)
    return np.where(q == k, i, rest + (rest >= i))


def _scan_passes(n: int) -> tuple:
    """local_search's candidate positions in scan order, read-only: the n - 1
    adjacent swaps, where almost every restart ends, then the reinsertion
    blocks (block i takes position i out and tries its n - 1 insertion
    points) in passes of as many whole blocks as fit in _PASS_ENTRIES
    positions, or of one block where a block is larger.  The cap keeps a
    pass in L2 cache: one pass over all blocks ran at about half the speed
    at n = 50 and at n = 100.  One job has no moves, so no passes."""
    # row i of reinsertion block i moves position i to i + 1: the swap of i and i + 1
    table, d = _reinsert_positions(n), np.arange(n - 1)
    per_pass = max(1, _PASS_ENTRIES // max(1, n * (n - 1)))
    passes = (table[d, d], *(table[s:s + per_pass].reshape(-1, n) for s in range(0, n, per_pass)))
    for rows in passes:
        rows.flags.writeable = False
    return passes if n > 1 else ()


def _first_swap(p: list, r: list, job: list, done: list, reach: list, start: int):
    """The first strictly improving adjacent swap from candidate start on, as
    (its position, the change of the total), applied to job and done in place;
    (-1, 0.0) when none improves.

    job is the order and done[k + 1] the completion time of position k
    (done[0] = 0); p, r and done hold integer-valued Python floats, so every
    sum here is exact.  Candidate j recomputes completion times from
    position j on.  From j + 1 on both orders hold the same jobs, so each
    completion moves the way the one before it moved, by no more (max(t, r)
    is monotone in t).  The scan of j therefore stops once the sign of the
    change is settled: at a completion that does not move, after which none
    does, or at one that moves the way the change so far points.  reach[j]
    records the last position read: the decision depends on no later one."""
    last = len(job) - 1
    for j in range(start, last):
        a, b = job[j + 1], job[j]
        t, u = done[j], r[a]
        t = (t if t > u else u) + p[a]
        change = t - done[j + 1]
        k, u = j + 1, r[b]
        t = (t if t > u else u) + p[b]
        step = t - done[k + 1]
        change += step
        while step and (step < 0) == (change >= 0) and k < last:
            k += 1
            i = job[k]
            u = r[i]
            t = (t if t > u else u) + p[i]
            step = t - done[k + 1]
            change += step
        reach[j] = k
        if change < 0:
            job[j], job[j + 1] = a, b
            t, change = done[j], 0.0
            for k in range(j, last + 1):
                i = job[k]
                u = r[i]
                t = (t if t > u else u) + p[i]
                if k > j and t == done[k + 1]:
                    break
                change += t - done[k + 1]
                done[k + 1] = t
            return j, change
    return -1, 0.0


def _descend(x: SchedInstance, order: np.ndarray) -> np.ndarray:
    """local_search's descent from a valid permutation, which it never writes
    to.  The scan tables are built once per n and kept read-only in a memo
    of _MEMO_TABLES job counts (graphs._recall).  A pass's rows are summed by
    np.add.reduce, the reduction ndarray.sum runs after its Python wrapper,
    and the first strictly improving row is the argmax of the mask (argmax
    returns the first True), so the pass boundaries change no result.

    On an instance with x._exact (integer data, every total below 2**53)
    the swap pass is scored in plain Python instead (_first_swap): each
    candidate by its change alone.  A candidate's total and the current one
    are exact integers there, so change < 0 decides as the numpy pass's
    candidate < total does.  After a swap at j the scan restarts at the
    first candidate whose last evaluation read a position from j on: the
    candidates before it read nothing the swap changed, so they still do
    not improve.  Non-integer data keep the numpy pass, since their
    decisions depend on how its pairwise float sums round.

    Every order the descent moves to is looked up in the instance's search
    memo: an earlier search that passed through it already knows where the
    descent ends, so a hit stops here with that end.  This is exact: a
    descent depends only on the instance and its current order, and the
    total carried after a move has the bits of _total(x, order), from the
    same _totals row and the same pairwise sum.  The end is then stored
    under every order moved to, in order (graphs._recall keeps the end
    already stored under a met order, the same array); local_search stores
    it under the start last.  An end found here is a copy: the local
    optimum is a row of a scan pass, and a remembered view would keep the
    whole pass alive.  A swap that does not lower the total is a scoring
    fault and raises RuntimeError, since the descent could cycle on it."""
    passes = _recall(_TABLES, x.n, _MEMO_TABLES, _scan_passes, x.n)
    times = _totals(x.p[order], x.r[order])
    total = float(times.sum())
    exact, j = x._exact, -1
    if exact:  # the swaps are applied to a copy of the order in place
        p, r, order, passes = x.p.tolist(), x.r.tolist(), order.copy(), passes[1:]
        job, done, reach, start = order.tolist(), [0.0, *times.tolist()], [0] * x.n, 0
    path = []
    while True:
        if exact:
            j, change = _first_swap(p, r, job, done, reach, start)
        if j >= 0:
            if not change < 0:
                raise RuntimeError(f"local search made a swap that changes the total by {change}")
            order[j], order[j + 1] = job[j], job[j + 1]
            total += change
            for start, k in enumerate(reach):
                if k >= j:
                    break
        else:
            for rows in passes:
                cands = order[rows]
                times = _totals(x.p[cands], x.r[cands])
                totals = np.add.reduce(times, axis=1)
                better = totals < total
                first = better.argmax()
                if better[first]:
                    order, total = cands[first], float(totals[first])
                    if exact:
                        job, done, start = order.tolist(), [0.0, *times[first].tolist()], 0
                    break
            else:
                end = order.copy()
                break
        path.append(order.tobytes())
        end = x._searches.get(path[-1])
        if end is not None:
            break
    for key in path:
        _recall(x._searches, key, _MEMO_SEARCHES, lambda: end)
    return end


def local_search(x: SchedInstance, order) -> np.ndarray:
    """First-improvement descent over adjacent swaps, then reinsertions.

    Both neighbourhoods are scanned left to right; the first strictly
    improving move is applied and the scan restarts.  Stops at a local
    optimum, so the total never increases.

    The candidates are scored in a few numpy passes of whole rows
    (_scan_passes), or on integer data the swaps in plain Python
    (_first_swap); either way the move applied is the first strictly
    improving one in scan order, as if each candidate were scored alone
    (_descend).

    The instance remembers where its recent searches ended, keyed by the
    bytes of each order a search started from or moved to, _MEMO_SEARCHES
    orders in all.  A repeated start gets the descent's bits without
    running it, and a search that moves to an order an earlier one passed
    through stops there with that search's end.  Every call checks its
    order first and returns a fresh array.
    """
    order = _check_permutation(x, order)
    return _recall(x._searches, order.tobytes(), _MEMO_SEARCHES, _descend, x, order).copy()


def _check_post(post: str, name: str = "post") -> None:
    if post not in ("none", "ls"):
        raise ValueError(f"{name} must be 'none' or 'ls'")


def pipeline_order(x: SchedInstance, w, post: str = "none") -> np.ndarray:
    """Pipeline at weights w: features -> theta -> SPT order -> post-processing
    (local search when post is 'ls')."""
    _check_post(post)
    order = spt_layer(features(x) @ _as_weight_array(w))
    return local_search(x, order) if post == "ls" else order


def _check_decode(sigma: float, nsamples: int, seed: int, block: str | None = None) -> None:
    """perturbed_decode's settings check; with block, the message names them as its keys."""
    for key, value in (("sigma", sigma), ("nsamples", nsamples), ("seed", seed)):
        _at_least(value, 0, key if block is None else f"{block} key {key!r}")


def perturbed_decode(
    x: SchedInstance,
    w,
    /,
    sigma: float = 1.0,
    nsamples: int = 150,
    seed: int = 0,
) -> np.ndarray:
    """Best schedule over the pipeline at w and at nsamples perturbed copies.

    Each sample's theta, from features computed once, is decoded by SPT
    order then local search.  Sample 0 is the unperturbed w, samples
    1..nsamples use w + sigma*Z_k, where Z is model's seed-fixed Gaussian
    matrix (model._draw, the draw behind sample_gaussians; prefixes are
    nested, so enlarging nsamples can only improve the result).  The winner
    is the deterministic (cost, sample index) minimum.
    """
    _check_decode(sigma, nsamples, seed)
    w = _as_weight_array(w)
    phi = features(x)
    samples = [w]
    if sigma > 0 and nsamples > 0:
        samples += [w + sigma * g for g in _draw(seed, nsamples, w.shape[0])]
    orders = [local_search(x, spt_layer(phi @ v)) for v in samples]
    return min(orders, key=lambda order: _total(x, order))


def brute_force_schedule(x: SchedInstance):
    """Exact minimum for n <= 9 as (total, permutation).

    Depth-first search over permutations in lexicographic order with a sound
    lower-bound prune (remaining jobs in SPT order, releases relaxed), so the
    returned permutation is the lexicographically first optimal one that
    plain enumeration would select.  Its total is priced like evaluate_schedule.
    """
    n = x.n
    if n > BRUTE_FORCE_JOB_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_JOB_LIMIT} jobs")
    p, r = x.p.tolist(), x.r.tolist()
    by_p = sorted(range(n), key=lambda j: (p[j], j))
    best_total = np.inf
    best: np.ndarray | None = None
    seq: list[int] = []

    def lower_bound(mask: int, t: float) -> float:
        # both sums add plain left to right: builtin sum compensates on
        # Python floats from 3.12, and the prune must not depend on the version
        acc = 0.0
        c = t
        for j in by_p:
            if not mask >> j & 1:
                c += p[j]
                acc += c
        floor = 0.0
        for j in range(n):
            if not mask >> j & 1:
                floor += max(r[j], t) + p[j]
        return max(acc, floor)

    def search(mask: int, t: float, acc: float):
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
    return _total(x, best), best


def _release_horizon(n: int, rho: float, name: str) -> int:
    """The largest release date of an (n, rho) instance, floor(50.5*n*rho) and
    at least 1.  Release dates are drawn as int64, so 50.5*n*rho must stay
    below 2**63; name is rho as the message names it."""
    if 50.5 * n * rho >= 2**63:
        raise ValueError(f"{name} must keep the release horizon 50.5 * n * rho below 2**63")
    return max(1, int(50.5 * n * rho))


def generate_sched_instance(n: int, rho: float, seed: int) -> SchedInstance:
    """Random instance: p ~ U{1..100}, r ~ U{1..floor(50.5*n*rho)}."""
    _at_least(n, 1, "n")
    _positive(rho, "rho")
    r_max = _release_horizon(n, rho, "rho")
    rng = np.random.default_rng(seed)
    p = rng.integers(1, 101, size=n).astype(float)
    r = rng.integers(1, r_max + 1, size=n).astype(float)
    return SchedInstance(p=p, r=r, rho=float(rho), seed=seed)


def save_sched_instance(path, x: SchedInstance) -> None:
    payload = {
        "n": x.n,
        "rho": x.rho,
        "p": [_as_number(v) for v in x.p],
        "r": [_as_number(v) for v in x.r],
        "seed": None if x.seed is None else int(x.seed),
    }
    _write_json(path, payload)


def _sched_instance(n: int, p: list, r: list, rho: float | None = None,
                    seed: int | None = None) -> SchedInstance:
    """The keys of an instance file: the job count, processing times and release dates."""
    if len(p) != n:
        raise ValueError("instance file job count mismatch")
    return SchedInstance(p=p, r=r, rho=rho, seed=seed)


def load_sched_instance(path) -> SchedInstance:
    return _read_json(path, _sched_instance)


def experience_loss_config(
    post: str, perturbation: PerturbationConfig | None = None
) -> learning.LossConfig:
    """Loss for learning by experience: pipeline total normalized by n(n+1).

    The normalizer keeps instances of different sizes on one scale (the
    worst total grows quadratically in n).  The cost, local search included,
    is computed once per distinct SPT order (learning._cached_pipeline).
    """
    _check_post(post)

    def cost(x: SchedInstance, order: tuple) -> float:
        order = np.array(order)  # the tuple would index x.p as a multi-index
        return _total(x, local_search(x, order) if post == "ls" else order) / (x.n * (x.n + 1))

    loss = learning._cached_pipeline(
        features, lambda x, theta: tuple(spt_layer(theta).tolist()), cost)
    return learning.LossConfig(loss, SCHED_FEATURE_DIM, perturbation)


class SchedulingApplication:
    """What the command line runs for scheduling datasets.

    Instances are sampled per (n, rho) cell; totals are normalized by
    n(n+1) for training, and eval gaps are taken to the best evaluated
    total (exact on small instances) and bucketed by n.
    """

    bucket_key = "n"
    row_keys = ()
    dim = SCHED_FEATURE_DIM

    def cells(self, n: list, rho: list) -> list:
        """The manifest fields of each (n, rho) cell; an integer-valued n is stored as an int."""
        if any(size < 1 or not float(size).is_integer() for size in n):
            raise ValueError("generate key 'n' must hold integers >= 1")
        if any(r <= 0 for r in rho):
            raise ValueError("generate key 'rho' must hold values > 0")
        for size, r in itertools.product(n, rho):
            _release_horizon(size, r, "generate key 'rho'")
        return [{"n": int(size), "rho": r} for size, r in itertools.product(n, rho)]

    def instance_id(self, cell: dict, index: int) -> str:
        return f"sm_n{cell['n']}_rho{cell['rho']:g}_{index:03d}"

    def generate(self, cell: dict, seed: int, path) -> dict:
        """Sample one instance of a cell into path; returns its manifest fields."""
        x = generate_sched_instance(cell["n"], cell["rho"], seed=seed)
        save_sched_instance(path, x)
        return {**cell, "seed": x.seed}

    def load(self, path) -> SchedInstance:
        return load_sched_instance(path)

    def loss_config(self, instances, rows, perturbation, /, post: str = "ls"):
        return experience_loss_config(post, perturbation)

    def fyl_train(self, instances, /, **fyl):
        raise ValueError("fyl training is implemented for the two_stage application")

    def algorithms(self) -> dict:
        """Each eval kind's cost, then the library functions it passes keys on to."""
        return {
            "spt": (lambda x, /: evaluate_schedule(x, spt_layer(x.p))[0],),
            "pipeline": (lambda x, /, weights: evaluate_schedule(
                x, pipeline_order(x, weights, post="none"))[0],),
            "pipeline_ls": (lambda x, /, weights: evaluate_schedule(
                x, pipeline_order(x, weights, post="ls"))[0],),
            "pipeline_pert_ls": (lambda x, /, weights, **decode: evaluate_schedule(
                x, perturbed_decode(x, weights, **decode))[0], perturbed_decode),
            "brute_force": (lambda x, /: brute_force_schedule(x)[0],),
        }

    def check_entry(self, kind: str, keys: dict) -> None:
        """Fail before any instance loads when an eval entry's settings, or
        train's (kind 'train'), are out of range."""
        if kind == "pipeline_pert_ls":
            _check_decode(keys["sigma"], keys["nsamples"], keys["seed"], f"{kind} entry")
        if kind == "train":
            _check_post(keys["post"], "train key 'post'")

    def check_instances(self, kind: str, instances) -> None:
        """Fail before anything runs when an eval kind cannot take a loaded instance."""
        if kind == "brute_force" and any(x.n > BRUTE_FORCE_JOB_LIMIT for x in instances):
            raise ValueError(f"brute force limited to {BRUTE_FORCE_JOB_LIMIT} jobs")

    def lower_bound(self, x: SchedInstance, row: dict) -> float:
        """The branch-and-bound optimum on small instances; inf otherwise."""
        return brute_force_schedule(x)[0] if x.n <= BRUTE_FORCE_JOB_LIMIT else np.inf


APPLICATION = SchedulingApplication()
