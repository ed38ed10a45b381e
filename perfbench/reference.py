"""A fixed reference loop that tells how fast the machine runs right now.

The machine the benchmark runs on is shared: the same chain on the same
inputs runs 20-40 % slower or faster for minutes at a time, which no amount
of repetition inside one run averages away.  So each run also times this
loop, interleaved with the chains, and the stage times are reported in
multiples of its mean time: a stage that takes as long as 300 runs of the
loop reads 300 whatever the current speed of the machine.

The mean, not the median: a sample takes a few milliseconds, short enough to
fall wholly inside a slow or a fast spell of the machine, so the samples
come in two modes and their median jumps from one mode to the other as the
share of slow spells crosses one half.  The mean grows with that share
smoothly, as a stage lasting a second does.

The loop does the two kinds of work the program does, numpy calls on small
arrays and plain Python arithmetic, in about equal time on fixed data.  It
never calls the program, so a change to the program cannot change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20210709)
_VECTOR = _RNG.random(2000)
_MATRIX = _RNG.random((60, 60))


def _once() -> float:
    total = 0.0
    for _ in range(20):
        np.sort(_VECTOR)
        np.argsort(_VECTOR, kind="stable")
        total += float((_MATRIX @ _MATRIX[:, :1]).sum())
        total += float(np.cumsum(_VECTOR)[::3].sum())
    count = 0
    for i in range(30000):
        count += i * i % 7
    return total + count


def sample() -> float:
    """Wall seconds of one run of the reference loop (about 7 ms on a 2 GHz Xeon core)."""
    start = perf_counter()
    _once()
    return perf_counter() - start
