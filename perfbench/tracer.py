"""Spans around the public functions of every co_pipeline module.

The tracer lives entirely in the benchmark: `install` replaces each public
function with a wrapper in every module namespace that binds it (for
example both `graphs.mst_kruskal` and `two_stage.mst_kruskal`), so calls are
timed from outside the program.  Each span stores its name, its parent span
and its start and end times in compact arrays that stay in memory until
`save` writes them out at the end of the run.

`UnionFind.union` and `UnionFind.find` are left unwrapped on purpose: they
run millions of times per chain and their cost already shows in the self
time of `graphs.mst_*`.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("graphs", "two_stage", "scheduling", "learning", "model")
CLI_STAGES = {"_cmd_generate": "generate", "_cmd_train": "train", "_cmd_eval": "eval"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(start)
            name_of.append(nid)
            parent.append(self.current)
            end.append(0.0)
            prev, self.current = self.current, me
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[me] = perf_counter()
                self.current = prev

        return traced

    def arrays(self):
        """(name ids, parents, durations in s, self times in s) as numpy arrays."""
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return name_of, parent, dur, dur - covered

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def install(tracer: Tracer, package) -> None:
    """Wrap every public function of the co_pipeline modules and the CLI stages."""
    modules = [getattr(package, m) for m in (*MODULES, "cli")]
    targets = []
    for short in MODULES:
        mod = getattr(package, short)
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn):
                targets.append((f"{short}.{attr}", fn))
    for attr, stage in CLI_STAGES.items():
        targets.append((f"cli.{stage}", getattr(package.cli, attr)))
    for name, fn in targets:
        traced = tracer.wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)


def summarize(tracer: Tracer) -> dict:
    """Per-function calls, self time and call-duration percentiles, per stage.

    Returns {"all": {name: stats}, "<stage>": {name: {"calls": n}}} where a
    stage is the root `cli.*` span a call ran under.
    """
    name_of, parent, dur, self_s = tracer.arrays()
    roots = np.flatnonzero(parent < 0)
    stage_of = roots[np.searchsorted(roots, np.arange(dur.size), side="right") - 1]
    out: dict[str, dict] = {"all": {}}
    for nid, name in enumerate(tracer.names):
        mask = name_of == nid
        calls = int(mask.sum())
        d = dur[mask]
        out["all"][name] = {
            "calls": calls,
            "self_s": float(self_s[mask].sum()),
            "p50_s": float(np.percentile(d, 50)) if calls else 0.0,
            "p99_s": float(np.percentile(d, 99)) if calls else 0.0,
        }
    for root in roots:
        stage = tracer.names[name_of[root]].removeprefix("cli.")
        counts = np.bincount(name_of[stage_of == root], minlength=len(tracer.names))
        per_stage = out.setdefault(stage, {})
        for nid, name in enumerate(tracer.names):
            prev = per_stage.get(name, {"calls": 0})["calls"]
            per_stage[name] = {"calls": prev + int(counts[nid])}
    return out
