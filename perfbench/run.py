"""Benchmark of the co_pipeline generate -> train -> eval chain.

    python3 perfbench/run.py --workload ts_chain --seed 7 --seconds 40 --trace 0

Run it from the root of a source checkout: the program is imported from
./src, and scratch files go to ./.perfbench_work/<workload>/.  Workloads are
defined in workloads.py and explained in README.md.

--trace 0 times chains with tracing off for about --seconds and prints the
end-to-end metrics.  --trace 1 runs chain 0 once untraced and once traced,
and prints the per-layer metrics.  Both modes check the outputs.  Human-readable lines come
first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count chain stages and output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS, default_seed, workload  # noqa: E402

RUN_LIMIT_S = 170.0
CHECK_RESERVE_S = 15.0
EXPECTED = HERE / "expected.json"

STAGES = ("chain", "generate", "train", "eval")
# Reported metrics; the stage times in seconds are printed as well, but the
# ones reported are in reference units (see reference.py).
END_TO_END = {
    **{f"{stage}_rel": "ref" for stage in STAGES},
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (public function, statistics) reported by the traced run.
TRACED = [
    ("graphs.mst_kruskal", ("calls", "self_s", "p50_us", "p99_us")),
    ("graphs.mst_constrained", ("calls", "self_s")),
    ("two_stage.decode", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("two_stage.evaluate_solution", ("calls", "self_s")),
    ("two_stage.easy_layer", ("calls", "self_s")),
    ("two_stage.features", ("calls", "self_s")),
    ("two_stage.lagrangian_bound", ("calls", "self_s")),
    ("two_stage.lagrangian_heuristic", ("calls", "self_s")),
    ("scheduling.local_search", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("scheduling.features", ("calls", "self_s")),
    ("scheduling.srpt_preemptive", ("calls", "self_s")),
    ("scheduling.spt_layer", ("calls", "self_s")),
    ("scheduling.perturbed_decode", ("calls", "self_s")),
    ("scheduling.brute_force_schedule", ("calls", "self_s")),
    ("learning.direct_minimize", ("calls", "self_s")),
    ("learning.empirical_risk", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("learning.perturbed_loss_saa", ("calls", "self_s")),
    ("model.sample_gaussians", ("calls", "self_s")),
    ("cli.generate", ("self_s",)),
    ("cli.train", ("self_s",)),
    ("cli.eval", ("self_s",)),
]
IO = {
    "two_stage.io": ("two_stage.save_instance", "two_stage.load_instance"),
    "scheduling.io": ("scheduling.save_sched_instance", "scheduling.load_sched_instance"),
}
# hit ratio = 1 - (calls that missed the cache) / (calls that consulted it), in train
HIT_RATIOS = {
    "two_stage.decode_hit_ratio": ("two_stage.decode", "two_stage.easy_layer"),
    "scheduling.ls_memo_hit_ratio": ("scheduling.local_search", "scheduling.spt_layer"),
}
UNITS = {
    "calls": ("count", 1),
    "self_s": ("s", 1.0),
    "p50_us": ("us", 1e6),
    "p99_us": ("us", 1e6),
    "p50_ms": ("ms", 1e3),
    "p99_ms": ("ms", 1e3),
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for fn, stats in TRACED:
        for stat in stats:
            names[f"{fn}.{stat}"] = UNITS[stat][0]
    for group in IO:
        names[f"{group}.self_s"] = "s"
    for ratio in HIT_RATIOS:
        names[ratio] = "ratio"
    names["trace_overhead_pct"] = "%"
    return names


class Run:
    """One benchmark invocation: its work directory, child environment and deadline."""

    def __init__(self, root: Path, args):
        self.args = args
        self.work = root / ".perfbench_work" / args.workload
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.started = perf_counter()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.started)

    def chains(self, name: str, *flags: str) -> tuple[Path, dict]:
        """Run chain.py with `flags` in a fresh process under work/<name>.

        Returns the directory and its chain.json.
        """
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cmd = [
            sys.executable,
            str(HERE / "chain.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--work", str(out),
            *flags,
        ]
        cmd += ["--tiny"] * self.args.tiny
        log = self.work / f"{name}.log"
        with open(log, "w") as fh:
            proc = subprocess.run(
                cmd, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                timeout=max(1.0, self.remaining()),
            )
        if proc.returncode != 0:
            sys.stderr.write(log.read_text()[-4000:])
            raise RuntimeError(f"chain process exited with {proc.returncode}")
        return out, json.loads((out / "chain.json").read_text())


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def expected_key(args) -> str:
    return args.workload + ("/tiny" if args.tiny else "")


def load_expected(args) -> dict | None:
    """Recorded digests and counters, for the workload's default seed only."""
    if args.seed != default_seed(args.workload) or not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(expected_key(args))


def learned_gap_pct(out: Path, plan: dict) -> float:
    """The learned pipeline's mean gap in gaps.csv (NaN when the table is unreadable)."""
    try:
        _, summary = checks.read_gaps(out)
        return summary["delta_avg[all]", plan["learned"]]
    except (OSError, KeyError, ValueError):
        return float("nan")


def chain_checks(out: Path, result: dict, plan: dict, expected, scheduling) -> dict[str, bool]:
    found = {f"stage {label} exit 0": code == 0 for label, code in result["exit_codes"].items()}
    found.update(checks.output_checks(out, plan, scheduling))
    if expected is not None:
        found["digests equal the recorded ones"] = checks.digests(out) == expected["digests"]
    return found


def trace_counters(trace: dict) -> tuple[dict, dict]:
    calls = {name: stats["calls"] for name, stats in trace["all"].items() if stats["calls"]}
    train = trace.get("train", {})
    ratios = {}
    for ratio, (missed, consulted) in HIT_RATIOS.items():
        base = train.get(consulted, {"calls": 0})["calls"]
        ratios[ratio] = 1.0 - train[missed]["calls"] / base if base else 0.0
    return calls, ratios


def measure_untraced(run: Run, scheduling) -> tuple[dict, dict, dict]:
    """Chain runs over the workload's pool of chains in one fresh process (see chain.py).

    A chain's stage time is its mean over its runs, and `<stage>_s` is the
    mean over the chains that ran.  `<stage>_rel` is that time divided by the
    mean reference sample of the run (see reference.py for why the mean).
    setup_s is the median of the set-up samples.
    """
    expected = load_expected(run.args)
    limit = run.remaining() - CHECK_RESERVE_S
    out, result = run.chains("chains", "--seconds", str(run.args.seconds), "--limit", str(limit))
    gaps, found, means = [], {}, []
    for index, chain in enumerate(result["chains"]):
        plan = workload(run.args.workload, chain["seed"], run.args.tiny)
        chain_dir = out / f"chain{index}"
        gaps.append(learned_gap_pct(chain_dir, plan))
        recorded = expected if index == 0 else None
        checked = chain_checks(chain_dir, chain, plan, recorded, scheduling)
        checked["reruns reproduce the first outputs"] = chain["reruns_reproduce"]
        for name, ok in checked.items():
            found[name] = found.get(name, True) and ok
        per_stage = {
            stage: statistics.fmean(r[stage] for r in chain["stage_s"]) for stage in STAGES[1:]
        }
        per_stage["chain"] = sum(per_stage.values())
        means.append(per_stage)
    unit_s = statistics.fmean(result["reference_s"])
    seconds = {f"{stage}_s": statistics.fmean(m[stage] for m in means) for stage in STAGES}
    values = {f"{stage}_rel": seconds[f"{stage}_s"] / unit_s for stage in STAGES}
    values["setup_s"] = statistics.median(result["setup_s"])
    values["peak_rss_mb"] = result["peak_rss_mb"]
    extra = {
        "seconds": seconds,
        "reference_unit_s": unit_s,
        "chain_runs": sum(len(c["stage_s"]) for c in result["chains"]),
        "chains": [c["stage_s"] for c in result["chains"]],
        "setup_samples": result["setup_s"],
        "learned_gap_pct": statistics.median(gaps),
    }
    return values, found, extra


def measure_traced(run: Run, scheduling) -> tuple[dict, dict, dict]:
    """Chain 0 once untraced and once traced; per-layer metrics from the traced one."""
    expected = load_expected(run.args)
    plan = workload(run.args.workload, run.args.seed, run.args.tiny)
    plain_out, plain_result = run.chains("untraced", "--single")
    plain = plain_result["chains"][0]
    found = {
        f"untraced {k}": ok
        for k, ok in chain_checks(plain_out / "chain0", plain, plan, expected, scheduling).items()
    }
    traced_out, traced_result = run.chains("traced", "--trace")
    traced = traced_result["chains"][0]
    out = traced_out / "chain0"
    found.update(chain_checks(out, traced, plan, expected, scheduling))
    trace = traced_result["trace"]
    calls, ratios = trace_counters(trace)
    learner = plan["train"]["learner"]
    found["empirical_risk calls = budget x seeds"] = (
        calls.get("learning.empirical_risk", 0) == learner["budget"] * len(learner["seeds"])
    )
    if expected is not None:
        found["calls and hit ratios equal the recorded ones"] = (
            calls == expected["calls"] and ratios == expected["hit_ratios"]
        )
    if run.args.record:
        record(run.args, checks.digests(out), calls, ratios)

    stats = trace["all"]
    values = {}
    for fn, wanted in TRACED:
        for stat in wanted:
            key = "p50_s" if stat.startswith("p50") else "p99_s" if stat.startswith("p99") else stat
            values[f"{fn}.{stat}"] = stats[fn][key] * UNITS[stat][1]
    for group, members in IO.items():
        values[f"{group}.self_s"] = sum(stats[m]["self_s"] for m in members)
    values.update(ratios)
    # each chain in reference units of its own process, so that a change in the
    # machine's speed between the two does not count as overhead
    plain_rel = sum(plain["stage_s"].values()) / statistics.fmean(plain_result["reference_s"])
    traced_rel = sum(traced["stage_s"].values()) / statistics.fmean(traced_result["reference_s"])
    values["trace_overhead_pct"] = 100.0 * (traced_rel - plain_rel) / plain_rel
    return values, found, {"learned_gap_pct": learned_gap_pct(out, plan)}


def record(args, digests: dict, calls: dict, ratios: dict) -> None:
    """Store the default seed's digests and counters as the expected values."""
    if args.seed != default_seed(args.workload):
        raise SystemExit(f"--record needs the default seed {default_seed(args.workload)}")
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    table[expected_key(args)] = {"digests": digests, "calls": calls, "hit_ratios": ratios}
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="generate -> train -> eval chain benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument(
        "--record", action="store_true",
        help="with --trace 1 and the default seed: store digests and counters in expected.json",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record and not args.trace:
        parser.error("--record needs --trace 1")

    root = Path.cwd()
    if not (root / "src" / "co_pipeline" / "cli.py").is_file():
        print(f"error: no co_pipeline sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from co_pipeline import scheduling

    run = Run(root, args)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        if args.trace:
            values, found, extra = measure_traced(run, scheduling)
            units = per_layer_names()
        else:
            values, found, extra = measure_untraced(run, scheduling)
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stages = sum(1 for name in found if "stage " in name)
    attempted = len(found)
    failed = sum(not ok for ok in found.values())
    info = machine()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload} seed {args.seed}: {stages} stage results, "
          f"{attempted - stages} output checks")
    for name, ok in found.items():
        print(f"  {'ok  ' if ok else 'FAIL'} {name}")
    if "chain_runs" in extra:
        print(f"chain runs: {extra['chain_runs']} over {len(extra['chains'])} chain(s)")
        for name, value in extra["seconds"].items():
            print(f"{name} {value:.6g} s")
        print(f"reference_unit_s {extra['reference_unit_s']:.6g} s")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"learned_gap_pct {extra['learned_gap_pct']:.6g} %")
    print(f"fail_rate {failed / attempted:.6g} ({failed} of {attempted})")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (run.work / "result.json").write_text(
        json.dumps({**result, "machine": info, "checks": found, "workload": args.workload,
                    "seed": args.seed, **extra}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
