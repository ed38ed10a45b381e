"""Run a workload's generate -> train -> eval chains in this process.

    python3 perfbench/chain.py --workload ts_chain --seed 7 --work DIR \
        [--seconds S --limit L | --single | --trace] [--tiny]

Needs `co_pipeline` importable (run.py starts it with PYTHONPATH=src).  Chain
i uses the chain seed `chain_seed(seed, i)` and writes under DIR/chain<i>.
Each stage is one `co_pipeline.cli.main` call and starts when the previous
one has returned.

Without --trace, chain runs follow each other over the workload's pool of
chains (chain 0, 1, ..., K-1, then chain 0 again, ...), each time on the same
inputs as before: at least MIN_RUNS of them, and more while the next one
should end within --seconds; none starts that should end after --limit
seconds.  A stage shorter than MIN_STAGE_S (scheduling generate takes
~0.005 s per set) is repeated within the run and its best time kept: such a
step mostly writes small files, and its typical time drifts with the disk
from run to run in a way the reference loop does not follow, while its best
time does not drift.  After every
chain run, the reference loop (reference.py) is timed for REF_SHARE of the
run's wall time.  After each of the first MIN_RUNS chain runs, and then
whenever SETUP_EVERY_S seconds have passed since the last one, a fresh
interpreter imports co_pipeline.cli (a set-up sample).  The outputs of a
chain are digested after each of its runs and compared with its first run.
With --single, chain 0 runs once and every stage once, followed by reference
samples for SINGLE_REF_SHARE of its wall time; --trace does the same under
the tracer.

The stage times of every run, exit codes, set-up and reference samples and
peak RSS go to DIR/chain.json; with --trace, the per-function span summary
goes there too and the spans themselves to DIR/spans.npz.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import co_pipeline  # noqa: E402
from co_pipeline import cli  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import chain_seed, chains_per_run, workload  # noqa: E402

MIN_RUNS = 3
MIN_STAGE_S = 0.05
REF_SHARE = 0.1
SINGLE_REF_SHARE = 0.3
SETUP_EVERY_S = 4.0
SETUP_CODE = "import co_pipeline.cli, sys; sys.stdout.write('1'); sys.stdout.flush()"


def _write(path: Path, payload) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


def run_chain(plan: dict, work: Path, min_stage_s: float) -> dict:
    """Run the stages of `plan` under `work`.

    Returns, per stage, the best wall time of its repetitions, and the exit codes.
    """
    cfg = work / "configs"
    train_data, test_data = work / "train_set", work / "test_set"
    model_dir, table_dir = work / "model", work / "table"
    eval_algorithms = [
        {k: (str(model_dir / "weights.json") if v == "@weights" else v) for k, v in entry.items()}
        for entry in plan["eval"]
    ]
    stages = [("generate", "gen_train", plan["train_set"], train_data)]
    if plan["test_set"] is not None:
        stages.append(("generate", "gen_test", plan["test_set"], test_data))
    else:
        test_data = train_data
    stages.append(("train", "train", {**plan["train"], "dataset": str(train_data)}, model_dir))
    stages.append(
        ("eval", "eval", {"dataset": str(test_data), "algorithms": eval_algorithms}, table_dir)
    )
    times: dict[str, float] = {"generate": 0.0, "train": 0.0, "eval": 0.0}
    codes = {}
    for command, label, config, out in stages:
        path = _write(cfg / f"{label}.json", config)
        walls: list[float] = []
        while not walls or sum(walls) < min_stage_s:
            start = perf_counter()
            code = cli.main([command, "--config", path, "--out", str(out)])
            walls.append(perf_counter() - start)
            codes[label] = max(codes.get(label, 0), code)
        times[command] += min(walls)
    return {"stage_s": times, "exit_codes": codes}


def setup_sample() -> float:
    """Seconds from starting a fresh interpreter to having imported co_pipeline.cli."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE], env=os.environ, stdout=subprocess.PIPE
    ) as proc:
        ready = proc.stdout.read(1)
        elapsed = perf_counter() - start
        proc.wait(timeout=60)
    if ready != b"1" or proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import co_pipeline.cli")
    return elapsed


def sample_reference(samples: list[float], seconds: float) -> None:
    """Append reference samples to `samples` for about `seconds` (at least one)."""
    until = perf_counter() + seconds
    samples.append(reference.sample())
    while perf_counter() < until:
        samples.append(reference.sample())


def run_stream(args, result: dict) -> None:
    """Run the pool's chains in turn until --seconds, with reference and set-up samples."""
    work = Path(args.work)
    seeds = [chain_seed(args.seed, i) for i in range(chains_per_run(args.workload))]
    plans = [workload(args.workload, seed, args.tiny) for seed in seeds]
    chains = [{"seed": seed, "stage_s": [], "exit_codes": {}} for seed in seeds]
    result["setup_s"] = []
    result["reference_s"] = []
    setup_sample()  # writes the bytecode cache, as any earlier CLI call in a checkout would
    begin = last_setup = perf_counter()
    last = 0.0
    for runs in itertools.count():
        elapsed = perf_counter() - begin
        if (runs >= MIN_RUNS and elapsed + last > args.seconds) or elapsed + last > args.limit:
            break
        start = perf_counter()
        index = runs % len(chains)
        chain, out = chains[index], work / f"chain{index}"
        run = run_chain(plans[index], out, MIN_STAGE_S)
        chain["stage_s"].append(run["stage_s"])
        for label, code in run["exit_codes"].items():
            chain["exit_codes"][label] = max(chain["exit_codes"].get(label, 0), code)
        digests = checks.digests(out)
        chain.setdefault("first_digests", digests)
        chain["reruns_reproduce"] = digests == chain["first_digests"]
        sample_reference(result["reference_s"], REF_SHARE * (perf_counter() - start))
        if perf_counter() - last_setup >= SETUP_EVERY_S or len(result["setup_s"]) < MIN_RUNS:
            result["setup_s"].append(setup_sample())
            last_setup = perf_counter()
        last = perf_counter() - start
    result["chains"] = [chain for chain in chains if chain["stage_s"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--limit", type=float, default=float("inf"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--single", action="store_true", help="as --trace, without the tracer")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    result: dict = {"chains": []}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, co_pipeline)
    if args.trace or args.single:
        plan = workload(args.workload, args.seed, args.tiny)
        start = perf_counter()
        result["chains"].append({"seed": args.seed, **run_chain(plan, work / "chain0", 0.0)})
        result["reference_s"] = []
        sample_reference(result["reference_s"], SINGLE_REF_SHARE * (perf_counter() - start))
    else:
        run_stream(args, result)
    if tracer is not None:
        result["trace"] = tracing.summarize(tracer)
        tracer.save(work / "spans.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _write(work / "chain.json", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
