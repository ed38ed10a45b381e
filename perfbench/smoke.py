"""Tiny-size smoke run of every workload.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  For each workload at its default
seed it runs the benchmark untraced and traced twice (--tiny sizes, a few
seconds each) and checks that:
- each run exits 0 and ends with the result object, with every check passed;
- every metric named in BENCHMARK.json is printed by name with its unit,
  both on its own line and in the result object;
- the two traced runs report identical call counts and hit ratios.
It also checks that the benchmark refuses to run in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, default_seed  # noqa: E402


def bench(run_py: str, *args: str, cwd=None):
    cmd = [sys.executable, run_py, *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> tuple[list[str], dict]:
    proc = bench(str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(default_seed(workload)), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}"], {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: checks failed:\n{proc.stdout}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metrics {got} != BENCHMARK.json {wanted}")
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in wanted.items():
        if printed.get(name) != unit:
            problems.append(f"{label}: {name} not printed with unit {unit}")
    return problems, result["metrics"]


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        found, _ = check_run(spec, workload, 0)
        problems += found
        counters = []
        for _ in range(2):
            found, metrics = check_run(spec, workload, 1)
            problems += found
            counters.append({
                name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "ratio")
            })
        if counters[0] != counters[1]:
            problems.append(f"{workload}: traced counters differ between two runs")
        print(f"{workload}: done", flush=True)

    bare = Path(".perfbench_work") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(f"{HERE.name}/run.py", "--workload", "ts_chain", "--seed", "7",
                 "--seconds", "1", "--trace", "0", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py did not refuse a directory without the program")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
