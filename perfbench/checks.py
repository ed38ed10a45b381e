"""Output checks on a finished chain, valid for any workload seed."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

DIGESTED = (
    "train_set/manifest.json",
    "test_set/manifest.json",
    "model/weights.json",
    "model/report.json",
    "table/gaps.csv",
)


def read_gaps(work: Path):
    """Per-instance rows {algorithm: (cost, reference, gap_pct)} and the summary rows."""
    per_instance: dict[str, dict[str, tuple[float, float, float]]] = {}
    summary: dict[tuple[str, str], float] = {}
    with open(work / "table" / "gaps.csv", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for inst, algo, cost, ref, gap, _ in rows:
            if inst.startswith("delta_"):
                summary[inst, algo] = float(gap)
            else:
                per_instance.setdefault(inst, {})[algo] = (float(cost), float(ref), float(gap))
    return per_instance, summary


def digests(work: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((work / name).read_bytes()).hexdigest()
        for name in DIGESTED
        if (work / name).exists()
    }


def _two_stage(work: Path, plan: dict) -> dict[str, bool]:
    per_instance, _ = read_gaps(work)
    with open(work / "model" / "report.json") as fh:
        report = json.load(fh)
    learner = plan["train"]["learner"]
    seeds = report["per_seed"]
    return {
        # the stored Lagrangian bound lies below every feasible cost
        "gap_pct_nonnegative": bool(per_instance)
        and all(gap >= 0 for algos in per_instance.values() for _, _, gap in algos.values()),
        "evals_equal_budget": [s["seed"] for s in seeds] == learner["seeds"]
        and all(s["evals"] == learner["budget"] for s in seeds),
    }


def _scheduling(work: Path, scheduling) -> dict[str, bool]:
    per_instance, _ = read_gaps(work)
    manifest = json.loads((work / "test_set" / "manifest.json").read_text())
    pert_le_ls = bool(per_instance)
    ref_le_costs = bool(per_instance)
    ref_is_exact = True
    for row in manifest["instances"]:
        algos = per_instance[row["id"]]
        ref = next(iter(algos.values()))[1]
        pert_le_ls &= algos["pipeline_pert_ls"][0] <= algos["pipeline_ls"][0]
        ref_le_costs &= all(ref <= cost for cost, _, _ in algos.values())
        if row["n"] <= scheduling.BRUTE_FORCE_JOB_LIMIT:
            x = scheduling.load_sched_instance(work / "test_set" / row["file"])
            ref_is_exact &= ref == scheduling.brute_force_schedule(x)[0]
    return {
        "pert_ls_le_ls": pert_le_ls,
        "reference_le_every_cost": ref_le_costs,
        "reference_is_brute_force_for_small_n": ref_is_exact,
    }


def output_checks(work: Path, plan: dict, scheduling) -> dict[str, bool]:
    """Named pass/fail checks on the chain's output files.

    `scheduling` is the co_pipeline.scheduling module, used for the exact
    brute-force reference on small instances.
    """
    try:
        if plan["application"] == "two_stage":
            return _two_stage(work, plan)
        return _scheduling(work, scheduling)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        return {f"outputs_readable ({type(exc).__name__}: {exc})": False}
