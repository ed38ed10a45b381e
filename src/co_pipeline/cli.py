"""Command-line entry points: generate, train, eval, bounds.

Every command reads a JSON config (--config), writes its outputs under
--out, and is deterministic given the seeds in the config: rerunning a
generate/train/eval chain reproduces the output files byte for byte.
The only opt-out is `eval --timings`, which fills the time_s column of
the gap table with measured wall-clock seconds instead of the
deterministic 0.0 placeholder (measured timings always go to the
timings.json sidecar either way).
"""

from __future__ import annotations

import argparse
import csv
import difflib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import learning, model, scheduling, two_stage

__all__ = ["main", "build_parser"]

ENV_THREADS = "CO_PIPELINE_THREADS"


def _child_seeds(master_seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


_APPLICATIONS = {"two_stage": two_stage.APPLICATION, "scheduling": scheduling.APPLICATION}
_LEARNER_KEYS = ("box_radius", "budget", "seeds")


def _application(name):
    if not isinstance(name, str) or name not in _APPLICATIONS:
        known = ", ".join(_APPLICATIONS)
        raise ValueError(f"unknown application {name!r}; expected one of {known}")
    return _APPLICATIONS[name]


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(config: dict, out: Path, seed_override, threads: int) -> int:
    app = _application(config["application"])
    master_seed = int(config["seed"]) if seed_override is None else int(seed_override)
    out.mkdir(parents=True, exist_ok=True)
    inst_dir = out / "instances"
    inst_dir.mkdir(exist_ok=True)
    cells = app.cells(config)
    per_cell = int(config["per_cell"])
    seeds = iter(_child_seeds(master_seed, len(cells) * per_cell))
    rows = []
    for cell in cells:
        for i in range(per_cell):
            inst_id = app.instance_id(cell, i)
            fields = app.generate(config, cell, next(seeds), inst_dir / f"{inst_id}.json")
            rows.append({"id": inst_id, "file": f"instances/{inst_id}.json", **fields})
    manifest = {"application": config["application"], "config": config, "seed": master_seed,
                "instances": rows}
    model._write_json(out / "manifest.json", manifest)
    print(f"wrote {len(rows)} instances to {out}")
    return 0


# ---------------------------------------------------------------------------
# dataset loading


def _load_dataset(config: dict):
    """(application, manifest, instances) of the dataset; config may name its application."""
    root = Path(config["dataset"])
    manifest = model._read_json(root / "manifest.json")
    app = _application(manifest["application"])
    if _application(config.get("application", manifest["application"])) is not app:
        raise ValueError("config application does not match the dataset")
    instances = [app.load(root / row["file"]) for row in manifest["instances"]]
    return app, manifest, instances


# ---------------------------------------------------------------------------
# train


def _perturbation_from(config) -> model.PerturbationConfig | None:
    if not config:
        return None
    return model.PerturbationConfig(
        sigma=float(config["sigma"]),
        nsamples=int(config.get("nsamples", 20)),
        seed=int(config.get("seed", 0)),
    )


def _learner_from(config: dict, seed_override) -> learning.LearnerConfig:
    for key in config:
        if key not in _LEARNER_KEYS:
            close = difflib.get_close_matches(key, _LEARNER_KEYS, n=1)
            hint = f"did you mean {close[0]!r}? " if close else ""
            valid = ", ".join(_LEARNER_KEYS)
            raise ValueError(f"unknown learner key {key!r}; {hint}valid: {valid}")
    seeds = [int(seed_override)] if seed_override is not None else [
        int(s) for s in config.get("seeds", range(10))
    ]
    return learning.LearnerConfig(
        box_radius=float(config.get("box_radius", 10.0)),
        budget=int(config.get("budget", 1000)),
        seeds=tuple(seeds),
    )


def _cmd_train(config: dict, out: Path, seed_override, threads: int) -> int:
    app, manifest, instances = _load_dataset(config)
    method = config.get("method", "experience")
    out.mkdir(parents=True, exist_ok=True)

    if method == "experience":
        pert = _perturbation_from(config.get("perturbation"))
        loss_cfg = app.loss_config(config, instances, manifest["instances"], pert)
        learner = _learner_from(config.get("learner", {}), seed_override)
        weights, report = learning.learn_by_experience(
            instances, learner, loss_cfg, threads=threads
        )
    elif method == "fyl":
        fyl_cfg = config.get("fyl", {})
        seed = int(seed_override) if seed_override is not None else int(fyl_cfg.get("seed", 0))
        weights = app.fyl_train(fyl_cfg, instances, seed)
        report = {"per_seed": [], "best_w": [float(v) for v in weights.w],
                  "config_hash": learning.config_hash(config)}
    else:
        raise ValueError(f"unknown training method {method!r}")

    model.save_weights(out / "weights.json", weights)
    model._write_json(out / "report.json", report)
    print(f"trained {method} weights -> {out / 'weights.json'}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _gap_pct(cost: float, reference: float) -> float:
    den = abs(reference)
    return 100.0 * (cost - reference) / (1.0 if den < 1e-12 else den)


def _cmd_eval(config: dict, out: Path, threads: int, timings: bool) -> int:
    app, manifest, instances = _load_dataset(config)
    runners = [(entry["name"], app.algorithm(entry)) for entry in config["algorithms"]]
    out.mkdir(parents=True, exist_ok=True)

    rows = manifest["instances"]
    # cost[name][i], measured wall time in the sidecar regardless of --timings
    costs: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    for name, run in runners:
        def timed(x):
            start = time.perf_counter()
            cost = float(run(x))
            return cost, time.perf_counter() - start

        results = learning.parallel_map(timed, instances, threads)
        costs[name] = [c for c, _ in results]
        walls[name] = [t for _, t in results]

    references = [
        app.reference(x, row, [costs[name][i] for name, _ in runners])
        for i, (x, row) in enumerate(zip(instances, rows))
    ]

    bucket_key = app.bucket_key
    csv_path = out / "gaps.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "algorithm", "cost", "reference", "gap_pct", "time_s"])
        gaps: dict[str, list[float]] = {name: [] for name, _ in runners}
        for i, row in enumerate(rows):
            for name, _ in runners:
                gap = _gap_pct(costs[name][i], references[i])
                gaps[name].append(gap)
                wall = f"{walls[name][i]:.6f}" if timings else "0.0"
                writer.writerow(
                    [row["id"], name, str(model._as_number(costs[name][i])),
                     str(model._as_number(references[i])), f"{gap:.6f}", wall]
                )
        for bucket in [*sorted({row[bucket_key] for row in rows}), "all"]:
            idx = [i for i, row in enumerate(rows) if bucket == "all" or row[bucket_key] == bucket]
            label = f"{bucket_key}={bucket}" if bucket != "all" else "all"
            for name, _ in runners:
                sel = [gaps[name][i] for i in idx]
                for stat, agg in (("avg", np.mean), ("max", np.max)):
                    value = f"{float(agg(sel)):.6f}"
                    writer.writerow([f"delta_{stat}[{label}]", name, "", "", value, ""])
    timings_out = {name: [round(t, 6) for t in walls[name]] for name, _ in runners}
    model._write_json(out / "timings.json", timings_out)
    print(f"wrote gap table -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# bounds


def _cmd_bounds(config: dict, out: Path | None, as_json: bool) -> int:
    grid = config.get("n", [config.get("n_single", 1)])
    if isinstance(grid, int):
        grid = [grid]
    records = []
    for n in grid:
        params = learning.BoundParams(
            M=float(config["M"]),
            d=int(config["d"]),
            sigma=float(config.get("sigma", 1.0)),
            n=int(n),
            delta=float(config.get("delta", 0.05)),
            a=float(config.get("a", 0.0)),
            b=float(config.get("b", 1.0)),
            beta=int(config.get("beta", 1)),
            kappa_phi=float(config.get("kappa_phi", 1.0)),
            expectation_term=float(config.get("expectation_term", 1.0)),
        )
        records.append(
            {
                "n": int(n),
                "sigma_n": learning.sigma_n(params),
                "excess_risk_bound": learning.excess_risk_bound(params),
            }
        )
    payload = {"C": learning.constant_C(), "rows": records}
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"C = {payload['C']!r}")
        for rec in records:
            print(
                f"n={rec['n']}: sigma_n={rec['sigma_n']!r} "
                f"excess_risk_bound={rec['excess_risk_bound']!r}"
            )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "bounds.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "sigma_n", "excess_risk_bound", "C"])
            for rec in records:
                writer.writerow(
                    [rec["n"], repr(rec["sigma_n"]), repr(rec["excess_risk_bound"]),
                     repr(payload["C"])]
                )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="co-pipeline",
        description="Learn optimization-pipeline weights from instances alone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "sample a dataset of instances and its manifest"),
        ("train", "fit pipeline weights on a generated dataset"),
        ("eval", "evaluate algorithms on a dataset and write the gap table"),
        ("bounds", "report the theory constants and excess-risk bounds"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument(
            "--threads",
            type=int,
            default=None,
            help=f"worker threads (default: ${ENV_THREADS} or 1)",
        )
        if name == "eval":
            cmd.add_argument(
                "--timings",
                action="store_true",
                help="write measured wall times into the CSV (breaks byte-identity)",
            )
        if name == "bounds":
            cmd.add_argument("--json", action="store_true", help="print JSON to stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get(ENV_THREADS, "1"))
    try:
        config = model._read_json(args.config)
        if args.command in ("generate", "train", "eval") and args.out is None:
            raise ValueError(f"{args.command} requires --out")
        out = None if args.out is None else Path(args.out)
        if args.command == "generate":
            return _cmd_generate(config, out, args.seed, threads)
        if args.command == "train":
            return _cmd_train(config, out, args.seed, threads)
        if args.command == "eval":
            return _cmd_eval(config, out, threads, args.timings)
        return _cmd_bounds(config, out, args.json)
    except KeyError as exc:
        print(f"error: missing config key {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
