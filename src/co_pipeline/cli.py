"""Command-line entry points: generate, train, eval, bounds.

Every command reads a JSON config (--config), writes its outputs under
--out, and is deterministic given the seeds in the config: rerunning a
generate/train/eval chain reproduces the output files byte for byte.

Config blocks are read by model._read_config: an unknown key fails before
anything is written, and an omitted key takes its consumer's default.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import learning, model, scheduling, two_stage

__all__ = ["main", "build_parser"]


def _child_seeds(master_seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


_APPLICATIONS = {"two_stage": two_stage.APPLICATION, "scheduling": scheduling.APPLICATION}


def _application(name):
    if not isinstance(name, str) or name not in _APPLICATIONS:
        known = ", ".join(_APPLICATIONS)
        raise ValueError(f"unknown application {name!r}; expected one of {known}")
    return _APPLICATIONS[name]


def _nonempty(block: str, **lists) -> None:
    """Reject an empty list, naming its key: a stage run over nothing is a mistake."""
    for key, value in lists.items():
        if isinstance(value, list) and not value:
            raise ValueError(f"{block} key {key!r} is an empty list")


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(app, config: dict, out: Path, seed_override, /, application: str, seed: int,
                  per_cell: int, **axes) -> int:
    _nonempty("generate", **axes)
    if per_cell < 1:
        raise ValueError("generate key 'per_cell' must be >= 1")
    master_seed = seed if seed_override is None else int(seed_override)
    if master_seed < 0:
        raise ValueError("generate key 'seed' (or --seed) must be >= 0")
    cells = app.cells(**axes)
    inst_dir = out / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    seeds = iter(_child_seeds(master_seed, len(cells) * per_cell))
    rows = []
    for cell in cells:
        for i in range(per_cell):
            inst_id = app.instance_id(cell, i)
            fields = app.generate(cell, next(seeds), inst_dir / f"{inst_id}.json")
            rows.append({"id": inst_id, "file": f"instances/{inst_id}.json", **fields})
    manifest = {"application": application, "config": config, "seed": master_seed,
                "instances": rows}
    model._write_json(out / "manifest.json", manifest)
    print(f"wrote {len(rows)} instances to {out}")
    return 0


# ---------------------------------------------------------------------------
# dataset loading


def _dataset(dataset) -> tuple:
    """(application, manifest) of a dataset; every row must name its file and the
    fields its application reads."""
    path = Path(dataset) / "manifest.json"
    manifest = model._read_json(path)
    app = _application(manifest["application"])
    for row in manifest["instances"]:
        for key in ("file", *app.row_keys):
            if key not in row:
                raise ValueError(f"instance {row.get('id')!r} in {path} has no {key!r}")
    return app, manifest


def _instances(app, manifest, dataset, application) -> list:
    """The dataset's instances; a config that names its application must match."""
    if application is not None and _application(application) is not app:
        raise ValueError("config application does not match the dataset")
    return [app.load(Path(dataset) / row["file"]) for row in manifest["instances"]]


# ---------------------------------------------------------------------------
# train


def _cmd_train(app, manifest: dict, out: Path, seed_override, /, dataset: str,
               application: str | None = None, method: str = "experience",
               learner: dict | None = None, perturbation: dict | None = None,
               fyl: dict | None = None, **loss_keys) -> int:
    instances = _instances(app, manifest, dataset, application)
    unread = {"experience": {"fyl": fyl}, "fyl": {"learner": learner, "perturbation": perturbation}}
    if method not in unread:
        raise ValueError(f"unknown training method {method!r}")
    for block, value in unread[method].items():
        if value is not None:
            raise ValueError(f"training method {method!r} does not read the {block!r} block")

    if method == "experience":
        learner = model._read_config("learner", learner or {}, learning.LearnerConfig)
        if seed_override is not None:
            learner["seeds"] = (int(seed_override),)
        pert = None
        if perturbation:
            pert = model.PerturbationConfig(
                **model._read_config("perturbation", perturbation, model.PerturbationConfig)
            )
        loss_cfg = app.loss_config(instances, manifest["instances"], pert, **loss_keys)
        weights, report = learning.learn_by_experience(
            instances, learning.LearnerConfig(**learner), loss_cfg
        )
    else:
        fyl = model._read_config("fyl", fyl or {}, app.fyl_train, learning.fyl_learn)
        if seed_override is not None:
            fyl["seed"] = int(seed_override)
        if fyl["seed"] < 0:
            raise ValueError("fyl key 'seed' (or --seed) must be >= 0")
        weights = app.fyl_train(instances, **fyl)
        report = {"per_seed": [], "best_w": [float(v) for v in weights.w],
                  "config_hash": learning.config_hash(fyl)}

    out.mkdir(parents=True, exist_ok=True)
    model.save_weights(out / "weights.json", weights)
    model._write_json(out / "report.json", report)
    print(f"trained {method} weights -> {out / 'weights.json'}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _gap_pct(cost: float, reference: float) -> float:
    den = abs(reference)
    return 100.0 * (cost - reference) / (1.0 if den < 1e-12 else den)


def _runner(factory, /, name: str, kind: str, **keys):
    """(name, cost function) of one eval entry: the factory its kind picked
    takes the other keys and returns the cost as a function of the instance."""
    return name, factory(**keys)


def _cmd_eval(app, manifest: dict, out: Path, /, dataset: str, algorithms: list,
              application: str | None = None) -> int:
    _nonempty("eval", algorithms=algorithms)
    instances = _instances(app, manifest, dataset, application)
    kinds = app.algorithms()
    runners = {}
    for entry in algorithms:
        kind = entry.get("kind")
        if kind not in kinds:
            raise ValueError(f"unknown {manifest['application']} algorithm kind {kind!r}")
        factory, *passed_on = kinds[kind]
        keys = model._read_config(f"{kind} entry", entry, _runner, factory, *passed_on)
        name, run = _runner(factory, **keys)
        if name in runners:
            raise ValueError(f"two eval algorithms are named {name!r}")
        runners[name] = run
    app.check_entries({entry.get("kind") for entry in algorithms}, instances)
    out.mkdir(parents=True, exist_ok=True)

    rows = manifest["instances"]
    # cost[name][i]; measured wall times go to the timings.json sidecar
    costs: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    for name, run in runners.items():
        def timed(x):
            start = time.perf_counter()
            cost = float(run(x))
            return cost, time.perf_counter() - start

        results = learning.parallel_map(timed, instances)
        costs[name] = [c for c, _ in results]
        walls[name] = [t for _, t in results]

    references = [
        app.reference(x, row, [costs[name][i] for name in runners])
        for i, (x, row) in enumerate(zip(instances, rows))
    ]

    bucket_key = app.bucket_key
    csv_path = out / "gaps.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "algorithm", "cost", "reference", "gap_pct", "time_s"])
        gaps: dict[str, list[float]] = {name: [] for name in runners}
        for i, row in enumerate(rows):
            for name in runners:
                gap = _gap_pct(costs[name][i], references[i])
                gaps[name].append(gap)
                writer.writerow(
                    [row["id"], name, str(model._as_number(costs[name][i])),
                     str(model._as_number(references[i])), f"{gap:.6f}", "0.0"]
                )
        for bucket in [*sorted({row[bucket_key] for row in rows}), "all"]:
            idx = [i for i, row in enumerate(rows) if bucket == "all" or row[bucket_key] == bucket]
            label = f"{bucket_key}={bucket}" if bucket != "all" else "all"
            for name in runners:
                sel = [gaps[name][i] for i in idx]
                for stat, agg in (("avg", np.mean), ("max", np.max)):
                    value = f"{float(agg(sel)):.6f}"
                    writer.writerow([f"delta_{stat}[{label}]", name, "", "", value, ""])
    timings_out = {name: [round(t, 6) for t in walls[name]] for name in runners}
    model._write_json(out / "timings.json", timings_out)
    print(f"wrote gap table -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# bounds


def _cmd_bounds(config: dict, out: Path | None, as_json: bool) -> int:
    # n may be a list of sample counts: one row per count
    _nonempty("bounds", n=config.get("n"))
    grid = [{"n": n} for n in config["n"]] if isinstance(config.get("n"), list) else [{}]
    records = []
    for n in grid:
        params = learning.BoundParams(
            **model._read_config("bounds", {**config, **n}, learning.BoundParams)
        )
        records.append(
            {
                "n": params.n,
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
        if name in ("generate", "train"):
            cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        if name == "bounds":
            cmd.add_argument("--json", action="store_true", help="print JSON to stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = model._read_json(args.config)
        if args.command in ("generate", "train", "eval") and args.out is None:
            raise ValueError(f"{args.command} requires --out")
        out = None if args.out is None else Path(args.out)
        # each stage's keyword parameters are the top-level keys of its config
        if args.command == "generate":
            app = _application(config.get("application"))
            settings = model._read_config("generate", config, _cmd_generate, app.cells)
            return _cmd_generate(app, config, out, args.seed, **settings)
        if args.command == "bounds":
            return _cmd_bounds(config, out, args.json)
        app, manifest = _dataset(config["dataset"])
        if args.command == "train":
            settings = model._read_config("train", config, _cmd_train, app.loss_config)
            return _cmd_train(app, manifest, out, args.seed, **settings)
        settings = model._read_config("eval", config, _cmd_eval)
        return _cmd_eval(app, manifest, out, **settings)
    except KeyError as exc:
        print(f"error: missing config key {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
