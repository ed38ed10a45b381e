"""Command-line entry points: generate, train, eval, bounds.

Every command takes only a JSON config (--config) and an output directory
(--out).  The config, seeds included, is the whole run: rerunning a
generate/train/eval chain reproduces the output files byte for byte.

Config blocks are read by model._read_config: an unknown key fails before
anything is written, and an omitted key takes its consumer's default.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import learning, model, scheduling, two_stage

__all__ = ["main", "build_parser"]


def _child_seeds(master_seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


def _repeat(keys):
    """The position of the first key that an earlier one equals, or None."""
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)
    return None


_APPLICATIONS = {"two_stage": two_stage.APPLICATION, "scheduling": scheduling.APPLICATION}


def _application(name):
    if not isinstance(name, str) or name not in _APPLICATIONS:
        known = ", ".join(_APPLICATIONS)
        raise ValueError(f"unknown application {name!r}; expected one of {known}")
    return _APPLICATIONS[name]


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(app, config: dict, out: Path, /, application: str, seed: int,
                  per_cell: int, **axes) -> int:
    model._at_least(per_cell, 1, "generate key 'per_cell'")
    model._at_least(seed, 0, "generate key 'seed'")
    named = [(cell, app.instance_id(cell, i)) for cell in app.cells(**axes)
             for i in range(per_cell)]
    repeat = _repeat(inst_id for _, inst_id in named)
    if repeat is not None:
        raise ValueError(f"generate gives two instances the id {named[repeat][1]!r}")
    inst_dir = out / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for (cell, inst_id), child in zip(named, _child_seeds(seed, len(named))):
        fields = app.generate(cell, child, inst_dir / f"{inst_id}.json")
        rows.append({"id": inst_id, "file": f"instances/{inst_id}.json", **fields})
    manifest = {"application": application, "config": config, "seed": seed,
                "instances": rows}
    model._write_json(out / "manifest.json", manifest)
    print(f"wrote {len(rows)} instances to {out}")
    return 0


# ---------------------------------------------------------------------------
# dataset loading


def _manifest(application: str, instances: list[dict], config: dict | None = None,
              seed: int | None = None) -> tuple:
    """The application and the manifest the stages read, from a manifest file's keys."""
    return _application(application), {"application": application, "instances": instances}


def _dataset(dataset: str) -> tuple:
    """(application, manifest) of a dataset; each row names its id, file and application fields."""
    path = Path(dataset) / "manifest.json"
    app, manifest = model._read_json(path, _manifest)
    # a row's id and file are strings, its bucket and stored fields numbers kept as given
    fields = dict.fromkeys(("id", "file"), (str, "a string"))
    fields.update(dict.fromkeys((app.bucket_key, *app.row_keys), ((int, float), "a number")))
    for i, row in enumerate(manifest["instances"]):
        instance = f"instance {row.get('id', i)!r} in {path}"
        for key, (kind, name) in fields.items():
            if key not in row:
                raise ValueError(f"{instance} has no {key!r}")
            try:
                model._typed(row[key], kind, name)
            except ValueError as exc:
                raise ValueError(f"{instance} key {key!r}: {exc}") from None
        if (Path(dataset) / row["file"]).is_dir():
            raise ValueError(f"{instance} key 'file': {row['file']!r} names a directory")
    # two rows with one id would share a row of costs, and one file under two
    # ids would be scored and weighted twice
    rows = manifest["instances"]
    for key, same in (("id", str), ("file", os.path.normpath)):
        repeat = _repeat(same(row[key]) for row in rows)
        if repeat is not None:
            raise ValueError(f"instance {rows[repeat]['id']!r} in {path} repeats an earlier "
                             f"row's {key}")
    return app, manifest


def _check_application(app, application) -> None:
    """A config that names its application must name the dataset's."""
    if application is not None and _application(application) is not app:
        raise ValueError("config application does not match the dataset")


def _instances(app, manifest, dataset) -> list:
    """The dataset's instances, loaded once every config check has passed."""
    return [app.load(Path(dataset) / row["file"]) for row in manifest["instances"]]


# ---------------------------------------------------------------------------
# train


def _cmd_train(app, manifest: dict, out: Path, /, dataset: str,
               application: str | None = None, method: str = "experience",
               learner: dict | None = None, perturbation: dict | None = None,
               fyl: dict | None = None, **loss_keys) -> int:
    _check_application(app, application)
    unread = {"experience": {"fyl": fyl}, "fyl": {"learner": learner, "perturbation": perturbation}}
    if method not in unread:
        raise ValueError(f"unknown training method {method!r}")
    for block, value in unread[method].items():
        if value is not None:
            raise ValueError(f"training method {method!r} does not read the {block!r} block")

    if method == "experience":
        learner = model._read_config("learner", learner or {}, learning.LearnerConfig)
        pert = None
        if perturbation is not None:
            pert = model.PerturbationConfig(
                **model._read_config("perturbation", perturbation, model.PerturbationConfig)
            )

        def fit(instances):
            loss_cfg = app.loss_config(instances, manifest["instances"], pert, **loss_keys)
            return learning.learn_by_experience(
                instances, learning.LearnerConfig(**learner), loss_cfg
            )
    else:
        fyl = model._read_config("fyl", fyl or {}, app.fyl_train, learning.fyl_learn)

        def fit(instances):
            weights = app.fyl_train(instances, **fyl)
            return weights, {"per_seed": [], "best_w": [float(v) for v in weights.w],
                             "config_hash": learning.config_hash(fyl)}

    weights, report = fit(_instances(app, manifest, dataset))
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


def _runner(cost, dim: int, /, name: str, kind: str, **keys):
    """(name, cost function) of one eval entry: the other keys bound to its kind's
    cost, with a weights file read once and checked against the weight dimension."""
    if "weights" in keys:
        path = keys["weights"]
        if not isinstance(path, str):
            raise ValueError(f"{kind} entry key 'weights' must be a file path")
        keys["weights"] = w = model.load_weights(path)
        if w.dim != dim:
            raise ValueError(f"{kind} entry key 'weights': {path} holds {w.dim} weights, "
                             f"the application takes {dim}")
    return name, functools.partial(cost, **keys)


def _cmd_eval(app, manifest: dict, out: Path, /, dataset: str, algorithms: list[dict],
              application: str | None = None) -> int:
    _check_application(app, application)
    kinds = app.algorithms()
    runners = {}
    for entry in algorithms:
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise ValueError(f"unknown {manifest['application']} algorithm kind {kind!r}")
        cost, *passed_on = kinds[kind]
        keys = model._read_config(f"{kind} entry", entry, _runner, cost, *passed_on)
        app.check_entry(kind, keys)
        name, run = _runner(cost, app.dim, **keys)
        if name in runners:
            raise ValueError(f"two eval algorithms are named {name!r}")
        runners[name] = run
    instances = _instances(app, manifest, dataset)
    for entry in algorithms:
        app.check_instances(entry["kind"], instances)
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

    # a feasible cost bounds the optimum from above; on a tie the bound is kept
    references = [
        min(app.lower_bound(x, row), *(costs[name][i] for name in runners))
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


def _sample_counts(n: list) -> list[dict]:
    """bounds' grid when n is a list of sample counts: one row per count."""
    return [{"n": count} for count in n]


def _cmd_bounds(config: dict, out: Path | None) -> int:
    counts = config.get("n")
    grid = [{}]
    if isinstance(counts, list):
        grid = _sample_counts(**model._read_config("bounds", {"n": counts}, _sample_counts))
    C = learning.constant_C()
    rows = []
    for n in grid:
        params = learning.BoundParams(
            **model._read_config("bounds", {**config, **n}, learning.BoundParams)
        )
        rows.append([params.n, learning.sigma_n(params), learning.excess_risk_bound(params), C])
    print(f"C = {C!r}")
    for n, sigma_n, bound, _ in rows:
        print(f"n={n}: sigma_n={sigma_n!r} excess_risk_bound={bound!r}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "bounds.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "sigma_n", "excess_risk_bound", "C"])
            writer.writerows([n, *map(repr, values)] for n, *values in rows)
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = model._read_json(args.config)
        if args.command in ("generate", "train", "eval") and args.out is None:
            raise ValueError(f"{args.command} requires --out")
        out = None if args.out is None else Path(args.out)
        if out is not None:  # the nearest existing path of --out must be a directory
            found = next(path for path in (out, *out.parents) if path.exists())
            if not found.is_dir():
                under = "" if found == out else f" lies under {str(found)!r}, which"
                raise ValueError(f"--out {args.out!r}{under} is not a directory")
        # each stage's keyword parameters are the top-level keys of its config
        if args.command == "generate":
            app = _application(config.get("application"))
            settings = model._read_config("generate", config, _cmd_generate, app.cells)
            return _cmd_generate(app, config, out, **settings)
        if args.command == "bounds":
            return _cmd_bounds(config, out)
        dataset = {k: v for k, v in config.items() if k == "dataset"}  # it names the application
        app, manifest = _dataset(**model._read_config(args.config, dataset, _dataset))
        if args.command == "train":
            settings = model._read_config("train", config, _cmd_train, app.loss_config)
            return _cmd_train(app, manifest, out, **settings)
        settings = model._read_config("eval", config, _cmd_eval)
        return _cmd_eval(app, manifest, out, **settings)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
