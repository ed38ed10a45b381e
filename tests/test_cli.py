"""End-to-end command-line flows on tiny datasets."""

import csv
import json
import shutil

import pytest

from co_pipeline import learning
from co_pipeline.cli import main


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def two_stage_dataset(tmp_path):
    cfg = _write(
        tmp_path / "gen.json",
        {
            "application": "two_stage",
            "widths": [3],
            "K": [10],
            "scenarios": [2],
            "per_cell": 2,
            "seed": 5,
            "bound_iters": 150,
        },
    )
    out = tmp_path / "ds"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    return tmp_path, out


def test_generate_manifest_and_instances(two_stage_dataset):
    tmp_path, out = two_stage_dataset
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["application"] == "two_stage"
    assert len(manifest["instances"]) == 2
    for row in manifest["instances"]:
        assert (out / row["file"]).exists()
        assert row["lower_bound"] <= 0.0
        assert row["width"] == 3 and row["K"] == 10 and row["num_scenarios"] == 2


def test_generate_is_deterministic(tmp_path, two_stage_dataset):
    base, out = two_stage_dataset
    cfg = str(base / "gen.json")
    again = tmp_path / "ds2"
    assert main(["generate", "--config", cfg, "--out", str(again)]) == 0
    for row in json.loads((out / "manifest.json").read_text())["instances"]:
        assert (out / row["file"]).read_bytes() == (again / row["file"]).read_bytes()


def test_generate_counts_desk_grids(tmp_path):
    cfg = _write(
        tmp_path / "gen.json",
        {
            "application": "scheduling",
            "n": [4, 5],
            "rho": [0.2, 1.0, 3.0],
            "per_cell": 3,
            "seed": 1,
        },
    )
    out = tmp_path / "ds"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["instances"]) == 18


def test_train_eval_round_trip(two_stage_dataset, tmp_path):
    base, ds = two_stage_dataset
    train_cfg = _write(
        base / "train.json",
        {
            "application": "two_stage",
            "dataset": str(ds),
            "method": "experience",
            "learner": {"box_radius": 10.0, "budget": 40, "seeds": [0, 1]},
        },
    )
    wdir = tmp_path / "w"
    assert main(["train", "--config", train_cfg, "--out", str(wdir)]) == 0
    weights = json.loads((wdir / "weights.json").read_text())
    assert weights["d"] == 34 and weights["M"] == 10.0
    report = json.loads((wdir / "report.json").read_text())
    assert [r["seed"] for r in report["per_seed"]] == [0, 1]
    assert all(r["evals"] <= 40 for r in report["per_seed"])
    assert len(report["config_hash"]) == 64  # sha256 fingerprint
    wdir2 = tmp_path / "w_again"
    assert main(["train", "--config", train_cfg, "--out", str(wdir2)]) == 0
    assert (wdir / "report.json").read_bytes() == (wdir2 / "report.json").read_bytes()

    eval_cfg = _write(
        base / "eval.json",
        {
            "application": "two_stage",
            "dataset": str(ds),
            "algorithms": [
                {"name": "approx_baseline", "kind": "approx_baseline"},
                {"name": "pipeline", "kind": "pipeline", "weights": str(wdir / "weights.json")},
            ],
        },
    )
    edir = tmp_path / "ev"
    assert main(["eval", "--config", eval_cfg, "--out", str(edir)]) == 0
    with open(edir / "gaps.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance_id", "algorithm", "cost", "reference", "gap_pct", "time_s"]
    body = [r for r in rows[1:] if not r[0].startswith("delta_")]
    aggr = [r for r in rows[1:] if r[0].startswith("delta_")]
    assert len(body) == 2 * 2  # instances x algorithms
    for r in body:
        assert float(r[4]) >= 0.0  # cost never beats the lower bound
        assert r[5] == "0.0"  # deterministic placeholder; wall times go to timings.json
    # aggregates: one avg and one max row per bucket (width=3, all) and algorithm
    assert len(aggr) == 2 * 2 * 2
    assert (edir / "timings.json").exists()


def test_eval_gap_arithmetic(tmp_path, two_stage_dataset):
    base, ds = two_stage_dataset
    eval_cfg = _write(
        base / "eval2.json",
        {
            "application": "two_stage",
            "dataset": str(ds),
            "algorithms": [{"name": "lagrangian_heuristic", "kind": "lagrangian_heuristic", "iters": 150}],
        },
    )
    edir = tmp_path / "ev2"
    assert main(["eval", "--config", eval_cfg, "--out", str(edir)]) == 0
    with open(edir / "gaps.csv") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    for r in rows:
        if r[0].startswith("delta_"):
            continue
        cost, ref, gap = float(r[2]), float(r[3]), float(r[4])
        assert gap == pytest.approx(100.0 * (cost - ref) / abs(ref), abs=1e-6)


def test_scheduling_round_trip_with_brute_reference(tmp_path):
    gen_cfg = _write(
        tmp_path / "gen.json",
        {"application": "scheduling", "n": [5], "rho": [1.0], "per_cell": 2, "seed": 3},
    )
    ds = tmp_path / "ds"
    assert main(["generate", "--config", gen_cfg, "--out", str(ds)]) == 0
    train_cfg = _write(
        tmp_path / "train.json",
        {
            "application": "scheduling",
            "dataset": str(ds),
            "method": "experience",
            "post": "ls",
            "learner": {"box_radius": 10.0, "budget": 30, "seeds": [0]},
        },
    )
    wdir = tmp_path / "w"
    assert main(["train", "--config", train_cfg, "--out", str(wdir)]) == 0
    eval_cfg = _write(
        tmp_path / "eval.json",
        {
            "application": "scheduling",
            "dataset": str(ds),
            "algorithms": [
                {"name": "spt", "kind": "spt"},
                {"name": "pipeline_ls", "kind": "pipeline_ls", "weights": str(wdir / "weights.json")},
                {"name": "brute_force", "kind": "brute_force"},
            ],
        },
    )
    edir = tmp_path / "ev"
    assert main(["eval", "--config", eval_cfg, "--out", str(edir)]) == 0
    with open(edir / "gaps.csv") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    brute = {r[0]: float(r[2]) for r in rows if r[1] == "brute_force" and not r[0].startswith("delta_")}
    for r in rows:
        if r[0].startswith("delta_") or r[0] not in brute:
            continue
        # reference is the best algorithm, which includes the exact optimum here
        assert float(r[3]) == brute[r[0]]
        assert float(r[2]) >= float(r[3]) - 1e-9


def test_fyl_training_mode(two_stage_dataset, tmp_path):
    base, ds = two_stage_dataset
    cfg = _write(
        base / "fyl.json",
        {
            "application": "two_stage",
            "dataset": str(ds),
            "method": "fyl",
            "fyl": {"epsilon": 1.0, "n_z": 5, "steps": 30, "rate": 0.05, "bound_iters": 50},
        },
    )
    wdir = tmp_path / "wf"
    assert main(["train", "--config", cfg, "--out", str(wdir)]) == 0
    weights = json.loads((wdir / "weights.json").read_text())
    assert weights["d"] == 34
    assert all(abs(v) <= 10.0 for v in weights["w"])


def test_end_to_end_byte_identical_csvs(tmp_path):
    def chain(tag):
        gen_cfg = _write(
            tmp_path / f"gen{tag}.json",
            {
                "application": "scheduling",
                "n": [4],
                "rho": [1.0],
                "per_cell": 2,
                "seed": 12,
            },
        )
        ds = tmp_path / f"ds{tag}"
        assert main(["generate", "--config", gen_cfg, "--out", str(ds)]) == 0
        train_cfg = _write(
            tmp_path / f"train{tag}.json",
            {
                "application": "scheduling",
                "dataset": str(ds),
                "post": "ls",
                "learner": {"budget": 25, "seeds": [0]},
            },
        )
        wdir = tmp_path / f"w{tag}"
        assert main(["train", "--config", train_cfg, "--out", str(wdir)]) == 0
        eval_cfg = _write(
            tmp_path / f"eval{tag}.json",
            {
                "application": "scheduling",
                "dataset": str(ds),
                "algorithms": [
                    {"name": "spt", "kind": "spt"},
                    {"name": "pipeline_ls", "kind": "pipeline_ls",
                     "weights": str(wdir / "weights.json")},
                ],
            },
        )
        edir = tmp_path / f"ev{tag}"
        assert main(["eval", "--config", eval_cfg, "--out", str(edir)]) == 0
        return (edir / "gaps.csv").read_bytes(), (wdir / "weights.json").read_bytes()

    csv_a, w_a = chain("a")
    csv_b, w_b = chain("b")
    assert csv_a == csv_b
    assert w_a == w_b


def test_bounds_command(tmp_path, capsys):
    cfg = _write(
        tmp_path / "bounds.json",
        {"M": 10.0, "d": 34, "sigma": 1.0, "delta": 0.05, "n": [100, 400]},
    )
    out = tmp_path / "b"
    assert main(["bounds", "--config", cfg, "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["C"] == learning.constant_C()
    assert [row["n"] for row in payload["rows"]] == [100, 400]
    # n -> 4n halves the bound
    assert payload["rows"][1]["excess_risk_bound"] == pytest.approx(
        payload["rows"][0]["excess_risk_bound"] / 2.0, rel=1e-12
    )
    with open(out / "bounds.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "sigma_n", "excess_risk_bound", "C"]
    assert len(rows) == 3


def test_cli_error_exits(tmp_path, capsys):
    assert main(["eval", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = _write(tmp_path / "bad.json", {"application": "nope", "seed": 0})
    assert main(["generate", "--config", bad, "--out", str(tmp_path / "o2")]) == 1
    gen = _write(
        tmp_path / "gen.json",
        {"application": "scheduling", "n": [3], "rho": [1.0], "per_cell": 1, "seed": 0},
    )
    assert main(["generate", "--config", gen]) == 1  # --out is required
    capsys.readouterr()
    # a misspelled application in a manifest or a train config is named,
    # never loaded as the other application
    ds = tmp_path / "ds"
    assert main(["generate", "--config", gen, "--out", str(ds)]) == 0
    manifest = json.loads((ds / "manifest.json").read_text())
    (ds / "manifest.json").write_text(json.dumps({**manifest, "application": "two_stagee"}))
    ev = _write(
        tmp_path / "ev.json", {"dataset": str(ds), "algorithms": [{"name": "spt", "kind": "spt"}]}
    )
    assert main(["eval", "--config", ev, "--out", str(tmp_path / "o3")]) == 1
    err = capsys.readouterr().err
    assert "'two_stagee'" in err and "two_stage, scheduling" in err
    (ds / "manifest.json").write_text(json.dumps(manifest))
    # two eval entries with one name would share one row of costs
    dup = _write(tmp_path / "dup.json", {"dataset": str(ds), "algorithms": [
        {"name": "a", "kind": "brute_force"}, {"name": "a", "kind": "spt"}]})
    assert main(["eval", "--config", dup, "--out", str(tmp_path / "o_dup")]) == 1
    assert "'a'" in capsys.readouterr().err
    assert not (tmp_path / "o_dup").exists()
    # brute force takes at most 9 jobs: a larger instance fails before any
    # entry runs or --out is created
    big = tmp_path / "big"
    big_gen = _write(tmp_path / "big_gen.json", {"application": "scheduling", "n": [3, 10],
                                                 "rho": [1.0], "per_cell": 1, "seed": 0})
    assert main(["generate", "--config", big_gen, "--out", str(big)]) == 0
    brute = _write(tmp_path / "brute.json", {"dataset": str(big), "algorithms": [
        {"name": "spt", "kind": "spt"}, {"name": "bf", "kind": "brute_force"}]})
    assert main(["eval", "--config", brute, "--out", str(tmp_path / "o_brute")]) == 1
    assert "brute force limited to 9 jobs" in capsys.readouterr().err
    assert not (tmp_path / "o_brute").exists()
    tr = _write(tmp_path / "tr.json", {"application": "schedule", "dataset": str(ds)})
    assert main(["train", "--config", tr, "--out", str(tmp_path / "o4")]) == 1
    err = capsys.readouterr().err
    assert "'schedule'" in err and "two_stage, scheduling" in err
    # a manifest row without its file, or a two-stage row without its lower
    # bound, is named with its manifest
    row = manifest["instances"][0]
    no_file = {k: v for k, v in row.items() if k != "file"}
    (ds / "manifest.json").write_text(json.dumps({**manifest, "instances": [no_file]}))
    assert main(["eval", "--config", ev, "--out", str(tmp_path / "o5")]) == 1
    err = capsys.readouterr().err
    assert f"instance {row['id']!r}" in err and str(ds / "manifest.json") in err
    ts = tmp_path / "ts"
    ts_gen = _write(tmp_path / "ts_gen.json", {"application": "two_stage", "widths": [2], "K": [5],
                                               "scenarios": [1], "per_cell": 1, "seed": 0,
                                               "bound_iters": 5})
    assert main(["generate", "--config", ts_gen, "--out", str(ts)]) == 0
    manifest = json.loads((ts / "manifest.json").read_text())
    row = manifest["instances"][0]
    del row["lower_bound"]
    (ts / "manifest.json").write_text(json.dumps(manifest))
    tr = _write(tmp_path / "tr_ts.json", {"dataset": str(ts), "learner": {"budget": 5, "seeds": [0]}})
    assert main(["train", "--config", tr, "--out", str(tmp_path / "o6")]) == 1
    err = capsys.readouterr().err
    assert f"instance {row['id']!r}" in err and "'lower_bound'" in err
    # a block the training method never reads is named with the method
    ok = tmp_path / "ok"
    assert main(["generate", "--config", ts_gen, "--out", str(ok)]) == 0
    for method, block in (("experience", "fyl"), ("fyl", "learner"), ("fyl", "perturbation")):
        tr = _write(tmp_path / "tr_block.json", {"dataset": str(ok), "method": method, block: {}})
        assert main(["train", "--config", tr, "--out", str(tmp_path / "o7")]) == 1
        err = capsys.readouterr().err
        assert f"{method!r}" in err and f"{block!r}" in err
    assert not (tmp_path / "o7").exists()
    # so does a negative master seed given as --seed, or a negative fyl seed
    assert main(["generate", "--config", ts_gen, "--out", str(tmp_path / "o8"), "--seed", "-3"]) == 1
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "o8").exists()
    tr = _write(tmp_path / "tr_fyl.json", {"dataset": str(ok), "method": "fyl"})
    assert main(["train", "--config", tr, "--out", str(tmp_path / "o9"), "--seed", "-4"]) == 1
    assert "fyl key 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "o9").exists()
    # --seed exists on generate and train only
    for command in ("eval", "bounds"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", ev, "--seed", "5"])
        assert exc.value.code == 2


def _typo_case(block, two_stage_dataset, tmp_path):
    """(argv, output directory, key, nearest valid key) of one bad key in `block`: a
    misspelled key has a nearest valid key, an empty list or count has None."""
    base, ds = two_stage_dataset
    weights = tmp_path / "w" / "weights.json"
    if block in ("eval", "eval_entry", "eval_empty"):
        train = _write(base / "t.json", {"dataset": str(ds), "learner": {"budget": 5, "seeds": [0]}})
        assert main(["train", "--config", train, "--out", str(weights.parent)]) == 0
    train = {"application": "two_stage", "dataset": str(ds)}
    entries = [{"name": "pipeline", "kind": "pipeline", "weights": str(weights)}]
    two_stage_gen = {"application": "two_stage", "widths": [3], "K": [10], "scenarios": [2],
                     "per_cell": 1, "seed": 0, "bound_iters": 5}
    configs = {
        "generate": ("generate", {**two_stage_gen, "bound_iter": 5}, "bound_iter", "bound_iters"),
        "train": ("train", {**train, "methd": "fyl"}, "methd", "method"),
        "learner": ("train", {**train, "learner": {"bugdet": 50, "seeds": [0]}}, "bugdet", "budget"),
        "perturbation": ("train", {**train, "perturbation": {"sigma": 0.5, "nsample": 3}},
                         "nsample", "nsamples"),
        "fyl": ("train", {**train, "method": "fyl", "fyl": {"epsilom": 0.5}}, "epsilom", "epsilon"),
        "eval": ("eval", {"dataset": str(ds), "algorithms": entries, "aplication": "two_stage"},
                 "aplication", "application"),
        "eval_entry": ("eval", {"dataset": str(ds), "algorithms": [
            *entries, {"name": "lagr", "kind": "lagrangian_heuristic", "iter": 5}]}, "iter", "iters"),
        # a positional-only parameter of a consumer is not a key
        "eval_entry_x": ("eval", {"dataset": str(ds), "algorithms": [
            {"name": "lagr", "kind": "lagrangian_heuristic", "x": 5}]}, "x", None),
        "fyl_pairs": ("train", {**train, "method": "fyl", "fyl": {"pairs": []}}, "pairs", None),
        "bounds": ("bounds", {"M": 10.0, "d": 34, "n": [100, 400], "sigm": 0.5}, "sigm", "sigma"),
        # beta moves no bound, so it is not a bounds key
        "bounds_beta": ("bounds", {"M": 10.0, "d": 34, "beta": 2}, "beta", "delta"),
        # a stage run over an empty list, or zero instances per cell, does nothing
        "generate_empty_axis": ("generate", {**two_stage_gen, "widths": []}, "widths", None),
        "generate_empty_n": ("generate", {"application": "scheduling", "n": [], "rho": [1.0],
                                          "per_cell": 1, "seed": 0}, "n", None),
        "generate_per_cell_0": ("generate", {**two_stage_gen, "per_cell": 0}, "per_cell", None),
        # an out-of-range value fails before any instance is written
        "generate_width_1": ("generate", {**two_stage_gen, "widths": [3, 1]}, "widths", None),
        "generate_rho_0": ("generate", {"application": "scheduling", "n": [5], "rho": [1.0, 0],
                                        "per_cell": 1, "seed": 0}, "rho", None),
        "generate_seed_negative": ("generate", {**two_stage_gen, "seed": -2}, "seed", None),
        "learner_seed_negative": ("train", {**train, "learner": {"budget": 5, "seeds": [-1]}},
                                  "seeds", None),
        "fyl_seed_negative": ("train", {**train, "method": "fyl", "fyl": {"seed": -1}}, "seed", None),
        "eval_empty": ("eval", {"dataset": str(ds), "algorithms": []}, "algorithms", None),
        "bounds_empty_n": ("bounds", {"M": 10.0, "d": 34, "n": []}, "n", None),
        # an integer setting refuses a fraction instead of truncating it
        "generate_per_cell_fraction": ("generate", {**two_stage_gen, "per_cell": 1.5},
                                       "per_cell", None),
        "generate_bound_iters_fraction": ("generate", {**two_stage_gen, "bound_iters": 5.5},
                                          "bound_iters", None),
        "generate_width_fraction": ("generate", {**two_stage_gen, "widths": [3.5]}, "widths", None),
        "generate_n_fraction": ("generate", {"application": "scheduling", "n": [5.7], "rho": [1.0],
                                             "per_cell": 1, "seed": 0}, "n", None),
        "learner_budget_fraction": ("train", {**train, "learner": {"budget": 5.9, "seeds": [0]}},
                                    "budget", None),
        "learner_seeds_fraction": ("train", {**train, "learner": {"budget": 5, "seeds": [0.7]}},
                                   "seeds", None),
        "bounds_n_fraction": ("bounds", {"M": 10.0, "d": 34, "n": [100, 100.9]}, "n", None),
    }
    command, config, key, nearest = configs[block]
    out = tmp_path / "out"
    argv = [command, "--config", _write(tmp_path / f"{block}.json", config), "--out", str(out)]
    return argv, out, key, nearest


@pytest.mark.parametrize(
    "block",
    ["generate", "train", "learner", "perturbation", "fyl", "eval", "eval_entry", "bounds",
     "bounds_beta", "generate_empty_axis", "generate_empty_n", "generate_per_cell_0",
     "generate_width_1", "generate_rho_0", "generate_seed_negative", "learner_seed_negative",
     "fyl_seed_negative", "eval_empty", "bounds_empty_n", "eval_entry_x", "fyl_pairs",
     "generate_per_cell_fraction", "generate_bound_iters_fraction", "generate_width_fraction",
     "generate_n_fraction", "learner_budget_fraction", "learner_seeds_fraction",
     "bounds_n_fraction"],
)
def test_config_typo_exits_before_writing(block, two_stage_dataset, tmp_path, capsys):
    argv, out, key, nearest = _typo_case(block, two_stage_dataset, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{key!r}" in err
    assert nearest is None or f"did you mean {nearest!r}" in err
    assert not out.exists() or not any(out.rglob("*"))


def test_fyl_config_hash_ignores_the_dataset_path(two_stage_dataset, tmp_path):
    base, ds = two_stage_dataset
    copy = tmp_path / "copy"
    shutil.copytree(ds, copy)
    fyl = {"epsilon": 1.0, "n_z": 3, "steps": 10, "bound_iters": 20}
    reports = []
    for name, data, seed in (("a", ds, []), ("b", copy, []), ("c", copy, ["--seed", "1"])):
        cfg = _write(base / f"fyl_{name}.json", {"dataset": str(data), "method": "fyl", "fyl": fyl})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / name), *seed]) == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    # same data and settings, two directories: one fingerprint
    assert reports[0] == reports[1]
    # the seed actually used is part of it
    assert json.loads(reports[2])["config_hash"] != json.loads(reports[1])["config_hash"]
