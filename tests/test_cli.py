"""End-to-end command-line flows on tiny datasets."""

import csv
import functools
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from co_pipeline import cli, learning, model, scheduling, two_stage
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


@pytest.mark.parametrize(
    "config",
    [
        {"application": "two_stage", "widths": [3.0], "K": [10.0], "scenarios": [2.0],
         "per_cell": 1, "seed": 0, "bound_iters": 5},
        {"application": "scheduling", "n": [5.0], "rho": [1.0], "per_cell": 1, "seed": 0},
    ],
    ids=["two_stage", "scheduling"],
)
def test_generate_takes_integral_floats_on_integer_axes(tmp_path, config):
    out = tmp_path / "ds"
    assert main(["generate", "--config", _write(tmp_path / "gen.json", config),
                 "--out", str(out)]) == 0
    [row] = json.loads((out / "manifest.json").read_text())["instances"]
    assert (out / row["file"]).exists()
    if config["application"] == "two_stage":
        # K is not cast: the manifest row and the instance id keep the given value
        assert row["K"] == 10.0 and "_K10.0_" in row["id"]


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


def test_eval_reference_is_never_above_a_cost(tmp_path):
    # this instance's 500-iteration bound is tight and rounds one ulp above
    # the heuristic's cost, so the reference is the cost and no gap is negative
    x = two_stage.generate_instance(4, 20, 5, seed=16)
    lb, _, _ = two_stage.lagrangian_bound(x, iters=500)
    assert lb == -257.79999999999995
    ds = tmp_path / "ds"
    (ds / "instances").mkdir(parents=True)
    two_stage.save_instance(ds / "instances" / "a.json", x)
    _write(ds / "manifest.json", {"application": "two_stage", "instances": [
        {"id": "a", "file": "instances/a.json", "width": 4, "lower_bound": lb}]})
    ev = _write(tmp_path / "ev.json", {"dataset": str(ds), "algorithms": [
        {"name": "lagr", "kind": "lagrangian_heuristic", "iters": 500}]})
    assert main(["eval", "--config", ev, "--out", str(tmp_path / "ev")]) == 0
    with open(tmp_path / "ev" / "gaps.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[0] == ["a", "lagr", "-257.8", "-257.8", "0.000000", "0.0"]
    assert not any(r[4].startswith("-") for r in rows)


@pytest.mark.parametrize("key", ["application", "instances", "id", "file", "width",
                                 "lower_bound", "instances=[]"])
def test_manifest_missing_field_is_named(key, two_stage_dataset, tmp_path, capsys):
    # the manifest and the instance are named, not the config, before any
    # entry runs or --out is created
    _, ds = two_stage_dataset
    manifest = json.loads((ds / "manifest.json").read_text())
    if key == "instances=[]":
        manifest["instances"] = []
    elif key in manifest:
        del manifest[key]
    else:
        del manifest["instances"][1][key]
    (ds / "manifest.json").write_text(json.dumps(manifest))
    ev = _write(tmp_path / "ev.json", {"dataset": str(ds), "algorithms": [
        {"name": "base", "kind": "approx_baseline"}]})
    out = tmp_path / "ev"
    capsys.readouterr()
    assert main(["eval", "--config", ev, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    want = "key 'instances': [] is an empty list" if key == "instances=[]" else f"has no {key!r}"
    assert want in err and str(ds / "manifest.json") in err
    assert "missing config key" not in err
    if key in ("id", "file", "width", "lower_bound"):
        row = manifest["instances"][1]
        assert f"instance {row.get('id', 1)!r}" in err
    assert not out.exists()


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


# SHA-256 of every file a tiny chain per application writes (criterion 12's
# sizes), of one fyl train and of one bounds.csv; eval's timings.json holds
# wall times, so it is left out.
_PINNED_OUTPUTS = {
    "b/bounds.csv":
        "db11e96f9b4ec8f4ced92c4690d142f216f711fb6c9304016a694a036a072002",
    "sm/instances/sm_n4_rho1_000.json":
        "63ad4741ba32680cbd0ed732ea6519b09ce878b3acde230dd909e04771f17ea0",
    "sm/instances/sm_n4_rho1_001.json":
        "64c09b81401c98210bebc1bc4f1c256bd8979eeec7f2bd43ce3e49db6a27cde9",
    "sm/manifest.json":
        "0c2158b028d3ac215931f9ba355121b586e2ce58dec2a9059973e079786d0b64",
    "sm_ev/gaps.csv":
        "79778cdc6373ada90c2ba380ecb95d0bc7e9958d7d6712a7646c69649d75d7f5",
    "sm_none/report.json":
        "3fa976182fe14c49bc5c50f312b9dbb475fde92a60703a19751c323406bb81ca",
    "sm_none/weights.json":
        "1425de9673b66d20a3cbf7ea6725678ebdcd0f9b9f3680c5f1ee63dad48c884d",
    "sm_w/report.json":
        "c44ad1bf26dd9bc5952f01421ca9275a4556bc6bf00ba1b10a6ade313275d21a",
    "sm_w/weights.json":
        "77c52016d3879d64e8353260b7943066b993c24bc1b13b28c4473547070a2789",
    "ts/instances/ts_w3_K10_S2_000.json":
        "db7c3ce01eccce221ccb5acdc670195b57a5edc74ac9c82fac1691da6c931a7c",
    "ts/instances/ts_w3_K10_S2_001.json":
        "5a4e81858c180229ab8afcc6dcc5b21550bc918ce598593480d5bb792cfd524a",
    "ts/manifest.json":
        "b84fa32521c7fcc950a24122c4aef646c004fb3afd498a9630800ad8feee742b",
    "ts_ev/gaps.csv":
        "2a1c57ce4cc3576216244795e009cdf24c7d651628a15777c1f3f2034b5142b0",
    "ts_fyl/report.json":
        "616268be019b3a65ca09e167649e71468c433301a78f6cdf4dc6006ecbb31b27",
    "ts_fyl/weights.json":
        "ad008ffc31ff2d475cec6fa238c5c2996aa1539c98c9d0b125565e0fd110c4b3",
    "ts_w/report.json":
        "d4ef436347dea48a86c8c398ebfbdccdc0c0060d647c10ffe66a0904f4e4ba6b",
    "ts_w/weights.json":
        "c2de5f8ad2fb19f8a81947d0613c74e246142bbbe7e81b710c5826dc19688e79",
}


def test_cli_output_bytes_are_pinned(tmp_path):
    def run(command, name, config):
        cfg = _write(tmp_path / f"{name}.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out" / name)]) == 0

    def weights(name):
        return {"weights": str(tmp_path / "out" / name / "weights.json")}

    ts = {"application": "two_stage", "dataset": str(tmp_path / "out" / "ts")}
    run("generate", "ts", {"application": "two_stage", "widths": [3], "K": [10],
                           "scenarios": [2], "per_cell": 2, "seed": 99, "bound_iters": 150})
    run("train", "ts_w", {**ts, "learner": {"budget": 60, "seeds": [0, 1]}})
    run("train", "ts_fyl", {**ts, "method": "fyl", "fyl": {"epsilon": 1.0, "n_z": 5, "steps": 30,
                                                           "rate": 0.05, "bound_iters": 50}})
    run("eval", "ts_ev", {**ts, "algorithms": [
        {"name": "approx_baseline", "kind": "approx_baseline"},
        {"name": "pipeline", "kind": "pipeline", **weights("ts_w")},
        {"name": "lagr", "kind": "lagrangian_heuristic", "iters": 50}]})
    sm = {"application": "scheduling", "dataset": str(tmp_path / "out" / "sm")}
    run("generate", "sm", {"application": "scheduling", "n": [4], "rho": [1.0], "per_cell": 2,
                           "seed": 12})
    run("train", "sm_w", {**sm, "post": "ls", "learner": {"budget": 25, "seeds": [0]}})
    run("train", "sm_none", {**sm, "post": "none", "learner": {"budget": 25, "seeds": [0]},
                             "perturbation": {"sigma": 0.5, "nsamples": 3}})
    run("eval", "sm_ev", {**sm, "algorithms": [
        {"name": "spt", "kind": "spt"},
        {"name": "pipeline", "kind": "pipeline", **weights("sm_none")},
        {"name": "pipeline_ls", "kind": "pipeline_ls", **weights("sm_w")}]})
    run("bounds", "b", {"M": 10.0, "d": 34, "sigma": 1.0, "delta": 0.05, "n": [100, 400, 1600]})
    out = tmp_path / "out"
    got = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.rglob("*")) if path.is_file() and path.name != "timings.json"}
    assert got == _PINNED_OUTPUTS


def test_bounds_command(tmp_path, capsys):
    cfg = _write(
        tmp_path / "bounds.json",
        {"M": 10.0, "d": 34, "sigma": 1.0, "delta": 0.05, "n": [100, 400]},
    )
    out = tmp_path / "b"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"C = {learning.constant_C()!r}"
    # bounds.csv is the machine-readable result: repr floats read back exactly
    with open(out / "bounds.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "sigma_n", "excess_risk_bound", "C"]
    assert [row[0] for row in rows[1:]] == ["100", "400"]
    assert all(float(row[3]) == learning.constant_C() for row in rows[1:])
    # n -> 4n halves the bound
    assert float(rows[2][2]) == pytest.approx(float(rows[1][2]) / 2.0, rel=1e-12)


@pytest.mark.parametrize("key, value, message", [
    ("M", 0, "bounds key 'M' must be > 0"),
    ("d", 0, "bounds key 'd' must be >= 1"),
    ("n", [100, 0], "bounds key 'n' must be >= 1"),
    ("delta", 1.0, "bounds key 'delta' must lie in (0, 1)"),
    ("sigma", -0.5, "bounds key 'sigma' must be >= 0"),
    ("sigma", 0, "bounds key 'sigma' must be > 0"),
    ("b", 0, "bounds key 'b' must be > 0"),
    ("kappa_phi", -1, "bounds key 'kappa_phi' must be > 0"),
    ("expectation_term", 0, "bounds key 'expectation_term' must be > 0"),
])
def test_bounds_range_error_names_its_key(key, value, message, tmp_path, capsys):
    cfg = _write(tmp_path / "bounds.json", {"M": 10.0, "d": 34, "n": [100], key: value})
    out = tmp_path / "b"
    capsys.readouterr()
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: {message}"
    assert captured.out == ""
    assert not out.exists()


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
    # the config is the whole run: every subcommand takes --config and --out
    # only, and --seed or --json exits 2 before anything is written
    for command, config in (("generate", ts_gen), ("train", tr), ("eval", ev), ("bounds", ts_gen)):
        for flag in (["--seed", "5"], ["--json"]):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", config, "--out", str(tmp_path / "o8"), *flag])
            assert exc.value.code == 2
            assert not (tmp_path / "o8").exists()


def _typo_configs(ds, weights, w11, sched):
    """block -> (command, config, key, nearest valid key) of one bad key in `block`.

    ds is a two-stage dataset and sched a scheduling one; weights is a two-stage
    weights file and w11 a file of scheduling's 11 weights.  A misspelled key has
    a nearest valid key, any other bad key None."""
    train = {"application": "two_stage", "dataset": ds}
    nan, inf = float("nan"), float("inf")
    entries = [{"name": "pipeline", "kind": "pipeline", "weights": weights}]
    two_stage_gen = {"application": "two_stage", "widths": [3], "K": [10], "scenarios": [2],
                     "per_cell": 1, "seed": 0, "bound_iters": 5}
    return {
        "generate": ("generate", {**two_stage_gen, "bound_iter": 5}, "bound_iter", "bound_iters"),
        "train": ("train", {**train, "methd": "fyl"}, "methd", "method"),
        "learner": ("train", {**train, "learner": {"bugdet": 50, "seeds": [0]}}, "bugdet", "budget"),
        "perturbation": ("train", {**train, "perturbation": {"sigma": 0.5, "nsample": 3}},
                         "nsample", "nsamples"),
        "fyl": ("train", {**train, "method": "fyl", "fyl": {"epsilom": 0.5}}, "epsilom", "epsilon"),
        "eval": ("eval", {"dataset": ds, "algorithms": entries, "aplication": "two_stage"},
                 "aplication", "application"),
        "eval_entry": ("eval", {"dataset": ds, "algorithms": [
            *entries, {"name": "lagr", "kind": "lagrangian_heuristic", "iter": 5}]}, "iter", "iters"),
        # a positional-only parameter of a consumer is not a key
        "eval_entry_x": ("eval", {"dataset": ds, "algorithms": [
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
        "fyl_bound_iters_0": ("train", {**train, "method": "fyl", "fyl": {"bound_iters": 0}},
                              "bound_iters", None),
        # a training setting out of range is named as its key, and a fyl
        # setting fails before any bound runs
        "learner_budget_0": ("train", {**train, "learner": {"budget": 0, "seeds": [0]}},
                             "budget", None),
        "learner_box_radius_0": ("train", {**train, "learner": {"box_radius": 0, "seeds": [0]}},
                                 "box_radius", None),
        "learner_seeds_empty": ("train", {**train, "learner": {"seeds": []}}, "seeds", None),
        "perturbation_sigma_negative": ("train", {**train, "perturbation": {"sigma": -1}},
                                        "sigma", None),
        "perturbation_nsamples_0": ("train", {**train, "perturbation": {"sigma": 1, "nsamples": 0}},
                                    "nsamples", None),
        "fyl_epsilon_negative": ("train", {**train, "method": "fyl", "fyl": {"epsilon": -1}},
                                 "epsilon", None),
        "fyl_n_z_0": ("train", {**train, "method": "fyl", "fyl": {"n_z": 0}}, "n_z", None),
        "fyl_steps_negative": ("train", {**train, "method": "fyl", "fyl": {"steps": -1}},
                               "steps", None),
        "fyl_box_radius_0": ("train", {**train, "method": "fyl", "fyl": {"box_radius": 0}},
                             "box_radius", None),
        "eval_empty": ("eval", {"dataset": ds, "algorithms": []}, "algorithms", None),
        # algorithms is a list of entry objects
        "eval_algorithms_strings": ("eval", {"dataset": ds, "algorithms": ["spt"]},
                                    "algorithms", None),
        "eval_algorithms_object": ("eval", {"dataset": ds, "algorithms": entries[0]},
                                   "algorithms", None),
        # scheduling weights (11) on a two-stage dataset (34)
        "eval_weights_length": ("eval", {"dataset": ds, "algorithms": [
            {"name": "p", "kind": "pipeline", "weights": w11}]}, "weights", None),
        "bounds_empty_n": ("bounds", {"M": 10.0, "d": 34, "n": []}, "n", None),
        # an integer setting refuses a fraction instead of truncating it
        "generate_per_cell_fraction": ("generate", {**two_stage_gen, "per_cell": 1.5},
                                       "per_cell", None),
        "generate_bound_iters_fraction": ("generate", {**two_stage_gen, "bound_iters": 5.5},
                                          "bound_iters", None),
        "generate_bound_iters_0": ("generate", {**two_stage_gen, "bound_iters": 0},
                                   "bound_iters", None),
        "generate_width_fraction": ("generate", {**two_stage_gen, "widths": [3.5]}, "widths", None),
        "generate_n_fraction": ("generate", {"application": "scheduling", "n": [5.7], "rho": [1.0],
                                             "per_cell": 1, "seed": 0}, "n", None),
        "learner_budget_fraction": ("train", {**train, "learner": {"budget": 5.9, "seeds": [0]}},
                                    "budget", None),
        "learner_seeds_fraction": ("train", {**train, "learner": {"budget": 5, "seeds": [0.7]}},
                                   "seeds", None),
        "bounds_n_fraction": ("bounds", {"M": 10.0, "d": 34, "n": [100, 100.9]}, "n", None),
        # a number or a list is given as one: a string or a boolean is not cast
        "learner_budget_string": ("train", {**train, "learner": {"budget": "5", "seeds": [0]}},
                                  "budget", None),
        "learner_budget_bool": ("train", {**train, "learner": {"budget": True, "seeds": [0]}},
                                "budget", None),
        "learner_seeds_string": ("train", {**train, "learner": {"budget": 5, "seeds": "12"}},
                                 "seeds", None),
        "learner_seeds_bool": ("train", {**train, "learner": {"budget": 5, "seeds": [True]}},
                               "seeds", None),
        "fyl_box_radius_string": ("train", {**train, "method": "fyl", "fyl": {"box_radius": "3"}},
                                  "box_radius", None),
        "learner_box_radius_bool": ("train", {**train, "learner": {"box_radius": True}},
                                    "box_radius", None),
        "perturbation_sigma_string": ("train", {**train, "perturbation": {"sigma": "0.5"}},
                                      "sigma", None),
        "perturbation_sigma_bool": ("train", {**train, "perturbation": {"sigma": True}},
                                    "sigma", None),
        # an empty block is a block: sigma has no default (null is an absent block)
        "perturbation_empty": ("train", {**train, "perturbation": {}}, "sigma", None),
        # each value is read as its annotation says: a list of numbers for a cell
        # axis, a string for a name, an object for a block
        "generate_K_bool": ("generate", {**two_stage_gen, "K": [True]}, "K", None),
        "generate_widths_string": ("generate", {**two_stage_gen, "widths": ["3"]}, "widths", None),
        "generate_widths_number": ("generate", {**two_stage_gen, "widths": 3}, "widths", None),
        "train_method_list": ("train", {**train, "method": ["fyl"]}, "method", None),
        "train_post_number": ("train", {"dataset": sched, "post": 3,
                                        "learner": {"budget": 5, "seeds": [0]}}, "post", None),
        "learner_list": ("train", {**train, "learner": [1]}, "learner", None),
        "train_dataset_number": ("train", {"dataset": 5}, "dataset", None),
        "eval_dataset_number": ("eval", {"dataset": 5, "algorithms": entries}, "dataset", None),
        "eval_names_numbers": ("eval", {"dataset": ds, "algorithms": [
            {"name": 3, "kind": "approx_baseline"}, {"name": "3", "kind": "approx_baseline"}]},
            "name", None),
        # a kind that is not a string is an unknown kind
        "eval_kind_list": ("eval", {"dataset": ds, "algorithms": [
            {"name": "a", "kind": ["approx_baseline"]}]}, "approx_baseline", None),
        # every number is finite: JSON's NaN, Infinity and -Infinity are refused
        "learner_box_radius_nan": ("train", {**train, "learner": {"box_radius": nan}},
                                   "box_radius", None),
        "learner_box_radius_inf": ("train", {**train, "learner": {"box_radius": inf}},
                                   "box_radius", None),
        "perturbation_sigma_inf": ("train", {**train, "perturbation": {"sigma": inf}},
                                   "sigma", None),
        "bounds_delta_nan": ("bounds", {"M": 10.0, "d": 34, "n": [100], "delta": nan},
                             "delta", None),
        "generate_rho_negative_inf": ("generate", {"application": "scheduling", "n": [5],
                                                   "rho": [1.0, -inf], "per_cell": 1, "seed": 0},
                                      "rho", None),
    }


# the whole message of a value the casts refuse: the block, the key and the value
_REFUSED = {
    "learner_box_radius_nan": "learner key 'box_radius': nan is not a finite number",
    "learner_box_radius_inf": "learner key 'box_radius': inf is not a finite number",
    "perturbation_sigma_inf": "perturbation key 'sigma': inf is not a finite number",
    "bounds_delta_nan": "bounds key 'delta': nan is not a finite number",
    "generate_rho_negative_inf": "generate key 'rho': -inf is not a finite number",
    "generate_empty_axis": "generate key 'widths': [] is an empty list",
    "generate_empty_n": "generate key 'n': [] is an empty list",
    "learner_seeds_empty": "learner key 'seeds': [] is an empty list",
    "eval_empty": "eval key 'algorithms': [] is an empty list",
    "bounds_empty_n": "bounds key 'n': [] is an empty list",
}


# the table's block names; the paths given here are never read
_TYPO_BLOCKS = list(_typo_configs("ds", "weights.json", "w11.json", "sched"))


def _typo_case(block, two_stage_dataset, tmp_path):
    """(argv, output directory, key, nearest valid key) of _typo_configs' block."""
    base, ds = two_stage_dataset
    weights = tmp_path / "w" / "weights.json"
    if block in ("eval", "eval_entry", "eval_empty"):
        train = _write(base / "t.json", {"dataset": str(ds), "learner": {"budget": 5, "seeds": [0]}})
        assert main(["train", "--config", train, "--out", str(weights.parent)]) == 0
    w11 = _write(tmp_path / "w11.json", {"d": 11, "M": 10.0, "w": [0.0] * 11})
    sched = tmp_path / "sched"
    if block == "train_post_number":
        gen = _write(tmp_path / "sched.json", {"application": "scheduling", "n": [4],
                                                "rho": [1.0], "per_cell": 1, "seed": 0})
        assert main(["generate", "--config", gen, "--out", str(sched)]) == 0
    configs = _typo_configs(str(ds), str(weights), w11, str(sched))
    command, config, key, nearest = configs[block]
    out = tmp_path / "out"
    argv = [command, "--config", _write(tmp_path / f"{block}.json", config), "--out", str(out)]
    return argv, out, key, nearest


@pytest.mark.parametrize("block", _TYPO_BLOCKS)
def test_config_typo_exits_before_writing(block, two_stage_dataset, tmp_path, capsys,
                                          monkeypatch):
    argv, out, key, nearest = _typo_case(block, two_stage_dataset, tmp_path)
    capsys.readouterr()

    @functools.wraps(two_stage.lagrangian_bound)
    def no_bound(*args, **kwargs):
        raise AssertionError("a bound ran before the settings were checked")

    monkeypatch.setattr(two_stage, "lagrangian_bound", no_bound)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{key!r}" in err
    assert nearest is None or f"did you mean {nearest!r}" in err
    assert not out.exists() or not any(out.rglob("*"))
    if argv[0] == "eval":
        assert not out.exists()
    if block == "eval_weights_length":
        assert f"{tmp_path / 'w11.json'} holds 11 weights, the application takes 34" in err
    if block == "eval_kind_list":
        assert err == "error: unknown two_stage algorithm kind ['approx_baseline']\n"
    if block in _REFUSED:
        assert err == f"error: {_REFUSED[block]}\n"


_KINDS = [
    ("two_stage", "approx_baseline", "name, kind"),
    ("two_stage", "pipeline", "name, kind, weights"),
    ("two_stage", "lagrangian_heuristic", "name, kind, iters"),
    ("scheduling", "spt", "name, kind"),
    ("scheduling", "pipeline", "name, kind, weights"),
    ("scheduling", "pipeline_ls", "name, kind, weights"),
    ("scheduling", "pipeline_pert_ls", "name, kind, weights, sigma, nsamples, seed"),
    ("scheduling", "brute_force", "name, kind"),
]


@pytest.mark.parametrize("application, kind, valid", _KINDS)
def test_eval_kind_keys_and_one_weights_read_per_entry(application, kind, valid, tmp_path,
                                                       capsys, monkeypatch):
    gen = ({"application": "two_stage", "widths": [2], "K": [5], "scenarios": [2],
            "per_cell": 3, "seed": 0, "bound_iters": 5} if application == "two_stage" else
           {"application": "scheduling", "n": [4], "rho": [1.0], "per_cell": 3, "seed": 0})
    ds = tmp_path / "ds"
    assert main(["generate", "--config", _write(tmp_path / "gen.json", gen), "--out", str(ds)]) == 0
    # every key of the kind, in its order
    bad = _write(tmp_path / "bad.json", {"dataset": str(ds), "algorithms": [
        {"name": "a", "kind": kind, "zzz": 1}]})
    capsys.readouterr()
    assert main(["eval", "--config", bad, "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == (
        f"error: unknown {kind} entry key 'zzz'; valid: {valid}\n")
    # a weights file is read once for its entry, not once per instance
    dim = 34 if application == "two_stage" else 11
    entry = {"name": "a", "kind": kind}
    if "weights" in valid:
        entry["weights"] = _write(tmp_path / "w.json", {"d": dim, "M": 10.0, "w": [0.5] * dim})
    entry.update({"iters": 5} if "iters" in valid else {"nsamples": 2} if "nsamples" in valid else {})
    reads, load = [], model.load_weights

    def counted(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(model, "load_weights", counted)
    ev = _write(tmp_path / "ev.json", {"dataset": str(ds), "algorithms": [entry]})
    assert main(["eval", "--config", ev, "--out", str(tmp_path / "ev")]) == 0
    assert reads == ([entry["weights"]] if "weights" in valid else [])


def test_eval_negative_decode_seed_names_the_key(tmp_path, capsys):
    gen = {"application": "scheduling", "n": [4], "rho": [1.0], "per_cell": 2, "seed": 0}
    ds = tmp_path / "ds"
    assert main(["generate", "--config", _write(tmp_path / "gen.json", gen), "--out", str(ds)]) == 0
    weights = _write(tmp_path / "w.json", {"d": 11, "M": 10.0, "w": [0.5] * 11})
    ev = _write(tmp_path / "ev.json", {"dataset": str(ds), "algorithms": [
        {"name": "spt", "kind": "spt"},
        {"name": "pert", "kind": "pipeline_pert_ls", "weights": weights, "seed": -1}]})
    out = tmp_path / "ev"
    capsys.readouterr()
    assert main(["eval", "--config", ev, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: pipeline_pert_ls entry key 'seed' must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("application, kind, key, value, least", [
    ("two_stage", "lagrangian_heuristic", "iters", 0, 1),
    ("scheduling", "pipeline_pert_ls", "sigma", -0.5, 0),
    ("scheduling", "pipeline_pert_ls", "nsamples", -1, 0),
])
def test_eval_entry_setting_out_of_range_fails_before_out(application, kind, key, value, least,
                                                          tmp_path, capsys):
    # the library's own check, run when the entry is read: nothing runs and
    # --out is not created
    gen = ({"application": "two_stage", "widths": [2], "K": [5], "scenarios": [2],
            "per_cell": 2, "seed": 0, "bound_iters": 5} if application == "two_stage" else
           {"application": "scheduling", "n": [4], "rho": [1.0], "per_cell": 2, "seed": 0})
    ds = tmp_path / "ds"
    assert main(["generate", "--config", _write(tmp_path / "gen.json", gen), "--out", str(ds)]) == 0
    entry = {"name": "a", "kind": kind, key: value}
    if kind == "pipeline_pert_ls":
        entry["weights"] = _write(tmp_path / "w.json", {"d": 11, "M": 10.0, "w": [0.5] * 11})
    first = {"name": "base", "kind": "approx_baseline" if application == "two_stage" else "spt"}
    ev = _write(tmp_path / "ev.json", {"dataset": str(ds), "algorithms": [first, entry]})
    out = tmp_path / "ev"
    capsys.readouterr()
    assert main(["eval", "--config", ev, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {kind} entry key {key!r} must be >= {least}\n"
    assert not out.exists()


@pytest.mark.parametrize("weights", [True, 5])
def test_eval_weights_that_are_no_path_leave_stdout_open(weights, tmp_path, capsys):
    # open() takes an integer (true is 1) as a file descriptor to read, and closes it after
    gen = {"application": "scheduling", "n": [4], "rho": [1.0], "per_cell": 1, "seed": 0}
    ds = tmp_path / "ds"
    assert main(["generate", "--config", _write(tmp_path / "gen.json", gen), "--out", str(ds)]) == 0
    ev = _write(tmp_path / "ev.json", {"dataset": str(ds), "algorithms": [
        {"name": "p", "kind": "pipeline_ls", "weights": weights}]})
    out = tmp_path / "ev"
    capsys.readouterr()
    assert main(["eval", "--config", ev, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: pipeline_ls entry key 'weights' must be a file path\n"
    os.fstat(1)
    assert not out.exists()


@pytest.mark.parametrize("case", [
    "instance_no_p_train", "instance_no_p_eval", "instance_p_0", "weights_no_d",
    "weights_leave_box", "config_list_generate", "config_list_bounds", "config_list_train",
    "config_no_dataset", "manifest_instances_string", "config_not_json", "manifest_not_json",
    "weights_d_fraction", "weights_M_string", "weights_w_strings", "instance_n_fraction",
    "instance_p_strings", "instance_unknown_key", "ts_instance_width_fraction",
    "manifest_file_number", "manifest_n_string", "ts_manifest_lower_bound_string",
    "ts_instance_c_nan", "instance_p_inf", "instance_p_negative_inf", "weights_w_nan",
    "weights_M_inf", "ts_manifest_lower_bound_nan", "instance_p_empty", "weights_w_empty",
    "instance_not_json", "weights_not_json"])
def test_data_file_error_names_the_file(case, tmp_path, capsys):
    # an error in an instance, weights, config or manifest file names that file
    # (and a manifest error the instance), never a config key, and leaves --out
    # without content; a file's keys are typed like a config block's, so a number
    # must be finite and a list non-empty
    gen = ({"application": "two_stage", "widths": [2], "K": [5], "scenarios": [2],
            "per_cell": 1, "seed": 0, "bound_iters": 5} if case.startswith("ts_") else
           {"application": "scheduling", "n": [4], "rho": [1.0], "per_cell": 1, "seed": 0})
    ds = tmp_path / "ds"
    assert main(["generate", "--config", _write(tmp_path / "gen.json", gen), "--out", str(ds)]) == 0
    manifest = json.loads((ds / "manifest.json").read_text())
    row = manifest["instances"][0]
    inst, in_manifest = ds / row["file"], f"instance {row['id']!r} in {ds / 'manifest.json'}"
    x = json.loads(inst.read_text())
    w_path, cfg = tmp_path / "w.json", tmp_path / "cfg.json"
    weights = {"d": 11, "M": 10.0, "w": [0.5] * 11}
    ev = {"dataset": str(ds), "algorithms": [
        {"name": "p", "kind": "pipeline_ls", "weights": str(w_path)}]}
    tr = {"dataset": str(ds), "learner": {"budget": 5, "seeds": [0]}}
    not_json = ": Expecting property name enclosed in double quotes: line 1 column 10 (char 9)"
    command, config, named, says = {
        "instance_no_p_train": ("train", tr, inst, " has no 'p'"),
        "instance_no_p_eval": ("eval", ev, inst, " has no 'p'"),
        "instance_p_0": ("train", tr, inst, ": processing times must be >= 1"),
        "weights_no_d": ("eval", ev, w_path, " has no 'd'"),
        "weights_leave_box": ("eval", ev, w_path, ": w leaves the box"),
        "config_list_generate": ("generate", [1, 2], cfg, " must hold a JSON object"),
        "config_list_bounds": ("bounds", [1, 2], cfg, " must hold a JSON object"),
        "config_list_train": ("train", [1, 2], cfg, " must hold a JSON object"),
        "config_no_dataset": ("train", {"learner": {"seeds": [0]}}, cfg, " has no 'dataset'"),
        "manifest_instances_string": ("eval", ev, ds / "manifest.json",
                                      " key 'instances': 'instances/' is not a list"),
        "config_not_json": ("train", tr, cfg, not_json),
        "manifest_not_json": ("train", tr, ds / "manifest.json", not_json),
        "weights_d_fraction": ("eval", ev, w_path, " key 'd': 11.7 is not an integer"),
        "weights_M_string": ("eval", ev, w_path, " key 'M': '10' is not a number"),
        "weights_w_strings": ("eval", ev, w_path, " key 'w': '0.5' is not a number"),
        "instance_n_fraction": ("train", tr, inst, " key 'n': 4.9 is not an integer"),
        "instance_p_strings": ("eval", ev, inst, " key 'p': '28' is not a number"),
        "instance_unknown_key": ("train", tr, inst, " key 'q'; valid: n, p, r, rho, seed"),
        "ts_instance_width_fraction": ("train", tr, inst, " key 'width': 3.5 is not an integer"),
        "manifest_file_number": ("train", tr, in_manifest, " key 'file': 5 is not a string"),
        "manifest_n_string": ("eval", ev, in_manifest, " key 'n': '4' is not a number"),
        "ts_manifest_lower_bound_string": ("train", tr, in_manifest,
                                           " key 'lower_bound': '-12' is not a number"),
        "ts_instance_c_nan": ("train", tr, inst, " key 'c': nan is not a finite number"),
        "instance_p_inf": ("eval", ev, inst, " key 'p': inf is not a finite number"),
        "instance_p_negative_inf": ("train", tr, inst, " key 'p': -inf is not a finite number"),
        "weights_w_nan": ("eval", ev, w_path, " key 'w': nan is not a finite number"),
        "weights_M_inf": ("eval", ev, w_path, " key 'M': inf is not a finite number"),
        "ts_manifest_lower_bound_nan": ("train", tr, in_manifest,
                                        " key 'lower_bound': nan is not a finite number"),
        "instance_p_empty": ("train", tr, inst, " key 'p': [] is an empty list"),
        "weights_w_empty": ("eval", ev, w_path, " key 'w': [] is an empty list"),
        "instance_not_json": ("train", tr, inst, not_json),
        "weights_not_json": ("eval", ev, w_path, not_json),
    }[case]
    if case.startswith("instance_no_p"):
        del x["p"]
    if case == "instance_p_0":
        x["p"][0] = 0
    if case == "weights_no_d":
        del weights["d"]
    if case == "weights_leave_box":
        weights["M"] = 0.25
    if case == "manifest_instances_string":
        manifest["instances"] = "instances/"
    # each of these read as a number before, so the run went on with a guess
    nan, inf = float("nan"), float("inf")
    weights.update({"weights_d_fraction": {"d": 11.7}, "weights_M_string": {"M": "10"},
                    "weights_w_strings": {"w": ["0.5"] * 11},
                    "weights_w_nan": {"w": [0.5] * 10 + [nan]},
                    "weights_M_inf": {"M": inf}, "weights_w_empty": {"w": []}}.get(case, {}))
    x.update({"instance_n_fraction": {"n": 4.9}, "instance_unknown_key": {"q": 1},
              "instance_p_strings": {"p": ["28"] * 4},
              "ts_instance_width_fraction": {"width": 3.5},
              "ts_instance_c_nan": {"c": [nan, -1.0, -2.0, -3.0]},
              "instance_p_inf": {"p": [inf] * 4}, "instance_p_negative_inf": {"p": [-inf] * 4},
              "instance_p_empty": {"p": []}}.get(case, {}))
    row.update({"manifest_file_number": {"file": 5}, "manifest_n_string": {"n": "4"},
                "ts_manifest_lower_bound_string": {"lower_bound": "-12"},
                "ts_manifest_lower_bound_nan": {"lower_bound": nan}}.get(case, {}))
    _write(inst, x)
    _write(ds / "manifest.json", manifest)
    _write(w_path, weights)
    _write(cfg, config)
    if case.endswith("_not_json"):
        named.write_text('{"M": 10,')
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    unknown = "unknown " if case == "instance_unknown_key" else ""
    assert err == f"error: {unknown}{named}{says}\n"
    assert "missing config key" not in err
    assert not out.exists() or not any(out.rglob("*"))


def test_null_block_is_an_absent_block(two_stage_dataset, tmp_path):
    # null for a key whose annotation allows None reads as the key left out
    base, ds = two_stage_dataset
    train = {"dataset": str(ds), "learner": {"budget": 5, "seeds": [0]}}
    ev = {"dataset": str(ds), "algorithms": [{"name": "a", "kind": "approx_baseline"}]}
    outputs = {}
    for command, config, written in (
        ("train", train, "weights.json"),
        ("train", {**train, "application": None, "perturbation": None}, "weights.json"),
        ("eval", ev, "gaps.csv"),
        ("eval", {**ev, "application": None}, "gaps.csv"),
    ):
        out = tmp_path / f"o{len(outputs)}"
        assert main([command, "--config", _write(base / "c.json", config), "--out", str(out)]) == 0
        outputs[out.name] = (out / written).read_bytes()
    assert outputs["o0"] == outputs["o1"] and outputs["o2"] == outputs["o3"]


def test_every_config_key_has_a_cast():
    # each keyword parameter of a config consumer, or of a manifest's, a data
    # file's or the bounds grid's builder, is read by model._CASTS; the one
    # exception is a kind's weights, a file path that cli._runner reads.  A builder
    # is no public function, so the benchmark's tracer, which wraps each name in a
    # module's __all__, does not count it.
    builders = [(cli, cli._manifest), (cli, cli._sample_counts), (model, model._weights),
                (two_stage, two_stage._grid_instance), (scheduling, scheduling._sched_instance)]
    for module, builder in builders:
        assert builder.__name__ not in module.__all__
    consumers = [cli._cmd_generate, cli._dataset, cli._cmd_train, cli._cmd_eval, cli._runner,
                 learning.LearnerConfig, model.PerturbationConfig, learning.fyl_learn,
                 learning.BoundParams, *(builder for _, builder in builders)]
    costs = []
    for app in (two_stage.APPLICATION, scheduling.APPLICATION):
        consumers += [app.cells, app.loss_config, app.fyl_train]
        for cost, *passed_on in app.algorithms().values():
            costs.append(cost)
            consumers += passed_on
    for consumer in consumers + costs:
        for name, param in inspect.signature(consumer).parameters.items():
            if param.kind not in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY):
                continue
            if consumer in costs and name == "weights":
                continue
            assert param.annotation in model._CASTS, (consumer, name, param.annotation)


def test_fyl_config_hash_ignores_the_dataset_path(two_stage_dataset, tmp_path):
    base, ds = two_stage_dataset
    copy = tmp_path / "copy"
    shutil.copytree(ds, copy)
    fyl = {"epsilon": 1.0, "n_z": 3, "steps": 10, "bound_iters": 20}
    reports = []
    for name, data, seed in (("a", ds, {}), ("b", copy, {}), ("c", copy, {"seed": 1})):
        cfg = _write(base / f"fyl_{name}.json", {"dataset": str(data), "method": "fyl",
                                                  "fyl": {**fyl, **seed}})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    # same data and settings, two directories: one fingerprint
    assert reports[0] == reports[1]
    # the seed actually used is part of it
    assert json.loads(reports[2])["config_hash"] != json.loads(reports[1])["config_hash"]


_CHAIN = """
import json, sys
from pathlib import Path
from co_pipeline.cli import main

tmp = Path(sys.argv[1])
weights = {"weights": str(tmp / "ts_w" / "weights.json")}
sm_weights = {"weights": str(tmp / "sm_w" / "weights.json")}
for command, name, config in [
    ("generate", "ts", {"application": "two_stage", "widths": [2], "K": [5], "scenarios": [2],
                        "per_cell": 2, "seed": 0, "bound_iters": 5}),
    ("train", "ts_w", {"dataset": str(tmp / "ts"), "learner": {"budget": 5, "seeds": [0]}}),
    ("train", "ts_fyl", {"dataset": str(tmp / "ts"), "method": "fyl",
                         "fyl": {"n_z": 2, "steps": 3, "bound_iters": 5}}),
    ("eval", "ts_ev", {"dataset": str(tmp / "ts"), "algorithms": [
        {"name": "a", "kind": "approx_baseline"}, {"name": "p", "kind": "pipeline", **weights},
        {"name": "l", "kind": "lagrangian_heuristic", "iters": 5}]}),
    ("generate", "sm", {"application": "scheduling", "n": [4], "rho": [1.0], "per_cell": 2,
                        "seed": 0}),
    ("train", "sm_w", {"dataset": str(tmp / "sm"), "learner": {"budget": 5, "seeds": [0]},
                       "perturbation": {"sigma": 0.5, "nsamples": 2}}),
    ("eval", "sm_ev", {"dataset": str(tmp / "sm"), "algorithms": [
        {"name": "s", "kind": "spt"}, {"name": "p", "kind": "pipeline", **sm_weights},
        {"name": "l", "kind": "pipeline_ls", **sm_weights},
        {"name": "x", "kind": "pipeline_pert_ls", "nsamples": 2, **sm_weights},
        {"name": "b", "kind": "brute_force"}]}),
    ("bounds", "b", {"M": 10.0, "d": 34, "n": [100]}),
]:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp / name)]) == 0, name
test_only = {"scipy", "hypothesis", "pytest", "_pytest", "networkx"}
print(json.dumps(sorted(test_only & {module.split(".")[0] for module in sys.modules})))
"""


def _run(tmp_path, *args, timeout=600):
    """A python subprocess in tmp_path that imports co_pipeline from this checkout."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=timeout)


def test_runtime_imports_numpy_only(tmp_path):
    # the runtime depends on numpy alone (README, pyproject.toml): a chain of
    # every subcommand over both applications imports no test-only package
    done = _run(tmp_path, "-c", _CHAIN, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_module_entry_point(tmp_path):
    # python -m co_pipeline runs the command line; a removed flag is argparse's exit 2
    bounds = _write(tmp_path / "bounds.json", {"M": 10.0, "d": 34, "n": [100]})
    done = _run(tmp_path, "-m", "co_pipeline", "bounds", "--config", bounds, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == f"C = {learning.constant_C()!r}"
    gen = _write(tmp_path / "gen.json", {"application": "scheduling", "n": [4], "rho": [1.0],
                                         "per_cell": 1, "seed": 0})
    out = tmp_path / "ds"
    done = _run(tmp_path, "-m", "co_pipeline", "generate", "--config", gen, "--out", str(out),
                "--seed", "3", timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: co-pipeline ")
    assert "unrecognized arguments: --seed 3" in done.stderr
    assert not out.exists()
