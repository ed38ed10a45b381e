"""End-to-end command-line flows on tiny datasets."""

import csv
import functools
import hashlib
import inspect
import json
import operator
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

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
    "config, axes",
    [
        ({"application": "two_stage", "widths": [3], "K": [10], "scenarios": [2],
          "per_cell": 1, "seed": 0, "bound_iters": 5}, ("widths", "K", "scenarios")),
        ({"application": "scheduling", "n": [5], "rho": [1.0], "per_cell": 1, "seed": 0}, ("n",)),
    ],
    ids=["two_stage", "scheduling"],
)
def test_generate_takes_integral_floats_on_integer_axes(tmp_path, config, axes):
    # 5.0 on an integer axis is stored as 5: the manifest rows, the instance
    # ids and file names and the instance bytes are those of the ints
    runs = []
    for name, gen in (("ints", config),
                      ("floats", {**config, **{key: [float(config[key][0])] for key in axes}})):
        out = tmp_path / name
        assert main(["generate", "--config", _write(tmp_path / f"{name}.json", gen),
                     "--out", str(out)]) == 0
        [row] = json.loads((out / "manifest.json").read_text())["instances"]
        runs.append((json.dumps(row), sorted(p.name for p in (out / "instances").iterdir()),
                     (out / row["file"]).read_bytes()))
    assert runs[0] == runs[1]


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


def test_an_error_without_a_message_is_named_by_its_type(tmp_path, monkeypatch, capsys):
    # a MemoryError carries no message; "error:" alone would say nothing
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_bounds", exhausted)
    assert main(["bounds", "--config", _write(tmp_path / "b.json", _BOUNDS)]) == 1
    assert capsys.readouterr() == ("", "error: MemoryError\n")


# ---------------------------------------------------------------------------
# refused command lines: one row shape, one runner

# Each row runs in its own copy of the same files, named relative to the
# directory it runs in: a two-stage and a scheduling dataset, and a weights
# file for each application.
_TS_M, _TS_X = "ts/manifest.json", "ts/instances/ts_w3_K10_S2_000.json"
_SM_M, _SM_X = "sm/manifest.json", "sm/instances/sm_n4_rho1_000.json"
_TS_ROW = f"instance 'ts_w3_K10_S2_000' in {_TS_M}"
_SM_ROW = f"instance 'sm_n4_rho1_000' in {_SM_M}"
_W34, _W11 = "w34.json", "w11.json"
_DATASETS = {"two_stage": "ts", "scheduling": "sm"}

_TS_GEN = {"application": "two_stage", "widths": [3], "K": [10], "scenarios": [2],
           "per_cell": 1, "seed": 0, "bound_iters": 5}
_SM_GEN = {"application": "scheduling", "n": [4], "rho": [1.0], "per_cell": 1, "seed": 0}
_TRAIN = {"application": "two_stage", "dataset": "ts"}
_FYL = {**_TRAIN, "method": "fyl"}
_TR_SM = {"dataset": "sm", "learner": {"budget": 5, "seeds": [0]}}
_TR_TS = {**_TR_SM, "dataset": "ts"}
_PIPELINE = {"name": "pipeline", "kind": "pipeline", "weights": _W34}
_BASE, _SPT = {"name": "base", "kind": "approx_baseline"}, {"name": "spt", "kind": "spt"}
_BOUNDS = {"M": 10.0, "d": 34, "n": [100]}
_NOT_JSON = '{"M": 10,'
_NOT_JSON_SAYS = ": Expecting property name enclosed in double quotes: line 1 column 10 (char 9)"
_APPS = "; expected one of two_stage, scheduling"
_DROP = object()  # an edit's value that deletes its key
_NAN, _INF = float("nan"), float("inf")

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


def _ev(dataset, *algorithms, **keys):
    return {"dataset": dataset, "algorithms": list(algorithms), **keys}


_EV_TS = _ev("ts", _BASE)
_EV_SM = _ev("sm", {"name": "p", "kind": "pipeline_ls", "weights": _W11})


def _pert(**keys):
    return {"name": "pert", "kind": "pipeline_pert_ls", "weights": _W11, **keys}


class Refusal(NamedTuple):
    """A command line that exits 1 with `message`.  A one-word command takes
    --config cfg.json, the file of `config` (a string is its text, None
    writes no file), and --out out.  `edits` maps a file, or a (file, *keys)
    path to an object or list in it, to the text that replaces the file or
    to the values set at those keys."""

    command: str
    config: object
    message: str
    edits: dict = {}


# Three tables of rows, one per source of the error, each a dict from the
# row's test id to its Refusal.  A config key or value the command refuses:
_CONFIG_REFUSALS = {
    # a config or eval entry key that none of its consumers takes, with the
    # nearest valid key when one is close (a row named after its block)
    "generate": ("generate", {**_TS_GEN, "bound_iter": 5},
                 "unknown generate key 'bound_iter'; did you mean 'bound_iters'? valid: "
                 "application, seed, per_cell, widths, K, scenarios, bound_iters"),
    "train": ("train", {**_TRAIN, "methd": "fyl"},
              "unknown train key 'methd'; did you mean 'method'? valid: "
              "dataset, application, method, learner, perturbation, fyl"),
    "learner": ("train", {**_TRAIN, "learner": {"bugdet": 50, "seeds": [0]}},
                "unknown learner key 'bugdet'; did you mean 'budget'? valid: "
                "box_radius, budget, seeds"),
    "perturbation": ("train", {**_TRAIN, "perturbation": {"sigma": 0.5, "nsample": 3}},
                     "unknown perturbation key 'nsample'; did you mean 'nsamples'? valid: "
                     "sigma, nsamples, seed"),
    "fyl": ("train", {**_FYL, "fyl": {"epsilom": 0.5}},
            "unknown fyl key 'epsilom'; did you mean 'epsilon'? valid: "
            "bound_iters, epsilon, n_z, steps, rate, box_radius, seed"),
    "fyl_pairs": ("train", {**_FYL, "fyl": {"pairs": []}},
                  "unknown fyl key 'pairs'; valid: "
                  "bound_iters, epsilon, n_z, steps, rate, box_radius, seed"),
    "eval": ("eval", _ev("ts", _PIPELINE, aplication="two_stage"),
             "unknown eval key 'aplication'; did you mean 'application'? valid: "
             "dataset, algorithms, application"),
    "eval_entry": ("eval", _ev("ts", _PIPELINE, {"name": "lagr", "kind":
                                                 "lagrangian_heuristic", "iter": 5}),
                   "unknown lagrangian_heuristic entry key 'iter'; did you mean 'iters'? "
                   "valid: name, kind, iters"),
    # a positional-only parameter of a consumer is not a key
    "eval_entry_x": ("eval", _ev("ts", {"name": "lagr", "kind": "lagrangian_heuristic", "x": 5}),
                     "unknown lagrangian_heuristic entry key 'x'; valid: name, kind, iters"),
    # every key of an eval kind, in its order
    **{f"{application}_{kind}_entry_key_unknown": (
        "eval", _ev(_DATASETS[application], {"name": "a", "kind": kind, "zzz": 1}),
        f"unknown {kind} entry key 'zzz'; valid: {valid}") for application, kind, valid in _KINDS},
    "bounds": ("bounds", {**_BOUNDS, "n": [100, 400], "sigm": 0.5},
               "unknown bounds key 'sigm'; did you mean 'sigma'? valid: "
               "M, d, sigma, n, delta, b, kappa_phi, expectation_term"),
    # beta moves no bound, so it is not a bounds key
    "bounds_beta": ("bounds", {"M": 10.0, "d": 34, "beta": 2},
                    "unknown bounds key 'beta'; did you mean 'delta'? valid: "
                    "M, d, sigma, n, delta, b, kappa_phi, expectation_term"),
    # a stage run over an empty list, or zero instances per cell, does nothing
    "generate_empty_axis": ("generate", {**_TS_GEN, "widths": []},
                            "generate key 'widths': [] is an empty list"),
    "generate_empty_n": ("generate", {**_SM_GEN, "n": []}, "generate key 'n': [] is an empty list"),
    "generate_per_cell_0": ("generate", {**_TS_GEN, "per_cell": 0},
                            "generate key 'per_cell' must be >= 1"),
    "learner_seeds_empty": ("train", {**_TRAIN, "learner": {"seeds": []}},
                            "learner key 'seeds': [] is an empty list"),
    "eval_empty": ("eval", _ev("ts"), "eval key 'algorithms': [] is an empty list"),
    "bounds_empty_n": ("bounds", {**_BOUNDS, "n": []}, "bounds key 'n': [] is an empty list"),
    # a setting out of range is named as its key before any instance is
    # written, any bound runs or any eval entry runs
    "generate_width_1": ("generate", {**_TS_GEN, "widths": [3, 1]},
                         "generate key 'widths' must hold integers >= 2"),
    "generate_rho_0": ("generate", {**_SM_GEN, "rho": [1.0, 0]},
                       "generate key 'rho' must hold values > 0"),
    # the generators draw int64: d from U{-K..0}, r from U{1..floor(50.5*n*rho)}
    "generate_K_beyond_int64": ("generate", {**_TS_GEN, "K": [10, 1e300]},
                                "generate key 'K' must hold integers <= 2**63"),
    "generate_rho_beyond_int64": ("generate", {**_SM_GEN, "rho": [1.0, 1e300]},
                                  "generate key 'rho' must keep the release horizon "
                                  "50.5 * n * rho below 2**63"),
    "generate_seed_negative": ("generate", {**_TS_GEN, "seed": -2},
                               "generate key 'seed' must be >= 0"),
    "generate_bound_iters_0": ("generate", {**_TS_GEN, "bound_iters": 0},
                               "generate key 'bound_iters' must be >= 1"),
    "learner_seed_negative": ("train", {**_TRAIN, "learner": {"budget": 5, "seeds": [-1]}},
                              "learner key 'seeds' must hold values >= 0"),
    "learner_budget_0": ("train", {**_TRAIN, "learner": {"budget": 0, "seeds": [0]}},
                         "learner key 'budget' must be >= 1"),
    "learner_box_radius_0": ("train", {**_TRAIN, "learner": {"box_radius": 0, "seeds": [0]}},
                             "learner key 'box_radius' must be > 0"),
    "perturbation_sigma_negative": ("train", {**_TRAIN, "perturbation": {"sigma": -1}},
                                    "perturbation key 'sigma' must be >= 0"),
    "perturbation_nsamples_0": ("train", {**_TRAIN, "perturbation": {"sigma": 1, "nsamples": 0}},
                                "perturbation key 'nsamples' must be >= 1"),
    "fyl_seed_negative": ("train", {**_FYL, "fyl": {"seed": -1}}, "fyl key 'seed' must be >= 0"),
    "fyl_bound_iters_0": ("train", {**_FYL, "fyl": {"bound_iters": 0}},
                          "fyl key 'bound_iters' must be >= 1"),
    "fyl_epsilon_negative": ("train", {**_FYL, "fyl": {"epsilon": -1}},
                             "fyl key 'epsilon' must be >= 0"),
    "fyl_n_z_0": ("train", {**_FYL, "fyl": {"n_z": 0}}, "fyl key 'n_z' must be >= 1"),
    "fyl_steps_negative": ("train", {**_FYL, "fyl": {"steps": -1}}, "fyl key 'steps' must be >= 0"),
    "fyl_box_radius_0": ("train", {**_FYL, "fyl": {"box_radius": 0}},
                         "fyl key 'box_radius' must be > 0"),
    # the library's own check of an eval entry's setting, run when the entry is read
    "eval_lagrangian_iters_0": ("eval", _ev("ts", _BASE, {"name": "a", "kind":
                                                          "lagrangian_heuristic", "iters": 0}),
                                "lagrangian_heuristic entry key 'iters' must be >= 1"),
    "eval_pert_sigma_negative": ("eval", _ev("sm", _SPT, _pert(sigma=-0.5)),
                                 "pipeline_pert_ls entry key 'sigma' must be >= 0"),
    "eval_pert_nsamples_negative": ("eval", _ev("sm", _SPT, _pert(nsamples=-1)),
                                    "pipeline_pert_ls entry key 'nsamples' must be >= 0"),
    "eval_pert_seed_negative": ("eval", _ev("sm", _SPT, _pert(seed=-1)),
                                "pipeline_pert_ls entry key 'seed' must be >= 0"),
    **{f"bounds_{key}_{name}": ("bounds", {**_BOUNDS, key: value}, f"bounds key {key!r} {says}")
       for key, name, value, says in [
           ("M", "0", 0, "must be > 0"), ("d", "0", 0, "must be >= 1"),
           ("n", "0", [100, 0], "must be >= 1"), ("delta", "1", 1.0, "must lie in (0, 1)"),
           ("sigma", "negative", -0.5, "must be >= 0"), ("sigma", "0", 0, "must be > 0"),
           ("b", "0", 0, "must be > 0"), ("kappa_phi", "negative", -1, "must be > 0"),
           ("expectation_term", "0", 0, "must be > 0")]},
    # an integer setting refuses a fraction instead of truncating it
    "generate_per_cell_fraction": ("generate", {**_TS_GEN, "per_cell": 1.5},
                                   "generate key 'per_cell': 1.5 is not an integer"),
    "generate_bound_iters_fraction": ("generate", {**_TS_GEN, "bound_iters": 5.5},
                                      "generate key 'bound_iters': 5.5 is not an integer"),
    "generate_width_fraction": ("generate", {**_TS_GEN, "widths": [3.5]},
                                "generate key 'widths' must hold integers >= 2"),
    "generate_n_fraction": ("generate", {**_SM_GEN, "n": [5.7]},
                            "generate key 'n' must hold integers >= 1"),
    "learner_budget_fraction": ("train", {**_TRAIN, "learner": {"budget": 5.9, "seeds": [0]}},
                                "learner key 'budget': 5.9 is not an integer"),
    "learner_seeds_fraction": ("train", {**_TRAIN, "learner": {"budget": 5, "seeds": [0.7]}},
                               "learner key 'seeds': 0.7 is not an integer"),
    "bounds_n_fraction": ("bounds", {**_BOUNDS, "n": [100, 100.9]},
                          "bounds key 'n': 100.9 is not an integer"),
    # a number or a list is given as one: a string or a boolean is not cast
    "learner_budget_string": ("train", {**_TRAIN, "learner": {"budget": "5", "seeds": [0]}},
                              "learner key 'budget': '5' is not a number"),
    "learner_budget_bool": ("train", {**_TRAIN, "learner": {"budget": True, "seeds": [0]}},
                            "learner key 'budget': True is not a number"),
    "learner_seeds_string": ("train", {**_TRAIN, "learner": {"budget": 5, "seeds": "12"}},
                             "learner key 'seeds': '12' is not a list"),
    "learner_seeds_bool": ("train", {**_TRAIN, "learner": {"budget": 5, "seeds": [True]}},
                           "learner key 'seeds': True is not a number"),
    "fyl_box_radius_string": ("train", {**_FYL, "fyl": {"box_radius": "3"}},
                              "fyl key 'box_radius': '3' is not a number"),
    "learner_box_radius_bool": ("train", {**_TRAIN, "learner": {"box_radius": True}},
                                "learner key 'box_radius': True is not a number"),
    "perturbation_sigma_string": ("train", {**_TRAIN, "perturbation": {"sigma": "0.5"}},
                                  "perturbation key 'sigma': '0.5' is not a number"),
    "perturbation_sigma_bool": ("train", {**_TRAIN, "perturbation": {"sigma": True}},
                                "perturbation key 'sigma': True is not a number"),
    # an empty block is a block: sigma has no default (null is an absent block)
    "perturbation_empty": ("train", {**_TRAIN, "perturbation": {}}, "perturbation has no 'sigma'"),
    # each value is read as its annotation says: a list of numbers for a cell
    # axis, a string for a name, an object for a block
    "generate_K_bool": ("generate", {**_TS_GEN, "K": [True]},
                        "generate key 'K': True is not a number"),
    "generate_widths_string": ("generate", {**_TS_GEN, "widths": ["3"]},
                               "generate key 'widths': '3' is not a number"),
    "generate_widths_number": ("generate", {**_TS_GEN, "widths": 3},
                               "generate key 'widths': 3 is not a list"),
    "train_method_list": ("train", {**_TRAIN, "method": ["fyl"]},
                          "train key 'method': ['fyl'] is not a string"),
    "train_method_unknown": ("train", {**_TRAIN, "method": "bogus"},
                             "unknown training method 'bogus'"),
    "train_post_number": ("train", {**_TR_SM, "post": 3}, "train key 'post': 3 is not a string"),
    "learner_list": ("train", {**_TRAIN, "learner": [1]},
                     "train key 'learner': [1] is not an object"),
    "train_dataset_number": ("train", {"dataset": 5}, "cfg.json key 'dataset': 5 is not a string"),
    "eval_dataset_number": ("eval", _ev(5, _PIPELINE), "cfg.json key 'dataset': 5 is not a string"),
    "eval_names_numbers": ("eval", _ev("ts", {**_BASE, "name": 3}, {**_BASE, "name": "3"}),
                           "approx_baseline entry key 'name': 3 is not a string"),
    # algorithms is a list of entry objects
    "eval_algorithms_strings": ("eval", _ev("ts", "spt"),
                                "eval key 'algorithms': 'spt' is not an object"),
    "eval_algorithms_object": ("eval", {"dataset": "ts", "algorithms": _PIPELINE},
                               f"eval key 'algorithms': {_PIPELINE} is not a list"),
    # open() takes an integer (true is 1) as a file descriptor to read, and
    # closes it after
    **{f"eval_weights_{name}": ("eval", _ev("sm", {"name": "p", "kind": "pipeline_ls",
                                                   "weights": weights}),
                                "pipeline_ls entry key 'weights' must be a file path")
       for name, weights in (("true", True), ("integer", 5))},
    # scheduling weights (11) on a two-stage dataset (34)
    "eval_weights_length": ("eval", _ev("ts", {**_PIPELINE, "weights": _W11}),
                            f"pipeline entry key 'weights': {_W11} holds 11 weights, "
                            "the application takes 34"),
    # a kind that is not a string is an unknown kind
    "eval_kind_list": ("eval", _ev("ts", {"name": "a", "kind": ["approx_baseline"]}),
                       "unknown two_stage algorithm kind ['approx_baseline']"),
    # every number is finite: JSON's NaN, Infinity and -Infinity are refused
    "learner_box_radius_nan": ("train", {**_TRAIN, "learner": {"box_radius": _NAN}},
                               "learner key 'box_radius': nan is not a finite number"),
    "learner_box_radius_inf": ("train", {**_TRAIN, "learner": {"box_radius": _INF}},
                               "learner key 'box_radius': inf is not a finite number"),
    "perturbation_sigma_inf": ("train", {**_TRAIN, "perturbation": {"sigma": _INF}},
                               "perturbation key 'sigma': inf is not a finite number"),
    "bounds_delta_nan": ("bounds", {**_BOUNDS, "delta": _NAN},
                         "bounds key 'delta': nan is not a finite number"),
    "generate_rho_negative_inf": ("generate", {**_SM_GEN, "rho": [1.0, -_INF]},
                                  "generate key 'rho': -inf is not a finite number"),
    # a config error is named before any instance file is read: here one
    # instance file of each dataset is cut short
    **{f"{case}_before_instances": (command, config, message,
                                    {_SM_X: _NOT_JSON, _TS_X: _NOT_JSON})
       for case, command, config, message in [
           ("train_method_unknown", "train", {**_TR_SM, "method": "bogus"},
            "unknown training method 'bogus'"),
           ("learner", "train", {**_TR_SM, "learner": {"bugdet": 3}},
            "unknown learner key 'bugdet'; did you mean 'budget'? valid: "
            "box_radius, budget, seeds"),
           ("eval_kind_unknown", "eval", _ev("sm", {"name": "a", "kind": "bogus"}),
            "unknown scheduling algorithm kind 'bogus'"),
           ("eval_weights_length", "eval", _ev("sm", {**_PIPELINE, "weights": _W34}),
            f"pipeline entry key 'weights': {_W34} holds 34 weights, the application takes 11"),
           ("eval_pert_sigma_negative", "eval", _ev("sm", _SPT, _pert(sigma=-0.5)),
            "pipeline_pert_ls entry key 'sigma' must be >= 0"),
           ("eval_lagrangian_iters_0", "eval",
            _ev("ts", _BASE, {"name": "a", "kind": "lagrangian_heuristic", "iters": 0}),
            "lagrangian_heuristic entry key 'iters' must be >= 1"),
       ]},
}

# A refusal that no one config key decides: an application, a block the
# method never reads, two names for one thing, a limit, a missing file or flag:
_COMMAND_REFUSALS = {
    # an application is named, and a misspelled one is never loaded as the other
    "generate_application_unknown": ("generate", {"application": "nope", "seed": 0},
                                     f"unknown application 'nope'{_APPS}"),
    "train_application_misspelled": ("train", {"application": "schedule", "dataset": "sm"},
                                     f"unknown application 'schedule'{_APPS}"),
    "manifest_application_misspelled": ("eval", _ev("sm", _SPT),
                                        f"{_SM_M}: unknown application 'two_stagee'{_APPS}",
                                        {_SM_M: {"application": "two_stagee"}}),
    "train_application_mismatch": ("train", {"application": "scheduling", "dataset": "ts"},
                                   "config application does not match the dataset"),
    # imitation needs the two-stage targets
    "fyl_on_scheduling": ("train", {"dataset": "sm", "method": "fyl"},
                          "fyl training is implemented for the two_stage application"),
    # a block the training method never reads is named with the method
    **{f"{method}_reads_no_{block}": ("train", {"dataset": "ts", "method": method, block: {}},
                                      f"training method {method!r} does not read the {block!r} "
                                      "block")
       for method, block in (("experience", "fyl"), ("fyl", "learner"), ("fyl", "perturbation"))},
    # two entries or two instances with one name would share one row of costs,
    # and two instances of generate one file
    "eval_names_repeat": ("eval", _ev("sm", {"name": "a", "kind": "brute_force"},
                                      {**_SPT, "name": "a"}),
                          "two eval algorithms are named 'a'"),
    "generate_ids_repeat": ("generate", {**_TS_GEN, "widths": [3, 3]},
                            "generate gives two instances the id 'ts_w3_K10_S2_000'"),
    "generate_ids_repeat_rho": ("generate", {**_SM_GEN, "rho": [1, 1.0]},
                                "generate gives two instances the id 'sm_n4_rho1_000'"),
    "manifest_ids_repeat": ("eval", _EV_TS, f"{_TS_ROW} repeats an earlier row's id",
                            {(_TS_M, "instances", 1): {"id": "ts_w3_K10_S2_000"}}),
    # brute force takes at most 9 jobs
    "eval_brute_force_10_jobs": ("eval", _ev("sm", _SPT, {"name": "bf", "kind": "brute_force"}),
                                 "brute force limited to 9 jobs",
                                 {_SM_X: {"n": 10, "p": [1] * 10, "r": [1] * 10}}),
    "config_missing": ("eval", None, "[Errno 2] No such file or directory: 'cfg.json'"),
    "generate_no_out": ("generate --config cfg.json", _SM_GEN, "generate requires --out"),
    # an --out that names a file is refused before any data is read
    "generate_out_is_a_file": ("generate --config cfg.json --out afile", _SM_GEN,
                               "--out 'afile' is not a directory", {"afile": ""}),
    "train_out_is_a_file": ("train --config cfg.json --out afile", _TR_SM,
                            "--out 'afile' is not a directory", {"afile": ""}),
    "eval_out_is_a_file": ("eval --config cfg.json --out afile", _EV_SM,
                           "--out 'afile' is not a directory", {"afile": ""}),
    # and so is one under a file, before the DIRECT search runs
    "train_out_under_a_file": ("train --config cfg.json --out afile/sub", _TR_SM,
                               "--out 'afile/sub' lies under 'afile', which is not a directory",
                               {"afile": ""}),
}

# A config, manifest, instance or weights file that cannot be read as one:
_FILE_REFUSALS = {
    # the error names that file (and a manifest row's error the instance),
    # never a config key
    "config_no_dataset": ("train", {"learner": {"seeds": [0]}}, "cfg.json has no 'dataset'"),
    "config_not_json": ("train", _NOT_JSON, f"cfg.json{_NOT_JSON_SAYS}"),
    **{f"config_list_{command}": (command, [1, 2], "cfg.json must hold a JSON object")
       for command in ("generate", "bounds", "train")},
    **{f"manifest_no_{key}": ("eval", _EV_TS, f"{_TS_M} has no {key!r}", {_TS_M: {key: _DROP}})
       for key in ("application", "instances")},
    **{f"manifest_no_{key}": ("eval", _EV_TS, f"instance {name} in {_TS_M} has no {key!r}",
                              {(_TS_M, "instances", 1): {key: _DROP}})
       for key, name in [("id", "1"), *(((key, "'ts_w3_K10_S2_001'")
                                         for key in ("file", "width", "lower_bound")))]},
    "manifest_instances_empty": ("eval", _EV_TS, f"{_TS_M} key 'instances': [] is an empty list",
                                 {_TS_M: {"instances": []}}),
    "manifest_instances_string": ("eval", _EV_SM,
                                  f"{_SM_M} key 'instances': 'instances/' is not a list",
                                  {_SM_M: {"instances": "instances/"}}),
    # two rows name one instance file, the second with a leading ./
    "manifest_files_repeat": ("eval", _EV_TS,
                              f"instance 'ts_w3_K10_S2_001' in {_TS_M} repeats an earlier row's file",
                              {(_TS_M, "instances", 1):
                               {"file": "./instances/ts_w3_K10_S2_000.json"}}),
    "manifest_row_no_file": ("eval", _ev("sm", _SPT), f"{_SM_ROW} has no 'file'",
                             {(_SM_M, "instances", 0): {"file": _DROP}}),
    # an empty file name names the dataset directory itself
    **{f"manifest_file_{case}": (command, config, f"{_SM_ROW} key 'file': {name!r} names a "
                                 "directory", {(_SM_M, "instances", 0): {"file": name}})
       for case, command, config, name in (("empty", "eval", _EV_SM, ""),
                                           ("directory", "train", _TR_SM, "instances"))},
    "train_manifest_row_no_lower_bound": ("train", _TR_TS, f"{_TS_ROW} has no 'lower_bound'",
                                          {(_TS_M, "instances", 0): {"lower_bound": _DROP}}),
    "manifest_file_number": ("train", _TR_SM, f"{_SM_ROW} key 'file': 5 is not a string",
                             {(_SM_M, "instances", 0): {"file": 5}}),
    "manifest_n_string": ("eval", _EV_SM, f"{_SM_ROW} key 'n': '4' is not a number",
                          {(_SM_M, "instances", 0): {"n": "4"}}),
    "ts_manifest_lower_bound_string": ("train", _TR_TS,
                                       f"{_TS_ROW} key 'lower_bound': '-12' is not a number",
                                       {(_TS_M, "instances", 0): {"lower_bound": "-12"}}),
    "ts_manifest_lower_bound_nan": ("train", _TR_TS,
                                    f"{_TS_ROW} key 'lower_bound': nan is not a finite number",
                                    {(_TS_M, "instances", 0): {"lower_bound": _NAN}}),
    "manifest_not_json": ("train", _TR_SM, f"{_SM_M}{_NOT_JSON_SAYS}", {_SM_M: _NOT_JSON}),
    "instance_no_p_train": ("train", _TR_SM, f"{_SM_X} has no 'p'", {_SM_X: {"p": _DROP}}),
    "instance_no_p_eval": ("eval", _EV_SM, f"{_SM_X} has no 'p'", {_SM_X: {"p": _DROP}}),
    "instance_p_0": ("train", _TR_SM, f"{_SM_X}: processing times must be >= 1",
                     {(_SM_X, "p"): {0: 0}}),
    "instance_n_fraction": ("train", _TR_SM, f"{_SM_X} key 'n': 4.9 is not an integer",
                            {_SM_X: {"n": 4.9}}),
    "instance_p_strings": ("eval", _EV_SM, f"{_SM_X} key 'p': '28' is not a number",
                           {_SM_X: {"p": ["28"] * 4}}),
    "instance_p_inf": ("eval", _EV_SM, f"{_SM_X} key 'p': inf is not a finite number",
                       {_SM_X: {"p": [_INF] * 4}}),
    "instance_p_negative_inf": ("train", _TR_SM, f"{_SM_X} key 'p': -inf is not a finite number",
                                {_SM_X: {"p": [-_INF] * 4}}),
    "instance_p_empty": ("train", _TR_SM, f"{_SM_X} key 'p': [] is an empty list",
                         {_SM_X: {"p": []}}),
    "instance_n_mismatch": ("train", _TR_SM, f"{_SM_X}: instance file job count mismatch",
                            {_SM_X: {"n": 5}}),
    "ts_instance_d_row_missing": ("train", _TR_TS,
                                  f"{_TS_X}: instance file scenario costs have the wrong shape",
                                  {(_TS_X, "d"): {0: _DROP}}),
    "instance_unknown_key": ("train", _TR_SM, f"unknown {_SM_X} key 'q'; valid: n, p, r, rho, seed",
                             {_SM_X: {"q": 1}}),
    "instance_not_json": ("train", _TR_SM, f"{_SM_X}{_NOT_JSON_SAYS}", {_SM_X: _NOT_JSON}),
    "ts_instance_width_fraction": ("train", _TR_TS, f"{_TS_X} key 'width': 3.5 is not an integer",
                                   {_TS_X: {"width": 3.5}}),
    "ts_instance_c_nan": ("train", _TR_TS, f"{_TS_X} key 'c': nan is not a finite number",
                          {_TS_X: {"c": [_NAN, -1.0, -2.0, -3.0]}}),
    "weights_no_d": ("eval", _EV_SM, f"{_W11} has no 'd'", {_W11: {"d": _DROP}}),
    "weights_d_mismatch": ("eval", _EV_SM, f"{_W11}: weight file dimension mismatch",
                           {_W11: {"d": 12}}),
    "weights_leave_box": ("eval", _EV_SM, f"{_W11}: w leaves the box", {_W11: {"M": 0.25}}),
    "weights_d_fraction": ("eval", _EV_SM, f"{_W11} key 'd': 11.7 is not an integer",
                           {_W11: {"d": 11.7}}),
    "weights_M_string": ("eval", _EV_SM, f"{_W11} key 'M': '10' is not a number",
                         {_W11: {"M": "10"}}),
    "weights_w_strings": ("eval", _EV_SM, f"{_W11} key 'w': '0.5' is not a number",
                          {_W11: {"w": ["0.5"] * 11}}),
    "weights_w_nan": ("eval", _EV_SM, f"{_W11} key 'w': nan is not a finite number",
                      {_W11: {"w": [0.5] * 10 + [_NAN]}}),
    "weights_M_inf": ("eval", _EV_SM, f"{_W11} key 'M': inf is not a finite number",
                      {_W11: {"M": _INF}}),
    "weights_w_empty": ("eval", _EV_SM, f"{_W11} key 'w': [] is an empty list", {_W11: {"w": []}}),
    "weights_not_json": ("eval", _EV_SM, f"{_W11}{_NOT_JSON_SAYS}", {_W11: _NOT_JSON}),
}


@pytest.fixture(scope="module")
def refusal_files(tmp_path_factory):
    """The files every Refusal row starts from."""
    files, configs = tmp_path_factory.mktemp("files"), tmp_path_factory.mktemp("configs")
    for name, config in (("ts", {**_TS_GEN, "per_cell": 2, "seed": 5, "bound_iters": 150}),
                         ("sm", _SM_GEN)):
        cfg = _write(configs / f"{name}.json", config)
        assert main(["generate", "--config", cfg, "--out", str(files / name)]) == 0
    _write(files / _W34, {"d": 34, "M": 10.0, "w": [0.5] * 34})
    _write(files / _W11, {"d": 11, "M": 10.0, "w": [0.5] * 11})
    return files


def _edit(target, change):
    """Apply one of a Refusal's edits."""
    path, *keys = (target,) if isinstance(target, str) else target
    path = Path(path)
    if isinstance(change, str):
        path.write_text(change)
        return
    data = json.loads(path.read_text())
    node = functools.reduce(operator.getitem, keys, data)
    for key, value in change.items():
        if value is _DROP:
            del node[key]
        else:
            node[key] = value
    _write(path, data)


@functools.wraps(two_stage.lagrangian_bound)
def _no_bound(*args, **kwargs):
    raise AssertionError("a bound ran before the settings were checked")


@pytest.fixture()
def refuse(refusal_files, tmp_path, monkeypatch, capsys):
    """Run one Refusal row in a copy of refusal_files: it exits 1 with the
    row's whole message, before --out is created, anything is printed or
    any bound runs, and with stdout still open."""
    shutil.copytree(refusal_files, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(two_stage, "lagrangian_bound", _no_bound)

    def run(row):
        command, config, message, edits = Refusal(*row)
        if config is not None:
            Path("cfg.json").write_text(config if isinstance(config, str) else json.dumps(config))
        for target, change in edits.items():
            _edit(target, change)
        capsys.readouterr()
        argv = command if " " in command else f"{command} --config cfg.json --out out"
        assert main(argv.split()) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not Path("out").exists()
        os.fstat(1)

    return run


@pytest.mark.parametrize("case", _CONFIG_REFUSALS)
def test_config_typo_exits_before_writing(case, refuse):
    refuse(_CONFIG_REFUSALS[case])


@pytest.mark.parametrize("case", _COMMAND_REFUSALS)
def test_refused_command_line(case, refuse):
    refuse(_COMMAND_REFUSALS[case])


@pytest.mark.parametrize("case", _FILE_REFUSALS)
def test_data_file_error_names_the_file(case, refuse):
    refuse(_FILE_REFUSALS[case])


def test_removed_flags_are_usage_errors(tmp_path):
    # the config is the whole run: every subcommand takes --config and --out
    # only, and --seed or --json exits 2 before anything is written
    cfg, out = _write(tmp_path / "cfg.json", _SM_GEN), tmp_path / "out"
    for command in ("generate", "train", "eval", "bounds"):
        for flag in (["--seed", "5"], ["--json"]):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", cfg, "--out", str(out), *flag])
            assert exc.value.code == 2
            assert not out.exists()


@pytest.mark.parametrize("application, kind, valid", _KINDS)
def test_eval_kind_keys_and_one_weights_read_per_entry(application, kind, valid, tmp_path,
                                                       monkeypatch):
    gen = ({"application": "two_stage", "widths": [2], "K": [5], "scenarios": [2],
            "per_cell": 3, "seed": 0, "bound_iters": 5} if application == "two_stage" else
           {"application": "scheduling", "n": [4], "rho": [1.0], "per_cell": 3, "seed": 0})
    ds = tmp_path / "ds"
    assert main(["generate", "--config", _write(tmp_path / "gen.json", gen), "--out", str(ds)]) == 0
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
