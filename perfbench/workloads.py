"""Pinned generate -> train -> eval configs for each benchmark workload.

One benchmark run makes several chains (see run.py).  Chain i of a run with
workload seed s uses the chain seed `chain_seed(s, i)`, so chain 0 uses s
itself.  A chain seed is the master seed of the chain's first `generate`
call.  A second generated set (the test set) uses the chain seed plus a fixed
offset, so that the default seed reproduces the sets named in README.md:
ts_chain trains on seed 7 and tests on seed 4, sched_chain trains on 11 and
tests on 22.

Every config here is written to a JSON file and handed to
`co_pipeline.cli.main`, exactly as a user would run the CLI.
"""

from __future__ import annotations

SEED_SPACE = 2**32
CHAIN_SEED_STRIDE = 2**20


def chain_seed(seed: int, index: int) -> int:
    return (seed + index * CHAIN_SEED_STRIDE) % SEED_SPACE


def _ts_generate(seed, widths, K, scenarios, per_cell, bound_iters):
    return {
        "application": "two_stage",
        "widths": widths,
        "K": K,
        "scenarios": scenarios,
        "per_cell": per_cell,
        "seed": seed,
        "bound_iters": bound_iters,
    }


def _sched_generate(seed, n, rho, per_cell):
    return {
        "application": "scheduling",
        "n": n,
        "rho": rho,
        "per_cell": per_cell,
        "seed": seed,
    }


def _ts_eval(iters):
    return [
        {"name": "approx_baseline", "kind": "approx_baseline"},
        {"name": "pipeline", "kind": "pipeline", "weights": "@weights"},
        {"name": "lagrangian_heuristic", "kind": "lagrangian_heuristic", "iters": iters},
    ]


SCHED_EVAL = [
    {"name": "spt", "kind": "spt"},
    {"name": "pipeline", "kind": "pipeline", "weights": "@weights"},
    {"name": "pipeline_ls", "kind": "pipeline_ls", "weights": "@weights"},
    {
        "name": "pipeline_pert_ls",
        "kind": "pipeline_pert_ls",
        "weights": "@weights",
        "sigma": 10.0,
        "nsamples": 5,
        "seed": 0,
    },
]


def _ts_chain(seed, tiny):
    if tiny:
        gen = dict(widths=[3], K=[10], scenarios=[2], per_cell=2, bound_iters=20)
        learner = {"box_radius": 10.0, "budget": 40, "seeds": [0, 1]}
        iters = 20
    else:
        gen = dict(widths=[4, 6], K=[10, 20], scenarios=[4], per_cell=1, bound_iters=250)
        learner = {"box_radius": 10.0, "budget": 150, "seeds": [0, 1, 2]}
        iters = 250
    return {
        "application": "two_stage",
        "train_set": _ts_generate(seed, **gen),
        "test_set": _ts_generate((seed - 3) % SEED_SPACE, **gen),
        "train": {"application": "two_stage", "method": "experience", "learner": learner},
        "eval": _ts_eval(iters),
        "learned": "pipeline",
    }


def _sched_chain(seed, tiny):
    if tiny:
        train_gen = dict(n=[6], rho=[1], per_cell=2)
        test_gen = dict(n=[6, 12], rho=[1], per_cell=1)
        learner = {"box_radius": 10.0, "budget": 30, "seeds": [0, 1]}
    else:
        train_gen = dict(n=[8, 12], rho=[0.2, 1, 3], per_cell=1)
        test_gen = dict(n=[8, 20], rho=[0.2, 1, 3], per_cell=1)
        learner = {"box_radius": 10.0, "budget": 20, "seeds": [0, 1]}
    return {
        "application": "scheduling",
        "train_set": _sched_generate(seed, **train_gen),
        "test_set": _sched_generate((seed + 11) % SEED_SPACE, **test_gen),
        "train": {
            "application": "scheduling",
            "method": "experience",
            "post": "ls",
            "learner": learner,
        },
        "eval": SCHED_EVAL,
        "learned": "pipeline_ls",
    }


def _ts_large(seed, tiny):
    if tiny:
        gen = dict(widths=[4], K=[20], scenarios=[3], per_cell=1, bound_iters=20)
        learner = {"box_radius": 10.0, "budget": 20, "seeds": [0]}
        pert = {"sigma": 0.3, "nsamples": 2, "seed": 0}
        iters = 20
    else:
        gen = dict(widths=[12], K=[20], scenarios=[10], per_cell=1, bound_iters=200)
        learner = {"box_radius": 10.0, "budget": 30, "seeds": [0]}
        pert = {"sigma": 0.3, "nsamples": 5, "seed": 0}
        iters = 200
    return {
        "application": "two_stage",
        "train_set": _ts_generate(seed, **gen),
        "test_set": None,
        "train": {
            "application": "two_stage",
            "method": "experience",
            "learner": learner,
            "perturbation": pert,
        },
        "eval": _ts_eval(iters),
        "learned": "pipeline",
    }


# name: (chain plan, default seed, chains per run)
WORKLOADS = {
    "ts_chain": (_ts_chain, 7, 8),
    "sched_chain": (_sched_chain, 11, 40),
    "ts_large": (_ts_large, 7, 4),
}


def default_seed(name: str) -> int:
    return WORKLOADS[name][1]


def chains_per_run(name: str) -> int:
    """How many chains, on successive chain seeds, one timed run takes in turn."""
    return WORKLOADS[name][2]


def workload(name: str, seed: int, tiny: bool = False) -> dict:
    """The chain plan of one workload: generate configs, train and eval entries.

    `eval` entries name the trained weights as "@weights"; the chain runner
    replaces it with the path it trained to.  With no `test_set`, eval runs
    on the training set.
    """
    make = WORKLOADS[name][0]
    return make(int(seed), tiny)
