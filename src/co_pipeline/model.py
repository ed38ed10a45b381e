"""Generalized linear model layer and shared perturbation sampling.

The statistical model is linear: theta_i = <w, phi_i> for every decision
dimension i of an instance, where phi_i is a fixed-length feature vector.
The weight dimension therefore never depends on instance size, which is
what lets one w generalize across instances.  Each application's
features(x) returns Phi as a plain (rows, dim) array, and its pipeline
computes theta = features(x) @ w.
"""

from __future__ import annotations

import difflib
import inspect
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightVector",
    "PerturbationConfig",
    "sample_gaussians",
    "save_weights",
    "load_weights",
]


@dataclass(frozen=True)
class WeightVector:
    """Model weights w constrained to the box ||w||_inf <= box_radius."""

    w: np.ndarray
    box_radius: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1:
            raise ValueError("w must be a vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("w must be finite")
        if self.box_radius <= 0:
            raise ValueError("box radius must be positive")
        if np.abs(w).max(initial=0.0) > self.box_radius + 1e-12:
            raise ValueError("w leaves the box")
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class PerturbationConfig:
    """Gaussian perturbation of the weights: w + sigma * Z, Z ~ N(0, I)."""

    sigma: float
    nsamples: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.nsamples < 1:
            raise ValueError("nsamples must be >= 1")
        if self.seed < 0:
            raise ValueError("perturbation key 'seed' must be >= 0")


def _as_weight_array(w) -> np.ndarray:
    if isinstance(w, WeightVector):
        return w.w
    return np.asarray(w, dtype=float)


def _as_number(v):
    """int for integral values, float otherwise: how numbers go into JSON and CSV."""
    return int(v) if float(v).is_integer() else float(v)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _whole(v) -> int:
    """int(v), refusing to truncate a fraction (an integral float such as 2.0 passes)."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


_CASTS = {"int": _whole, "float": float, "tuple[int, ...]": lambda v: tuple(map(_whole, v))}


def _read_config(block: str, config, *consumers) -> dict:
    """The settings of one config block, keyed, typed and defaulted by its consumers.

    The keys of a block are the parameters of its consumers (functions,
    methods or dataclasses) that can be passed by keyword: every parameter
    but the positional-only ones.  A given value is cast to its parameter's
    annotated int, float or tuple[int, ...], and a value the cast refuses
    is an error that names the block and the key; an omitted key takes its
    parameter's default and is an error if there is none.  Any other key is
    an error that names the block, the key and the nearest valid key.
    """
    if not isinstance(config, dict):
        raise ValueError(f"the {block} block must be a JSON object")
    params = {
        name: param
        for consumer in consumers
        for name, param in inspect.signature(consumer).parameters.items()
        if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    }
    for key in config:
        if key not in params:
            close = difflib.get_close_matches(key, list(params), n=1)
            hint = f"did you mean {close[0]!r}? " if close else ""
            valid = ", ".join(params) or "none"
            raise ValueError(f"unknown {block} key {key!r}; {hint}valid: {valid}")
    settings = {}
    for name, param in params.items():
        if name in config:
            cast = _CASTS.get(param.annotation, lambda v: v)
            try:
                settings[name] = cast(config[name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{block} key {name!r}: {exc}") from None
        elif param.default is param.empty:
            raise ValueError(f"missing {block} key {name!r}")
        else:
            settings[name] = param.default
    return settings


def _write_json(path, payload) -> None:
    """Sorted keys, two-space indent and a final newline, so files diff cleanly."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sample_gaussians(cfg: PerturbationConfig, dim: int) -> np.ndarray:
    """(nsamples, dim) standard normal draws, deterministic per seed.

    Row k of the matrix is sample k; requesting more samples with the
    same seed extends the matrix without changing earlier rows.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    return rng.standard_normal((cfg.nsamples, dim))


def save_weights(path, wv: WeightVector) -> None:
    _write_json(path, {"d": wv.dim, "M": wv.box_radius, "w": [float(v) for v in wv.w]})


def load_weights(path) -> WeightVector:
    payload = _read_json(path)
    w = np.asarray(payload["w"], dtype=float)
    if w.shape[0] != int(payload["d"]):
        raise ValueError("weight file dimension mismatch")
    return WeightVector(w=w, box_radius=float(payload["M"]))
