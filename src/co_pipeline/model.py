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
import math
import sys
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
        _positive(self.box_radius, "box radius")
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
        for key, least in (("sigma", 0), ("nsamples", 1), ("seed", 0)):
            _at_least(getattr(self, key), least, f"perturbation key {key!r}")


def _at_least(value, least, name: str) -> None:
    """The lower limit of a finite setting; name is the setting as the message names it."""
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}")
    _finite(value, name)


def _positive(value, name: str) -> None:
    """A finite setting that must be > 0; name is the setting as the message names it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0")
    _finite(value, name)


def _finite(value, name: str) -> None:
    """Refuse +inf for a setting that has passed its lower limit (NaN fails that)."""
    if not value < math.inf:
        raise ValueError(f"{name} must be finite")


def _as_weight_array(w) -> np.ndarray:
    if isinstance(w, WeightVector):
        return w.w
    return np.asarray(w, dtype=float)


def _as_number(v):
    """int for integral values, float otherwise: how numbers go into JSON and CSV."""
    return int(v) if float(v).is_integer() else float(v)


def _read_json(path, build=None):
    """The JSON object in a file, or given build, build(**its settings); errors name the file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError(f"{path} must hold a JSON object")
        return payload if build is None else build(**_read_config(str(path), payload, build))
    except ValueError as exc:
        raise exc if str(path) in str(exc) else ValueError(f"{path}: {exc}") from None


def _typed(v, kind, name: str):
    """v, if it is a JSON value of the kind: a finite number but no boolean, a non-empty list."""
    if isinstance(v, bool) or not isinstance(v, kind):
        raise ValueError(f"{v!r} is not {name}")
    if isinstance(v, (int, float)) and not abs(v) <= sys.float_info.max:
        raise ValueError(f"{v!r} is not a finite number")
    if isinstance(v, list) and not v:
        raise ValueError("[] is an empty list")
    return v


def _whole(v) -> int:
    """int(v) of a JSON number, refusing to truncate a fraction (2.0 passes)."""
    if isinstance(_typed(v, (int, float), "a number"), float) and not v.is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


# a list's items are kept as given (10.0 stays 10.0), and null passes where None does
_CASTS = {
    "int": _whole, "str": lambda v: _typed(v, str, "a string"),
    "float": lambda v: float(_typed(v, (int, float), "a number")),
    "tuple[int, ...]": lambda v: tuple(map(_whole, _typed(v, list, "a list"))),
    "list": lambda v: [_typed(e, (int, float), "a number") for e in _typed(v, list, "a list")],
    "list[list]": lambda v: [_CASTS["list"](e) for e in _typed(v, list, "a list")],
    "list[dict]": lambda v: [_typed(e, dict, "an object") for e in _typed(v, list, "a list")],
    "int | None": lambda v: None if v is None else _whole(v),
    "float | None": lambda v: None if v is None else _CASTS["float"](v),
    "str | None": lambda v: _typed(v, (str, type(None)), "a string"),
    "dict | None": lambda v: _typed(v, (dict, type(None)), "an object"),
}


def _read_config(block: str, config, *consumers) -> dict:
    """The settings of one config block, keyed, typed and defaulted by its consumers.

    The keys of a block are the parameters of its consumers (functions,
    methods or dataclasses) that can be passed by keyword: every parameter
    but the positional-only ones.  A given value is read as its parameter's
    annotation says (_CASTS, under _typed's rules), and a value the cast
    refuses is an error that names the block and the key.  An omitted
    key takes its parameter's default and is an error if there is none.
    Any other key is an error that names the block, the key and the
    nearest valid key.
    """
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
            raise ValueError(f"{block} has no {name!r}")
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
    _at_least(dim, 1, "dim")
    rng = np.random.default_rng(cfg.seed)
    return rng.standard_normal((cfg.nsamples, dim))


def save_weights(path, wv: WeightVector) -> None:
    _write_json(path, {"d": wv.dim, "M": wv.box_radius, "w": [float(v) for v in wv.w]})


def _weights(w: list, d: int, M: float) -> WeightVector:
    """The keys of a weights file: the weights, their count and the box radius."""
    if len(w) != d:
        raise ValueError("weight file dimension mismatch")
    return WeightVector(w=w, box_radius=M)


def load_weights(path) -> WeightVector:
    return _read_json(path, _weights)
