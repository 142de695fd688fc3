"""Declarative experiment configuration: parsing, validation, hashing.

A config is a JSON-compatible mapping with blocks

    model:    {b, d, b_star, hd}
    dynamics: {variant, a?, jump?, ha?}
    grid:     {x_min, x_max, n_points, boundary}
    solver:   {dt_pde, t_end, n_store, n_orders, h_tol, dt_report}
    mc:       {reps, dt, seed, times, cutoff_m, x0}
    verify:   {regime, alpha, ...}
    output:   {dir}
    calibrate (optional): {knob, bracket, tol}

Curve values may be bare numbers (constant curves).  A sha256 hash of the
canonical JSON form is embedded in every output file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .grid import Grid
from .model import DynamicsSpec, RateModel

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "config_hash"]


class ConfigError(ValueError):
    """Missing or malformed config key; the message names the path."""


_REQUIRED = {
    "model": dict,
    "dynamics": dict,
    "grid": dict,
}

_DEFAULT_SOLVER = {
    "dt_pde": 0.01,
    "t_end": 10.0,
    "n_store": 200,
    "n_orders": 2,
    "h_tol": 1e-6,
    "dt_report": 1.0,
}

_DEFAULT_MC = {
    "reps": 10_000,
    "dt": 0.01,
    "seed": 1,
    "times": [1.0, 5.0],
    "cutoff_m": 20.0,
    "x0": 0.0,
}

_DEFAULT_VERIFY = {
    "regime": "auto",
    "alpha": 0.01,
    "t_mc": None,  # default: last mc time
}


def config_hash(raw):
    """Hash of the experiment definition; output routing is excluded so the
    same experiment keeps its identity wherever it is written."""
    stripped = {k: v for k, v in raw.items() if k != "output"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _get(raw, path, expected=None):
    cur = raw
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(f"missing config key: {'.'.join(walked)}")
        cur = cur[part]
    if expected is not None and not isinstance(cur, expected):
        raise ConfigError(f"config key {path} must be of type {expected.__name__}")
    return cur


@dataclass
class ExperimentConfig:
    raw: dict
    name: str
    model: RateModel
    dynamics: DynamicsSpec
    grid: Grid
    solver: dict
    mc: dict
    verify: dict
    output_dir: str
    calibrate: dict | None = None
    hash: str = field(default="")

    @classmethod
    def from_dict(cls, raw):
        for key, typ in _REQUIRED.items():
            _get(raw, key, typ)
        try:
            model = RateModel.from_config(raw["model"])
        except (KeyError, ValueError) as err:
            raise ConfigError(f"model block: {err}") from err
        try:
            dynamics = DynamicsSpec.from_config(raw["dynamics"])
        except (KeyError, ValueError) as err:
            raise ConfigError(f"dynamics block: {err}") from err
        try:
            grid = Grid.from_config(raw["grid"])
        except (KeyError, ValueError) as err:
            raise ConfigError(f"grid block: {err}") from err
        solver = {**_DEFAULT_SOLVER, **raw.get("solver", {})}
        mc = {**_DEFAULT_MC, **raw.get("mc", {})}
        seed = mc["seed"]
        # the replica streams are keyed by the seed as an unsigned 64-bit word
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ConfigError(f"config key mc.seed must be an integer in [0, 2^64); got {seed!r}")
        verify = {**_DEFAULT_VERIFY, **raw.get("verify", {})}
        return cls(
            raw=raw,
            name=raw.get("name", "experiment"),
            model=model,
            dynamics=dynamics,
            grid=grid,
            solver=solver,
            mc=mc,
            verify=verify,
            output_dir=raw.get("output", {}).get("dir", "out"),
            calibrate=raw.get("calibrate"),
            hash=config_hash(raw),
        )

    def with_overrides(self, seed=None):
        raw = json.loads(json.dumps(self.raw))
        if seed is not None:
            raw.setdefault("mc", {})["seed"] = int(seed)
        return ExperimentConfig.from_dict(raw)

    def apply_knob(self, knob_path, value):
        """Return a copy with the scalar at ``knob_path`` replaced (used by
        criticality calibration)."""
        raw = json.loads(json.dumps(self.raw))
        cur = raw
        parts = knob_path.split(".")
        for part in parts[:-1]:
            if part not in cur:
                raise ConfigError(f"knob path {knob_path} missing at {part}")
            cur = cur[part]
        if parts[-1] not in cur:
            raise ConfigError(f"knob path {knob_path} missing final key")
        cur[parts[-1]] = float(value)
        return ExperimentConfig.from_dict(raw)


def load_config(path):
    with open(path) as fh:
        raw = json.load(fh)
    return ExperimentConfig.from_dict(raw)
