"""Declarative experiment configuration: one schema, parsing, hashing.

Every key a config may hold is a row of ``SCHEMA``: its dotted path, type,
bounds and default (the README's "Config reference" lists the same rows).
``ExperimentConfig.from_dict`` walks the schema once: an unknown, missing,
mistyped or out-of-range key raises a ``ConfigError`` naming its path,
absent keys take their defaults (checked as given values are), and the
checked values go to the model, dynamics and grid constructors, which
keep the checks that involve more than one key.  A curve is converted to a
``Curve`` once, here.  Every key, every choice of a string key and every
curve family is one that a shipped config under ``configs/`` uses, or a
test names the reason it stays.  A sha256 hash of the raw mapping is
embedded in every output.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import reduce

from .curves import curve_from_config
from .grid import Grid, whole_steps
from .model import DynamicsSpec, RateModel

__all__ = ["ExperimentConfig", "ConfigError", "Key", "SCHEMA", "load_config", "config_hash"]


class ConfigError(ValueError):
    """Missing, unknown or malformed config key; the message names the path."""


def _finite(v):
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _finites(n=None):
    return lambda v: isinstance(v, list) and 0 < len(v) == (n or len(v)) and all(map(_finite, v))


def _floats(v):
    return [float(x) for x in v]


REQUIRED = "required"

# kind -> (description, type test, conversion of an accepted value)
_KINDS = {
    "number": ("a finite number", _finite, float),
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), None),
    "string": ("a string", lambda v: isinstance(v, str), None),
    "numbers": ("a non-empty list of finite numbers", _finites(), _floats),
    "pair": ("a list of two finite numbers", _finites(2), _floats),
    "bracket": ("two increasing finite numbers", lambda v: _finites(2)(v) and v[0] < v[1], _floats),
    "curve": ("a curve", lambda v: True, curve_from_config),  # curve_from_config checks the shape
}


def _end(text):
    base, _, power = text.strip().partition("^")
    return float(base) ** int(power or 1)


def _within(text, v):
    """Whether ``v`` meets a bounds text: '{a, b}' choices, '> x', '>= x', or
    an interval such as '(0, 0.5]' or '[0, 2^64)'."""
    if text[0] == "{":
        return v in {c.strip() for c in text[1:-1].split(",")}
    if text[0] == ">":  # '> x' reads as '(x, inf)' and '>= x' as '[x, inf)'
        text = ("[" if text[1] == "=" else "(") + text.lstrip(">=") + ", inf)"
    lo, hi = map(_end, text[1:-1].split(","))
    return (v >= lo if text[0] == "[" else v > lo) and (v <= hi if text[-1] == "]" else v < hi)


@dataclass(frozen=True)
class Key:
    """One config key.  ``bounds`` applies to a number, to each number of a
    list, or to a string (as its choices).  ``default`` is REQUIRED (the key
    must be present when its block is), None (absent means undeclared) or a
    value.  ``steps_of`` names the step key whose whole multiple the value
    (or a list's largest) must be."""

    path: str
    kind: str
    bounds: str = ""
    default: object = REQUIRED
    steps_of: str | None = None

    def check(self, value, doc):
        """The checked, converted value; raises ConfigError."""
        desc, is_kind, convert = _KINDS[self.kind]
        items = value if self.kind in ("numbers", "pair", "bracket") else [value]
        ok = is_kind(value) and (not self.bounds or all(_within(self.bounds, v) for v in items))
        if ok and self.steps_of:
            dt, last = reduce(dict.__getitem__, self.steps_of.split("."), doc), max(items)
            try:
                whole_steps(last, dt)
            except ValueError:
                ok = False
        if not ok:
            where = f" {'in ' if self.bounds[0] in '([{' else ''}{self.bounds}" if self.bounds else ""
            largest = "the largest " if self.kind == "numbers" else ""
            steps = f", {largest}a whole number of {self.steps_of} steps" if self.steps_of else ""
            raise ConfigError(f"config key {self.path} must be {desc}{where}{steps}; got {value!r}")
        try:
            return convert(value) if convert else value
        except KeyError as err:  # a parameter of the curve's family
            raise ConfigError(f"config key {self.path}: curve parameter {err} is missing") from err
        except (TypeError, ValueError) as err:
            raise ConfigError(f"config key {self.path}: {err}") from err


# Blocks that must be present, and blocks left out when absent; any other
# absent block reads as {} and its keys take their defaults.
REQUIRED_BLOCKS = ("model", "dynamics", "grid")
OPTIONAL_BLOCKS = ("dynamics.jump", "calibrate")

SCHEMA = (
    Key("name", "string", default="experiment"),
    Key("model.b", "curve"),
    Key("model.d", "curve"),
    Key("model.b_star", "number", "> 0"),
    Key("model.hd.c", "number", default=None),
    Key("model.hd.c_prime", "number", default=None),
    Key("model.hd.radius", "number", default=None),
    Key("dynamics.variant", "string", "{diffusion, diffusion-jumps, drifted-jump}"),
    Key("dynamics.a", "curve", default=None),
    Key("dynamics.jump.family", "string", "{uniform-window}"),
    Key("dynamics.jump.rate", "curve"),
    Key("dynamics.jump.width", "number", "> 0", default=None),
    Key("dynamics.jump.density_floor", "pair", default=None),
    Key("dynamics.jump.m4", "number", default=None),
    Key("dynamics.ha.C", "number", default=None),
    Key("dynamics.ha.beta", "number", default=None),
    Key("dynamics.ha.gamma", "number", default=None),
    Key("dynamics.ha.a3_bound", "number", default=None),
    Key("grid.x_min", "number"),
    Key("grid.x_max", "number"),
    Key("grid.n_points", "integer", ">= 3"),
    Key("grid.boundary", "string", "{absorbing, reflecting}", default="absorbing"),
    Key("solver.dt_pde", "number", "> 0", default=0.01),
    Key("solver.t_end", "number", "> 0", default=10.0),
    Key("solver.n_store", "integer", ">= 1", default=200),
    Key("solver.n_orders", "integer", ">= 1", default=2),
    Key("mc.reps", "integer", ">= 2", default=10_000),
    Key("mc.dt", "number", "> 0", default=0.01),
    # the replica streams are keyed by the seed as an unsigned 64-bit word
    Key("mc.seed", "integer", "[0, 2^64)", default=1),
    Key("mc.times", "numbers", ">= 0", default=[1.0, 5.0], steps_of="mc.dt"),
    Key("mc.cutoff_m", "number", "> 0", default=20.0),
    Key("mc.x0", "number", default=0.0),
    Key("verify.regime", "string", "{auto, critical, subcritical, supercritical}", default="auto"),
    Key("verify.alpha", "number", "(0, 0.5]", default=0.01),
    # the subcritical battery computes V_n^- up to order 4
    Key("verify.n_orders_mc", "integer", "[1, 4]", default=3),
    Key("output.dir", "string", default="out"),
    Key("calibrate.knob", "string"),
    Key("calibrate.bracket", "bracket"),
    Key("calibrate.tol", "number", "> 0", default=1e-6),
)


def _walk(raw, path, doc, out):
    """Check the block at ``path`` whose raw mapping is ``raw`` into ``out``,
    which is already in place in ``doc``, the checked root so far."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config key {path or '(top level)'} must be a mapping; got {raw!r}")
    prefix, children = f"{path}." if path else "", {}
    for key in SCHEMA:
        if key.path.startswith(prefix):
            name, _, rest = key.path[len(prefix):].partition(".")
            children.setdefault(name, prefix + name if rest else key)
    for name in raw:
        if name not in children:
            raise ConfigError(f"unknown config key: {prefix}{name}")
    for name, child in children.items():
        if isinstance(child, str) and child in REQUIRED_BLOCKS and name not in raw:
            raise ConfigError(f"missing config key: {child}")
    for name, child in children.items():
        if isinstance(child, str):
            if name in raw or child not in OPTIONAL_BLOCKS:
                out[name] = {}
                _walk(raw.get(name, {}), child, doc, out[name])
        elif name in raw:
            out[name] = child.check(raw[name], doc)
        elif child.default == REQUIRED:
            raise ConfigError(f"missing config key: {child.path}")
        elif child.default is not None:
            out[name] = child.check(child.default, doc)


def _knob_target(raw, knob):
    """(mapping, key) of the number that the calibration knob names in ``raw``."""
    *parents, last = knob.split(".")
    for part in parents:
        raw = raw.get(part) if isinstance(raw, dict) else None
    value = raw.get(last) if isinstance(raw, dict) else None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"config key calibrate.knob must name a numeric config value; got {knob!r}")
    return raw, last


def _build(block, ctor, values):
    try:
        return ctor(values)
    except ValueError as err:
        raise ConfigError(f"{block} block: {err}") from err


def config_hash(raw):
    """Hash of the experiment definition; output routing is excluded so the
    same experiment keeps its identity wherever it is written."""
    stripped = {k: v for k, v in raw.items() if k != "output"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


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
        doc = {}
        _walk(raw, "", doc, doc)
        if "calibrate" in doc:
            _knob_target(raw, doc["calibrate"]["knob"])
        return cls(
            raw=raw,
            name=doc["name"],
            model=_build("model", RateModel.from_config, doc["model"]),
            dynamics=_build("dynamics", DynamicsSpec.from_config, doc["dynamics"]),
            grid=_build("grid", Grid.from_config, doc["grid"]),
            solver=doc["solver"],
            mc=doc["mc"],
            verify=doc["verify"],
            output_dir=doc["output"]["dir"],
            calibrate=doc.get("calibrate"),
            hash=config_hash(raw),
        )

    def apply_knob(self, knob_path, value):
        """Return a copy with the number at ``knob_path`` replaced (used by
        criticality calibration)."""
        raw = json.loads(json.dumps(self.raw))
        parent, last = _knob_target(raw, knob_path)
        parent[last] = float(value)
        return ExperimentConfig.from_dict(raw)


def load_config(path, seed=None):
    """The checked config of the JSON file at ``path``; a ``seed`` replaces
    ``mc.seed`` in the raw mapping (and so in the hash) before the check."""
    with open(path) as fh:
        raw = json.load(fh)
    if seed is not None and isinstance(raw, dict) and isinstance(raw.get("mc", {}), dict):
        raw.setdefault("mc", {})["seed"] = int(seed)
    return ExperimentConfig.from_dict(raw)
