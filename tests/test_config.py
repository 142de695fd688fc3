"""The config schema: every key typed, bounded and known in one table."""

import copy
import json
import math
import os
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from branchlab.cli import main
from branchlab.config import SCHEMA, ConfigError, ExperimentConfig
from branchlab.curves import FAMILIES

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")


def _load(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return json.load(fh)


SHIPPED = {name[:-5]: _load(name) for name in sorted(os.listdir(CONFIG_DIR)) if name.endswith(".json")}


def _has(raw, path):
    for part in path.split("."):
        if not isinstance(raw, dict) or part not in raw:
            return False
        raw = raw[part]
    return True


def _parent(raw, path):
    *parents, last = path.split(".")
    for part in parents:
        raw = raw[part]
    return raw, last


def test_shipped_configs_load():
    for name, raw in SHIPPED.items():
        cfg = ExperimentConfig.from_dict(copy.deepcopy(raw))
        assert cfg.raw == raw and cfg.name == name


def _constant(value):
    return {"family": "constant", "params": {"value": value}}


# (test id, path, value, the path its error names): malformed inputs that
# exit 2.  Every row names its id, so a row inserted above another renames
# no test; rows whose value is a mapping or a list keep the positional ids
# that pytest once gave them.
MALFORMED = [pytest.param(*row[1:], id=row[0]) for row in [
    ("verify.alpha-0-verify.alpha", "verify.alpha", 0, "verify.alpha"),
    ("verify.alpha-2-verify.alpha", "verify.alpha", 2, "verify.alpha"),
    ("verify.alpha-x-verify.alpha", "verify.alpha", "x", "verify.alpha"),
    # verify.t_mc is no key: verify's ensemble runs to the largest of mc.times
    ("verify.t_mc--1-verify.t_mc", "verify.t_mc", -1, "verify.t_mc"),
    ("verify.t_mc-20.01-verify.t_mc", "verify.t_mc", 20.01, "verify.t_mc"),
    ("verify.n_orders_mc-0-verify.n_orders_mc", "verify.n_orders_mc", 0, "verify.n_orders_mc"),
    ("verify.n_orders_mc-5-verify.n_orders_mc", "verify.n_orders_mc", 5, "verify.n_orders_mc"),
    ("verify.regime-sub-verify.regime", "verify.regime", "sub", "verify.regime"),
    ("mc.rep-30000-mc.rep", "mc.rep", 30000, "mc.rep"),
    ("solver.dtpde-0.005-solver.dtpde", "solver.dtpde", 0.005, "solver.dtpde"),
    ("grid.n_points-441.5-grid.n_points", "grid.n_points", 441.5, "grid.n_points"),
    ("calibrate-value11-calibrate.knob", "calibrate",
     {"knob": "model.b.params.nope", "bracket": [0.5, 1.5]}, "calibrate.knob"),
    ("calibrate-value12-calibrate.knob", "calibrate", {"knob": "name", "bracket": [0.5, 1.5]}, "calibrate.knob"),
    ("calibrate-value13-calibrate.bracket", "calibrate",
     {"knob": "model.b.params.value", "bracket": [1.5, 0.5]}, "calibrate.bracket"),
    ("calibrate-value14-calibrate.bracket", "calibrate",
     {"knob": "model.b.params.value", "bracket": [0.5, math.inf]}, "calibrate.bracket"),
    ("calibrate-value15-calibrate.tol", "calibrate",
     {"knob": "model.b.params.value", "bracket": [0.5, 1.5], "tol": 0}, "calibrate.tol"),
    ("mc.times-value16-mc.times", "mc.times", [14.01], "mc.times"),
    ("mc.times-value17-mc.times", "mc.times", [14.0, 14.01], "mc.times"),
    ("mc.dt-0.03-mc.times", "mc.dt", 0.03, "mc.times"),
    # removed families and keys: no shipped config used them
    ("model.b-value19-model.b", "model.b", {"family": "rational-bump", "params": {"amplitude": 1.0}}, "model.b"),
    ("model.d-value20-model.d", "model.d",
     {"family": "table", "params": {"xs": [0.0, 1.0], "ys": [1.0, 2.0]}}, "model.d"),
    ("dynamics.jump-value21-dynamics.jump.family", "dynamics.jump",
     {"family": "gaussian", "rate": _constant(1.0)}, "dynamics.jump.family"),
    ("dynamics.jump-value22-dynamics.jump.sigma", "dynamics.jump",
     {"family": "uniform-window", "rate": _constant(1.0), "width": 1.0, "sigma": 1.0}, "dynamics.jump.sigma"),
    ("solver.h_tol-1e-06-solver.h_tol", "solver.h_tol", 1e-6, "solver.h_tol"),
    ("solver.dt_report-1.0-solver.dt_report", "solver.dt_report", 1.0, "solver.dt_report"),
    ("verify.t_mc-20.0-verify.t_mc", "verify.t_mc", 20.0, "verify.t_mc"),
    # a curve is a {family, params} mapping: a bare number is no shorthand
    ("model.b-1.0-model.b", "model.b", 1.0, "model.b"),
    ("dynamics.jump-bare-rate-dynamics.jump.rate", "dynamics.jump",
     {"family": "uniform-window", "rate": 0.5, "width": 1.0}, "dynamics.jump.rate"),
]]


@pytest.mark.parametrize("command", ["validate", "simulate", "verify"])
@pytest.mark.parametrize("path, value, named", MALFORMED)
def test_malformed_key_exits_2_by_name(tmp_path, capsys, command, path, value, named):
    raw = copy.deepcopy(SHIPPED["critical_constant"])
    parent, last = _parent(raw, path)
    parent[last] = value
    with pytest.raises(ConfigError, match=re.escape(named)):
        ExperimentConfig.from_dict(raw)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err and "Traceback" not in err


def test_curve_errors_name_the_curve():
    raw = copy.deepcopy(SHIPPED["critical_constant"])
    raw["model"]["b"] = {"family": "constant", "params": {}}
    with pytest.raises(ConfigError, match=r"model\.b: curve parameter 'value' is missing"):
        ExperimentConfig.from_dict(raw)
    raw["model"]["b"] = {"family": "constant", "params": {"value": [1.0]}}
    with pytest.raises(ConfigError, match=r"config key model\.b: "):
        ExperimentConfig.from_dict(raw)


def test_constructor_errors_name_the_block():
    raw = copy.deepcopy(SHIPPED["critical_constant"])
    raw["grid"]["x_max"] = raw["grid"]["x_min"]
    with pytest.raises(ConfigError, match="grid block: grid needs x_min < x_max"):
        ExperimentConfig.from_dict(raw)


def test_defaults_fill_absent_blocks_and_keep_raw():
    raw = {
        "model": {"b": _constant(1.0), "d": _constant(1.0), "b_star": 1},
        "dynamics": {"variant": "diffusion", "a": _constant(0.0)},
        "grid": {"x_min": -2, "x_max": 2, "n_points": 41},
        "mc": {"times": [3.0, 2.0], "dt": 0.5},
    }
    snapshot = copy.deepcopy(raw)
    cfg = ExperimentConfig.from_dict(raw)
    assert raw == snapshot
    assert cfg.verify == {"regime": "auto", "alpha": 0.01, "n_orders_mc": 3}
    assert cfg.solver["n_store"] == 200 and cfg.mc["reps"] == 10_000
    assert cfg.calibrate is None and cfg.dynamics.jump is None and cfg.model.hd_constants == {}
    assert cfg.grid.boundary == "absorbing" and isinstance(cfg.grid.x_min, float)
    assert isinstance(cfg.model.b_star, float)


def test_defaults_meet_the_schema():
    """A default is checked as a given value is: the default mc.times must
    be whole mc.dt steps."""
    raw = {
        "model": {"b": _constant(1.0), "d": _constant(1.0), "b_star": 1},
        "dynamics": {"variant": "diffusion", "a": _constant(0.0)},
        "grid": {"x_min": -2, "x_max": 2, "n_points": 41},
        "mc": {"dt": 0.03},
    }
    with pytest.raises(ConfigError, match=re.escape("config key mc.times") + ".*got \\[1.0, 5.0\\]"):
        ExperimentConfig.from_dict(raw)


# what the shipped configs do not name, and why it stays
UNSHIPPED = {
    "verify.regime = auto": "the default, and what the CLI's --regime auto sets to override a config's regime",
}


def test_every_key_choice_and_curve_family_is_shipped():
    """Each schema key, each choice of a string key and each curve family
    is named by some shipped config, or UNSHIPPED says why it stays."""
    choices = {key.path: [c.strip() for c in key.bounds[1:-1].split(",")] for key in SCHEMA if key.bounds[:1] == "{"}
    wanted = {f"key {key.path}" for key in SCHEMA} | {f"curve family {f}" for f in FAMILIES}
    wanted |= {f"{path} = {c}" for path, values in choices.items() for c in values}
    named = set()
    for raw in SHIPPED.values():
        for key in (key for key in SCHEMA if _has(raw, key.path)):
            parent, last = _parent(raw, key.path)
            value = parent[last]
            named.add(f"key {key.path}")
            if key.kind == "curve":
                named.add(f"curve family {value['family'] if isinstance(value, dict) else 'constant'}")
            elif key.path in choices:
                named.add(f"{key.path} = {value}")
    assert wanted - named == set(UNSHIPPED), sorted((wanted - named) ^ set(UNSHIPPED))


def test_readme_reference_lists_the_schema():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("### Config reference", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    listed = [(cells[0].strip().strip("`"), cells[2].strip().strip("`")) for cells in rows]
    assert listed == [(key.path, key.bounds) for key in SCHEMA]


# ----------------------------------------------------------------------
# property: one mutated or renamed key loads, or fails naming that key

BAD_VALUES = ["x", "", True, None, [], {}, [1.0], math.nan, math.inf, -math.inf, 0, 0.0, -1, -1.0]


def _near_bounds(key):
    """Values at and just outside the numbers of a key's bounds."""
    values = []
    for text in re.findall(r"-?\d+(?:\.\d+)?(?:\^\d+)?", key.bounds):
        base, _, power = text.partition("^")
        n = int(base) ** int(power) if power else float(text)
        values += [n, n - 1, n + 1] if key.kind == "integer" else [n, n - 1e-9, n + 1e-9]
    if key.bounds.startswith("{"):
        values += [key.bounds[1:].split(",")[0] + "x"]
    return [[v] for v in values] if key.kind == "numbers" else values


@st.composite
def mutated(draw):
    """(raw, names): a shipped config with one schema key's value replaced
    or one key or block renamed, and the paths an error may name."""
    raw = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    keys = [key for key in SCHEMA if _has(raw, key.path)]
    if draw(st.booleans()):
        paths = sorted({".".join(k.path.split(".")[:n]) for k in keys for n in range(1, k.path.count(".") + 2)})
        path = draw(st.sampled_from(paths))
        parent, last = _parent(raw, path)
        new = draw(st.sampled_from([last[:-1], last + "s", last.upper(), "_" + last]))
        assume(new and new not in parent)
        parent[new] = parent.pop(last)
        return raw, (path, path.rsplit(".", 1)[0] + "." + new if "." in path else new)
    key = draw(st.sampled_from(keys))
    parent, last = _parent(raw, key.path)
    parent[last] = draw(st.sampled_from(BAD_VALUES + _near_bounds(key)))
    return raw, (key.path,)


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_config_loads_or_names_the_key(case):
    raw, names = case
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError as err:
        assert any(name in str(err) for name in names), (names, str(err))
