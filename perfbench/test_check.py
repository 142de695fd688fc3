"""Tests of the benchmark's output check and trace self-check.

    python3 -m pytest -q perfbench

They build outputs in the format branchlab writes and need no simulation.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(HERE, "workloads.json")) as _fh:
    SPEC = json.load(_fh)
SUPER = SPEC["workloads"]["verify_super_jumps"]
CRITICAL = SPEC["workloads"]["verify_critical_driftedjump"]
VERIFY = ["verify", "--config", "configs/supercritical_jumps.json", "--threads", "2"]
VERIFY_CRITICAL = ["verify", "--config", "configs/critical_driftedjump.json"]


def _test(name, value, threshold, passed, inconclusive=False, **details):
    return {"name": name, "statistic": "s", "value": value, "threshold": threshold,
            "sample_size": 1, "passed": passed, "inconclusive": inconclusive, "details": details}


def _write(out_dir, doc):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "verification.json"), "w") as fh:
        json.dump({"config_hash": "0123456789abcdef", **doc}, fh, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "verification.txt"), "w") as fh:
        fh.write("# header\n[pass] first verdict\n")
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump({"wall_clock_s": 1.0}, fh)
    return out_dir


def write_super_output(out_dir, w_value=2.0, w_passed=True, w_inconclusive=False):
    """A verify output of verify_super_jumps that matches its references."""
    refs = {r["key"]: r["value"] for r in SUPER["references"]}
    targets = [refs[f"tests.name=supercritical-w-diagnostics.details.moment_targets.{i}"] for i in (0, 1)]
    return _write(out_dir, {
        "lambda0": refs["lambda0"],
        "lambda1": refs["lambda1"],
        "tests": [
            _test("supercritical-h-routes", 7e-8, 3e-6, True),
            _test("supercritical-factorization", 8e-15, 1e-4, True),
            _test("supercritical-w-diagnostics", w_value, 4.0, w_passed, w_inconclusive,
                  moment_targets=targets, moment_z=[0.5, 1.0]),
        ],
    })


def write_critical_output(out_dir, lln=(2.0, 3.0), yaglom_moment_z=(0.5, 1.0, 1.5)):
    """A verify output of verify_critical_driftedjump with the two
    critical-lln-ratio values ``lln``."""
    refs = {r["key"]: r["value"] for r in CRITICAL["references"]}
    return _write(out_dir, {
        "lambda0": refs["lambda0"],
        "lambda1": refs["lambda1"],
        "calibration": {"theta": refs["calibration.theta"]},
        "tests": [
            _test("critical-survival-asymptotic", 0.02, 0.03, True),
            _test("critical-ode-residual", 1e-4, 1e-3, True),
            _test("critical-yaglom-exponential", 0.05, 0.1, max(yaglom_moment_z) <= 4.0,
                  moment_z=list(yaglom_moment_z)),
            *(_test("critical-lln-ratio", z, 4.0, z <= 4.0) for z in lln),
            _test("critical-upsilon-law", 0.05, 0.1, True),
        ],
    })


def failed_commands(out_dir, code=0, first_dir=None, spec=SUPER, argv=VERIFY):
    per_command, soft = check.iteration_problems(spec, out_dir, [(argv, code, "")], first_dir)
    return sum(1 for p in per_command if p), soft


def test_clean_output_passes(tmp_path):
    out = write_super_output(str(tmp_path / "a"))
    assert failed_commands(out) == (0, 0)
    out = write_critical_output(str(tmp_path / "b"))
    assert failed_commands(out, spec=CRITICAL, argv=VERIFY_CRITICAL) == (0, 0)


def test_three_tampered_outputs_each_fail(tmp_path):
    out = write_super_output(str(tmp_path / "a"))
    failed = check.tampered_cases(SUPER, out, [(VERIFY, 0, "")], str(tmp_path))
    assert failed == {"rerun differs": 1, "lambda0 + 1e-3": 1, "FAIL verdict": 1}


def test_run_meta_is_not_compared(tmp_path):
    first = write_super_output(str(tmp_path / "a"))
    second = write_super_output(str(tmp_path / "b"))
    with open(os.path.join(second, "run_meta.json"), "w") as fh:
        json.dump({"wall_clock_s": 2.0}, fh)
    assert failed_commands(second, first_dir=first) == (0, 0)


def test_any_fail_outside_the_soft_list_is_failed(tmp_path):
    # a W-diagnostics FAIL is not soft on verify_super_jumps, however small
    out = write_super_output(str(tmp_path / "a"), w_value=4.1, w_passed=False)
    assert failed_commands(out, code=1) == (1, 0)


def test_soft_fail_within_factor_is_counted_not_failed(tmp_path):
    out = write_critical_output(str(tmp_path / "a"), lln=(3.0, 5.2))
    assert failed_commands(out, code=1, spec=CRITICAL, argv=VERIFY_CRITICAL) == (0, 1)
    # a FAIL verdict needs exit code 1
    assert failed_commands(out, code=0, spec=CRITICAL, argv=VERIFY_CRITICAL) == (1, 1)


def test_gross_soft_fail_is_failed(tmp_path):
    out = write_critical_output(str(tmp_path / "a"), lln=(3.0, 8.5))
    assert failed_commands(out, code=1, spec=CRITICAL, argv=VERIFY_CRITICAL)[0] == 1
    # the KS distance passes, but a moment z-score misses by more than 2x
    out = write_critical_output(str(tmp_path / "b"), yaglom_moment_z=(0.5, 9.0, 1.0))
    assert failed_commands(out, code=1, spec=CRITICAL, argv=VERIFY_CRITICAL)[0] == 1


def test_inconclusive_or_missing_verdict_is_failed(tmp_path):
    out = write_super_output(str(tmp_path / "a"), w_value=float("nan"), w_passed=False, w_inconclusive=True)
    assert failed_commands(out) == (1, 0)
    out = write_critical_output(str(tmp_path / "b"), lln=(2.0,))
    assert failed_commands(out, spec=CRITICAL, argv=VERIFY_CRITICAL) == (1, 0)


def test_traceback_and_missing_output_fail(tmp_path):
    out = write_super_output(str(tmp_path / "a"))
    per_command, _ = check.iteration_problems(SUPER, out, [(VERIFY, 0, "Traceback (most recent call last):\n")])
    assert per_command[0]
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    per_command, _ = check.iteration_problems(SUPER, empty, [(VERIFY, 1, "")])
    assert per_command[0]


# ----------------------------------------------------------------------
# trace self-check


def _span(name, t0, t1, parent=None, n=1, step=None):
    return [name, t0, t1, parent, n, step]


def _trace(extra_main=(), worker=()):
    main = [
        _span("cli.main", 0.0, 10.0),
        _span("config.load", 0.0, 0.1, (0, 0)),
        _span("cli.verify", 0.2, 9.9, (0, 0)),
        _span("semigroup.build_generator", 0.3, 0.4, (0, 2)),
        _span("semigroup.eigentriple", 0.4, 1.0, (0, 2)),
        *extra_main,
    ]
    return [[main, list(worker)]]


def _coverage(processes, spec):
    metrics, spans, children, self_time = tracing.layer_metrics(processes, 0, 0.0, 0)
    return metrics, tracing.coverage_problems(metrics, spans, children, self_time, spec)


PARTICLES = {"commands": [VERIFY], "particles": True, "calibrates": False}


def test_coverage_passes_on_threaded_ensemble():
    worker = [
        _span("branching.ensemble", 1.0, 9.0, (0, 2)),
        _span("rng.event", 1.0, 1.5, (1, 0), n=20000, step=0),
        _span("rng.event", 2.0, 2.5, (1, 0), n=60000, step=1),
        _span("rng.spawn_keys", 3.0, 3.1, (1, 0), n=5),
    ]
    main_ens = [
        _span("branching.ensemble", 1.0, 9.0, (0, 2)),
        _span("rng.event", 1.0, 1.2, (0, 5), n=100, step=0),
        _span("rng.event", 2.0, 2.2, (0, 5), n=50000, step=1),
    ]
    metrics, problems = _coverage(_trace(main_ens, worker), PARTICLES)
    assert problems == []
    assert metrics["branching.particle_steps"] == 130100
    # live particles summed over the two chunks at each step
    assert metrics["branching.peak_live"] == 110000
    assert metrics["branching.births"] == 5
    # each chunk's step goes to the bucket of the summed live population,
    # though no single chunk draws 1e5 events
    assert metrics["branching.particle_steps.ge1e5"] == 110000
    assert metrics["branching.ensemble_s.ge1e5"] == pytest.approx(14.0)
    assert metrics["branching.particle_steps.1e4_1e5"] == 20100
    assert metrics["branching.ensemble_s.1e4_1e5"] == pytest.approx(2.0)
    assert metrics["branching.particle_steps.lt1e4"] == 0
    # the main thread waits on the workers: not cli self time
    assert metrics["cli.self_s"] == pytest.approx(0.2 + 1.0)


def test_missed_binding_fails_coverage():
    _metrics, problems = _coverage(_trace(), PARTICLES)
    assert any("rng.draws" in p for p in problems)
    calibrated = {"commands": [VERIFY], "particles": False, "calibrates": True}
    _metrics, problems = _coverage(_trace([_span("moments.calibration", 0.3, 0.35, (0, 2), n=3)]), calibrated)
    assert any("eigentriple_calls" in p for p in problems)


def test_child_outside_parent_fails_coverage():
    bad = [_span("moments.solve_h", 1.0, 12.0, (0, 2))]
    _metrics, problems = _coverage(_trace(bad), {**PARTICLES, "particles": False})
    assert any("self time" in p for p in problems)


def test_label_nested_in_itself_counts_once():
    nested = [
        _span("moments.limits", 2.0, 4.0, (0, 2)),
        _span("moments.limits", 2.5, 3.0, (0, 5)),
    ]
    metrics, _problems = _coverage(_trace(nested), {**PARTICLES, "particles": False})
    assert metrics["moments.limits_s"] == pytest.approx(2.0)


def test_install_wraps_every_binding():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from branchlab import cli, moments, semigroup

    tracing.install()
    for module in (cli, semigroup):
        assert hasattr(module.principal_eigentriple, "__wrapped__")
    assert hasattr(cli.build_generator, "__wrapped__")
    assert hasattr(cli.validate_hypotheses, "__wrapped__")
    assert all(hasattr(fn, "__wrapped__") for fn in cli._COMMANDS.values())
    assert moments.Propagator is semigroup.Propagator
    assert hasattr(semigroup.Propagator.step_cn, "__wrapped__")
