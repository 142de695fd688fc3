import csv
import json
import os
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from branchlab import cli
from branchlab.cli import main
from branchlab.config import ConfigError, ExperimentConfig, load_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def small_critical_config(tmp_path, reps=4000, seed=7734):
    with open(os.path.join(CONFIG_DIR, "critical_constant.json")) as fh:
        doc = json.load(fh)
    doc["solver"]["t_end"] = 60.0
    doc["solver"]["dt_pde"] = 0.01
    doc["mc"]["reps"] = reps
    doc["mc"]["seed"] = seed
    doc["mc"]["times"] = [14.0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_shipped_config_exit_zero(tmp_path, capsys):
    code = main(
        [
            "validate",
            "--config",
            os.path.join(CONFIG_DIR, "critical_constant.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "validation.json").exists()


def test_missing_config_key_names_path(tmp_path):
    one, zero = ({"family": "constant", "params": {"value": v}} for v in (1.0, 0.0))
    bad = {"model": {"b": one, "d": one}, "dynamics": {"variant": "diffusion", "a": zero}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code = main(["validate", "--config", str(p), "--out", str(tmp_path)])
    assert code == 2
    with pytest.raises(ConfigError, match="grid"):
        load_config(str(p))
    bad2 = {"model": {"b": one, "d": one}, "dynamics": {"variant": "diffusion", "a": zero}, "grid": {"x_min": -1.0}}
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps(bad2))
    with pytest.raises(ConfigError):
        load_config(str(p2))


def test_output_dir_under_a_file_is_an_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = os.path.join(CONFIG_DIR, "critical_constant.json")
    assert main(["validate", "--config", cfg, "--out", str(blocker / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err and "Traceback" not in err
    # an unreadable config stays a config error
    assert main(["validate", "--config", str(blocker / "cfg.json"), "--out", str(tmp_path / "o")]) == 2


def test_missing_artifacts_dir_is_an_error(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = os.path.join(CONFIG_DIR, "critical_constant.json")
    assert main(["report", "--config", cfg, "--out", str(out), "--artifacts", str(tmp_path / "missing")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err and "Traceback" not in err
    assert not (out / "run_meta.json").exists()


def test_eigensolver_failure_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    def no_convergence(A, k, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((A.shape[0], 0)))

    monkeypatch.setattr(spla, "eigs", no_convergence)
    cfg = os.path.join(CONFIG_DIR, "critical_driftedjump.json")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: shift-invert Arnoldi failed on n = 441, sigma = ") and "Traceback" not in err


def test_run_meta_records_peak_rss_of_successful_commands(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "critical_constant.json")
    out = tmp_path / "ok"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["command"] == "validate" and meta["peak_rss_mb"] > 0
    # the report collates data files, not the sidecar
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    assert "run_meta.json" not in (out / "report.md").read_text()
    assert json.loads((out / "report.json").read_text())["artifacts"] == ["validation.json"]
    # a failed command writes no sidecar: test_missing_artifacts_dir_is_an_error


def test_spectrum_outputs(tmp_path):
    cfg = small_critical_config(tmp_path)
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    doc = json.loads((tmp_path / "o" / "spectral.json").read_text())
    assert abs(doc["lambda0"]) < 1e-6
    assert "config_hash" in doc and "seed" in doc and "version" in doc
    lines = (tmp_path / "o" / "eigenfunction.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].split(",")[:2] == ["x", "theta0"]


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = small_critical_config(tmp_path, reps=2000)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "trajectories.csv").read_bytes())
        # the sidecar with wall-clock is present but not part of the data
        assert (out / "run_meta.json").exists()
    assert outs[0] == outs[1]
    ja = json.loads((tmp_path / "a" / "simulation.json").read_text())
    jb = json.loads((tmp_path / "b" / "simulation.json").read_text())
    assert ja == jb


def test_threads_do_not_change_results(tmp_path):
    cfg = small_critical_config(tmp_path, reps=3000)
    a = tmp_path / "t1"
    b = tmp_path / "t4"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--threads", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--threads", "4"]) == 0
    for name in ("trajectories.csv", "simulation.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_override_changes_mc_only(tmp_path):
    cfg = small_critical_config(tmp_path, reps=2000)
    a = tmp_path / "s1"
    b = tmp_path / "s2"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--seed", "111"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "222"]) == 0
    assert (a / "trajectories.csv").read_bytes() != (b / "trajectories.csv").read_bytes()


def test_verify_critical_small(tmp_path):
    cfg = small_critical_config(tmp_path, reps=20_000)
    out = tmp_path / "v"
    code = main(["verify", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "verification.json").read_text())
    assert doc["regime"] == "critical"
    names = {t["name"] for t in doc["tests"]}
    assert "critical-yaglom-exponential" in names
    assert all(t["passed"] or t["inconclusive"] for t in doc["tests"])
    assert (out / "verification.txt").exists()


def test_verify_regime_mismatch_fails(tmp_path, capsys):
    cfg = small_critical_config(tmp_path, reps=2000)
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "m"), "--regime", "super"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: requested regime 'supercritical' but spectral data is critical")


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--threads", "2"],
        ["spectrum", "--regime", "critical"],
        ["simulate", "--regime", "auto"],
        ["simulate", "--threads", "0"],
        ["verify", "--threads", "-1"],
        ["verify", "--threads", "two"],
        ["verify", "--regime", "hyper"],
    ],
)
def test_flags_outside_their_commands_or_range_are_usage_errors(tmp_path, capsys, argv):
    cfg = small_critical_config(tmp_path, reps=100)
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", cfg, "--out", str(tmp_path / "o")] + argv[1:])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_regime_auto_overrides_the_config_regime(tmp_path, monkeypatch, capsys):
    """--regime auto takes the computed regime even where the config
    declares another; without the flag the config's regime must match."""
    path = small_critical_config(tmp_path, reps=100)
    with open(path) as fh:
        doc = json.load(fh)
    doc["verify"]["regime"] = "supercritical"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    monkeypatch.setattr(cli.analysis, "verify_suite", lambda cfg, gen, spec, threads: ([], {}))
    assert main(["verify", "--config", path, "--out", str(tmp_path / "a"), "--regime", "auto"]) == 0
    assert json.loads((tmp_path / "a" / "verification.json").read_text())["regime"] == "critical"
    assert main(["verify", "--config", path, "--out", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err.startswith("error: requested regime 'supercritical' but spectral data is critical")


def test_regime_flag_expands_aliases():
    parser = cli.build_parser()
    for flag, want in [("auto", "auto"), ("sub", "subcritical"), ("super", "supercritical"),
                       ("critical", "critical"), ("supercritical", "supercritical")]:
        args = parser.parse_args(["verify", "--config", "c.json", "--regime", flag])
        assert args.regime == want
    assert parser.parse_args(["verify", "--config", "c.json"]).regime is None


def test_ensemble_chunks_per_thread_on_at_most_one_worker_per_cpu(tmp_path, monkeypatch):
    """--threads sets the chunk count; the pool never exceeds the CPUs, and
    neither number changes the result."""
    from concurrent.futures import ThreadPoolExecutor

    from branchlab import branching

    cfg = load_config(small_critical_config(tmp_path, reps=40))
    bank = {"one": np.ones(cfg.grid.n_points)}
    ref = branching.run_ensemble(cfg, [2.0], bank, threads=1)

    workers, chunks = [], []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    simulate = branching.simulate_ensemble

    def counted(*args, **kwargs):
        chunks.append(kwargs["rep_offset"])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(branching, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(branching, "simulate_ensemble", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    res = branching.run_ensemble(cfg, [2.0], bank, threads=4)
    assert workers == [2] and sorted(chunks) == [0, 10, 20, 30]
    for name in ("counts", "max_abs"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name
    assert np.array_equal(res.functionals["one"], ref.functionals["one"])
    assert res.reps == ref.reps == 40


def test_large_thread_count_starts_at_most_one_worker_per_cpu(tmp_path, monkeypatch):
    """--threads 5000 on 10^4 replicas asks the pool for os.cpu_count()
    workers; the recording pool starts no thread and runs nothing."""
    from branchlab import branching

    class Started(Exception):
        pass

    workers = []

    class Recording:
        def __init__(self, max_workers):
            workers.append(max_workers)
            raise Started

    monkeypatch.setattr(branching, "ThreadPoolExecutor", Recording)
    cfg = small_critical_config(tmp_path, reps=10_000)
    with pytest.raises(Started):
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "5000"])
    assert workers == [os.cpu_count() or 1]


def _small_verify_config(tmp_path, name, reps, t_end, t_mc):
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
        doc = json.load(fh)
    doc["solver"]["t_end"] = t_end
    doc["mc"]["reps"] = reps
    doc["mc"]["times"] = [t_mc]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "name, reps, t_end, t_mc, verdicts",
    [
        ("subcritical_constant", 3000, 20.0, 3.0,
         ["subcritical-K-floor", "subcritical-hamburger-bound", "subcritical-yaglom-moments"]),
        ("supercritical_constant", 600, 8.0, 5.0,
         ["supercritical-h-routes", "supercritical-factorization", "supercritical-w-diagnostics"]),
    ],
)
def test_verify_sub_and_supercritical_small(tmp_path, capsys, name, reps, t_end, t_mc, verdicts):
    """The battery's structure, not its outcome: verdict names in order, an
    exit code that follows them, and no dependence on --threads."""
    cfg = _small_verify_config(tmp_path, name, reps, t_end, t_mc)
    docs = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}"
        code = main(["verify", "--config", cfg, "--out", str(out), "--threads", threads])
        docs.append((out / "verification.json").read_bytes())
        doc = json.loads(docs[-1])
        assert [t["name"] for t in doc["tests"]] == verdicts
        failed = any(not t["passed"] and not t["inconclusive"] for t in doc["tests"])
        assert code == (1 if failed else 0)
        assert "error" not in capsys.readouterr().err
    assert docs[0] == docs[1]


def test_h_routes_disagreement_fails_verify_and_survive(tmp_path, capsys, monkeypatch):
    """A Newton h 1e-5 off the survival route's: verify writes the
    supercritical-h-routes verdict as FAIL and exits 1, and survive exits 1."""
    from branchlab import moments

    newton = moments._newton_h

    def shifted(generator, b_vals):
        h, steps = newton(generator, b_vals)
        return h + 1e-5, steps

    monkeypatch.setattr(moments, "_newton_h", shifted)
    cfg = _small_verify_config(tmp_path, "supercritical_constant", 600, 8.0, 5.0)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 1
    doc = json.loads((tmp_path / "v" / "verification.json").read_text())
    routes = doc["tests"][0]
    assert routes["name"] == "supercritical-h-routes" and not routes["passed"]
    assert routes["value"] == pytest.approx(1e-5, rel=0.3)
    assert routes["threshold"] == moments.H_ROUTES_TOL < routes["value"]
    assert "[FAIL] supercritical-h-routes" in capsys.readouterr().out
    assert main(["survive", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: h routes disagree by ") and "Traceback" not in err
    assert not (tmp_path / "s" / "h.csv").exists()


def test_survive_and_moments_and_report(tmp_path):
    with open(os.path.join(CONFIG_DIR, "supercritical_constant.json")) as fh:
        doc = json.load(fh)
    doc["solver"]["t_end"] = 12.0
    doc["mc"]["reps"] = 500
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "art"
    assert main(["survive", "--config", str(p), "--out", str(out)]) == 0
    surv = json.loads((out / "survival.json").read_text())
    assert surv["regime"] == "supercritical"
    assert abs(surv["h_sup"] - 0.5) < 1e-4
    assert main(["moments", "--config", str(p), "--out", str(out)]) == 0
    lim = json.loads((out / "limits.json").read_text())
    assert "V_plus_theta0_at_x0" in lim
    assert main(["report", "--config", str(p), "--out", str(out)]) == 0
    md = (out / "report.md").read_text()
    assert "survival.json" in md and "limits.json" in md


def test_config_hash_stable_and_knob():
    cfg = load_config(os.path.join(CONFIG_DIR, "critical_constant.json"))
    assert cfg.hash == ExperimentConfig.from_dict(cfg.raw).hash
    bumped = cfg.apply_knob("model.b.params.value", 1.25)
    assert bumped.model.b(0.0) == 1.25
    assert bumped.hash != cfg.hash


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("BRANCHLAB_OUT_ROOT", str(tmp_path / "root"))
    cfg = small_critical_config(tmp_path, reps=500)
    assert main(["spectrum", "--config", cfg]) == 0
    assert (tmp_path / "root" / "critical_constant" / "spectral.json").exists()


def test_verify_emits_plot_data(tmp_path):
    cfg = small_critical_config(tmp_path, reps=20_000)
    out = tmp_path / "pd"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    r_lines = (out / "r_series.csv").read_text().splitlines()
    assert r_lines[1].split(",") == ["time", "r", "scaled_r"]
    cdf_lines = (out / "yaglom_cdf.csv").read_text().splitlines()
    assert cdf_lines[1].split(",")[0] == "normalized_mass"
    assert len(cdf_lines) > 100


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_is_a_config_error(tmp_path, capsys, seed):
    cfg = small_critical_config(tmp_path, reps=100)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", str(seed)])
    assert code == 2
    err = capsys.readouterr().err
    assert "mc.seed" in err and "Traceback" not in err
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["mc"]["seed"] = seed
    p = tmp_path / "seeded.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="mc.seed"):
        load_config(str(p))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("reps", 0), ("reps", 1), ("reps", 2.5), ("reps", "10"), ("reps", -5), ("reps", True),
        ("dt", 0), ("dt", -0.01), ("cutoff_m", -1), ("cutoff_m", 0),
        ("times", []), ("times", [-1.0]), ("times", 5.0), ("times", [1.0, "2"]),
        ("x0", "a"), ("x0", None), ("x0", True), ("x0", [0.0]), ("x0", float("nan")), ("x0", float("inf")),
    ],
)
def test_bad_mc_value_is_a_config_error(tmp_path, capsys, key, value):
    with open(small_critical_config(tmp_path, reps=100)) as fh:
        doc = json.load(fh)
    doc["mc"][key] = value
    p = tmp_path / "bad_mc.json"
    p.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"mc.{key}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("dt_pde", 0), ("dt_pde", -0.01), ("dt_pde", "0.01"), ("dt_pde", None), ("dt_pde", float("inf")),
        ("t_end", 0), ("t_end", -1.0), ("t_end", True), ("t_end", float("nan")),
        # h_tol and dt_report are no keys: their values are moments._H_TOL
        # and semigroup._EDGE_KILLING
        ("h_tol", 0), ("h_tol", -1e-6), ("h_tol", "1e-6"), ("h_tol", 1e-6), ("dt_report", 1.0),
        ("n_store", 0), ("n_store", 2.5), ("n_store", True), ("n_store", "200"),
        ("n_orders", 0), ("n_orders", -1), ("n_orders", 3.0), ("n_orders", False),
    ],
)
def test_bad_solver_value_is_a_config_error(tmp_path, capsys, key, value):
    with open(small_critical_config(tmp_path, reps=100)) as fh:
        doc = json.load(fh)
    doc["solver"][key] = value
    p = tmp_path / "bad_solver.json"
    p.write_text(json.dumps(doc))
    code = main(["moments", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"solver.{key}" in err and "Traceback" not in err


def test_population_cap_is_a_hard_failure(tmp_path, capsys, monkeypatch):
    from branchlab import branching

    with open(os.path.join(CONFIG_DIR, "supercritical_constant.json")) as fh:
        doc = json.load(fh)
    doc["mc"]["reps"] = 200
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    monkeypatch.setattr(branching, "MEMORY_BUDGET", 100 * branching.BYTES_PER_PARTICLE)
    code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "particles" in err and "Traceback" not in err


def test_verify_bracket_without_sign_change_fails_cleanly(tmp_path, capsys):
    with open(os.path.join(CONFIG_DIR, "critical_oscillator.json")) as fh:
        doc = json.load(fh)
    doc["calibrate"]["bracket"] = [0.8, 0.9]  # supercritical at both ends
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    code = main(["verify", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "does not change sign" in err and "Traceback" not in err


def test_calibration_that_reaches_max_iter_fails_cleanly(tmp_path, capsys, monkeypatch):
    with open(os.path.join(CONFIG_DIR, "critical_oscillator.json")) as fh:
        doc = json.load(fh)
    # lambda0 bottoms out at ~1e-14 on this grid, so the search runs on
    # until the iteration limit stops it
    doc["calibrate"]["tol"] = 1e-16
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    monkeypatch.setattr(cli.mom, "_BRENT_MAX_ITER", 2)
    code = main(["spectrum", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no root of lambda0 on [0.5, 0.9] after 2 iterations") and "Traceback" not in err
    assert "(4 evaluations, last at 0.70708" in err


def test_calibrated_model_computes_one_eigentriple_per_history_entry_plus_one(monkeypatch):
    """The contract perfbench's tracer counts by: calibrate_criticality
    returns (theta, lambda0, history), and a calibrating command computes
    one eigentriple per history entry plus the calibrated model's own."""
    from branchlab import semigroup

    calls, results = [], []
    eigentriple = semigroup.principal_eigentriple

    def counted(*a, **k):
        calls.append(1)
        return eigentriple(*a, **k)

    calibrate = cli.mom.calibrate_criticality

    def recorded(*a, **k):
        results.append(calibrate(*a, **k))
        return results[-1]

    monkeypatch.setattr(semigroup, "principal_eigentriple", counted)
    monkeypatch.setattr(cli, "principal_eigentriple", counted)
    monkeypatch.setattr(cli.mom, "calibrate_criticality", recorded)
    _, cal, _, _ = cli._calibrated_model(load_config(os.path.join(CONFIG_DIR, "critical_oscillator.json")))
    (result,) = results
    assert isinstance(result, tuple) and len(result) == 3
    theta, lam0, history = result
    assert len(calls) == len(history) + 1 == cal["evaluations"] + 1
    assert (theta, lam0) in history and cal["theta"] == theta


def test_cli_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    """A fresh interpreter that imports the CLI loads neither scipy.stats,
    scipy.interpolate nor scipy.optimize, and a calibrating command leaves
    them unloaded."""
    code = textwrap.dedent(
        f"""
        import sys
        import branchlab.cli
        heavy = [m for m in ("scipy.stats", "scipy.interpolate", "scipy.optimize") if m in sys.modules]
        assert not heavy, heavy
        config = {os.path.join(CONFIG_DIR, "critical_oscillator.json")!r}
        assert branchlab.cli.main(["spectrum", "--config", config, "--out", {str(tmp_path / "o")!r}]) == 0
        heavy = [m for m in ("scipy.interpolate", "scipy.optimize") if m in sys.modules]
        assert not heavy, heavy
        """
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_spectrum_writes_the_fitted_H(tmp_path):
    from branchlab.semigroup import build_generator, fit_H, principal_eigentriple

    path = small_critical_config(tmp_path)
    assert main(["spectrum", "--config", path, "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "spectral.json").read_text())
    cfg = load_config(path)
    gen = build_generator(cfg.model, cfg.dynamics, cfg.grid)
    spec = principal_eigentriple(gen, cfg.model)
    assert spec.H is None
    assert doc["H"] == fit_H(gen, spec, cfg.solver["dt_pde"])


def test_survive_marches_u0_once(tmp_path, monkeypatch):
    """survive marches the survival equation from t = 0 once, in its survey;
    the u0 route of h only continues that march, with CN steps alone."""
    from branchlab import moments, semigroup

    phase = ["other"]
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            key = (phase[0], name)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def in_phase(label, fn):
        def wrapper(*args, **kwargs):
            outer, phase[0] = phase[0], label
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer

        return wrapper

    monkeypatch.setattr(semigroup.Propagator, "step_cn", counted("cn", semigroup.Propagator.step_cn))
    monkeypatch.setattr(semigroup.Propagator, "step_be_half", counted("be", semigroup.Propagator.step_be_half))
    monkeypatch.setattr(moments, "solve_survival", counted("survival", in_phase("survey", moments.solve_survival)))
    monkeypatch.setattr(moments, "solve_h", in_phase("route", moments.solve_h))
    cfg_path = os.path.join(CONFIG_DIR, "supercritical_constant.json")
    assert main(["survive", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    survey = calls[("survey", "cn")] + calls.get(("survey", "be"), 0)
    continuation = calls[("route", "cn")]
    assert calls[("other", "survival")] == 1 and ("route", "survival") not in calls
    assert ("route", "be") not in calls  # no restart from the initial data
    assert sum(calls[k] for k in calls if k[1] in ("cn", "be")) == survey + continuation

    # the route without the survey marches u0 again from t = 0
    calls.clear()
    cfg = load_config(cfg_path)
    _cfg, _cal, gen, spec = cli._calibrated_model(cfg)
    fresh = moments.solve_h(cfg.model, gen, spec, dt_pde=cfg.solver["dt_pde"])
    assert calls[("route", "survival")] == 1 and calls[("survey", "be")] > 0
    assert calls[("survey", "cn")] + calls.get(("route", "cn"), 0) > continuation
    h_csv = np.loadtxt(tmp_path / "o" / "h.csv", delimiter=",", skiprows=2)
    assert np.array_equal(h_csv[:, 1], fresh.h)
    assert np.max(np.abs(h_csv[:, 2] - fresh.h_u0_route)) <= 3.0 * moments._H_TOL


def _reference_csv(path, cfg, header, rows):
    """The CSV writer as it was when rows held numpy scalars."""
    with open(path, "w", newline="") as fh:
        fh.write(cli._meta_line(cfg) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def test_csv_rows_match_the_numpy_scalar_reference(tmp_path, monkeypatch):
    """moments.csv, u0.csv and h.csv are the bytes that indexing numpy
    scalars element by element wrote, including -0.0, 1e-20 and tiny
    subnormal values."""
    with open(os.path.join(CONFIG_DIR, "supercritical_constant.json")) as fh:
        doc = json.load(fh)
    doc["grid"]["n_points"] = 41
    doc["solver"]["t_end"] = 2.0
    doc["solver"]["n_store"] = 40
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    cfg = load_config(str(p))
    odd = [-0.0, 1e-20, 5e-324, -1.5e300, 0.1 + 0.2]
    seen = {}

    def spiked(fn, key, fields):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for arr in fields(result):
                arr.flat[: len(odd)] = odd
            seen[key] = result
            return result

        return wrapper

    # the CLI sees spiked solvers; the solvers' own calls to each other do not
    mom = types.SimpleNamespace(**vars(cli.mom))
    mom.solve_moments = spiked(cli.mom.solve_moments, "moments", lambda r: r.fields.values())
    mom.solve_survival = spiked(cli.mom.solve_survival, "u0", lambda r: [r.fields[0]])
    mom.solve_h = spiked(cli.mom.solve_h, "h", lambda r: [r.h, r.h_u0_route])
    monkeypatch.setattr(cli, "mom", mom)
    out = tmp_path / "o"
    assert main(["moments", "--config", str(p), "--out", str(out)]) == 0
    assert main(["survive", "--config", str(p), "--out", str(out)]) == 0

    ref = tmp_path / "ref"
    ref.mkdir()
    field = seen["moments"]
    rows = []
    stride = max(1, len(field.times) // 50)
    for k in range(0, len(field.times), stride):
        for n in field.orders:
            for j, x in enumerate(field.nodes):
                rows.append((field.times[k], x, n, field.fields[n][k][j]))
    _reference_csv(ref / "moments.csv", cfg, ["time", "node", "order", "value"], rows)
    u0f = seen["u0"]
    rows = []
    stride = max(1, len(u0f.times) // 100)
    for k in range(0, len(u0f.times), stride):
        for j, x in enumerate(u0f.nodes):
            rows.append((u0f.times[k], x, u0f.fields[0][k][j]))
    _reference_csv(ref / "u0.csv", cfg, ["time", "node", "u0"], rows)
    hres = seen["h"]
    _reference_csv(ref / "h.csv", cfg, ["x", "h", "h_u0_route"], zip(u0f.nodes, hres.h, hres.h_u0_route))

    for name in ("moments.csv", "u0.csv", "h.csv"):
        got = (out / name).read_bytes()
        assert got == (ref / name).read_bytes(), name
    text = (out / "moments.csv").read_text()
    assert ",-0.0\n" in text and ",1e-20\n" in text and ",5e-324\n" in text
    assert ",1,-0.0\n" in text and ",3,-0.0\n" in text  # orders written as integers

    # the writer itself, on every kind of column it takes: arrays, lists of
    # Python and numpy scalars, ranges, repeated scalars and preformatted text
    vals = np.array([-0.0, 1e-20, 5e-324, -1.5e300, np.nan, np.inf, -np.inf, 0.1 + 0.2, 7.0])
    ints = np.array([0, -3, 2**62, 5, 1, 0, 12, 7, 9])
    blocks = [
        (2.5, vals, ints, list(vals), range(9)),
        (np.float64(-0.0), list(ints), [np.float64(v) for v in vals[::-1]], 3, "0.25"),
        (float("nan"), np.array([]), [], 1, 2),
    ]
    rows = [
        row
        for block in blocks
        for row in zip(*(col if isinstance(col, (np.ndarray, list, range)) else [col] * len(block[1]) for col in block))
    ]
    cli._write_csv(out / "writer.csv", cfg, list("abcde"), blocks)
    _reference_csv(ref / "writer.csv", cfg, list("abcde"), rows)
    assert (out / "writer.csv").read_bytes() == (ref / "writer.csv").read_bytes()
    text = (out / "writer.csv").read_text()
    assert ",nan," in text and ",inf," in text and ",-inf," in text and "\n-0.0,-3," in text


@pytest.mark.parametrize("name, halved", [("supercritical_constant", False), ("supercritical_oscillator", True)])
def test_survival_json_names_the_step_of_the_survival_march(tmp_path, name, halved):
    """The oscillator's survival march trips its positivity guard at the
    configured dt_pde and runs at half of it; survival.json says so."""
    path = os.path.join(CONFIG_DIR, f"{name}.json")
    dt_pde = load_config(path).solver["dt_pde"]
    assert main(["survive", "--config", path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "survival.json").read_text())
    assert doc["survival_dt_pde"] == (dt_pde / 2.0 if halved else dt_pde)
