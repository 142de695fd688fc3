import json
import os

import numpy as np
import pytest

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
    bad = {"model": {"b": 1.0, "d": 1.0}, "dynamics": {"variant": "diffusion", "a": 0.0}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code = main(["validate", "--config", str(p), "--out", str(tmp_path)])
    assert code == 2
    with pytest.raises(ConfigError, match="grid"):
        load_config(str(p))
    bad2 = {"model": {"b": 1.0, "d": 1.0}, "dynamics": {"variant": "diffusion", "a": 0.0}, "grid": {"x_min": -1.0}}
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps(bad2))
    with pytest.raises(ConfigError):
        load_config(str(p2))


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
    assert (a / "trajectories.csv").read_bytes() == (b / "trajectories.csv").read_bytes()


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


def test_verify_regime_mismatch_fails(tmp_path):
    cfg = small_critical_config(tmp_path, reps=2000)
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "m"), "--regime", "super"])
    assert code == 1


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
