"""Configuration-driven orchestration.

Pipeline commands: validate -> spectrum -> moments / survive -> simulate ->
verify -> report.  Every data output carries the config hash, seed and tool
version in its header; wall-clock timing goes to a sidecar run_meta.json so
data files stay byte-identical across reruns with the same config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat

import numpy as np

from . import __version__, analysis, branching, moments as mom
from .config import ConfigError, ExperimentConfig, load_config
from .model import validate_hypotheses
from .semigroup import build_generator, fit_H, hp4_edge_decay, principal_eigentriple

EXIT_OK = 0
EXIT_HARD_FAIL = 1
EXIT_VALIDATION = 2


# ----------------------------------------------------------------------
# output plumbing


def _meta_line(cfg):
    return (
        f"# config_hash={cfg.hash} seed={cfg.mc['seed']} dt={cfg.mc['dt']} "
        f"dt_pde={cfg.solver['dt_pde']} version={__version__}"
    )


def _out_dir(cfg, args):
    if args.out:
        base = args.out
    else:
        root = os.environ.get("BRANCHLAB_OUT_ROOT")
        base = os.path.join(root, cfg.name) if root else cfg.output_dir
    os.makedirs(base, exist_ok=True)
    return base


def _write_csv(path, cfg, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(_meta_line(cfg) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, cfg, payload):
    doc = {
        "config_hash": cfg.hash,
        "seed": cfg.mc["seed"],
        "version": __version__,
        **payload,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_meta(out, command, elapsed):
    with open(os.path.join(out, "run_meta.json"), "w") as fh:
        json.dump(
            {"command": command, "wall_clock_s": elapsed, "finished_unix": time.time()},
            fh,
            indent=2,
        )
        fh.write("\n")


# ----------------------------------------------------------------------
# shared computation steps


def _spectral(cfg):
    gen = build_generator(cfg.model, cfg.dynamics, cfg.grid, dt_report=cfg.solver["dt_report"])
    spec = principal_eigentriple(gen, cfg.model)
    return gen, spec


def _maybe_calibrate(cfg):
    """Apply the criticality calibration block, if present."""
    if not cfg.calibrate:
        return cfg, None
    knob = cfg.calibrate["knob"]
    bracket = cfg.calibrate["bracket"]
    tol = float(cfg.calibrate.get("tol", 1e-6))

    def factory(theta):
        return cfg.apply_knob(knob, theta).model

    theta, lam0, history = mom.calibrate_criticality(
        factory, bracket, cfg.dynamics, cfg.grid, tol=tol, dt_report=cfg.solver["dt_report"]
    )
    return cfg.apply_knob(knob, theta), {"knob": knob, "theta": theta, "lambda0": lam0, "evaluations": len(history)}


def _run_mc(cfg, record_times, functionals=None, threads=1, reps=None, **kwargs):
    """Chunked ensemble run; per-replica streams are indexed globally, so
    the concatenated output is identical for any thread count."""
    reps = reps if reps is not None else int(cfg.mc["reps"])
    cutoff = branching.CutoffSpec(m=float(cfg.mc["cutoff_m"]))
    # a reflecting solver grid means the trait process itself reflects
    reflect = (cfg.grid.x_min, cfg.grid.x_max) if cfg.grid.boundary == "reflecting" else None
    common = dict(
        reflect_at=reflect,
        x0=float(cfg.mc["x0"]),
        t_end=float(max(record_times)),
        dt=float(cfg.mc["dt"]),
        model=cfg.model,
        dyn=cfg.dynamics,
        cutoff=cutoff,
        seed=int(cfg.mc["seed"]),
        record_times=record_times,
        functionals=functionals,
        **kwargs,
    )
    if threads <= 1 or reps < 2 * threads:
        return branching.simulate_ensemble(reps=reps, **common)
    chunk = math.ceil(reps / threads)
    offsets = [(i * chunk, min(chunk, reps - i * chunk)) for i in range(threads) if i * chunk < reps]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(
            pool.map(
                lambda ov: branching.simulate_ensemble(reps=ov[1], rep_offset=ov[0], **common),
                offsets,
            )
        )
    first = parts[0]
    return branching.EnsembleResult(
        times=first.times,
        counts=np.concatenate([p.counts for p in parts], axis=1),
        functionals={
            name: np.concatenate([p.functionals[name] for p in parts], axis=1)
            for name in first.functionals
        },
        max_abs=np.concatenate([p.max_abs for p in parts], axis=1),
        tm_first=np.concatenate([p.tm_first for p in parts]),
        seed=first.seed,
        dt=first.dt,
        x0=first.x0,
        cutoff_m=first.cutoff_m,
        reps=reps,
        traits_at={},
        forest=None,
        history_rep_limit=0,
    )


# ----------------------------------------------------------------------
# commands


def cmd_validate(cfg, args):
    out = _out_dir(cfg, args)
    report = validate_hypotheses(cfg.model, cfg.dynamics, cfg.grid)
    _write_json(os.path.join(out, "validation.json"), cfg, report.to_dict())
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        extra = f"  ({check.detail})" if check.detail else ""
        print(f"[{status}] {check.name}{extra}")
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def cmd_spectrum(cfg, args):
    out = _out_dir(cfg, args)
    cfg, cal = _maybe_calibrate(cfg)
    gen, spec = _spectral(cfg)
    spec.H = fit_H(gen, spec, cfg.solver["dt_pde"])
    payload = spec.to_dict()
    if cal:
        payload["calibration"] = cal
    if cfg.grid.boundary == "absorbing":
        payload["edge_decay"] = hp4_edge_decay(gen, 1.0, dt_pde=cfg.solver["dt_pde"])
    _write_json(os.path.join(out, "spectral.json"), cfg, payload)
    rho = gen.rho if gen.rho is not None else np.full(cfg.grid.n_points, np.nan)
    _write_csv(
        os.path.join(out, "eigenfunction.csv"),
        cfg,
        ["x", "theta0", "mu0", "rho"],
        zip(cfg.grid.nodes, spec.theta0, spec.mu0, rho),
    )
    print(
        f"lambda0 = {spec.lambda0:.8g}  lambda1 = {spec.lambda1:.8g}  "
        f"A = {spec.A:.6g}  B = {spec.B:.6g}  H = {spec.H:.4g}  regime = {spec.regime()}"
    )
    return EXIT_OK


def _f_bank(cfg, spec):
    xs = cfg.grid.nodes
    return {
        "one": np.ones(len(xs)),
        "theta0": spec.theta0.copy(),
        "bump": np.exp(-0.5 * (xs - float(cfg.mc["x0"])) ** 2),
    }


def cmd_moments(cfg, args):
    out = _out_dir(cfg, args)
    cfg, _cal = _maybe_calibrate(cfg)
    gen, spec = _spectral(cfg)
    n_orders = int(cfg.solver["n_orders"])
    t_end = float(cfg.solver["t_end"])
    field = mom.solve_moments(
        np.ones(cfg.grid.n_points),
        n_orders,
        t_end,
        gen,
        cfg.model,
        dt_pde=cfg.solver["dt_pde"],
        n_store=cfg.solver["n_store"],
    )
    # rows of Python floats: csv writes each with repr, as it did numpy's
    nodes = field.nodes.tolist()
    rows = []
    stride = max(1, len(field.times) // 50)
    for k in range(0, len(field.times), stride):
        t = field.times[k].item()
        for n in field.orders:
            rows.extend(zip(repeat(t), nodes, repeat(n), field.fields[n][k].tolist()))
    _write_csv(os.path.join(out, "moments.csv"), cfg, ["time", "node", "order", "value"], rows)

    regime = spec.regime()
    limits = {"regime": regime, "lambda0": spec.lambda0, "A": spec.A, "B": spec.B}
    if regime == "critical":
        V = mom.critical_limits(spec, cfg.model, n_orders)
        limits["V_critical_at_x0"] = {
            n: float(np.interp(cfg.mc["x0"], field.nodes, V[n])) for n in V
        }
    elif regime == "subcritical":
        u0f = mom.solve_survival(
            t_end, gen, cfg.model, dt_pde=cfg.solver["dt_pde"], n_store=cfg.solver["n_store"]
        )
        sub = mom.subcritical_limits(spec, cfg.model, field, u0f, n_orders)
        limits["V_minus"] = {n: float(v) for n, v in sub["V"].items()}
        limits["K_minus"] = sub["K_minus"]
        limits["beta"] = sub["beta"]
    else:
        sup = mom.supercritical_limits(spec, cfg.model, gen, n_orders, spec.theta0)
        limits["V_plus_theta0_at_x0"] = {
            n: float(np.interp(cfg.mc["x0"], field.nodes, sup["V"][n])) for n in sup["V"]
        }
        limits["beta"] = sup["beta"]
    _write_json(os.path.join(out, "limits.json"), cfg, limits)
    print(f"moments solved to t = {t_end:g} ({regime}); limits in limits.json")
    return EXIT_OK


def cmd_survive(cfg, args):
    out = _out_dir(cfg, args)
    cfg, _cal = _maybe_calibrate(cfg)
    gen, spec = _spectral(cfg)
    t_end = float(cfg.solver["t_end"])
    u0f = mom.solve_survival(
        t_end, gen, cfg.model, dt_pde=cfg.solver["dt_pde"], n_store=cfg.solver["n_store"]
    )
    nodes = u0f.nodes.tolist()
    rows = []
    stride = max(1, len(u0f.times) // 100)
    for k in range(0, len(u0f.times), stride):
        rows.extend(zip(repeat(u0f.times[k].item()), nodes, u0f.fields[0][k].tolist()))
    _write_csv(os.path.join(out, "u0.csv"), cfg, ["time", "node", "u0"], rows)

    hres = mom.solve_h(
        cfg.model,
        cfg.dynamics,
        cfg.grid,
        tol=float(cfg.solver["h_tol"]),
        generator=gen,
        spectral=spec,
        dt_pde=cfg.solver["dt_pde"],
    )
    _write_csv(
        os.path.join(out, "h.csv"),
        cfg,
        ["x", "h", "h_u0_route"],
        zip(nodes, hres.h.tolist(), hres.h_u0_route.tolist()),
    )
    payload = {
        "regime": spec.regime(),
        "h_sup": float(np.max(hres.h)),
        "h_routes_agreement": hres.agreement,
        "iterations": hres.iterations,
    }
    if spec.regime() == "critical":
        rep = analysis.critical_survival_check(u0f, spec)
        payload["critical_asymptotic"] = rep.to_dict()
    _write_json(os.path.join(out, "survival.json"), cfg, payload)
    print(f"u0 solved to t = {t_end:g}; sup h = {payload['h_sup']:.6g} ({payload['regime']})")
    return EXIT_OK


def cmd_simulate(cfg, args):
    out = _out_dir(cfg, args)
    cfg, _cal = _maybe_calibrate(cfg)
    gen, spec = _spectral(cfg)
    fbank = _f_bank(cfg, spec)
    xs = cfg.grid.nodes
    functionals = {
        name: (lambda arr, v=vals: np.interp(arr, xs, v)) for name, vals in fbank.items()
    }
    times = [float(t) for t in cfg.mc["times"]]
    res = _run_mc(cfg, times, functionals=functionals, threads=args.threads)
    rows = []
    for k, t in enumerate(res.times):
        for r in range(res.reps):
            rows.append(
                (t, r, res.counts[k][r])
                + tuple(res.functionals[name][k][r] for name in fbank)
            )
    _write_csv(
        os.path.join(out, "trajectories.csv"),
        cfg,
        ["time", "replicate", "N"] + list(fbank),
        rows,
    )
    surv = branching.mc_survival(res)
    moments_tbl = branching.mc_moments(res, 2, f_sup=1.0, b_star=cfg.model.b_star)
    cut = branching.cutoff_diagnostics(res, m_grid=[0.5 * res.cutoff_m, res.cutoff_m])
    _write_json(
        os.path.join(out, "simulation.json"),
        cfg,
        {"survival": surv, "mass_moments": moments_tbl, "cutoff": cut},
    )
    print(f"simulated {res.reps} replicas to t = {max(times):g}; dt = {res.dt:g}")
    return EXIT_OK


def _verify_critical(cfg, gen, spec, threads, out=None):
    reports = []
    t_end = float(cfg.solver["t_end"])
    u0f = mom.solve_survival(
        t_end, gen, cfg.model, dt_pde=cfg.solver["dt_pde"], n_store=cfg.solver["n_store"]
    )
    reports.append(analysis.critical_survival_check(u0f, spec))
    decomp = analysis.CriticalDecomposition.from_field(u0f, spec)
    reports.append(analysis.critical_ode_residual(decomp, spec, cfg.model))
    if out:
        _write_csv(
            os.path.join(out, "r_series.csv"),
            cfg,
            ["time", "r", "scaled_r"],
            zip(decomp.times, decomp.r, (1.0 + decomp.times) * decomp.r),
        )

    t_mc = float(cfg.verify.get("t_mc") or max(cfg.mc["times"]))
    fbank = _f_bank(cfg, spec)
    xs = cfg.grid.nodes
    functionals = {n: (lambda a, v=v: np.interp(a, xs, v)) for n, v in fbank.items()}
    res = _run_mc(cfg, [t_mc], functionals=functionals, threads=threads)
    alpha = float(cfg.verify["alpha"])
    n_t = res.counts[-1]
    reports.append(analysis.yaglom_test_critical(n_t, spec, t_mc, alpha=alpha))
    if out:
        survivors = np.sort(n_t[n_t > 0]) / ((t_mc + 1.0) * spec.A * spec.B)
        emp = np.arange(1, len(survivors) + 1) / len(survivors)
        _write_csv(
            os.path.join(out, "yaglom_cdf.csv"),
            cfg,
            ["normalized_mass", "empirical_cdf", "exponential_cdf"],
            zip(survivors, emp, 1.0 - np.exp(-survivors)),
        )
    nu_theta = spec.nu(spec.theta0)
    reports.append(
        analysis.lln_ratio_test(res.functionals["theta0"][-1], n_t, spec, nu_theta)
    )
    nu_bump = spec.nu(fbank["bump"])
    reports.append(
        analysis.lln_ratio_test(res.functionals["bump"][-1], n_t, spec, nu_bump)
    )
    reports.append(
        analysis.upsilon_test(res.functionals["theta0"][-1], n_t, t_mc, spec, nu_theta, alpha=alpha)
    )
    return reports


def _verify_subcritical(cfg, gen, spec, threads):
    reports = []
    t_end = float(cfg.solver["t_end"])
    u0f = mom.solve_survival(
        t_end, gen, cfg.model, dt_pde=cfg.solver["dt_pde"], n_store=cfg.solver["n_store"]
    )
    field = mom.solve_moments(
        np.ones(cfg.grid.n_points),
        4,
        t_end,
        gen,
        cfg.model,
        dt_pde=cfg.solver["dt_pde"],
        n_store=cfg.solver["n_store"],
    )
    limits = mom.subcritical_limits(spec, cfg.model, field, u0f, 4)
    floor = limits["V"][1] ** 2 / limits["V"][2]
    reports.append(
        analysis.TestReport(
            name="subcritical-K-floor",
            statistic="K^- - (V1^-)^2/V2^-",
            value=limits["K_minus"] - floor,
            threshold=0.0,
            sample_size=1,
            passed=bool(limits["K_minus"] >= floor > 0),
            details={"K_minus": limits["K_minus"], "floor": floor},
        )
    )
    # moment-determinacy ceiling on the computed limits
    v1_norm = field.normalized(1, "subcritical", spec.lambda0)
    c1 = float(np.max(v1_norm))
    eta = c1 * cfg.model.b_star / spec.lambda0
    theta_sup = float(np.max(spec.theta0))
    worst_excess = -math.inf
    for n in sorted(limits["V"]):
        _r_star, bound = mom.hamburger_bound(c1, eta, n)
        worst_excess = max(worst_excess, abs(limits["V"][n]) - bound / theta_sup)
    reports.append(
        analysis.TestReport(
            name="subcritical-hamburger-bound",
            statistic="max (|V_n^-| - bound)",
            value=worst_excess,
            threshold=0.0,
            sample_size=len(limits["V"]),
            passed=bool(worst_excess <= 1e-9),
        )
    )

    t_mc = float(cfg.verify.get("t_mc") or max(cfg.mc["times"]))
    res = _run_mc(cfg, [t_mc], threads=threads)
    n_orders_mc = int(cfg.verify.get("n_orders_mc", 3))
    reports.append(
        analysis.subcritical_yaglom_test(
            res.counts[-1].astype(float), limits, n_orders=n_orders_mc
        )
    )
    return reports


def _verify_supercritical(cfg, gen, spec, threads):
    reports = []
    hres = mom.solve_h(
        cfg.model,
        cfg.dynamics,
        cfg.grid,
        tol=float(cfg.solver["h_tol"]),
        generator=gen,
        spectral=spec,
        dt_pde=cfg.solver["dt_pde"],
    )
    reports.append(
        analysis.TestReport(
            name="supercritical-h-routes",
            statistic="sup |h_Newton - h_u0|",
            value=hres.agreement,
            threshold=3.0 * float(cfg.solver["h_tol"]),
            sample_size=cfg.grid.n_points,
            passed=bool(hres.agreement <= 3.0 * float(cfg.solver["h_tol"])),
        )
    )
    fbank = _f_bank(cfg, spec)
    sup_t = mom.supercritical_limits(spec, cfg.model, gen, 3, spec.theta0)
    sup_b = mom.supercritical_limits(spec, cfg.model, gen, 3, fbank["bump"])
    mu_b = spec.mu0_integral(fbank["bump"])
    worst = 0.0
    for n in (2, 3):
        pred = sup_t["V"][n] * mu_b**n
        err = float(np.max(np.abs(sup_b["V"][n] - pred)) / max(np.max(np.abs(pred)), 1e-300))
        worst = max(worst, err)
    reports.append(
        analysis.TestReport(
            name="supercritical-factorization",
            statistic="max relative deviation",
            value=worst,
            threshold=1e-4,
            sample_size=2,
            passed=bool(worst <= 1e-4),
            details={
                "note": "algebraic identity: V_n^+ is homogeneous of degree n in mu0(f); "
                "tests/test_moments.py::test_supercritical_resolvent_matches_moment_march "
                "checks V_n^+ against the moment march"
            },
        )
    )
    t_mc = float(cfg.verify.get("t_mc") or max(cfg.mc["times"]))
    xs = cfg.grid.nodes
    functionals = {"theta0": lambda a: np.interp(a, xs, spec.theta0)}
    res = _run_mc(cfg, [t_mc], functionals=functionals, threads=threads)
    w = math.exp(spec.lambda0 * t_mc) * res.functionals["theta0"][-1]
    x0 = float(cfg.mc["x0"])
    h_x0 = float(np.interp(x0, xs, hres.h))
    v_plus = {n: float(np.interp(x0, xs, sup_t["V"][n])) for n in (1, 2)}
    reports.append(analysis.w_infty_diagnostics(w, spec, h_x0, x0, t_mc, v_plus=v_plus))
    return reports


def cmd_verify(cfg, args):
    out = _out_dir(cfg, args)
    cfg, cal = _maybe_calibrate(cfg)
    gen, spec = _spectral(cfg)
    regime = cfg.verify["regime"]
    if args.regime and args.regime != "auto":
        regime = args.regime
    if regime in (None, "auto"):
        regime = spec.regime()
    actual = spec.regime()
    if regime != actual:
        print(f"error: requested regime {regime!r} but spectral data is {actual} "
              f"(lambda0 = {spec.lambda0:.4g})")
        return EXIT_HARD_FAIL

    validation = validate_hypotheses(cfg.model, cfg.dynamics, cfg.grid)
    suites = {
        "critical": _verify_critical,
        "subcritical": _verify_subcritical,
        "supercritical": _verify_supercritical,
    }
    if regime == "critical":
        reports = _verify_critical(cfg, gen, spec, args.threads, out=out)
    else:
        reports = suites[regime](cfg, gen, spec, args.threads)

    manifest = {
        "regime": regime,
        "lambda0": spec.lambda0,
        "lambda1": spec.lambda1,
        "hypotheses_all_passed": validation.all_passed,
        "calibration": cal,
        "tests": [r.to_dict() for r in reports],
    }
    _write_json(os.path.join(out, "verification.json"), cfg, manifest)
    lines = []
    hard_fail = False
    for r in reports:
        if r.inconclusive:
            status = "INCONCLUSIVE"
        elif r.passed:
            status = "pass"
        else:
            status = "FAIL"
            hard_fail = True
        lines.append(
            f"[{status}] {r.name}: {r.statistic} = {r.value:.4g} (threshold {r.threshold:.4g}, n = {r.sample_size})"
        )
    summary = "\n".join(lines)
    with open(os.path.join(out, "verification.txt"), "w") as fh:
        fh.write(_meta_line(cfg) + "\n" + summary + "\n")
    print(summary)
    return EXIT_HARD_FAIL if hard_fail else EXIT_OK


def cmd_report(cfg, args):
    out = _out_dir(cfg, args)
    artifact_dir = args.artifacts or out
    collected = {}
    for name in sorted(os.listdir(artifact_dir)):
        if name.endswith(".json") and name != "report.json":
            with open(os.path.join(artifact_dir, name)) as fh:
                collected[name] = json.load(fh)
    lines = [f"# branchlab report: {cfg.name}", "", f"- config hash: `{cfg.hash}`", f"- version: {__version__}", ""]
    for name, doc in collected.items():
        lines.append(f"## {name}")
        if "tests" in doc:
            for t in doc["tests"]:
                flag = "INCONCLUSIVE" if t.get("inconclusive") else ("pass" if t["passed"] else "FAIL")
                lines.append(f"- [{flag}] {t['name']}: {t['statistic']} = {t['value']:.4g}")
        elif "lambda0" in doc:
            lines.append(f"- lambda0 = {doc['lambda0']:.6g}")
            if "lambda1" in doc:
                lines.append(f"- lambda1 = {doc['lambda1']:.6g}")
        else:
            lines.append(f"- keys: {', '.join(k for k in doc if k not in ('config_hash', 'seed', 'version'))}")
        lines.append("")
    _write_json(os.path.join(out, "report.json"), cfg, {"artifacts": list(collected)})
    with open(os.path.join(out, "report.md"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"report written to {os.path.join(out, 'report.md')}")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description=(
            "Branching-process laboratory: particle simulation, Feynman-Kac grid "
            "numerics and limit-theorem verification.  CSV outputs list their "
            "columns on the first non-comment line; JSON schemas carry the tool "
            "version."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_txt in [
        ("validate", "scan the model hypotheses on the grid (exit 2 on failure)"),
        ("spectrum", "principal eigentriple, gap and constants -> spectral.json; "
                     "eigenfunction.csv columns: x, theta0, mu0, rho"),
        ("moments", "moment fields and regime limit constants -> limits.json; "
                    "moments.csv columns: time, node, order, value"),
        ("survive", "survival field u0 and extinction limit h; u0.csv columns: "
                    "time, node, u0; h.csv columns: x, h (Newton), h_u0_route"),
        ("simulate", "Monte Carlo particle ensemble; trajectories.csv columns: "
                     "time, replicate, N, then one column per functional"),
        ("verify", "regime-appropriate verification battery -> verification.json; "
                   "critical runs also emit r_series.csv and yaglom_cdf.csv"),
        ("report", "collate artifacts into report.md / report.json"),
    ]:
        p = sub.add_parser(name, help=help_txt)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory (default: config output.dir)")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--threads", type=int, default=1, help="replica chunks run in parallel")
        p.add_argument(
            "--regime",
            choices=["auto", "critical", "sub", "subcritical", "super", "supercritical"],
            default=None,
            help="expected regime (verify refuses a mismatch)",
        )
        if name == "report":
            p.add_argument("--artifacts", default=None, help="directory of artifacts to collate")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "moments": cmd_moments,
    "survive": cmd_survive,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "report": cmd_report,
}

_REGIME_ALIAS = {"sub": "subcritical", "super": "supercritical"}


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.regime:
        args.regime = _REGIME_ALIAS.get(args.regime, args.regime)
    try:
        cfg = load_config(args.config).with_overrides(seed=args.seed, out_dir=args.out)
    except (OSError, json.JSONDecodeError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    start = time.time()
    try:
        code = _COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError, RuntimeError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_HARD_FAIL
    _write_run_meta(_out_dir(cfg, args), args.command, time.time() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
