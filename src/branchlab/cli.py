"""Command line: argument parsing and file writing over the library.

Pipeline commands: validate -> spectrum -> moments / survive -> simulate ->
verify -> report.  ``main`` loads the config and resolves the output
directory once; each model command calibrates the config (if it has a
calibrate block) and builds the eigentriple, calls the library and writes
what it reports.  ``verify`` runs ``analysis.verify_suite``.  Every data
output carries the config hash, seed and tool version in its header;
wall-clock timing and the process's peak RSS go to a sidecar run_meta.json,
which ``report`` leaves out, so data files stay byte-identical across reruns
with the same config and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from itertools import repeat
from numbers import Number

import numpy as np

from . import __version__, analysis, branching, moments as mom
from .config import ConfigError, load_config
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


def _out_dir(cfg, out):
    base = out or cfg.output_dir
    os.makedirs(base, exist_ok=True)
    return base


def _write_csv(path, cfg, header, blocks):
    """Write the meta line, the header, then the rows of each block.

    A block is a sequence of columns.  A column is a list or 1-D array of
    numbers (or of their text), or one number (or its text) repeated down
    the block.  The
    bytes are those csv.writer writes for the rows: ``str`` of each value,
    ``,`` between fields and ``\r\n`` after each line.  Each column is
    formatted once per block, and the file is written block by block.
    """
    with open(path, "w", newline="") as fh:
        fh.write(_meta_line(cfg) + "\n")
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            cols = [_cells(col) for col in block]
            n_rows = min((len(c) for c in cols if isinstance(c, list)), default=1)
            cols = [c if isinstance(c, list) else repeat(c, n_rows) for c in cols]
            if n_rows:
                fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


def _cells(col):
    """The text of a column: a list of strings, or one string for a scalar."""
    if isinstance(col, (str, Number)):
        return str(col)
    if isinstance(col, np.ndarray):
        col = col.tolist()
    return list(map(str, col))


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


def _status(passed, inconclusive=False):
    """The status word of a check in the text outputs."""
    return "INCONCLUSIVE" if inconclusive else ("pass" if passed else "FAIL")


def _write_run_meta(out, command, elapsed):
    # ru_maxrss is in KiB on Linux: the peak a parent's wait4 would report
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(out, "run_meta.json"), "w") as fh:
        json.dump(
            {"command": command, "wall_clock_s": elapsed, "finished_unix": time.time(),
             "peak_rss_mb": peak_rss_mb},
            fh,
            indent=2,
        )
        fh.write("\n")


# ----------------------------------------------------------------------
# shared computation steps


def _calibrated_model(cfg):
    """Apply the criticality calibration block, if present, then build the
    generator and its principal eigentriple.  Returns (cfg, calibration
    record or None, generator, eigentriple)."""
    cal = None
    if cfg.calibrate:
        knob = cfg.calibrate["knob"]

        def factory(theta):
            return cfg.apply_knob(knob, theta).model

        theta, lam0, history = mom.calibrate_criticality(
            factory, cfg.calibrate["bracket"], cfg.dynamics, cfg.grid, tol=cfg.calibrate["tol"]
        )
        cfg = cfg.apply_knob(knob, theta)
        cal = {"knob": knob, "theta": theta, "lambda0": lam0, "evaluations": len(history)}
    gen = build_generator(cfg.model, cfg.dynamics, cfg.grid)
    return cfg, cal, gen, principal_eigentriple(gen, cfg.model)


def _slices(field, stride):
    """(index, time) of every ``stride``-th stored slice of a field."""
    return list(enumerate(field.times.tolist()))[::stride]


def _survival_field(cfg, gen):
    solver = cfg.solver
    return mom.solve_survival(
        solver["t_end"], gen, cfg.model, dt_pde=solver["dt_pde"], n_store=solver["n_store"]
    )


# ----------------------------------------------------------------------
# commands


def cmd_validate(cfg, args, out):
    report = validate_hypotheses(cfg.model, cfg.dynamics, cfg.grid)
    _write_json(os.path.join(out, "validation.json"), cfg, report.to_dict())
    for check in report.checks:
        status = _status(check.passed)
        extra = f"  ({check.detail})" if check.detail else ""
        print(f"[{status}] {check.name}{extra}")
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def cmd_spectrum(cfg, args, out):
    cfg, cal, gen, spec = _calibrated_model(cfg)
    spec.H = fit_H(gen, spec, cfg.solver["dt_pde"])
    payload = spec.to_dict()
    if cal:
        payload["calibration"] = cal
    if cfg.grid.boundary == "absorbing":
        payload["edge_decay"] = hp4_edge_decay(gen, dt_pde=cfg.solver["dt_pde"])
    _write_json(os.path.join(out, "spectral.json"), cfg, payload)
    rho = gen.rho if gen.rho is not None else np.full(cfg.grid.n_points, np.nan)
    _write_csv(
        os.path.join(out, "eigenfunction.csv"),
        cfg,
        ["x", "theta0", "mu0", "rho"],
        [(cfg.grid.nodes, spec.theta0, spec.mu0, rho)],
    )
    print(
        f"lambda0 = {spec.lambda0:.8g}  lambda1 = {spec.lambda1:.8g}  "
        f"A = {spec.A:.6g}  B = {spec.B:.6g}  H = {spec.H:.4g}  regime = {spec.regime()}"
    )
    return EXIT_OK


def cmd_moments(cfg, args, out):
    cfg, _cal, gen, spec = _calibrated_model(cfg)
    n_orders = cfg.solver["n_orders"]
    t_end = cfg.solver["t_end"]
    field = mom.solve_moments(
        np.ones(cfg.grid.n_points),
        n_orders,
        t_end,
        gen,
        cfg.model,
        dt_pde=cfg.solver["dt_pde"],
        n_store=cfg.solver["n_store"],
    )
    nodes = _cells(field.nodes)
    stride = max(1, len(field.times) // 50)
    _write_csv(
        os.path.join(out, "moments.csv"),
        cfg,
        ["time", "node", "order", "value"],
        ((t, nodes, n, field.fields[n][k]) for k, t in _slices(field, stride) for n in field.orders),
    )

    regime = spec.regime()
    limits = {
        "regime": regime,
        "lambda0": spec.lambda0,
        "A": spec.A,
        "B": spec.B,
        "moments_time_error": field.time_error,
    }
    if regime == "critical":
        V = mom.critical_limits(spec, n_orders)
        limits["V_critical_at_x0"] = {
            n: float(np.interp(cfg.mc["x0"], field.nodes, V[n])) for n in V
        }
    elif regime == "subcritical":
        u0f = _survival_field(cfg, gen)
        sub = mom.subcritical_limits(spec, cfg.model, field, u0f, n_orders)
        limits["survival_time_error"] = u0f.time_error
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


def cmd_survive(cfg, args, out):
    cfg, _cal, gen, spec = _calibrated_model(cfg)
    t_end = cfg.solver["t_end"]
    u0f = _survival_field(cfg, gen)
    nodes = _cells(u0f.nodes)
    stride = max(1, len(u0f.times) // 100)
    _write_csv(
        os.path.join(out, "u0.csv"),
        cfg,
        ["time", "node", "u0"],
        ((t, nodes, u0f.fields[0][k]) for k, t in _slices(u0f, stride)),
    )

    regime = spec.regime()
    hres = mom.solve_h(cfg.model, gen, spec, u0f)
    if regime == "supercritical" and hres.agreement > mom.H_ROUTES_TOL:
        raise RuntimeError(f"h routes disagree by {hres.agreement:.3g} > 3 tol; boundary bias suspected")
    _write_csv(os.path.join(out, "h.csv"), cfg, ["x", "h", "h_u0_route"], [(nodes, hres.h, hres.h_u0_route)])
    payload = {
        "regime": regime,
        "h_sup": float(np.max(hres.h)),
        "h_routes_agreement": hres.agreement,
        "iterations": hres.iterations,
        "survival_time_error": u0f.time_error,
    }
    if regime == "critical":
        rep = analysis.critical_survival_check(u0f, spec)
        payload["critical_asymptotic"] = rep.to_dict()
    _write_json(os.path.join(out, "survival.json"), cfg, payload)
    print(f"u0 solved to t = {t_end:g}; sup h = {payload['h_sup']:.6g} ({regime})")
    return EXIT_OK


def cmd_simulate(cfg, args, out):
    cfg, _cal, _gen, spec = _calibrated_model(cfg)
    fbank = analysis.functional_bank(cfg, spec)
    times = cfg.mc["times"]
    res = branching.run_ensemble(cfg, times, fbank, args.threads)
    _write_csv(
        os.path.join(out, "trajectories.csv"),
        cfg,
        ["time", "replicate", "N"] + list(fbank),
        (
            (t, range(res.reps), res.counts[k], *(res.functionals[name][k] for name in fbank))
            for k, t in enumerate(res.times)
        ),
    )
    surv = branching.mc_survival(res)
    moments_tbl = branching.mc_moments(res, cfg.model.b_star)
    cut = branching.cutoff_diagnostics(res, m_grid=[0.5 * res.cutoff_m, res.cutoff_m])
    _write_json(
        os.path.join(out, "simulation.json"),
        cfg,
        {"survival": surv, "mass_moments": moments_tbl, "cutoff": cut},
    )
    print(f"simulated {res.reps} replicas to t = {max(times):g}; dt = {res.dt:g}")
    return EXIT_OK


def cmd_verify(cfg, args, out):
    cfg, cal, gen, spec = _calibrated_model(cfg)
    regime = spec.regime()
    requested = args.regime or cfg.verify["regime"]
    if requested not in ("auto", regime):
        raise mom.RegimeError(
            f"requested regime {requested!r} but spectral data is {regime} (lambda0 = {spec.lambda0:.4g})"
        )

    validation = validate_hypotheses(cfg.model, cfg.dynamics, cfg.grid)
    reports, tables = analysis.verify_suite(cfg, gen, spec, args.threads)
    for name, (header, columns) in tables.items():
        _write_csv(os.path.join(out, name), cfg, header, [columns])
    manifest = {
        "regime": regime,
        "lambda0": spec.lambda0,
        "lambda1": spec.lambda1,
        "hypotheses_all_passed": validation.all_passed,
        "calibration": cal,
        "tests": [r.to_dict() for r in reports],
    }
    _write_json(os.path.join(out, "verification.json"), cfg, manifest)
    statuses = [_status(r.passed, r.inconclusive) for r in reports]
    lines = [
        f"[{status}] {r.name}: {r.statistic} = {r.value:.4g} (threshold {r.threshold:.4g}, n = {r.sample_size})"
        for status, r in zip(statuses, reports)
    ]
    summary = "\n".join(lines)
    with open(os.path.join(out, "verification.txt"), "w") as fh:
        fh.write(_meta_line(cfg) + "\n" + summary + "\n")
    print(summary)
    return EXIT_HARD_FAIL if "FAIL" in statuses else EXIT_OK


def cmd_report(cfg, args, out):
    artifact_dir = args.artifacts or out
    collected = {}
    for name in sorted(os.listdir(artifact_dir)):
        if name.endswith(".json") and name not in ("report.json", "run_meta.json"):
            with open(os.path.join(artifact_dir, name)) as fh:
                collected[name] = json.load(fh)
    lines = [f"# branchlab report: {cfg.name}", "", f"- config hash: `{cfg.hash}`", f"- version: {__version__}", ""]
    for name, doc in collected.items():
        lines.append(f"## {name}")
        if "tests" in doc:
            for t in doc["tests"]:
                status = _status(t["passed"], t.get("inconclusive"))
                lines.append(f"- [{status}] {t['name']}: {t['statistic']} = {t['value']:.4g}")
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


def _thread_count(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _RegimeAction(argparse.Action):
    """Store the full regime name: sub and super expand.  A given ``auto``
    stays ``auto``, so it overrides the config's verify.regime."""

    def __call__(self, parser, namespace, value, option_string=None):
        value = {"sub": "subcritical", "super": "supercritical"}.get(value, value)
        setattr(namespace, self.dest, value)


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
        if name in ("simulate", "verify"):
            p.add_argument(
                "--threads",
                type=_thread_count,
                default=1,
                help="replica chunks (at least 1), run on at most one thread per CPU",
            )
        if name == "verify":
            p.add_argument(
                "--regime",
                choices=["auto", "critical", "sub", "subcritical", "super", "supercritical"],
                action=_RegimeAction,
                default=None,
                help="expected regime (a mismatch is an error)",
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
    except (OSError, json.JSONDecodeError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        out = _out_dir(cfg, args.out)
        start = time.time()
        code = _COMMANDS[args.command](cfg, args, out)
    except (OSError, ConfigError, ValueError, RuntimeError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_HARD_FAIL
    _write_run_meta(out, args.command, time.time() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
