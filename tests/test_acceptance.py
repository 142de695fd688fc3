"""Acceptance criteria, one test per criterion, each printing a pass line.

Tolerances are pinned here exactly as stated; Monte Carlo experiments carry
their stated replica counts and time budgets.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from branchlab import DynamicsSpec, Grid, analysis, rng
from branchlab.branching import CutoffSpec, mc_survival, qprocess_weight, simulate_ensemble
from branchlab.cli import main as cli_main
from branchlab.moments import (
    hamburger_bound,
    solve_h,
    solve_moments,
    solve_survival,
    subcritical_limits,
    supercritical_limits,
)
from branchlab.semigroup import build_generator, principal_eigentriple

from .conftest import make_constant_model, make_oscillator_model
from .oracles import (
    bd_extinction_params,
    bd_sample,
    bd_survival,
    constant,
    duhamel_residual,
    girsanov_crosscheck,
    slice_at,
)

CUT = CutoffSpec(m=30.0)


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {criterion}] {status}: {detail}")
    assert passed, detail


# ----------------------------------------------------------------------
# 1. constant-rate critical oracle


def test_acceptance_1_constant_critical(critical_setup):
    start = time.time()
    model, dyn, grid, gen, spec = critical_setup
    u0f = solve_survival(99.0, gen, model, dt_pde=1e-3, n_store=300, ensure_times=[1.0, 9.0, 99.0])
    worst = 0.0
    for t in (1.0, 9.0, 99.0):
        worst = max(worst, float(np.max(np.abs(slice_at(u0f, 0, t) - 1.0 / (1.0 + t)))))
    res = simulate_ensemble(0.0, 9.0, 0.01, model, dyn, CUT, seed=1001, reps=100_000, record_times=[9.0])
    row = mc_survival(res)[-1]
    z = abs(row["estimate"] - 0.1) / row["se"]
    elapsed = time.time() - start
    _report(
        1,
        worst <= 1e-6 and z <= 3.0 and elapsed < 120.0,
        f"solver sup error {worst:.2e} (<=1e-6), MC survival z {z:.2f} (<=3), {elapsed:.0f}s (<120)",
    )


# ----------------------------------------------------------------------
# 2. critical survival asymptotic on the calibrated oscillator


def test_acceptance_2_oscillator_survival_asymptotic(oscillator_setup):
    start = time.time()
    model, dyn, grid, gen, spec = oscillator_setup
    B = spec.B
    t_end = math.ceil(200.0 / B)
    u0f = solve_survival(float(t_end), gen, model, dt_pde=0.01, n_store=400)
    rep = analysis.critical_survival_check(u0f, spec)
    elapsed = time.time() - start
    _report(
        2,
        rep.passed and elapsed < 300.0,
        f"sup dev {rep.value:.4g} (<= {rep.threshold:.4g} = 0.02/B), envelope c "
        f"{rep.details['envelope_c_first']:.3g}->{rep.details['envelope_c_last']:.3g} "
        f"(stable {rep.details['envelope_stable']}), t_end {t_end}, {elapsed:.0f}s (<300)",
    )


# ----------------------------------------------------------------------
# 3. exponential Yaglom limit


def test_acceptance_3_yaglom_exponential(critical_setup):
    start = time.time()
    model, dyn, grid, gen, spec = critical_setup
    t = 30.0
    res = simulate_ensemble(0.0, t, 0.02, model, dyn, CUT, seed=1003, reps=100_000, record_times=[t])
    rep = analysis.yaglom_test_critical(res.counts[-1], spec, t, alpha=0.01)
    elapsed = time.time() - start
    zs = rep.details["moment_z"]
    _report(
        3,
        rep.passed and elapsed < 300.0,
        f"KS {rep.value:.4f} (<= {rep.threshold:.4f} incl. slack {rep.details['slack']:.4f}), "
        f"moment z {[f'{z:.2f}' for z in zs]} (<=4), survivors {rep.sample_size}, {elapsed:.0f}s (<300)",
    )


# ----------------------------------------------------------------------
# 4. Upsilon law


def test_acceptance_4_upsilon_law():
    exceed0 = math.exp(-analysis.upsilon_quantile_h(0.0))
    point_ok = abs(exceed0 - math.exp(-0.5)) <= 1e-12
    keys = rng.root_key(1004, np.arange(200_000))
    xi = -np.log(rng.uniform(keys, 0, 0))
    y = np.sqrt(xi) - 0.5 / np.sqrt(xi)
    d, p = analysis.ks_test(y, analysis.upsilon_law)
    band = analysis.ks_band(0.01, len(y))
    _report(
        4,
        point_ok and d <= band,
        f"exceedance(0) err {abs(exceed0 - math.exp(-0.5)):.2e} (<=1e-12), "
        f"transform-sampling KS {d:.5f} (<= {band:.5f}, p {p:.3f})",
    )


# ----------------------------------------------------------------------
# 5. spectral engine


def test_acceptance_5_spectral_engine(oscillator_setup):
    start = time.time()
    from branchlab.model import RateModel as _RM

    # the stated form: V = -x^2, zero drift, [-8, 8] with 801 nodes
    grid = Grid(-8.0, 8.0, 801)
    dyn0 = DynamicsSpec(variant="diffusion", a=constant(0.0))
    pure = _RM(
        b=constant(0.0),
        d=make_oscillator_model(0.0).d,
        b_star=0.0,
        hd_constants={"c": 1.0, "c_prime": 1.0, "radius": 2.0},
    )
    gen0 = build_generator(pure, dyn0, grid)
    spec0 = principal_eigentriple(gen0, pure)
    err0 = abs(spec0.lambda0 - 1.0 / math.sqrt(2.0))
    err1 = abs(spec0.lambda1 - 3.0 / math.sqrt(2.0))

    from branchlab.curves import Curve
    from branchlab.model import RateModel

    c = 0.3
    m_g = RateModel(
        b=constant(0.1),
        d=Curve("polynomial", {"coeffs": [0.1 - c, 0.0, 0.5]}),
        b_star=0.1,
        hd_constants={"c": 1.0, "c_prime": 1.0, "radius": 2.0},
    )
    dyn_g = DynamicsSpec(variant="diffusion", a=Curve("polynomial", {"coeffs": [0.0, 1.0]}))
    g_rep = girsanov_crosscheck(dyn_g, m_g, grid)
    exact = [-(math.sqrt(2.0) * (k + 0.5) - c - 0.5) for k in range(3)]
    g_err = max(abs(a - b) for a, b in zip(g_rep["eigenvalues"], exact))

    mu_pred = spec0.theta0 * gen0.rho
    mu_pred /= np.dot(mu_pred, spec0.theta0)
    mu_err = float(np.max(np.abs(mu_pred - spec0.mu0)))
    elapsed = time.time() - start
    _report(
        5,
        err0 <= 1e-3 and err1 <= 1e-3 and g_err <= 1e-3 and mu_err <= 1e-6 and elapsed < 30.0,
        f"lambda0 err {err0:.2e}, lambda1 err {err1:.2e} (<=1e-3), Girsanov err {g_err:.2e} "
        f"(<=1e-3), mu0=Theta0*rho err {mu_err:.2e} (<=1e-6), {elapsed:.1f}s (<30)",
    )


# ----------------------------------------------------------------------
# 6. moment recursion integrity


def test_acceptance_6_moment_recursion(oscillator_setup, jumps_setup, drifted_setup, box_grid, zero_drift):
    worst_res = 0.0
    # the transport class carries a larger O(dt^2) constant in the
    # march-vs-quadrature comparison, so it gets a finer step
    for name, dt_pde, (model, dyn, grid, gen, spec) in [
        ("diffusion", 0.005, oscillator_setup),
        ("diffusion-jumps", 0.005, jumps_setup),
        ("drifted-jump", 0.0025, drifted_setup),
    ]:
        xs = grid.nodes
        f = np.exp(-0.5 * xs**2)
        mf = solve_moments(f, 4, 2.0, gen, model, dt_pde=dt_pde, n_store=100)
        for n in range(1, 5):
            for t_star in (0.4, 0.8, 1.2, 1.6, 2.0):
                worst_res = max(worst_res, duhamel_residual(mf, n, t_star, gen, model))

    yule = make_constant_model(1.0, 0.0)
    gen_y = build_generator(yule, zero_drift, box_grid)
    mf_y = solve_moments(np.ones(box_grid.n_points), 2, 1.0, gen_y, yule, dt_pde=1e-4, n_store=200)
    yule_err = float(np.max(np.abs(slice_at(mf_y, 2, 1.0) - (2.0 * math.e**2 - math.e))))

    crit = make_constant_model(1.0, 1.0)
    gen_c = build_generator(crit, zero_drift, box_grid)
    mf_c = solve_moments(np.ones(box_grid.n_points), 2, 3.0, gen_c, crit, dt_pde=0.005, n_store=60)
    u0_c = solve_survival(3.0, gen_c, crit, dt_pde=0.005, n_store=60)
    u1, u2, u0 = mf_c.fields[1], mf_c.fields[2], u0_c.fields[0]
    jensen_ok = bool(np.all(u2 >= u1**2 - 1e-10))
    cs_ok = bool(np.all(u0 * u2 >= u1**2 - 1e-10))
    _report(
        6,
        worst_res <= 1e-4 and yule_err <= 1e-5 and jensen_ok and cs_ok,
        f"max Duhamel residual {worst_res:.2e} (<=1e-4, n<=4, 3 classes), Yule u2(1) err "
        f"{yule_err:.2e} (<=1e-5), Jensen {jensen_ok}, Cauchy-Schwarz {cs_ok}",
    )


# ----------------------------------------------------------------------
# 7. subcritical suite


def test_acceptance_7_subcritical(subcritical_setup):
    model, dyn, grid, gen, spec = subcritical_setup
    t_end = 40.0
    u0f = solve_survival(t_end, gen, model, dt_pde=0.005, n_store=400)
    mf = solve_moments(np.ones(grid.n_points), 8, t_end, gen, model, dt_pde=0.005, n_store=400)
    sub = subcritical_limits(spec, model, mf, u0f, 8)
    k_exact = (1.0 - 0.5) / 1.0  # (d - b)/d for the linear birth-death law
    k_err = abs(sub["K_minus"] - k_exact)
    # closed-form check of the normalized survival at the horizon
    x0 = grid.n_points // 2
    v0_end = math.exp(spec.lambda0 * t_end) * u0f.fields[0][-1][x0]
    v0_exact = math.exp(0.5 * t_end) * bd_survival(t_end, 0.5, 1.0)
    floor_ok = sub["K_minus"] >= sub["V"][1] ** 2 / sub["V"][2] > 0

    # Hamburger bound: a1 = C_1^-, eta = C_1^- b* / lambda0
    v1_norm = mf.normalized(1, spec.lambda0)
    c1 = float(np.max(v1_norm))
    eta = c1 * model.b_star / spec.lambda0
    bound_ok = True
    details = []
    for n in range(1, 9):
        r_star, bound = hamburger_bound(c1, eta, n)
        ok = abs(sub["V"][n]) <= bound / np.max(spec.theta0) + 1e-9
        bound_ok = bound_ok and ok
        details.append(f"V{n}={sub['V'][n]:.3g}<= {bound:.3g}")
    _report(
        7,
        k_err <= 1e-4 and abs(v0_end - v0_exact) <= 1e-3 and floor_ok and bound_ok,
        f"K- err {k_err:.2e} (<=1e-4), v0(T) vs closed form err {abs(v0_end - v0_exact):.2e}, "
        f"K- >= (V1)^2/V2 {floor_ok}, Hamburger bound n<=8 {bound_ok}",
    )


# ----------------------------------------------------------------------
# 8. supercritical suite


def test_acceptance_8_supercritical(supercritical_setup):
    model, dyn, grid, gen, spec = supercritical_setup
    hres = solve_h(model, gen, spec, solve_survival(16.0, gen, model, dt_pde=0.005, n_store=200))
    h_err_newton = float(np.max(np.abs(hres.h - 0.5)))
    h_err_u0 = float(np.max(np.abs(hres.h_u0_route - 0.5)))

    # particle run at T = 5 for the extinction-atom check
    t_atom = 5.0
    xs = grid.nodes
    fs = {"theta0": lambda a: np.interp(a, xs, spec.theta0)}
    res = simulate_ensemble(0.0, t_atom, 0.01, model, dyn, CUT, seed=1008, reps=10_000,
                            record_times=[t_atom], functionals=fs)
    w_t = math.exp(spec.lambda0 * t_atom) * res.functionals["theta0"][-1]
    thr, _details = analysis.w_atom_threshold(w_t, math.exp(spec.lambda0 * t_atom))
    frac = float(np.mean(w_t > thr))
    se = math.sqrt(frac * (1 - frac) / len(w_t))
    atom_z = abs(frac - 0.5) / se

    # martingale mean across t in {5, 10, 20} via the exact birth-death
    # transition sampler (population ~ e^20 forbids direct particles)
    mart_ok = True
    mart_detail = []
    sampler = np.random.default_rng(812)
    n_reps = 200_000
    sizes = np.ones(n_reps, dtype=np.int64)
    t_prev = 0.0
    for t_check in (5.0, 10.0, 20.0):
        sizes = bd_sample(sizes, t_check - t_prev, 2.0, 1.0, sampler)
        t_prev = t_check
        w = np.exp(spec.lambda0 * t_check) * sizes
        se_m = w.std(ddof=1) / math.sqrt(n_reps)
        z = abs(w.mean() - 1.0) / se_m
        mart_ok = mart_ok and z <= 3.0
        mart_detail.append(f"t={t_check:g}: z={z:.2f}")

    sup_t = supercritical_limits(spec, model, gen, 3, spec.theta0)
    bump = np.exp(-0.5 * xs**2)
    ramp = 1.0 / (1.0 + xs**2)
    fact_err = 0.0
    for f_vals in (bump, ramp):
        sup_f = supercritical_limits(spec, model, gen, 3, f_vals)
        mu_f = spec.mu0_integral(f_vals)
        for n in (2, 3):
            pred = sup_t["V"][n] * mu_f**n
            fact_err = max(
                fact_err, float(np.max(np.abs(sup_f["V"][n] - pred)) / np.max(np.abs(pred)))
            )
    _report(
        8,
        h_err_newton <= 1e-6 and h_err_u0 <= 1e-6 and atom_z <= 4.0 and mart_ok and fact_err <= 1e-4,
        f"h errs Newton {h_err_newton:.2e} / u0 {h_err_u0:.2e} (<=1e-6), atom z {atom_z:.2f} (<=4), "
        f"martingale {', '.join(mart_detail)} (<=3), factorization {fact_err:.2e} (<=1e-4)",
    )


# ----------------------------------------------------------------------
# 9. branching Q-process


def test_acceptance_9_qprocess(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    s = 0.5
    t_list = [5.0, 10.0]  # largest T = 20 s
    reps = 40_000
    res = simulate_ensemble(
        0.0, max(t_list), 0.01, model, dyn, CUT, seed=1009, reps=reps,
        record_times=[s] + t_list, record_traits_at=[s],
    )
    rep_s, traits_s = res.traits_at[s]

    # functional of Z_s: the number of particles in [-1, 1] at time s
    fvals = np.bincount(rep_s, weights=np.abs(traits_s) <= 1.0, minlength=reps)

    # each replica's traits, in population order, grouped by a stable sort
    groups = np.split(traits_s[np.argsort(rep_s, kind="stable")], np.cumsum(res.counts[0])[:-1])
    weights = np.array([qprocess_weight(g, s, 0.0, spec) for g in groups])

    surv = {t: res.counts[k + 1] > 0 for k, t in enumerate(t_list)}
    rep = analysis.qprocess_law_test(fvals, weights, surv)

    # F = 1 normalization: reweighted side is the martingale mean
    se_w = weights.std(ddof=1) / math.sqrt(reps)
    norm_z = abs(weights.mean() - 1.0) / se_w
    _report(
        9,
        rep.passed and norm_z <= 3.0,
        f"conditioned-vs-reweighted z {rep.value:.2f} (<=4) at T = 20s, gaps "
        f"{[f'{g:.4f}' for g in rep.details['gaps']]}, F==1 normalization z {norm_z:.2f} (<=3)",
    )


# ----------------------------------------------------------------------
# 10. reproducibility and null calibration


def test_acceptance_10_reproducibility(tmp_path, critical_setup, supercritical_setup):
    cfg_path = os.path.join(os.path.dirname(__file__), "..", "configs", "critical_constant.json")
    with open(cfg_path) as fh:
        doc = json.load(fh)
    doc["solver"]["t_end"] = 30.0
    doc["solver"]["dt_pde"] = 0.01
    doc["mc"]["reps"] = 3000
    doc["mc"]["times"] = [5.0]
    small = tmp_path / "cfg.json"
    small.write_text(json.dumps(doc))
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["simulate", "--config", str(small), "--out", str(out)]) == 0
        blobs.append(
            (out / "trajectories.csv").read_bytes() + (out / "simulation.json").read_bytes()
        )
    byte_identical = blobs[0] == blobs[1]

    spec = critical_setup[4]
    spec_super = supercritical_setup[4]
    t = 30.0

    def geometric_null(seed, n=30_000):
        g = np.random.default_rng(seed)
        alpha, beta = bd_extinction_params(t, 1.0, 1.0)
        u = g.uniform(size=n)
        sizes = np.zeros(n)
        alive = u >= alpha
        sizes[alive] = g.geometric(1.0 - beta, size=int(alive.sum()))
        return sizes

    rates = {}
    rates["yaglom"] = analysis.null_calibration(
        lambda seed: analysis.yaglom_test_critical(geometric_null(seed), spec, t, alpha=0.01), reps=100, seed=20
    )
    rates["upsilon"] = analysis.null_calibration(
        lambda seed: analysis.upsilon_test(
            (n := geometric_null(seed + 7000)).astype(float), n, t, spec, 1.0 / spec.A, alpha=0.01
        ),
        reps=100,
        seed=21,
    )

    def ks_null(seed):
        g = np.random.default_rng(seed)
        x = g.exponential(size=2000)
        d, _ = analysis.ks_test(x, lambda v: 1 - np.exp(-np.clip(v, 0, None)))
        return d <= analysis.ks_band(0.01, 2000)

    rates["ks"] = analysis.null_calibration(ks_null, reps=100, seed=22)

    def momentz_null(seed):
        g = np.random.default_rng(seed)
        x = g.normal(size=2000)
        m = [x.mean(), (x**2).mean()]
        se = [x.std(ddof=1) / math.sqrt(2000), (x**2).std(ddof=1) / math.sqrt(2000)]
        return analysis.moment_z_test(m, [0.0, 1.0], se, z_max=4.0, name="moment-z")

    rates["moment-z"] = analysis.null_calibration(momentz_null, reps=100, seed=23)

    def qprocess_null(seed):
        g = np.random.default_rng(seed)
        n = 4000
        f = g.exponential(size=n)
        w = np.ones(n)
        surv = {1.0: g.uniform(size=n) < 0.5}
        return analysis.qprocess_law_test(f, w, surv)

    rates["qprocess"] = analysis.null_calibration(qprocess_null, reps=100, seed=24)

    def lln_null(seed):
        g = np.random.default_rng(seed)
        n = geometric_null(seed + 14_000)
        alive = n > 0
        ratio_target = 0.5
        zf = np.where(alive, ratio_target * n + 0.01 * g.normal(size=len(n)) * n, 0.0)
        return analysis.lln_ratio_test(zf, n, spec, ratio_target)

    rates["lln"] = analysis.null_calibration(lln_null, reps=100, seed=25)

    def submoment_null(seed):
        g = np.random.default_rng(seed)
        m = 30_000
        u = g.uniform(size=m)
        sizes = np.zeros(m)
        alive = u >= 0.5
        sizes[alive] = g.geometric(0.5, size=int(alive.sum()))
        limits = {"K_minus": 0.5, "V": {1: 1.0, 2: 3.0, 3: 13.0}}
        return analysis.subcritical_yaglom_test(sizes, limits, n_orders=3)

    rates["submoments"] = analysis.null_calibration(submoment_null, reps=100, seed=26)

    def wdiag_null(seed):
        g = np.random.default_rng(seed)
        m = 10_000
        t_w = 6.0
        doomed = math.exp(spec_super.lambda0 * t_w)
        w = np.where(
            g.uniform(size=m) < 0.5,
            g.uniform(0.2 * doomed, 2.0 * doomed, size=m),
            g.exponential(2.0, size=m),
        )
        return analysis.w_infty_diagnostics(w, spec_super, 0.5, 0.0, t_w, v_plus={1: 1.0, 2: 4.0})

    rates["wdiag"] = analysis.null_calibration(wdiag_null, reps=100, seed=27)

    all_ok = byte_identical and all(r >= 0.98 for r in rates.values())
    _report(
        10,
        all_ok,
        f"byte-identical reruns {byte_identical}; null pass rates "
        + ", ".join(f"{k}={v:.2f}" for k, v in rates.items())
        + " (all >= 0.98)",
    )
