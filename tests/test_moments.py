import math

import numpy as np
import pytest

from branchlab import DynamicsSpec, Grid
from branchlab.curves import constant
from branchlab.moments import (
    RegimeError,
    calibrate_criticality,
    carleman_partial_sums,
    criticality_epsilon,
    critical_limits,
    duhamel_residual,
    hamburger_bound,
    hamburger_recursion_sequence,
    laplace_functional,
    solve_h,
    solve_moments,
    solve_survival,
    subcritical_limits,
    supercritical_limits,
    survival_semigroup_check,
)
from branchlab.semigroup import SpectralData, build_generator, evolve_P

from .conftest import make_constant_model, make_oscillator_model
from .oracles import bd_survival


def test_critical_second_moment_closed_form(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    mf = solve_moments(np.ones(grid.n_points), 2, 1.0, gen, model, dt_pde=1e-3)
    u2 = mf.at(2, 1.0)
    assert np.max(np.abs(u2 - 3.0)) < 1e-6


def test_zero_function_stays_zero(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    mf = solve_moments(np.zeros(grid.n_points), 3, 1.0, gen, model, dt_pde=0.01)
    for n in (1, 2, 3):
        assert np.max(np.abs(mf.fields[n])) == 0.0


def test_u1_matches_evolve_p(oscillator_setup):
    model, dyn, grid, gen, _ = oscillator_setup
    xs = grid.nodes
    f = np.exp(-0.5 * xs**2)
    mf = solve_moments(f, 2, 1.0, gen, model, dt_pde=0.005)
    direct = evolve_P(f, 1.0, gen, dt_pde=0.005, smooth_start=True)
    assert np.max(np.abs(mf.at(1, 1.0) - direct)) < 1e-8


def test_yule_second_moment(box_grid, zero_drift):
    model = make_constant_model(1.0, 0.0)
    gen = build_generator(model, zero_drift, box_grid)
    mf = solve_moments(np.ones(box_grid.n_points), 2, 1.0, gen, model, dt_pde=1e-4)
    exact = 2.0 * math.e**2 - math.e
    assert np.max(np.abs(mf.at(2, 1.0) - exact)) < 1e-5


def test_survival_riccati(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    u0 = solve_survival(9.0, gen, model, dt_pde=1e-3, ensure_times=[9.0])
    assert np.max(np.abs(u0.at(0, 9.0) - 0.1)) < 1e-6


def test_survival_pure_death(box_grid, zero_drift):
    delta = 0.7
    model = make_constant_model(0.0, delta)
    model.b_star = 0.1
    gen = build_generator(model, zero_drift, box_grid)
    u0 = solve_survival(2.0, gen, model, dt_pde=1e-3, ensure_times=[2.0])
    assert np.max(np.abs(u0.at(0, 2.0) - math.exp(-delta * 2.0))) < 1e-6


def test_survival_no_deaths(box_grid, zero_drift):
    model = make_constant_model(0.8, 0.0)
    gen = build_generator(model, zero_drift, box_grid)
    u0 = solve_survival(2.0, gen, model, dt_pde=1e-3)
    assert np.max(np.abs(u0.fields[0] - 1.0)) < 1e-9


def test_survival_bounds_and_monotone(oscillator_setup):
    model, dyn, grid, gen, _ = oscillator_setup
    u0f = solve_survival(5.0, gen, model, dt_pde=0.005)
    u0 = u0f.fields[0]
    assert np.min(u0) >= 0.0
    assert np.max(u0) <= 1.0
    assert np.all(np.diff(u0, axis=0) <= 1e-12)


def test_nonlinear_semigroup_property(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    u0f = solve_survival(6.0, gen, model, dt_pde=2e-3, n_store=240)
    dev = survival_semigroup_check(u0f, 6.0, 3.0, gen, model)
    assert dev < 1e-6


def test_duhamel_residual_orders(oscillator_setup):
    model, dyn, grid, gen, _ = oscillator_setup
    xs = grid.nodes
    f = np.exp(-0.5 * xs**2)
    mf = solve_moments(f, 3, 2.0, gen, model, dt_pde=0.005, n_store=100)
    for n in (1, 2, 3):
        assert duhamel_residual(mf, n, 2.0, gen, model) < 1e-4


def test_blowup_guard():
    grid = Grid(-4.0, 4.0, 101, boundary="reflecting")
    model = make_constant_model(1.0, 0.0)
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    gen = build_generator(model, dyn, grid)
    model.b_star = 0.05  # lie about the ceiling: the guard must fire
    from branchlab.moments import BlowupError

    with pytest.raises(BlowupError):
        solve_moments(np.ones(101), 2, 3.0, gen, model, dt_pde=0.01)


def test_jensen_and_cauchy_schwarz(oscillator_setup):
    model, dyn, grid, gen, _ = oscillator_setup
    f = np.ones(grid.n_points)
    mf = solve_moments(f, 2, 2.0, gen, model, dt_pde=0.005, n_store=50)
    u0f = solve_survival(2.0, gen, model, dt_pde=0.005, n_store=50)
    u1, u2 = mf.fields[1], mf.fields[2]
    u0 = u0f.fields[0]
    assert np.all(u2 >= u1**2 - 1e-10)  # Jensen
    # multiplicative Cauchy-Schwarz floor avoids dividing by the edge noise
    assert np.all(u0 * u2 >= u1**2 - 1e-10)
    assert np.all(u0 <= u1 + 1e-10)  # survival below mean


def test_yule_ceiling(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    mf = solve_moments(np.ones(grid.n_points), 3, 2.0, gen, model, dt_pde=0.005, n_store=40)
    for n in (1, 2, 3):
        ceiling = math.factorial(n) * np.exp(n * model.b_star * mf.times)
        assert np.all(mf.fields[n].max(axis=1) <= ceiling * (1 + 1e-9))


# ----------------------------------------------------------------------
# h


def test_h_zero_in_critical_regime(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    res = solve_h(model, dyn, grid, tol=1e-6, generator=gen, spectral=spec)
    assert np.all(res.h == 0.0)
    assert res.regime == "critical"
    # the Newton diagnostic ran: its steps shrink toward the zero solution,
    # which it reaches within tol
    assert res.residuals[-1] < res.residuals[0]
    assert res.iterations == len(res.residuals)
    assert res.agreement < 1e-6


def test_h_zero_in_subcritical_regime(subcritical_setup):
    model, dyn, grid, gen, spec = subcritical_setup
    res = solve_h(model, dyn, grid, tol=1e-6, generator=gen, spectral=spec)
    assert np.all(res.h == 0.0)


def test_h_supercritical_constant(supercritical_setup):
    model, dyn, grid, gen, spec = supercritical_setup
    res = solve_h(model, dyn, grid, tol=1e-6, generator=gen, spectral=spec)
    assert np.max(np.abs(res.h - 0.5)) < 1e-6
    assert np.max(np.abs(res.h_u0_route - 0.5)) < 1e-6
    assert res.agreement < 3e-6


def test_h_newton_matches_u0_route_on_oscillator(supercritical_oscillator_setup):
    model, dyn, grid, gen, spec = supercritical_oscillator_setup
    tol = 1e-6
    res = solve_h(model, dyn, grid, tol=tol, generator=gen, spectral=spec, dt_pde=0.01)
    assert res.regime == "supercritical"
    assert np.max(np.abs(res.h - res.h_u0_route)) <= 3.0 * tol
    assert res.agreement <= 3.0 * tol
    assert res.residuals[-1] < 0.2 * tol
    carrying = spec.theta0 > 1e-8 * np.max(spec.theta0)
    assert np.all(res.h[carrying] > 0.0)
    # non-constant: the killing d = x^2 pulls h down away from the origin
    assert np.ptp(res.h[carrying]) > 0.1
    # and h is a stationary solution of L h - b h^2 = 0
    resid = gen.matrix @ res.h - model.b(grid.nodes) * res.h**2
    assert np.max(np.abs(resid)) < 1e-8


def test_h_newton_nonconvergence_raises(supercritical_oscillator_setup, monkeypatch):
    import branchlab.moments as mom

    model, dyn, grid, gen, spec = supercritical_oscillator_setup
    monkeypatch.setattr(mom, "_NEWTON_MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match="Newton"):
        solve_h(model, dyn, grid, tol=1e-6, generator=gen, spectral=spec)


def test_h_deathless_degenerate(box_grid, zero_drift):
    model = make_constant_model(0.9, 0.0)
    gen = build_generator(model, zero_drift, box_grid)
    from branchlab.semigroup import principal_eigentriple

    spec = principal_eigentriple(gen, model)
    res = solve_h(model, zero_drift, box_grid, tol=1e-6, generator=gen, spectral=spec)
    assert np.max(np.abs(res.h_u0_route - 1.0)) < 1e-9
    assert res.degenerate  # sup h = 1 violates the strict theorem bound; flagged


# ----------------------------------------------------------------------
# Laplace functional


def test_laplace_zero_w(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    field = laplace_functional(np.ones(grid.n_points), 0.0, 1.0, gen, model, dt_pde=0.01)
    assert np.max(np.abs(field.fields[0])) == 0.0


def test_laplace_riccati_closed_form(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    w = -0.25
    field = laplace_functional(np.ones(grid.n_points), w, 1.0, gen, model, dt_pde=1e-3, ensure_times=[1.0])
    # flat case: H' = -H^2, H(0) = 1 - e^w  ->  H(t) = H0/(1 + H0 t)
    h0 = 1.0 - math.exp(w)
    exact = h0 / (1.0 + h0 * 1.0)
    assert np.max(np.abs(field.at(0, 1.0) - exact)) < 1e-6


def test_laplace_radius_domain_error(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    radius = math.exp(-model.b_star * 2.0)
    with pytest.raises(ValueError):
        laplace_functional(np.ones(grid.n_points), -1.001 * radius, 2.0, gen, model)


def test_laplace_derivative_reproduces_mean(oscillator_setup):
    model, dyn, grid, gen, _ = oscillator_setup
    xs = grid.nodes
    f = np.exp(-0.5 * xs**2)
    t_end = 1.0
    mf = solve_moments(f, 1, t_end, gen, model, dt_pde=0.005, ensure_times=[t_end])
    delta = 1e-3
    h_plus = laplace_functional(f, +delta, t_end, gen, model, dt_pde=0.005, ensure_times=[t_end])
    h_minus = laplace_functional(f, -delta, t_end, gen, model, dt_pde=0.005, ensure_times=[t_end])
    dw = (h_plus.at(0, t_end) - h_minus.at(0, t_end)) / (2.0 * delta)
    u1 = mf.at(1, t_end)
    assert np.max(np.abs(dw + u1)) < 1e-5 * max(1.0, np.max(np.abs(u1)))


def test_laplace_second_derivative_reproduces_u2(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    f = np.ones(grid.n_points)
    t_end = 1.0
    mf = solve_moments(f, 2, t_end, gen, model, dt_pde=2e-3, ensure_times=[t_end])
    delta = 2e-3
    vals = {}
    for k in (-1, 0, 1):
        fld = laplace_functional(f, k * delta, t_end, gen, model, dt_pde=2e-3, ensure_times=[t_end])
        vals[k] = fld.at(0, t_end)
    d2 = (vals[1] - 2 * vals[0] + vals[-1]) / delta**2
    u2 = mf.at(2, t_end)
    assert np.max(np.abs(d2 + u2)) < 1e-4 * np.max(np.abs(u2))


# ----------------------------------------------------------------------
# regime limits


def test_critical_limits_formulas(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    V = critical_limits(spec, model, 3)
    assert np.allclose(V[1], spec.theta0 * spec.A, rtol=1e-12)
    for n in (1, 2, 3):
        assert V[n][50] == pytest.approx(math.factorial(n), abs=2e-4)


def test_critical_limits_regime_gate(subcritical_setup):
    model, dyn, grid, gen, spec = subcritical_setup
    with pytest.raises(RegimeError):
        critical_limits(spec, model, 2)


def test_critical_v2_extrapolation_confirms_b_in_B(jumps_setup):
    # on a critical model with non-constant b, the long-time v_2 limit
    # distinguishes B = int Theta0^2 b dmu0 from the b-less variant
    model, dyn, grid, gen, spec = jumps_setup
    assert abs(spec.lambda0) < criticality_epsilon(spec)
    t_end = 60.0
    mf = solve_moments(np.ones(grid.n_points), 2, t_end, gen, model, dt_pde=0.01, n_store=120)
    x0 = np.argmin(np.abs(grid.nodes))
    v2 = mf.fields[2][:, x0] / (1.0 + mf.times)
    # Richardson in 1/(t+1): limit ~ v2(T) + (v2(T) - v2(T/2)) adjusted
    tA, tB = mf.times[-1], mf.times[len(mf.times) // 2]
    vA = np.interp(tA, mf.times, v2)
    vB = np.interp(tB, mf.times, v2)
    extrap = vA + (vA - vB) * (1.0 / (1.0 + tA)) / ((1.0 / (1.0 + tB)) - (1.0 / (1.0 + tA)))
    with_b = 2.0 * spec.theta0[x0] * spec.A**2 * spec.B
    b_less = 2.0 * spec.theta0[x0] * spec.A**2 * float(np.sum(spec.theta0**2 * spec.mu0))
    assert abs(extrap - with_b) < 0.01 * with_b
    assert abs(extrap - b_less) > 0.2 * with_b  # clearly rejects the b-less form


def test_subcritical_limits_constant_oracle(subcritical_setup):
    model, dyn, grid, gen, spec = subcritical_setup
    u0f = solve_survival(40.0, gen, model, dt_pde=0.005, n_store=400)
    mf = solve_moments(np.ones(grid.n_points), 4, 40.0, gen, model, dt_pde=0.005, n_store=400)
    sub = subcritical_limits(spec, model, mf, u0f, 4)
    assert sub["K_minus"] == pytest.approx(0.5, abs=1e-4)
    assert 0.0 < sub["K_minus"] <= spec.A + 1e-9
    assert sub["K_minus"] >= sub["V"][1] ** 2 / sub["V"][2]
    # geometric conditional law on {1, 2, ...} with q = 1/2
    for n, exact in [(1, 2.0), (2, 6.0), (3, 26.0), (4, 150.0)]:
        assert sub["V"][n] / sub["K_minus"] == pytest.approx(exact, rel=2e-4)


def test_subcritical_b_zero_limit_is_A(box_grid, zero_drift):
    model = make_constant_model(0.0, 0.8)
    model.b_star = 0.05
    gen = build_generator(model, zero_drift, box_grid)
    from branchlab.semigroup import principal_eigentriple

    spec = principal_eigentriple(gen, model)
    u0f = solve_survival(20.0, gen, model, dt_pde=0.01, n_store=200)
    mf = solve_moments(np.ones(box_grid.n_points), 2, 20.0, gen, model, dt_pde=0.01, n_store=200)
    sub = subcritical_limits(spec, model, mf, u0f, 2)
    assert sub["K_minus"] == pytest.approx(spec.A, rel=1e-9)


def test_beta_rates_arithmetic():
    grid = Grid(-1.0, 1.0, 3)
    spec = SpectralData(
        grid=grid,
        lambda0=1.0,
        lambda1=3.0,
        theta0=np.ones(3),
        mu0=np.full(3, 1 / 3),
        A=1.0,
        B=1.0,
        H=1.0,
    )
    from branchlab.moments import subcritical_limits as _  # gates need fields; test rates directly

    beta1 = spec.gap
    beta_n = (spec.lambda0 / spec.lambda1) * spec.gap
    assert beta1 == pytest.approx(2.0)
    assert beta_n == pytest.approx(2.0 / 3.0)


def test_supercritical_beta_recursion(supercritical_setup):
    model, dyn, grid, gen, spec = supercritical_setup
    sup = supercritical_limits(spec, model, gen, 2, spec.theta0)
    # lambda0 = -1, lambda1 - lambda0 = gap
    assert sup["beta"][1] == pytest.approx(spec.gap)
    expected_b2 = sup["beta"][1] * 1.0 / (sup["beta"][1] + 1.0)
    assert sup["beta"][2] == pytest.approx(expected_b2)


def test_supercritical_w_moments_and_factorization(supercritical_setup):
    model, dyn, grid, gen, spec = supercritical_setup
    sup_t = supercritical_limits(spec, model, gen, 3, spec.theta0)
    for n in (1, 2, 3):
        exact = math.factorial(n) * 2.0 ** (n - 1)  # mixture: atom 1/2, Exp(mean 2)
        assert np.max(np.abs(sup_t["V"][n] - exact)) < 0.01 * exact
    xs = grid.nodes
    bump = np.exp(-0.5 * xs**2)
    sup_b = supercritical_limits(spec, model, gen, 3, bump)
    mu_b = spec.mu0_integral(bump)
    assert np.allclose(sup_b["V"][1], sup_t["V"][1] * mu_b, rtol=1e-10)
    for n in (2, 3):
        pred = sup_t["V"][n] * mu_b**n
        rel = np.max(np.abs(sup_b["V"][n] - pred)) / np.max(np.abs(pred))
        assert rel < 1e-4


def test_supercritical_resolvent_matches_moment_march(supercritical_oscillator_setup):
    # independent route to V_n^+: e^{n lambda0 T} u_n(T) from the moment
    # march approaches the resolvent solve at rate beta_n or faster
    model, dyn, grid, gen, spec = supercritical_oscillator_setup
    f = np.ones(grid.n_points)
    sup = supercritical_limits(spec, model, gen, 3, f)
    T = 32.0
    mf = solve_moments(f, 3, T, gen, model, dt_pde=0.01, n_store=32)
    for n in (2, 3):
        v_n = mf.normalized(n, "supercritical", spec.lambda0)
        scale = np.max(np.abs(sup["V"][n]))
        err0 = np.max(np.abs(v_n[0] - sup["V"][n])) / scale
        err = np.max(np.abs(v_n[-1] - sup["V"][n])) / scale
        assert err <= err0 * math.exp(-sup["beta"][n] * T)


def test_supercritical_regime_gate(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    with pytest.raises(RegimeError):
        supercritical_limits(spec, model, gen, 2, spec.theta0)


def test_hamburger_bound_values():
    r_star, bound = hamburger_bound(1.0, 1.0, 1)
    assert r_star == pytest.approx(math.log(1.25), abs=1e-15)
    assert bound == pytest.approx(1.0 / (2.0 * math.log(1.25)))


def test_hamburger_recursion_stays_below_bound():
    a1, eta = 1.0, 0.7
    seq = hamburger_recursion_sequence(a1, eta, 12)
    for n in range(2, 13):
        _, bound = hamburger_bound(a1, eta, n)
        assert seq[n] <= bound * (1 + 1e-12)


def test_carleman_partial_sums_grow():
    sums = carleman_partial_sums([2.0, 24.0, 720.0], scale=1.0)
    assert all(b > a for a, b in zip(sums, sums[1:]))


def test_calibrate_oscillator():
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    # the discrete eigenvalue carries ~2.5e-5 bias at 801 nodes; 1601 nodes
    # put the calibrated knob within the 1e-5 target of the closed form
    grid = Grid(-8.0, 8.0, 1601)
    theta, lam, history = calibrate_criticality(
        make_oscillator_model, [0.5, 0.9], dyn, grid, tol=1e-8
    )
    assert theta == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-5)
    assert abs(lam) <= 1e-8


def test_calibrate_lambda0_within_tol_at_returned_knob():
    from branchlab.semigroup import principal_eigentriple

    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    grid = Grid(-8.0, 8.0, 401)
    tol = 1e-9
    theta, lam, history = calibrate_criticality(make_oscillator_model, [0.5, 0.9], dyn, grid, tol=tol)
    model = make_oscillator_model(theta)
    lam_again = principal_eigentriple(build_generator(model, dyn, grid), model).lambda0
    assert abs(lam_again) <= tol
    assert lam == lam_again
    assert (theta, lam) in history
    assert len({t for t, _ in history}) == len(history)  # no eigentriple computed twice


def test_calibrate_bracket_without_sign_change_raises():
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    grid = Grid(-8.0, 8.0, 401)
    with pytest.raises(ValueError, match="does not change sign"):
        calibrate_criticality(make_oscillator_model, [0.8, 0.9], dyn, grid, tol=1e-8)


def test_calibrate_returns_endpoint_when_already_critical():
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    grid = Grid(-8.0, 8.0, 401)
    theta_c, _, _ = calibrate_criticality(make_oscillator_model, [0.5, 0.9], dyn, grid, tol=1e-6)
    theta, lam, history = calibrate_criticality(
        make_oscillator_model, [theta_c, 0.9], dyn, grid, tol=1e-4
    )
    assert theta == theta_c
    assert len(history) <= 2  # no root search needed


def test_lambda0_monotone_in_additive_knob():
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    grid = Grid(-8.0, 8.0, 401)
    from branchlab.semigroup import principal_eigentriple

    lams = []
    for theta in (0.5, 0.7, 0.9):
        m = make_oscillator_model(theta)
        lams.append(principal_eigentriple(build_generator(m, dyn, grid), m).lambda0)
    assert lams[0] > lams[1] > lams[2]


def test_regime_gate_exclusivity(critical_setup, subcritical_setup, supercritical_setup):
    for _, _, _, _, spec in (critical_setup, subcritical_setup, supercritical_setup):
        regimes = {spec.regime()}
        assert len(regimes) == 1
    assert critical_setup[4].regime() == "critical"
    assert subcritical_setup[4].regime() == "subcritical"
    assert supercritical_setup[4].regime() == "supercritical"


def test_laplace_complex_w_finite(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    w = 0.05 + 0.1j
    field = laplace_functional(np.ones(grid.n_points), w, 1.0, gen, model, dt_pde=0.01)
    vals = field.fields[0][-1]
    assert np.iscomplexobj(vals)
    assert np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))
    # series check: H = -sum w^n u_n / n! with u_1 = 1, u_2 = 3 at t = 1
    series = -(w * 1.0 + w**2 * 3.0 / 2.0 + w**3 * 13.0 / 6.0 + w**4 * 75.0 / 24.0)
    assert abs(vals[50] - series) < 5e-3 * abs(series)


def test_subcritical_limits_regime_gate(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    u0f = solve_survival(2.0, gen, model, dt_pde=0.01)
    mf = solve_moments(np.ones(grid.n_points), 2, 2.0, gen, model, dt_pde=0.01)
    with pytest.raises(RegimeError):
        subcritical_limits(spec, model, mf, u0f, 2)


def test_critical_limit_residual_fit(critical_setup):
    # v_n(t, x) approaches V_n(x) with an E_n/(t+1) envelope: the scaled
    # residual (v_n - V_n)(t+1) must stay bounded over the horizon
    model, dyn, grid, gen, spec = critical_setup
    mf = solve_moments(np.ones(grid.n_points), 3, 30.0, gen, model, dt_pde=0.005, n_store=120)
    V = critical_limits(spec, model, 3)
    for n in (2, 3):
        v_n = mf.normalized(n, "critical", spec.lambda0)
        scaled = np.max(np.abs(v_n - V[n][None, :]), axis=1) * (1.0 + mf.times)
        late = scaled[mf.times >= 10.0]
        assert np.max(late) <= 2.0 * np.median(late) + 1e-9  # bounded, no growth


def test_subcritical_tail_unresolved_errors(subcritical_setup):
    model, dyn, grid, gen, spec = subcritical_setup
    u0f = solve_survival(3.0, gen, model, dt_pde=0.01)
    mf = solve_moments(np.ones(grid.n_points), 2, 3.0, gen, model, dt_pde=0.01)
    with pytest.raises(RuntimeError, match="tail"):
        subcritical_limits(spec, model, mf, u0f, 2)


# ----------------------------------------------------------------------
# the block IMEX march


def _column_source(b_vals):
    def source(state, out):
        out[:] = -b_vals[:, None] * state * state

    return source


@pytest.mark.parametrize("setup", ["oscillator_setup", "jumps_setup", "drifted_setup"])
def test_block_march_equals_column_marches(setup, request):
    from branchlab.moments import _IMEXMarcher

    model, _dyn, grid, gen, _spec = request.getfixturevalue(setup)
    b_vals = np.asarray(model.b(grid.nodes), dtype=float)
    rng = np.random.default_rng(8)
    block = rng.uniform(0.0, 1.0, (grid.n_points, 3))
    marcher = _IMEXMarcher(gen, 0.01)
    steps = [0, 3, 10]
    together = marcher.run(block, _column_source(b_vals), 0.1, steps, smooth_start=True)
    assert together.shape == (3, len(steps), grid.n_points)
    for j in range(3):
        alone = marcher.run(block[:, [j]], _column_source(b_vals), 0.1, steps, smooth_start=True)
        assert np.array_equal(together[j], alone[0])


def test_imex_march_matches_dense_scheme(jumps_setup):
    """Two implicit-Euler half-step pairs with a midpoint source refresh,
    then CN predictor-corrector steps with the averaged source."""
    from branchlab.moments import _IMEXMarcher

    model, _dyn, grid, gen, _spec = jumps_setup
    dt = 0.02
    b_vals = np.asarray(model.b(grid.nodes), dtype=float)
    L = gen.matrix.toarray()
    eye = np.eye(grid.n_points)
    left, right = eye - 0.5 * dt * L, eye + 0.5 * dt * L

    def src(u):
        return -b_vals * u * u

    u = np.exp(-0.5 * grid.nodes**2)
    want = [u]
    for step in range(6):
        if step < 2:
            half = np.linalg.solve(left, u + 0.5 * dt * src(u))
            u = np.linalg.solve(left, half + 0.5 * dt * src(half))
        else:
            pred = np.linalg.solve(left, right @ u + dt * src(u))
            u = np.linalg.solve(left, right @ u + dt * 0.5 * (src(u) + src(pred)))
        want.append(u)
    got = _IMEXMarcher(gen, dt).run(want[0][:, None], _column_source(b_vals), 6 * dt, range(7), smooth_start=True)
    for k in range(7):
        assert np.max(np.abs(got[0, k] - want[k])) < 1e-13 * np.max(np.abs(want[k]))


def test_marches_share_one_factorization(supercritical_oscillator_setup, monkeypatch):
    """Moment, survival and Laplace-functional marches at one (generator,
    dt) reuse the cached propagator instead of factoring again."""
    from branchlab import semigroup

    model, _dyn, grid, gen, _spec = supercritical_oscillator_setup
    built = []
    init = semigroup.Propagator.__init__

    def counting_init(self, generator, dt, rannacher=2):
        built.append(dt)
        init(self, generator, dt, rannacher)

    monkeypatch.setattr(semigroup.Propagator, "__init__", counting_init)
    monkeypatch.setattr(semigroup, "_PROP_CACHE", {})
    solve_moments(np.ones(grid.n_points), 2, 0.2, gen, model, dt_pde=0.004)
    solve_survival(0.2, gen, model, dt_pde=0.004)
    laplace_functional(np.ones(grid.n_points), 0.1, 0.2, gen, model, dt_pde=0.004)
    assert built == [0.004]
