import math

import numpy as np
import pytest

from branchlab import DynamicsSpec, Grid, validate_hypotheses
from branchlab.moments import (
    RegimeError,
    _brentq,
    _newton_h,
    calibrate_criticality,
    critical_limits,
    hamburger_bound,
    laplace_functional,
    solve_h,
    solve_moments,
    solve_survival,
    subcritical_limits,
    supercritical_limits,
)
from branchlab.semigroup import SpectralData, build_generator, evolve_P

from .conftest import make_constant_model, make_oscillator_model
from .oracles import (
    bd_survival,
    constant,
    duhamel_residual,
    hamburger_recursion_sequence,
    slice_at,
    survival_semigroup_check,
)


def test_critical_second_moment_closed_form(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    mf = solve_moments(np.ones(grid.n_points), 2, 1.0, gen, model, dt_pde=1e-3, n_store=200)
    u2 = slice_at(mf, 2, 1.0)
    assert np.max(np.abs(u2 - 3.0)) < 1e-6


def test_zero_function_stays_zero(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    mf = solve_moments(np.zeros(grid.n_points), 3, 1.0, gen, model, dt_pde=0.01, n_store=200)
    for n in (1, 2, 3):
        assert np.max(np.abs(mf.fields[n])) == 0.0


def test_u1_matches_evolve_p(oscillator_setup):
    model, dyn, grid, gen, _ = oscillator_setup
    xs = grid.nodes
    f = np.exp(-0.5 * xs**2)
    mf = solve_moments(f, 2, 1.0, gen, model, dt_pde=0.005, n_store=200)
    direct = evolve_P(f, 1.0, gen, dt_pde=0.005, smooth_start=True)
    assert np.max(np.abs(slice_at(mf, 1, 1.0) - direct)) < 1e-8


def test_yule_second_moment(box_grid, zero_drift):
    model = make_constant_model(1.0, 0.0)
    gen = build_generator(model, zero_drift, box_grid)
    mf = solve_moments(np.ones(box_grid.n_points), 2, 1.0, gen, model, dt_pde=1e-4, n_store=200)
    exact = 2.0 * math.e**2 - math.e
    assert np.max(np.abs(slice_at(mf, 2, 1.0) - exact)) < 1e-5


def test_survival_riccati(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    u0 = solve_survival(9.0, gen, model, dt_pde=1e-3, n_store=200, ensure_times=[9.0])
    assert np.max(np.abs(slice_at(u0, 0, 9.0) - 0.1)) < 1e-6


def test_survival_pure_death(box_grid, zero_drift):
    delta = 0.7
    model = make_constant_model(0.0, delta)
    model.b_star = 0.1
    gen = build_generator(model, zero_drift, box_grid)
    u0 = solve_survival(2.0, gen, model, dt_pde=1e-3, n_store=200, ensure_times=[2.0])
    assert np.max(np.abs(slice_at(u0, 0, 2.0) - math.exp(-delta * 2.0))) < 1e-6


def test_survival_no_deaths(box_grid, zero_drift):
    model = make_constant_model(0.8, 0.0)
    gen = build_generator(model, zero_drift, box_grid)
    u0 = solve_survival(2.0, gen, model, dt_pde=1e-3, n_store=200)
    assert np.max(np.abs(u0.fields[0] - 1.0)) < 1e-9


def test_survival_bounds_and_monotone(oscillator_setup):
    model, dyn, grid, gen, _ = oscillator_setup
    u0f = solve_survival(5.0, gen, model, dt_pde=0.005, n_store=200)
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
        solve_moments(np.ones(101), 2, 3.0, gen, model, dt_pde=0.01, n_store=200)


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
    res = solve_h(model, gen, spec, dt_pde=0.005)
    assert np.all(res.h == 0.0)
    # the Newton diagnostic ran: its steps shrink toward the zero solution,
    # which it reaches within tol
    _, steps = _newton_h(gen, model.b(grid.nodes))
    assert steps[-1] < steps[0]
    assert res.iterations == len(steps) > 1
    assert res.agreement < 1e-6


def test_h_zero_in_subcritical_regime(subcritical_setup):
    model, dyn, grid, gen, spec = subcritical_setup
    res = solve_h(model, gen, spec, dt_pde=0.005)
    assert np.all(res.h == 0.0)


def test_h_supercritical_constant(supercritical_setup):
    model, dyn, grid, gen, spec = supercritical_setup
    res = solve_h(model, gen, spec, dt_pde=0.005)
    assert np.max(np.abs(res.h - 0.5)) < 1e-6
    assert np.max(np.abs(res.h_u0_route - 0.5)) < 1e-6
    assert res.agreement < 3e-6


def test_h_newton_matches_u0_route_on_oscillator(supercritical_oscillator_setup):
    model, dyn, grid, gen, spec = supercritical_oscillator_setup
    tol = 1e-6
    res = solve_h(model, gen, spec, dt_pde=0.01)
    assert np.max(np.abs(res.h - res.h_u0_route)) <= 3.0 * tol
    assert res.agreement <= 3.0 * tol
    assert _newton_h(gen, model.b(grid.nodes))[1][-1] < 0.2 * tol
    carrying = spec.theta0 > 1e-8 * np.max(spec.theta0)
    assert np.all(res.h[carrying] > 0.0)
    # non-constant: the killing d = x^2 pulls h down away from the origin
    assert np.ptp(res.h[carrying]) > 0.1
    # and h is a stationary solution of L h - b h^2 = 0
    resid = gen.matrix @ res.h - model.b(grid.nodes) * res.h**2
    assert np.max(np.abs(resid)) < 1e-8


@pytest.mark.parametrize(
    "setup, dt_pde, t_end, n_store",
    [("supercritical_setup", 0.005, 16.0, 200), ("supercritical_oscillator_setup", 0.01, 20.0, 100)],
)
def test_h_route_continues_a_survey_march(setup, dt_pde, t_end, n_store, request, monkeypatch):
    """Continued from a survival field, the u0 route starts no new march
    from t = 0 and agrees with the route that does to 3 tol."""
    import branchlab.moments as mom
    from branchlab import semigroup

    model, dyn, grid, gen, spec = request.getfixturevalue(setup)
    tol = 1e-6
    fresh = solve_h(model, gen, spec, dt_pde=dt_pde)
    survey = solve_survival(t_end, gen, model, dt_pde=dt_pde, n_store=n_store)
    started = []
    monkeypatch.setattr(mom, "solve_survival", lambda *a, **k: started.append(a))
    march = semigroup.Propagator.march
    # a march from the initial data takes the damped start
    monkeypatch.setattr(
        semigroup.Propagator, "march", lambda *a, **k: (k.get("smooth_start") and started.append(a)) or march(*a, **k)
    )
    cont = solve_h(model, gen, spec, dt_pde=dt_pde, survival=survey)
    assert not started
    assert np.array_equal(cont.h, fresh.h)
    assert np.max(np.abs(cont.h_u0_route - fresh.h_u0_route)) <= 3.0 * tol
    assert cont.agreement <= 3.0 * tol


def test_h_newton_nonconvergence_raises(supercritical_oscillator_setup, monkeypatch):
    import branchlab.moments as mom

    model, dyn, grid, gen, spec = supercritical_oscillator_setup
    monkeypatch.setattr(mom, "_NEWTON_MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match="Newton"):
        solve_h(model, gen, spec, dt_pde=0.005)


def test_h_deathless_degenerate(box_grid, zero_drift):
    model = make_constant_model(0.9, 0.0)
    gen = build_generator(model, zero_drift, box_grid)
    from branchlab.semigroup import principal_eigentriple

    spec = principal_eigentriple(gen, model)
    res = solve_h(model, gen, spec, dt_pde=0.005)
    assert np.max(np.abs(res.h_u0_route - 1.0)) < 1e-9
    # sup h = 1 violates the strict theorem bound; validate names the
    # deathless model
    assert np.max(res.h) >= 1.0 - 1e-5
    checks = {c.name: c.passed for c in validate_hypotheses(model, zero_drift, box_grid).checks}
    assert not checks["HV1-d-nonzero"]


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
    assert np.max(np.abs(slice_at(field, 0, 1.0) - exact)) < 1e-6


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
    mf = solve_moments(f, 1, t_end, gen, model, dt_pde=0.005, n_store=200, ensure_times=[t_end])
    delta = 1e-3
    h_plus = laplace_functional(f, +delta, t_end, gen, model, dt_pde=0.005, ensure_times=[t_end])
    h_minus = laplace_functional(f, -delta, t_end, gen, model, dt_pde=0.005, ensure_times=[t_end])
    dw = (slice_at(h_plus, 0, t_end) - slice_at(h_minus, 0, t_end)) / (2.0 * delta)
    u1 = slice_at(mf, 1, t_end)
    assert np.max(np.abs(dw + u1)) < 1e-5 * max(1.0, np.max(np.abs(u1)))


def test_laplace_second_derivative_reproduces_u2(critical_setup):
    model, dyn, grid, gen, _ = critical_setup
    f = np.ones(grid.n_points)
    t_end = 1.0
    mf = solve_moments(f, 2, t_end, gen, model, dt_pde=2e-3, n_store=200, ensure_times=[t_end])
    delta = 2e-3
    vals = {}
    for k in (-1, 0, 1):
        fld = laplace_functional(f, k * delta, t_end, gen, model, dt_pde=2e-3, ensure_times=[t_end])
        vals[k] = slice_at(fld, 0, t_end)
    d2 = (vals[1] - 2 * vals[0] + vals[-1]) / delta**2
    u2 = slice_at(mf, 2, t_end)
    assert np.max(np.abs(d2 + u2)) < 1e-4 * np.max(np.abs(u2))


# ----------------------------------------------------------------------
# regime limits


def test_critical_limits_formulas(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    V = critical_limits(spec, 3)
    assert np.allclose(V[1], spec.theta0 * spec.A, rtol=1e-12)
    for n in (1, 2, 3):
        assert V[n][50] == pytest.approx(math.factorial(n), abs=2e-4)


def test_critical_limits_regime_gate(subcritical_setup):
    model, dyn, grid, gen, spec = subcritical_setup
    with pytest.raises(RegimeError):
        critical_limits(spec, 2)


def test_critical_v2_extrapolation_confirms_b_in_B(jumps_setup):
    # on a critical model with non-constant b, the long-time v_2 limit
    # distinguishes B = int Theta0^2 b dmu0 from the b-less variant
    model, dyn, grid, gen, spec = jumps_setup
    assert abs(spec.lambda0) < spec.criticality_eps
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
        v_n = np.exp(n * spec.lambda0 * mf.times)[:, None] * mf.fields[n]
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


def _search(solver, f, a, b, **kw):
    """(root or exception type, points evaluated) of one root search."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    try:
        return solver(g, a, b, **kw), calls
    except (ValueError, RuntimeError) as err:
        return type(err), calls


def test_brentq_matches_scipy_iterate_for_iterate():
    from scipy.optimize import brentq

    rng = np.random.default_rng(20)
    outcomes = set()
    for _ in range(1000):
        # half-widths from 1e-12 up: narrow brackets put the steps near the
        # tolerance, where the bisection fallbacks decide
        c = rng.uniform(-3.0, 3.0)
        a, b = c - 10.0 ** rng.uniform(-12.0, 0.7), c + 10.0 ** rng.uniform(-12.0, 0.7)
        if rng.random() < 0.5:
            a, b = b, a
        for name, f in (
            ("smooth", lambda x: math.tanh(x - c) + 0.1 * (x - c)),
            ("flat", lambda x: (x - c) ** 5),
            ("step", lambda x: 1.0 if x > c else -1.0),
            ("slope", lambda x: 1e-9 * (x - c)),
        ):
            ours, theirs = _search(_brentq, f, a, b), _search(brentq, f, a, b)
            # == on floats: the same root after the same evaluations
            assert ours == theirs, (name, a, b, c)
            outcomes.add((name, ours[0] is RuntimeError))
    # every function converged on some brackets; the flat one also runs out
    # of iterations on some
    assert {(n, False) for n in ("smooth", "flat", "step", "slope")} | {("flat", True)} <= outcomes


def test_brentq_edge_cases_match_scipy(monkeypatch):
    import branchlab.moments as mom
    from scipy.optimize import brentq

    cases = [
        (lambda x: x - 1.0, 1.0, 3.0, 100),  # exact zero at the left end
        (lambda x: x - 3.0, 1.0, 3.0, 100),  # and at the right end
        (lambda x: x * x + 1.0, -1.0, 2.0, 100),  # same sign: ValueError
        (lambda x: 1e-200 * (x * x + 1.0), -1.0, 2.0, 100),  # same sign though f(a) f(b) underflows to 0
        (lambda x: math.tanh(x - 0.3), -2.0, 5.0, 3),  # RuntimeError
        (lambda x: math.nan, -1.0, 2.0, 100),  # NaN: ValueError at once
    ]
    expected = [(1.0, 2), (3.0, 2), (ValueError, 2), (ValueError, 2), (RuntimeError, 5), (ValueError, 1)]
    for (f, a, b, maxiter), (want, evaluations) in zip(cases, expected):
        monkeypatch.setattr(mom, "_BRENT_MAX_ITER", maxiter)
        ours = _search(_brentq, f, a, b)
        assert ours == _search(brentq, f, a, b, maxiter=maxiter)
        assert ours[0] == want and len(ours[1]) == evaluations


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


def test_subcritical_limits_regime_gate(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    u0f = solve_survival(2.0, gen, model, dt_pde=0.01, n_store=200)
    mf = solve_moments(np.ones(grid.n_points), 2, 2.0, gen, model, dt_pde=0.01, n_store=200)
    with pytest.raises(RegimeError):
        subcritical_limits(spec, model, mf, u0f, 2)


def test_critical_limit_residual_fit(critical_setup):
    # v_n(t, x) approaches V_n(x) with an E_n/(t+1) envelope: the scaled
    # residual (v_n - V_n)(t+1) must stay bounded over the horizon
    model, dyn, grid, gen, spec = critical_setup
    mf = solve_moments(np.ones(grid.n_points), 3, 30.0, gen, model, dt_pde=0.005, n_store=120)
    V = critical_limits(spec, 3)
    for n in (2, 3):
        v_n = mf.fields[n] / (1.0 + mf.times[:, None]) ** (n - 1)
        scaled = np.max(np.abs(v_n - V[n][None, :]), axis=1) * (1.0 + mf.times)
        late = scaled[mf.times >= 10.0]
        assert np.max(late) <= 2.0 * np.median(late) + 1e-9  # bounded, no growth


def test_subcritical_tail_unresolved_errors(subcritical_setup):
    model, dyn, grid, gen, spec = subcritical_setup
    u0f = solve_survival(3.0, gen, model, dt_pde=0.01, n_store=200)
    mf = solve_moments(np.ones(grid.n_points), 2, 3.0, gen, model, dt_pde=0.01, n_store=200)
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
    from branchlab.semigroup import Propagator

    model, _dyn, grid, gen, _spec = request.getfixturevalue(setup)
    b_vals = np.asarray(model.b(grid.nodes), dtype=float)
    rng = np.random.default_rng(8)
    block = rng.uniform(0.0, 1.0, (grid.n_points, 3))
    steps = [0, 3, 10, 40]
    together, _err = Propagator.march(gen, 0.01, block, 0.4, steps, source_fn=_column_source(b_vals), smooth_start=True)
    assert together.shape == (3, len(steps), grid.n_points)
    for j in range(3):
        alone, _err = Propagator.march(
            gen, 0.01, block[:, [j]], 0.4, steps, source_fn=_column_source(b_vals), smooth_start=True
        )
        assert np.array_equal(together[j], alone[0])


@pytest.mark.parametrize("setup", ["oscillator_setup", "jumps_setup", "drifted_setup"])
@pytest.mark.parametrize("n_max", [1, 2, 4])
def test_moment_march_equals_the_full_block_march(setup, n_max, request):
    """Marching more orders changes no bit of the lower ones: the source of
    an order reads only the orders below it, and the block takes the steps
    of order 1."""
    model, _dyn, grid, gen, _spec = request.getfixturevalue(setup)
    f_vals = 0.5 + np.exp(-0.5 * grid.nodes**2)
    mf = solve_moments(f_vals, n_max, 2.0, gen, model, dt_pde=0.01, n_store=8)
    full = solve_moments(f_vals, 4, 2.0, gen, model, dt_pde=0.01, n_store=8)
    assert mf.orders == list(range(1, n_max + 1))
    for n in mf.orders:
        assert np.array_equal(mf.fields[n], full.fields[n])


def test_blowup_guard_fires_at_the_first_step_over_the_ceiling(monkeypatch):
    from branchlab import semigroup
    from branchlab.branching import yule_moment_bound
    from branchlab.moments import BlowupError

    grid = Grid(-4.0, 4.0, 101, boundary="reflecting")
    model = make_constant_model(1.0, 0.0)
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    gen = build_generator(model, dyn, grid)
    model.b_star = 0.05
    # every accepted step's time and peaks, as the guard sees them
    seen = []
    march = semigroup.Propagator.march

    def watched(*args, guard=None, **kwargs):
        def watch(state, t):
            seen.append((t, np.abs(state).max(axis=0)))
            guard(state, t)

        return march(*args, guard=watch, **kwargs)

    monkeypatch.setattr(semigroup.Propagator, "march", watched)
    with pytest.raises(BlowupError) as raised:
        solve_moments(np.ones(101), 2, 3.0, gen, model, dt_pde=0.01, n_store=200)
    first = next(
        t for t, peaks in seen if any(peaks[n - 1] > 10.0 * yule_moment_bound(n, t, 0.05) for n in (1, 2))
    )
    assert seen[-1][0] == first
    assert f"at t = {first:.3g}," in str(raised.value)


def _dense_trbdf2(gen, u, h, src, triangular):
    """One TR-BDF2 step by dense solves: the trapezoidal stage to t + gamma h
    and the BDF2 stage to t + h, each solving with I - (gamma h / 2) L.
    A triangular source is taken once per stage at the stage's end
    extrapolated from u; any other is a predictor-corrector."""
    g, w = 2.0 - math.sqrt(2.0), (1.0 + math.sqrt(2.0)) / 2.0
    L = gen.matrix.toarray()
    eye = np.eye(L.shape[0])
    left, right = eye - 0.5 * g * h * L, eye + 0.5 * g * h * L
    s0 = src(u)
    if triangular:
        s1 = 0.5 * (s0 + src(u + g * h * (L @ u + s0)))
    else:
        s1 = 0.5 * (s0 + src(np.linalg.solve(left, right @ u + g * h * s0)))
    y2 = np.linalg.solve(left, right @ u + g * h * s1)
    rhs = u + w * (y2 - u)
    s2 = src(u + (y2 - u) / g)
    y3 = np.linalg.solve(left, rhs + 0.5 * g * h * s2)
    if not triangular:
        y3 = np.linalg.solve(left, rhs + 0.5 * g * h * src(y3))
    return y3


def test_imex_march_matches_dense_scheme(jumps_setup):
    """Each step the march takes, from its damped start to a step longer
    than dt_pde, is the dense TR-BDF2 step with the source of
    ``Propagator.step_trbdf2``, for a source that reads its own column and
    for a triangular one."""
    model, _dyn, grid, gen, _spec = jumps_setup
    for triangular in (False, True):
        _check_steps_against_dense_scheme(gen, np.asarray(model.b(grid.nodes), dtype=float), triangular)


def _check_steps_against_dense_scheme(gen, b_vals, triangular):
    from branchlab import semigroup
    from branchlab.semigroup import Propagator

    def source(state, out):
        out[:] = -b_vals[:, None] * state * state
        if triangular:
            # column 1 reads column 0, which has no source
            out[:, 1] = b_vals * state[:, 0] * state[:, 0]
            out[:, 0] = 0.0

    taken = []
    step = Propagator.step_trbdf2

    def recorded(self, u, *args):
        new, *rest = step(self, u, *args)
        taken.append((self.dt / semigroup._GAMMA, u.copy(), new))
        return (new, *rest)

    init = np.exp(-0.5 * gen.grid.nodes**2)
    block = np.column_stack([init, init]) if triangular else init[:, None]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Propagator, "step_trbdf2", recorded)
        Propagator.march(gen, 0.02, block, 20.0, [0, 1000], source_fn=source, smooth_start=True, triangular=triangular)
    assert max(h for h, _u, _new in taken) > 0.02
    for h, u, new in taken[:: max(1, len(taken) // 12)]:

        def src(x):
            out = np.empty_like(x)
            source(x, out)
            return out

        want = _dense_trbdf2(gen, u, h, src, triangular)
        assert np.max(np.abs(new - want)) < 1e-12 * np.max(np.abs(want))


def test_marches_share_one_factorization(supercritical_oscillator_setup, monkeypatch):
    """Moment, survival and Laplace-functional marches at one (generator,
    dt_pde) factor each distinct step once: the cache serves every later
    use, and the controller meets few distinct steps."""
    from branchlab import semigroup

    model, _dyn, grid, gen, _spec = supercritical_oscillator_setup
    built = []
    init = semigroup.Propagator.__init__

    def counting_init(self, generator, dt):
        built.append(dt)
        init(self, generator, dt)

    monkeypatch.setattr(semigroup.Propagator, "__init__", counting_init)
    monkeypatch.setattr(semigroup, "_PROP_CACHE", {})
    solve_moments(np.ones(grid.n_points), 2, 0.2, gen, model, dt_pde=0.004, n_store=200)
    solve_survival(0.2, gen, model, dt_pde=0.004, n_store=200)
    laplace_functional(np.ones(grid.n_points), 0.1, 0.2, gen, model, dt_pde=0.004)
    assert len(built) == len(set(built)) <= 12
