import json
import math

import numpy as np
import pytest
import scipy.integrate

from branchlab import DynamicsSpec, Grid, JumpKernel, RateModel
from branchlab.curves import Curve, constant
from branchlab.model import NotApplicableError
from branchlab.semigroup import (
    GridTooNarrowError,
    Propagator,
    SpectralData,
    build_generator,
    constants_AB,
    evolve_P,
    evolve_Q,
    fit_H,
    girsanov_crosscheck,
    hp4_edge_decay,
    principal_eigentriple,
    q_generator,
)

from .conftest import make_constant_model, make_oscillator_model
from .oracles import oscillator_eigenvalue


def test_conservation_reflecting_rows(zero_drift):
    m = make_constant_model(1.0, 1.0)  # V = 0
    gen = build_generator(m, zero_drift, Grid(-3.0, 3.0, 61, boundary="reflecting"))
    rows = np.asarray(gen.motion_jump.sum(axis=1)).ravel()
    assert np.max(np.abs(rows)) < 1e-12


def test_conservation_with_jumps(jump_kernel, zero_drift):
    m = make_constant_model(1.0, 1.0)
    dyn = DynamicsSpec(variant="diffusion-jumps", a=constant(0.0), jump=jump_kernel)
    gen = build_generator(m, dyn, Grid(-3.0, 3.0, 61, boundary="reflecting"))
    rows = np.asarray(gen.motion_jump.sum(axis=1)).ravel()
    assert np.max(np.abs(rows)) < 1e-10
    # jump block annihilates constants
    ones = np.ones(61)
    from branchlab.semigroup import _jump_block

    assert np.max(np.abs(_jump_block(gen.grid, jump_kernel) @ ones)) < 1e-10


def test_diagonal_shift_identity(oscillator_setup):
    model, dyn, grid, gen, spec = oscillator_setup
    c = 0.37
    gen_shift = gen.with_potential(gen.potential_diag + c)
    spec_shift = principal_eigentriple(gen_shift, model)
    assert spec_shift.lambda0 == pytest.approx(spec.lambda0 - c, abs=1e-9)
    assert np.max(np.abs(spec_shift.theta0 - spec.theta0)) < 1e-8


def test_grid_too_narrow_suggests_widening():
    m = make_oscillator_model(0.5)
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    with pytest.raises(GridTooNarrowError):
        build_generator(m, dyn, Grid(-2.0, 2.0, 41, boundary="absorbing"))


def test_evolve_identity_at_zero(critical_setup):
    _, _, grid, gen, _ = critical_setup
    g = np.sin(grid.nodes)
    assert np.array_equal(evolve_P(g, 0.0, gen), g)


def test_evolve_constant_potential_exponential(box_grid, zero_drift):
    m = make_constant_model(1.3, 1.0)  # V = 0.3, conservative motion
    gen = build_generator(m, zero_drift, box_grid)
    u = evolve_P(np.ones(box_grid.n_points), 2.0, gen, dt_pde=0.005)
    assert np.max(np.abs(u - math.exp(0.3 * 2.0))) < 1e-6


def test_semigroup_composition(oscillator_setup):
    _, _, grid, gen, _ = oscillator_setup
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=4)
    xs = grid.nodes
    g = sum(c * np.exp(-((xs - k) ** 2) / 2.0) for k, c in zip((-2, -1, 1, 2), coeffs))
    u1 = evolve_P(g, 1.5, gen)
    u2 = evolve_P(evolve_P(g, 0.7, gen), 0.8, gen)
    assert np.max(np.abs(u1 - u2)) < 1e-8


def test_monotone_in_data(oscillator_setup):
    _, _, grid, gen, _ = oscillator_setup
    xs = grid.nodes
    g_lo = np.exp(-(xs**2))
    # the added mass must vanish at the absorbing edges well below 1e-12
    g_hi = g_lo + 0.5 * np.exp(-((xs - 1) ** 2) / 2.0)
    u_lo = evolve_P(g_lo, 1.0, gen)
    u_hi = evolve_P(g_hi, 1.0, gen)
    assert np.min(u_hi - u_lo) > -1e-12


def test_evolve_q_trivials(box_grid, zero_drift):
    m = make_constant_model(1.0, 2.0)  # b + d = 3
    gen = build_generator(m, zero_drift, box_grid)
    g = np.ones(box_grid.n_points)
    assert np.array_equal(evolve_Q(g, 0.0, m, generator=gen), g)
    u = evolve_Q(g, 1.0, m, generator=gen, dt_pde=0.001)
    assert np.max(np.abs(u - math.exp(-3.0))) < 1e-6


def test_q_below_p_for_nonnegative(oscillator_setup):
    model, dyn, grid, gen, _ = oscillator_setup
    rng = np.random.default_rng(1)
    xs = grid.nodes
    for _ in range(3):
        g = np.abs(rng.normal(size=3)) @ np.stack(
            [np.exp(-((xs - c) ** 2)) for c in rng.uniform(-2, 2, size=3)]
        )
        p = evolve_P(g, 1.0, gen)
        q = evolve_Q(g, 1.0, model, generator=gen)
        assert np.all(q <= p + 1e-10)
        assert np.all(evolve_Q(np.ones_like(xs), 1.0, model, generator=gen) <= 1.0 + 1e-10)


def test_oscillator_eigenvalues(oscillator_setup):
    # V = theta - x^2 with theta = 1/sqrt(2): lambda0 = 0, lambda1 = 2 sqrt(2) - ... shifted
    model, dyn, grid, gen, spec = oscillator_setup
    theta = 1.0 / math.sqrt(2.0)
    assert abs(spec.lambda0 - (oscillator_eigenvalue(0) - theta)) < 1e-3
    assert abs(spec.lambda1 - (oscillator_eigenvalue(1) - theta)) < 1e-3
    assert spec.eigen_residual < 1e-6


def test_mu0_equals_theta0_rho(oscillator_setup):
    _, _, grid, gen, spec = oscillator_setup
    mu_pred = spec.theta0 * gen.rho
    mu_pred /= np.dot(mu_pred, spec.theta0)
    assert np.max(np.abs(mu_pred - spec.mu0)) < 1e-6


def test_mu0_identity_with_nonzero_drift():
    # the fitted divergence-form scheme keeps the identity for a != 0 too
    grid = Grid(-8.0, 8.0, 401)
    m = RateModel(
        b=constant(0.4),
        d=Curve("polynomial", {"coeffs": [0.0, 0.0, 0.5]}),
        b_star=0.4,
        hd_constants={"c": 1.0, "c_prime": 1.0, "radius": 2.0},
    )
    dyn = DynamicsSpec(variant="diffusion", a=Curve("polynomial", {"coeffs": [0.0, 0.5]}))
    gen = build_generator(m, dyn, grid)
    spec = principal_eigentriple(gen, m)
    mu_pred = spec.theta0 * gen.rho
    mu_pred /= np.dot(mu_pred, spec.theta0)
    assert np.max(np.abs(mu_pred - spec.mu0)) < 1e-6


def test_constants_ab_toy(critical_setup):
    model, _, _, _, spec = critical_setup
    A, B = constants_AB(spec, model)
    assert A == pytest.approx(1.0, abs=1e-5)
    assert B == pytest.approx(1.0, abs=1e-5)


def test_constants_ab_scaling(box_grid, zero_drift):
    kappa = 3.0
    m1 = make_constant_model(1.0, 1.0)
    m2 = make_constant_model(kappa, kappa)  # b scaled; same V = 0, same spectrum
    gen = build_generator(m1, zero_drift, box_grid)
    spec = principal_eigentriple(gen, m1)
    A1, B1 = constants_AB(spec, m1)
    A2, B2 = constants_AB(spec, m2)
    assert A2 == pytest.approx(A1)
    assert B2 == pytest.approx(kappa * B1)


def test_constants_ab_quadrature_oracle(zero_drift):
    grid = Grid(-8.0, 8.0, 801)
    m = RateModel(
        b=Curve("gaussian-bump", {"amplitude": 0.7, "width": 1.0}),
        d=Curve("polynomial", {"coeffs": [0.0, 0.0, 1.0]}),
        b_star=0.7,
        hd_constants={"c": 1.0, "c_prime": 1.0, "radius": 2.0},
    )
    gen = build_generator(m, zero_drift, grid)
    spec = principal_eigentriple(gen, m)
    # independent quadrature: mu0 ~ theta0 * rho normalized by int theta0^2 rho
    xs = grid.nodes
    dens = spec.theta0 * np.exp(-2.0 * gen.ell)
    norm = scipy.integrate.simpson(dens * spec.theta0, x=xs)
    A_quad = scipy.integrate.simpson(dens, x=xs) / norm
    B_quad = scipy.integrate.simpson(dens * spec.theta0**2 * m.b(xs), x=xs) / norm
    assert spec.A == pytest.approx(A_quad, abs=1e-8)
    assert spec.B == pytest.approx(B_quad, abs=1e-8)


def test_girsanov_zero_drift_identical():
    grid = Grid(-8.0, 8.0, 401)
    m = make_oscillator_model(0.3)
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    rep = girsanov_crosscheck(dyn, m, grid)
    assert rep["max_deviation"] < 1e-10


def test_girsanov_conjugated_oscillator():
    # a(x) = x, V = -x^2/2 + c: conjugated potential is c + 1/2 - x^2
    grid = Grid(-8.0, 8.0, 801)
    c = 0.4
    m = RateModel(
        b=constant(0.1),
        d=Curve("polynomial", {"coeffs": [0.1 - c, 0.0, 0.5]}),
        b_star=0.1,
        hd_constants={"c": 1.0, "c_prime": 1.0, "radius": 2.0},
    )
    dyn = DynamicsSpec(variant="diffusion", a=Curve("polynomial", {"coeffs": [0.0, 1.0]}))
    rep = girsanov_crosscheck(dyn, m, grid, n_eigs=3)
    exact = [-(oscillator_eigenvalue(k) - c - 0.5) for k in range(3)]
    assert rep["max_deviation"] < 1e-3
    for got, want in zip(rep["eigenvalues"], exact):
        assert abs(got - want) < 1e-3


def test_girsanov_ground_state_transform():
    # second-order eigenfunction error: 3201 nodes put the |x| <= 3 interior
    # comfortably under the 1e-4 relative target
    grid = Grid(-8.0, 8.0, 3201)
    c = 0.4
    m = RateModel(
        b=constant(0.1),
        d=Curve("polynomial", {"coeffs": [0.1 - c, 0.0, 0.5]}),
        b_star=0.1,
        hd_constants={"c": 1.0, "c_prime": 1.0, "radius": 2.0},
    )
    dyn = DynamicsSpec(variant="diffusion", a=Curve("polynomial", {"coeffs": [0.0, 1.0]}))
    gen = build_generator(m, dyn, grid)
    spec = principal_eigentriple(gen, m)
    xs = grid.nodes
    # eigenfunction of the drifted operator = e^{l} * oscillator ground state
    predicted = np.exp(xs**2 / 2.0) * np.exp(-(xs**2) / math.sqrt(2.0))
    predicted /= predicted.max()
    interior = np.abs(xs) <= 3.0
    rel = np.abs(spec.theta0[interior] - predicted[interior]) / predicted[interior]
    assert np.max(rel) < 1e-4


def test_girsanov_not_applicable(jumps_setup):
    model, dyn, grid, _, _ = jumps_setup
    with pytest.raises(NotApplicableError):
        girsanov_crosscheck(dyn, model, grid)


def test_hp4_edge_decay(oscillator_setup, box_grid, zero_drift):
    model, dyn, grid, gen, _ = oscillator_setup
    rep = hp4_edge_decay(gen, 1.0)
    assert rep["passed"]
    m0 = make_constant_model(1.0, 1.0)  # V = 0, reflecting: constants preserved
    gen0 = build_generator(m0, zero_drift, box_grid)
    rep0 = hp4_edge_decay(gen0, 1.0)
    assert not rep0["passed"]


def test_hp4_wider_grid_still_passes(zero_drift):
    m = make_oscillator_model(0.5)
    for span in (8.0, 10.0):
        n = int(span * 100) + 1
        gen = build_generator(m, zero_drift, Grid(-span, span, n))
        assert hp4_edge_decay(gen, 1.0)["passed"]


def test_eigen_residual_at_propagator_level(oscillator_setup):
    _, _, _, gen, spec = oscillator_setup
    dt = 0.01
    u = evolve_P(spec.theta0, dt, gen, dt_pde=dt)
    target = math.exp(-spec.lambda0 * dt) * spec.theta0
    assert np.max(np.abs(u - target)) <= 1e-6 * np.max(spec.theta0)


def test_left_eigen_residual(oscillator_setup):
    _, _, grid, gen, spec = oscillator_setup
    rng = np.random.default_rng(3)
    xs = grid.nodes
    dt = 0.01
    for _ in range(3):
        g = rng.normal() * np.exp(-(xs**2)) + rng.normal() * np.tanh(xs)
        lhs = spec.mu0_integral(evolve_P(g, dt, gen, dt_pde=dt))
        rhs = math.exp(-spec.lambda0 * dt) * spec.mu0_integral(g)
        assert abs(lhs - rhs) < 1e-6


def test_gap_decay_rate(oscillator_setup):
    _, _, grid, gen, spec = oscillator_setup
    xs = grid.nodes
    g = np.exp(-((xs - 1.0) ** 2))
    g = g - spec.theta0 * spec.mu0_integral(g)  # mu0-orthogonal
    assert abs(spec.mu0_integral(g)) < 1e-10
    norms = {}
    u = g
    t_prev = 0.0
    for t in (1.0, 5.0):
        u = evolve_P(u, t - t_prev, gen)
        t_prev = t
        norms[t] = np.max(np.abs(math.exp(spec.lambda0 * t) * u))
    rate = -math.log(norms[5.0] / norms[1.0]) / 4.0
    assert rate >= 0.9 * spec.gap


def test_grid_convergence_richardson(zero_drift):
    m = make_oscillator_model(0.5)
    lams = {}
    for n in (201, 401, 801):
        gen = build_generator(m, zero_drift, Grid(-8.0, 8.0, n))
        lams[n] = principal_eigentriple(gen, m).lambda0
    d1 = lams[201] - lams[401]
    d2 = lams[401] - lams[801]
    # second-order scheme: prediction d2 ~ d1 / 4, allow the stated factor 4
    assert abs(d2) <= 4.0 * abs(d1) / 4.0 + 1e-12


def test_rannacher_damps_indicator_data(oscillator_setup):
    _, _, grid, gen, _ = oscillator_setup
    xs = grid.nodes
    indicator = (np.abs(xs) < 1.0).astype(float)
    u = evolve_P(indicator, 0.5, gen, smooth_start=True)
    assert np.min(u) > -1e-10


def test_eigentriple_fits_no_H(oscillator_setup, monkeypatch):
    """The eigentriple runs no propagation: H stays None until fit_H."""
    model, _dyn, _grid, gen, _spec = oscillator_setup
    built = []
    init = Propagator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Propagator, "__init__", counting_init)
    spec = principal_eigentriple(gen, model)
    assert built == []
    assert spec.H is None
    spec.H = fit_H(gen, spec, 0.01)
    assert isinstance(spec.H, float) and spec.H > 0


def test_spectral_data_round_trips_H(oscillator_setup):
    model, _dyn, _grid, gen, _spec = oscillator_setup
    spec = principal_eigentriple(gen, model)
    for H in (None, fit_H(gen, spec, 0.01)):
        spec.H = H
        doc = json.loads(json.dumps(spec.to_dict()))
        assert "H" in doc
        back = SpectralData.from_dict(doc)
        assert back.H == H and type(back.H) is type(H)
        assert back.lambda0 == spec.lambda0
        assert np.array_equal(back.theta0, spec.theta0)


# ----------------------------------------------------------------------
# the banded Crank-Nicolson kernel against dense solves


def _gaussian_jumps_generator():
    """Diffusion with a Gaussian jump kernel: the jump block fills the band."""
    grid = Grid(-4.0, 4.0, 121, boundary="reflecting")
    dyn = DynamicsSpec(variant="diffusion-jumps", a=constant(0.0), jump=JumpKernel("gaussian", 0.7, sigma=2.0))
    gen = build_generator(make_constant_model(1.0, 1.2), dyn, grid)
    assert gen.matrix[0, grid.n_points - 1] != 0.0
    return gen


@pytest.fixture(
    scope="module",
    params=["diffusion", "diffusion-jumps", "drifted-jump", "reflecting", "gaussian-jumps"],
)
def kernel_generator(request):
    if request.param == "gaussian-jumps":
        return _gaussian_jumps_generator()
    setup = {
        "diffusion": "supercritical_oscillator_setup",
        "diffusion-jumps": "jumps_setup",
        "drifted-jump": "drifted_setup",
        "reflecting": "critical_setup",
    }[request.param]
    return request.getfixturevalue(setup)[3]


def _dense_cn(gen, dt):
    L = gen.matrix.toarray()
    eye = np.eye(L.shape[0])
    return eye - 0.5 * dt * L, eye + 0.5 * dt * L


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("with_source", [False, True])
def test_step_cn_matches_dense_solve(kernel_generator, with_source):
    dt = 0.01
    prop = Propagator(kernel_generator, dt)
    left, right = _dense_cn(kernel_generator, dt)
    rng = np.random.default_rng(3)
    n = kernel_generator.n
    u = rng.uniform(0.2, 1.0, n)
    s = rng.normal(size=n) if with_source else None
    want = np.linalg.solve(left, right @ u + (dt * s if with_source else 0.0))
    got = prop.step_cn(u.copy(), s)
    assert _rel_err(got, want) < 1e-13


@pytest.mark.parametrize("with_source", [False, True])
def test_step_be_half_matches_dense_solve(kernel_generator, with_source):
    dt = 0.01
    prop = Propagator(kernel_generator, dt)
    left, _right = _dense_cn(kernel_generator, dt)
    rng = np.random.default_rng(4)
    n = kernel_generator.n
    u = rng.uniform(0.2, 1.0, n)
    s = rng.normal(size=n) if with_source else None
    want = np.linalg.solve(left, u + (0.5 * dt * s if with_source else 0.0))
    u_before = u.copy()
    got = prop.step_be_half(u, s)
    assert _rel_err(got, want) < 1e-13
    assert np.array_equal(u, u_before)  # the input is not solved in place


def test_complex_steps_match_dense_solve(jumps_setup):
    gen = jumps_setup[3]
    dt = 0.02
    prop = Propagator(gen, dt)
    left, right = _dense_cn(gen, dt)
    rng = np.random.default_rng(5)
    n = gen.n
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    s = rng.normal(size=n) - 0.5j * rng.normal(size=n)
    assert _rel_err(prop.step_cn(u, s), np.linalg.solve(left, right @ u + dt * s)) < 1e-13
    assert _rel_err(prop.step_be_half(u, s), np.linalg.solve(left, u + 0.5 * dt * s)) < 1e-13


def test_block_steps_equal_column_steps(kernel_generator):
    """Marching fields as the columns of one block gives the bits of
    marching each one alone."""
    prop = Propagator(kernel_generator, 0.01)
    rng = np.random.default_rng(6)
    block = np.asfortranarray(rng.uniform(0.0, 1.0, (kernel_generator.n, 3)))
    src = np.asfortranarray(rng.normal(size=block.shape))
    for step in (prop.step_cn, prop.step_be_half):
        got = step(block, src)
        for j in range(block.shape[1]):
            assert np.array_equal(got[:, j], step(block[:, j].copy(), src[:, j].copy()))
