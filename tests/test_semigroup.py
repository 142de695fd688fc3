import dataclasses
import json
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from branchlab import DynamicsSpec, Grid, RateModel
from branchlab import cli, semigroup
from branchlab.config import load_config
from branchlab.curves import Curve
from branchlab.model import NotApplicableError, ell_values
from branchlab.semigroup import (
    GridTooNarrowError,
    Propagator,
    build_generator,
    evolve_P,
    evolve_Q,
    fit_H,
    hp4_edge_decay,
    principal_eigentriple,
)

from .conftest import make_constant_model, make_oscillator_model
from .oracles import (
    constant,
    evolve_reference,
    girsanov_crosscheck,
    oscillator_eigenvalue,
    rightmost_eigs_dense,
    rightmost_eigs_general_dense,
)


def test_conservation_reflecting_rows(zero_drift):
    m = make_constant_model(1.0, 1.0)  # V = 0
    gen = build_generator(m, zero_drift, Grid(-3.0, 3.0, 61, boundary="reflecting"))
    rows = np.asarray(gen.matrix.sum(axis=1)).ravel()
    assert np.max(np.abs(rows)) < 1e-12


def test_conservation_with_jumps(jump_kernel, zero_drift):
    m = make_constant_model(1.0, 1.0)  # V = 0
    dyn = DynamicsSpec(variant="diffusion-jumps", a=constant(0.0), jump=jump_kernel)
    gen = build_generator(m, dyn, Grid(-3.0, 3.0, 61, boundary="reflecting"))
    rows = np.asarray(gen.matrix.sum(axis=1)).ravel()
    assert np.max(np.abs(rows)) < 1e-10
    # jump block annihilates constants
    ones = np.ones(61)
    from branchlab.semigroup import _jump_block

    assert np.max(np.abs(_jump_block(gen.grid, jump_kernel) @ ones)) < 1e-10


def test_diagonal_shift_identity(oscillator_setup):
    model, dyn, grid, gen, spec = oscillator_setup
    c = 0.37
    gen_shift = dataclasses.replace(gen, matrix=(gen.matrix + c * sp.identity(gen.n)).tocsr())
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
    assert np.array_equal(evolve_P(g, 0.0, gen, dt_pde=0.01, smooth_start=False), g)


@pytest.mark.parametrize("setup", ["oscillator_setup", "jumps_setup", "drifted_setup"])
@pytest.mark.parametrize("smooth_start", [False, True])
def test_evolve_p_equals_the_step_loop(setup, smooth_start, request):
    """evolve_P through Propagator.march gives the bits of the plain loop
    over the controller's steps, for nonsmooth and smooth data, at t = 0
    and over horizons that let the step grow past dt_pde."""
    gen = request.getfixturevalue(setup)[3]
    xs = gen.grid.nodes
    for g in ((np.abs(xs) < 1.0).astype(float), np.exp(-(xs**2)) + np.tanh(xs)):
        for t in (0.0, 0.01, 0.03, 0.5, 6.0):
            want = evolve_reference(gen, g, t, 0.01, smooth_start=smooth_start)
            got = evolve_P(g, t, gen, dt_pde=0.01, smooth_start=smooth_start)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("t", [0.015, 1.0 + 1e-6, -0.01])
def test_evolve_p_rejects_a_time_off_the_step_grid(critical_setup, t):
    gen = critical_setup[3]
    with pytest.raises(ValueError, match="not a nonnegative whole number of steps"):
        evolve_P(np.ones(gen.n), t, gen, dt_pde=0.01, smooth_start=False)


def test_fit_h_block_march_equals_one_march_per_test_function(oscillator_setup):
    """fit_H's one block march gives the H of marching each test function
    alone through the same stored times, with a damped start."""
    _model, _dyn, grid, gen, spec = oscillator_setup
    xs = grid.nodes
    width = 0.25 * (xs[-1] - xs[0])
    tests = [
        np.ones_like(xs),
        np.exp(-((xs - xs.mean()) ** 2) / (2 * (width / 4) ** 2)),
        np.tanh(xs / max(width, 1e-6)),
        np.sin(xs),
    ]
    want = 0.0
    for g in tests:
        pi_g = spec.theta0 * spec.mu0_integral(g)
        slices = Propagator.march(gen, 0.01, g[:, None], 4.0, [50, 100, 200, 400], smooth_start=True)[0][0]
        for t, u in zip((0.5, 1.0, 2.0, 4.0), slices):
            dev = np.max(np.abs(np.exp(spec.lambda0 * t) * u - pi_g))
            want = max(want, float(np.exp(spec.gap * t) * dev / np.max(np.abs(g))))
    assert fit_H(gen, spec, 0.01) == want


def test_evolve_constant_potential_exponential(box_grid, zero_drift):
    m = make_constant_model(1.3, 1.0)  # V = 0.3, conservative motion
    gen = build_generator(m, zero_drift, box_grid)
    u = evolve_P(np.ones(box_grid.n_points), 2.0, gen, dt_pde=0.005, smooth_start=False)
    assert np.max(np.abs(u - math.exp(0.3 * 2.0))) < 1e-6


def test_semigroup_composition(oscillator_setup):
    _, _, grid, gen, _ = oscillator_setup
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=4)
    xs = grid.nodes
    g = sum(c * np.exp(-((xs - k) ** 2) / 2.0) for k, c in zip((-2, -1, 1, 2), coeffs))
    u1 = evolve_P(g, 1.5, gen, dt_pde=0.01, smooth_start=False)
    u2 = evolve_P(evolve_P(g, 0.7, gen, dt_pde=0.01, smooth_start=False), 0.8, gen, dt_pde=0.01, smooth_start=False)
    assert np.max(np.abs(u1 - u2)) < 1e-8


def test_monotone_in_data(oscillator_setup):
    _, _, grid, gen, _ = oscillator_setup
    xs = grid.nodes
    g_lo = np.exp(-(xs**2))
    # the added mass must vanish at the absorbing edges well below 1e-12
    g_hi = g_lo + 0.5 * np.exp(-((xs - 1) ** 2) / 2.0)
    u_lo = evolve_P(g_lo, 1.0, gen, dt_pde=0.01, smooth_start=False)
    u_hi = evolve_P(g_hi, 1.0, gen, dt_pde=0.01, smooth_start=False)
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
        p = evolve_P(g, 1.0, gen, dt_pde=0.01, smooth_start=False)
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


def test_polished_eigenfunction_of_a_flat_model_is_flat(critical_setup):
    # constant rates on a reflecting box: Theta0 = 1 and B = b = 1 exactly,
    # so the polish's residual tolerance bounds their error
    _, _, _, _, spec = critical_setup
    assert np.max(np.abs(spec.theta0 - 1.0)) < 1e-8
    assert abs(spec.B - 1.0) < 1e-8


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
    _model, _, _, _, spec = critical_setup
    assert spec.A == pytest.approx(1.0, abs=1e-5)
    assert spec.B == pytest.approx(1.0, abs=1e-5)


def test_constants_ab_scaling(box_grid, zero_drift):
    kappa = 3.0
    m1 = make_constant_model(1.0, 1.0)
    m2 = make_constant_model(kappa, kappa)  # b scaled; same V = 0, same spectrum
    gen = build_generator(m1, zero_drift, box_grid)
    spec1 = principal_eigentriple(gen, m1)
    spec2 = principal_eigentriple(gen, m2)  # B reads the model's b
    assert spec2.A == pytest.approx(spec1.A)
    assert spec2.B == pytest.approx(kappa * spec1.B)


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
    dens = spec.theta0 * np.exp(-2.0 * ell_values(zero_drift, xs))
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
    rep = hp4_edge_decay(gen, dt_pde=0.01)
    assert rep["passed"]
    m0 = make_constant_model(1.0, 1.0)  # V = 0, reflecting: constants preserved
    gen0 = build_generator(m0, zero_drift, box_grid)
    rep0 = hp4_edge_decay(gen0, dt_pde=0.01)
    assert not rep0["passed"]


def test_hp4_wider_grid_still_passes(zero_drift):
    m = make_oscillator_model(0.5)
    for span in (8.0, 10.0):
        n = int(span * 100) + 1
        gen = build_generator(m, zero_drift, Grid(-span, span, n))
        assert hp4_edge_decay(gen, dt_pde=0.01)["passed"]


def test_eigen_residual_at_propagator_level(oscillator_setup):
    _, _, _, gen, spec = oscillator_setup
    dt = 0.01
    u = evolve_P(spec.theta0, dt, gen, dt_pde=dt, smooth_start=False)
    target = math.exp(-spec.lambda0 * dt) * spec.theta0
    assert np.max(np.abs(u - target)) <= 1e-6 * np.max(spec.theta0)


def test_left_eigen_residual(oscillator_setup):
    _, _, grid, gen, spec = oscillator_setup
    rng = np.random.default_rng(3)
    xs = grid.nodes
    dt = 0.01
    for _ in range(3):
        g = rng.normal() * np.exp(-(xs**2)) + rng.normal() * np.tanh(xs)
        lhs = spec.mu0_integral(evolve_P(g, dt, gen, dt_pde=dt, smooth_start=False))
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
        u = evolve_P(u, t - t_prev, gen, dt_pde=0.01, smooth_start=False)
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
    u = evolve_P(indicator, 0.5, gen, dt_pde=0.01, smooth_start=True)
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
    """spectral.json's document carries H (None until fit_H) and the
    eigentriple through JSON unchanged."""
    model, _dyn, _grid, gen, _spec = oscillator_setup
    spec = principal_eigentriple(gen, model)
    for H in (None, fit_H(gen, spec, 0.01)):
        spec.H = H
        doc = json.loads(json.dumps(spec.to_dict()))
        assert doc["H"] == H and type(doc["H"]) is type(H)
        assert doc["lambda0"] == spec.lambda0
        assert np.array_equal(doc["theta0"], spec.theta0)


# ----------------------------------------------------------------------
# the banded Crank-Nicolson kernel against dense solves


class _GaussianKernel:
    """Jumps of total mass 0.7 with N(0, 2^2) displacements: no config
    family, but its unbounded support fills the band of the jump block."""

    sigma = 2.0

    @staticmethod
    def total_mass(y):
        return np.full_like(np.asarray(y, dtype=float), 0.7)

    @classmethod
    def density(cls, y, z):
        u = np.asarray(z, dtype=float) - np.asarray(y, dtype=float)
        return 0.7 * (np.exp(-(u * u) / (2.0 * cls.sigma**2)) / (cls.sigma * math.sqrt(2.0 * math.pi)))


def _gaussian_jumps_generator():
    """Diffusion with a Gaussian jump kernel: the jump block fills the band."""
    grid = Grid(-4.0, 4.0, 121, boundary="reflecting")
    dyn = DynamicsSpec(variant="diffusion-jumps", a=constant(0.0), jump=_GaussianKernel)
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


# ----------------------------------------------------------------------
# the diffusion eigensolve on three diagonals against the dense symmetrisation

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
DIFFUSION_CONFIGS = [f"{regime}_{rates}" for rates in ("constant", "oscillator")
                     for regime in ("critical", "subcritical", "supercritical")]


def _config_generator(name, n_points=None):
    cfg = load_config(os.path.join(CONFIG_DIR, name + ".json"))
    grid = cfg.grid if n_points is None else Grid(cfg.grid.x_min, cfg.grid.x_max, n_points, cfg.grid.boundary)
    return cfg.model, build_generator(cfg.model, cfg.dynamics, grid)


@pytest.mark.parametrize(
    "name, n_points",
    [(name, None) for name in DIFFUSION_CONFIGS] + [("supercritical_oscillator", 3201)],
)
def test_diffusion_eigensolve_equals_dense_symmetrisation(name, n_points, monkeypatch):
    model, gen = _config_generator(name, n_points)
    assert gen.variant == "diffusion" and gen.rho is not None
    want = rightmost_eigs_dense(gen.matrix, 3, gen.rho)
    assert want is not None
    assert np.array_equal(semigroup._rightmost_eigs(gen.matrix, 3, rho=gen.rho), want)

    spec = principal_eigentriple(gen, model)
    general = semigroup._rightmost_eigs

    def dense(matrix, k, rho=None):
        return general(matrix, k) if rho is None else rightmost_eigs_dense(matrix, k, rho)

    monkeypatch.setattr(semigroup, "_rightmost_eigs", dense)
    ref = principal_eigentriple(gen, model)
    for field in ("lambda0", "lambda1", "lambda1_complex", "A", "B", "eigen_residual"):
        assert getattr(spec, field) == getattr(ref, field), field
    assert np.array_equal(spec.theta0, ref.theta0) and np.array_equal(spec.mu0, ref.mu0)


def test_rho_with_a_wider_band_takes_the_general_route():
    """A rho-symmetric pentadiagonal matrix is solved as any other matrix."""
    n = 60
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.5, 2.0, n)
    d = np.sqrt(rho)
    bands = [rng.uniform(0.1, 1.0, n - abs(k)) for k in (1, 2)]
    sym = sp.diags([bands[1], bands[0], -rng.uniform(2.0, 4.0, n), bands[0], bands[1]], [-2, -1, 0, 1, 2])
    matrix = (sp.diags(1.0 / d) @ sym @ sp.diags(d)).tocsr()
    got = semigroup._rightmost_eigs(matrix, 2, rho=rho)
    assert np.array_equal(got, semigroup._rightmost_eigs(matrix, 2, rho=None))
    assert np.allclose(got.real, rightmost_eigs_dense(matrix, 2, rho), rtol=0, atol=1e-12)


def test_diffusion_eigentriple_memory_is_linear_in_the_grid():
    """At 3201 nodes a dense n x n symmetrisation needs 3 * 8 * n bytes per
    node; the eigentriple stays under 512 bytes per node."""
    n = 3201
    model, gen = _config_generator("supercritical_oscillator", n)
    tracemalloc.start()
    try:
        principal_eigentriple(gen, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * n, peak / n


# ----------------------------------------------------------------------
# the jump classes' shift-invert eigensolve against the dense spectrum

JUMP_CONFIGS = [f"{regime}_{rates}" for rates in ("jumps", "driftedjump")
                for regime in ("critical", "subcritical", "supercritical")]


def _dense_general(matrix, k, rho=None):
    return rightmost_eigs_general_dense(matrix, k)


@pytest.mark.parametrize(
    "name, knob",
    [(name, "shipped") for name in JUMP_CONFIGS]
    + [(name, knob) for name in JUMP_CONFIGS if name.startswith("critical") for knob in ("low", "high", "root")],
)
def test_jump_eigentriple_matches_the_dense_spectrum(name, knob, monkeypatch):
    """Every jump config at its shipped knob, and each critical one at both
    bracket ends and at its calibrated root: lambda0 and lambda1 within
    1e-10 of the dense full spectrum, the same complex flag."""
    cfg = load_config(os.path.join(CONFIG_DIR, name + ".json"))
    if knob == "root":
        cfg = cli._calibrated_model(cfg)[0]
    elif knob != "shipped":
        cfg = cfg.apply_knob(cfg.calibrate["knob"], cfg.calibrate["bracket"][0 if knob == "low" else 1])
    gen = build_generator(cfg.model, cfg.dynamics, cfg.grid)
    assert gen.variant != "diffusion"
    spec = principal_eigentriple(gen, cfg.model)
    monkeypatch.setattr(semigroup, "_rightmost_eigs", _dense_general)
    ref = principal_eigentriple(gen, cfg.model)
    assert abs(spec.lambda0 - ref.lambda0) < 1e-10
    assert abs(spec.lambda1 - ref.lambda1) < 1e-10
    assert spec.lambda1_complex == ref.lambda1_complex


def test_a_complex_second_eigenvalue_is_found_and_flagged(monkeypatch):
    """A one-way jump around a ring (rate 2, a small random potential): the
    eigenvalue after the Perron one is a complex pair."""
    n = 40
    rng = np.random.default_rng(3)
    ring = sp.diags([np.ones(n - 1), [1.0]], [1, -(n - 1)])  # i -> i + 1 mod n
    matrix = (2.0 * (ring - sp.identity(n)) + sp.diags(rng.uniform(-0.05, 0.05, n))).tocsr()
    got = semigroup._rightmost_eigs(matrix, 2, rho=None)
    want = rightmost_eigs_general_dense(matrix, 2)
    assert abs(want[1].imag) > 0.1
    assert np.max(np.abs(got.real - want.real)) < 1e-10
    assert abs(abs(got[1].imag) - abs(want[1].imag)) < 1e-10

    gen = semigroup.GeneratorMatrix(grid=Grid(-1.0, 1.0, n, boundary="reflecting"), variant="drifted-jump", matrix=matrix)
    model = make_constant_model(1.0, 1.0)
    spec = principal_eigentriple(gen, model)
    monkeypatch.setattr(semigroup, "_rightmost_eigs", _dense_general)
    ref = principal_eigentriple(gen, model)
    assert spec.lambda1_complex and ref.lambda1_complex
    assert abs(spec.lambda0 - ref.lambda0) < 1e-10 and abs(spec.lambda1 - ref.lambda1) < 1e-10


def test_shift_invert_eigenvalues_do_not_depend_on_earlier_arpack_calls():
    """The start vector is fixed, so an unrelated ARPACK call between two
    solves leaves every bit of the result as it was."""
    _, gen = _config_generator("critical_driftedjump")
    first = semigroup._rightmost_eigs(gen.matrix, 2, rho=None)
    other = sp.random(50, 50, density=0.2, random_state=1, format="csr") + sp.identity(50)
    spla.eigs(other, 3)
    spla.eigs(other, 2, sigma=5.0)
    assert np.array_equal(semigroup._rightmost_eigs(gen.matrix, 2, rho=None), first)


@pytest.mark.parametrize("failure", ["no-convergence", "error", "one-pair"])
def test_shift_invert_failure_is_a_named_error(failure, monkeypatch):
    """ARPACK's failures and a result with fewer than k distinct values
    raise EigenSolverError naming n and the shift."""

    def fake_eigs(A, k, **kwargs):
        if failure == "no-convergence":
            raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((A.shape[0], 0)))
        if failure == "error":
            raise spla.ArpackError(-9)
        return np.array([-1.0 + 2.0j, -1.0 - 2.0j])  # one conjugate pair: one distinct value

    model, gen = _config_generator("subcritical_driftedjump")
    monkeypatch.setattr(semigroup.spla, "eigs", fake_eigs)
    with pytest.raises(semigroup.EigenSolverError, match=rf"n = {gen.n}\b.* sigma = \d"):
        principal_eigentriple(gen, model)


def test_a_three_node_jump_grid_is_a_named_error():
    """ARPACK finds fewer than n - 1 eigenvalues, so 3 nodes give one."""
    model, gen = _config_generator("subcritical_driftedjump", 3)
    with pytest.raises(semigroup.EigenSolverError, match="could not isolate 2 eigenvalues of n = 3 "):
        principal_eigentriple(gen, model)


def test_driftedjump_eigentriple_memory_is_linear_in_the_nonzeros():
    """At 1761 nodes one dense copy of the drifted-jump generator takes
    8 n^2 = 24.8 MB, and the eigentriple through the dense oracle
    ``rightmost_eigs_general_dense`` peaks at 50.2 MB.  The eigentriple's
    peak is two copies of the sparse generator (12.9 MB, 536457 nonzeros;
    the inverse-iteration polish holds as much as the shift-invert solve);
    the bound is 2.5 copies, 16.1 MB."""
    n = 1761
    model, gen = _config_generator("critical_driftedjump", n)
    csr_bytes = gen.matrix.data.nbytes + gen.matrix.indices.nbytes + gen.matrix.indptr.nbytes
    tracemalloc.start()
    try:
        principal_eigentriple(gen, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * csr_bytes < 8 * n * n, (peak, csr_bytes)


# ----------------------------------------------------------------------
# the step controller of Propagator.march


def _small_oscillator(theta=0.7):
    grid = Grid(-6.0, 6.0, 121, boundary="absorbing")
    model = make_oscillator_model(theta)
    return model, build_generator(model, DynamicsSpec(variant="diffusion", a=constant(0.0)), grid)


def test_march_hits_every_stored_time(oscillator_setup):
    """Each stored time is the end of an accepted step, exactly k dt_pde,
    whatever the spans between stored times."""
    gen = oscillator_setup[3]
    times = []
    store = [0, 7, 20, 33, 150, 600]
    g = np.exp(-(gen.grid.nodes**2))[:, None]
    Propagator.march(gen, 0.01, g, 6.0, store, guard=lambda _state, t: times.append(t), smooth_start=True)
    assert all(k * 0.01 in times for k in store[1:])
    assert times == sorted(times) and times[-1] == 6.0
    # steps grew past dt_pde between the later stored times
    assert len(times) < 600


def _built_propagators(monkeypatch, record):
    """A list that gets ``record(propagator, dt)`` of every Propagator
    built from now on, in order."""
    built = []
    init = Propagator.__init__

    def recording_init(self, generator, dt):
        built.append(record(self, dt))
        init(self, generator, dt)

    monkeypatch.setattr(Propagator, "__init__", recording_init)
    return built


def test_march_factors_few_distinct_steps_once(monkeypatch):
    """A long survival march meets few distinct steps and factors each once."""
    from branchlab.moments import solve_survival

    model, gen = _small_oscillator()
    built = _built_propagators(monkeypatch, lambda _prop, dt: dt)
    solve_survival(60.0, gen, model, dt_pde=0.01, n_store=300)
    assert len(built) == len(set(built)) <= 16


def test_march_frees_its_factors(monkeypatch):
    """Every Propagator that a survival march builds is gone once it
    returns: no factor outlives its march."""
    from branchlab.moments import solve_survival

    model, gen = _small_oscillator()
    built = _built_propagators(monkeypatch, lambda prop, _dt: weakref.ref(prop))
    solve_survival(20.0, gen, model, dt_pde=0.01, n_store=100)
    assert built and all(ref() is None for ref in built)


def test_march_rerun_gives_the_same_bytes(monkeypatch):
    """The controller's choices depend on the data alone: a rerun factors
    the same steps afresh and gives the same fields and error estimate."""
    from branchlab.moments import solve_moments, solve_survival

    model, gen = _small_oscillator()
    built = _built_propagators(monkeypatch, lambda _prop, dt: dt)
    runs = []
    for _ in range(2):
        survival = solve_survival(20.0, gen, model, dt_pde=0.01, n_store=100)
        moments = solve_moments(np.ones(gen.n), 3, 20.0, gen, model, dt_pde=0.01, n_store=100)
        runs.append((survival, moments, list(built)))
        built.clear()
    (first, moments, steps), (again, moments_again, steps_again) = runs
    assert steps and steps == steps_again
    assert first.fields[0].tobytes() == again.fields[0].tobytes() and first.time_error == again.time_error
    for n in (1, 2, 3):
        assert moments.fields[n].tobytes() == moments_again.fields[n].tobytes()


@pytest.mark.parametrize("theta, t_end", [(0.5, 2.0), (0.9, 10.0)])
@pytest.mark.parametrize("with_source", [False, True])
def test_march_stays_within_its_error_estimate(theta, t_end, with_source):
    """From smooth data, the march at dt_pde = 0.01 deviates from the march
    at dt_pde = 1e-4 by less than its own time-error estimate at every
    stored time, while its steps grow past dt_pde."""
    from branchlab.moments import _survival_source

    model, gen = _small_oscillator(theta)
    xs = gen.grid.nodes
    source = _survival_source(np.asarray(model.b(xs), dtype=float)) if with_source else None
    g = np.exp(-(xs**2))[:, None]
    store = [round(k * t_end / 0.2) for k in range(21)]
    got, estimate = Propagator.march(gen, 0.01, g, t_end, store, source_fn=source)
    want, _ = Propagator.march(gen, 1e-4, g, t_end, [100 * k for k in store], source_fn=source)
    deviation = max(np.max(np.abs(a - b)) / np.max(np.abs(b)) for a, b in zip(got[0], want[0]))
    assert 0.0 < deviation <= estimate < 1e-4
