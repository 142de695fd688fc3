import numpy as np
import pytest
from scipy.integrate import quad

from branchlab import DynamicsSpec, Grid, JumpKernel, RateModel
from branchlab.curves import Curve, constant
from branchlab.model import (
    NotApplicableError,
    ell_and_rho,
    potential,
    validate_hypotheses,
)

from .conftest import make_constant_model


def _failed(report):
    return [c for c in report.checks if not c.passed]


def _grid():
    return Grid(-4.0, 4.0, 81)


def test_potential_bump_minus_abs_linear():
    m = RateModel(
        b=Curve("gaussian-bump", {"amplitude": 1.0, "width": 1.0}),
        d=Curve("abs-linear", {"offset": 0.1, "slope": 1.0}),
        b_star=1.0,
        hd_constants={"c": 0.5, "c_prime": 1.0, "radius": 1.0},
    )
    assert potential(m, 0.0) == pytest.approx(0.9)


def test_potential_b_equals_d():
    m = make_constant_model(1.3, 1.3)
    xs = np.linspace(-5, 5, 21)
    assert np.allclose(potential(m, xs), 0.0)


def test_potential_gaussian_bump_vs_brute_force():
    amp, width = 2.0, 1.2
    m = RateModel(
        b=Curve("gaussian-bump", {"amplitude": amp, "width": width}),
        d=Curve("polynomial", {"coeffs": [0.1, 0.0, 1.0]}),
        b_star=amp,
        hd_constants={"c": 1.0, "c_prime": 1.0, "radius": 1.0},
    )
    for x in (5.0, -5.0):
        brute = amp * np.exp(-(x**2) / (2 * width**2)) - (0.1 + x**2)
        assert potential(m, x) == pytest.approx(brute, rel=1e-12)
        assert potential(m, x) == pytest.approx(m.b(x) - 25.1, rel=1e-12)


def test_potential_bounded_by_b_star():
    m = make_constant_model(1.0, 0.5)
    xs = np.linspace(-10, 10, 201)
    assert np.all(potential(m, xs) <= m.b_star + 1e-12)


def test_ell_linear_drift():
    dyn = DynamicsSpec(variant="diffusion", a=Curve("polynomial", {"coeffs": [0.0, 1.0]}))
    grid = Grid(-4.0, 4.0, 81)
    ell, rho = ell_and_rho(dyn, grid)
    two = np.argmin(np.abs(grid.nodes - 2.0))
    assert ell[two] == pytest.approx(2.0, abs=1e-12)
    zero = np.argmin(np.abs(grid.nodes))
    assert ell[zero] == 0.0


def test_ell_zero_drift_uniform_rho():
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    grid = _grid()
    ell, rho = ell_and_rho(dyn, grid)
    assert np.all(ell == 0.0)
    assert np.allclose(rho, rho[0])
    assert np.all(rho > 0)


def test_ell_sin_drift_vs_quadrature_oracle():
    class SinCurve(Curve):
        def __init__(self):
            super().__init__("constant", {"value": 0.0})
            self._fn = lambda x: np.sin(np.asarray(x, dtype=float))

    dyn = DynamicsSpec(variant="diffusion", a=SinCurve())
    grid = Grid(-4.0, 4.0, 161)
    ell, _ = ell_and_rho(dyn, grid)
    for target in (np.pi, 1.3, -2.7):
        i = np.argmin(np.abs(grid.nodes - target))
        x = grid.nodes[i]
        oracle = quad(np.sin, 0.0, x, epsabs=1e-13, epsrel=1e-13)[0]
        assert ell[i] == pytest.approx(oracle, abs=1e-10)
    i_pi = np.argmin(np.abs(grid.nodes - np.pi))
    assert ell[i_pi] == pytest.approx(1.0 - np.cos(grid.nodes[i_pi]), abs=1e-10)


def test_ell_not_applicable_for_drifted_jump():
    kern = JumpKernel("uniform-window", constant(1.0), width=1.0)
    dyn = DynamicsSpec(variant="drifted-jump", jump=kern)
    with pytest.raises(NotApplicableError):
        ell_and_rho(dyn, _grid())


def test_validate_all_pass():
    m = RateModel(
        b=constant(1.0),
        d=Curve("abs-linear", {"offset": 0.1, "slope": 1.0}),
        b_star=1.0,
        hd_constants={"c": 0.5, "c_prime": 0.5, "radius": 1.0},
    )
    dyn = DynamicsSpec(
        variant="diffusion",
        a=Curve("polynomial", {"coeffs": [0.0, 1.0]}),
        # ell = x^2/2 for a(x) = x, so beta must cover the scan radius
        ha_constants={"C": 1.0, "beta": 5.0, "gamma": 0.1, "a3_bound": 1.1},
    )
    report = validate_hypotheses(m, dyn, Grid(-10.0, 10.0, 201))
    assert report.all_passed, [c.name for c in _failed(report)]


def test_validate_unbounded_b_fails_hv2():
    m = RateModel(
        b=Curve("polynomial", {"coeffs": [0.0, 0.0, 1.0]}),
        d=Curve("abs-linear", {"offset": 0.1, "slope": 2.0}),
        b_star=1.0,
        hd_constants={"c": 1.0, "c_prime": 1.0, "radius": 1.0},
    )
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    grid = _grid()
    report = validate_hypotheses(m, dyn, grid)
    fails = {c.name: c for c in _failed(report)}
    assert "HV2-b-bounded" in fails
    assert abs(fails["HV2-b-bounded"].witness) == pytest.approx(abs(grid.x_min))


def test_validate_constant_d_fails_hd():
    m = RateModel(
        b=constant(1.0),
        d=constant(1.0),
        b_star=1.0,
        hd_constants={"c": 1.0, "c_prime": 0.0, "radius": 1.0},
    )
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    report = validate_hypotheses(m, dyn, _grid())
    assert any(c.name == "HD-linear-growth" for c in _failed(report))


def test_validate_deterministic_and_pure():
    m = make_constant_model(1.0, 1.0)
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0), ha_constants={"C": 1, "beta": 1, "gamma": 1})
    grid = _grid()
    r1 = validate_hypotheses(m, dyn, grid)
    r2 = validate_hypotheses(m, dyn, grid)
    assert r1.to_dict() == r2.to_dict()
    assert r1.scan_radius == 4.0


def test_jump_kernel_m4_and_floor():
    kern = JumpKernel("uniform-window", constant(2.0), width=1.0, density_floor=[0.5, 0.9], m4=2.5)
    assert kern.m4_profile() == pytest.approx(1.0 + 1.0 / 5.0)
    xs = np.linspace(-1, 1, 5)
    dens = kern.density(0.0, xs)
    assert np.allclose(dens[np.abs(xs) < 1.0], 1.0)  # rate/(2 width) = 1
    m = make_constant_model(1.0, 1.0)
    dyn = DynamicsSpec(variant="drifted-jump", jump=kern)
    report = validate_hypotheses(m, dyn, _grid())
    names = {c.name: c.passed for c in report.checks}
    assert names["HJ1-total-mass-bounded"]
    assert names["HJ4-density-floor"]  # floor is 1.0 >= 0.9


def test_jump_kernel_floor_fails_when_declared_too_high():
    kern = JumpKernel("uniform-window", constant(2.0), width=1.0, density_floor=[0.5, 1.5])
    m = make_constant_model(1.0, 1.0)
    dyn = DynamicsSpec(variant="drifted-jump", jump=kern)
    report = validate_hypotheses(m, dyn, _grid())
    assert any(c.name == "HJ4-density-floor" for c in _failed(report))


def test_model_config_round_trip():
    """A checked config block builds the model and dynamics the constructors build."""
    m = make_constant_model(1.5, 2.0)
    m2 = RateModel.from_config({"b": constant(1.5), "d": constant(2.0), "b_star": m.b_star, "hd": {}})
    assert m2.b_star == m.b_star
    assert m2.b(0.3) == m.b(0.3) and m2.d(0.3) == m.d(0.3)
    jump = {"family": "uniform-window", "rate": constant(1.0), "width": 2.0, "density_floor": [1.0, 0.2], "m4": 4.2}
    dyn2 = DynamicsSpec.from_config({"variant": "drifted-jump", "jump": jump, "ha": {}})
    assert dyn2.jump.width == 2.0 and dyn2.jump.density_floor == (1.0, 0.2) and dyn2.jump.m4_declared == 4.2
    assert dyn2.variant == "drifted-jump"
    with pytest.raises(ValueError, match="unknown jump kernel family 'gaussian'"):
        JumpKernel("gaussian", constant(1.0), width=1.0)
