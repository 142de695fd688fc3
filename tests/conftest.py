"""Shared fixtures: oracle models and cached spectral data."""

import numpy as np
import pytest

from branchlab import DynamicsSpec, Grid, JumpKernel, RateModel
from branchlab.curves import Curve, constant
from branchlab.semigroup import build_generator, principal_eigentriple


def make_constant_model(b, d):
    return RateModel(
        b=constant(b),
        d=constant(d),
        b_star=b,
        hd_constants={"c": 0.25, "c_prime": 2.0, "radius": 2.0},
    )


@pytest.fixture(scope="session")
def zero_drift():
    return DynamicsSpec(
        variant="diffusion",
        a=constant(0.0),
        ha_constants={"C": 0.1, "beta": 0.1, "gamma": 0.1, "a3_bound": 0.1},
    )


@pytest.fixture(scope="session")
def box_grid():
    """Small reflecting grid for the constant-rate oracle models."""
    return Grid(-4.0, 4.0, 101, boundary="reflecting")


@pytest.fixture(scope="session")
def critical_model():
    return make_constant_model(1.0, 1.0)


@pytest.fixture(scope="session")
def critical_setup(critical_model, zero_drift, box_grid):
    gen = build_generator(critical_model, zero_drift, box_grid)
    spec = principal_eigentriple(gen, critical_model)
    return critical_model, zero_drift, box_grid, gen, spec


@pytest.fixture(scope="session")
def subcritical_setup(zero_drift, box_grid):
    model = make_constant_model(0.5, 1.0)
    gen = build_generator(model, zero_drift, box_grid)
    spec = principal_eigentriple(gen, model)
    return model, zero_drift, box_grid, gen, spec


@pytest.fixture(scope="session")
def supercritical_setup(zero_drift, box_grid):
    model = make_constant_model(2.0, 1.0)
    gen = build_generator(model, zero_drift, box_grid)
    spec = principal_eigentriple(gen, model)
    return model, zero_drift, box_grid, gen, spec


@pytest.fixture(scope="session")
def oscillator_grid():
    return Grid(-8.0, 8.0, 801, boundary="absorbing")


def make_oscillator_model(theta):
    """b = theta, d = x^2, so V = theta - x^2 (Schroedinger oscillator)."""
    return RateModel(
        b=constant(theta),
        d=Curve("polynomial", {"coeffs": [0.0, 0.0, 1.0]}),
        b_star=theta,
        hd_constants={"c": 1.0, "c_prime": 2.0, "radius": 2.0},
    )


@pytest.fixture(scope="session")
def oscillator_setup(zero_drift, oscillator_grid):
    """Critical oscillator, calibrated so lambda0 vanishes on THIS grid
    (the continuum knob 1/sqrt(2) would leave a 2.5e-5 residual drift)."""
    from branchlab.moments import calibrate_criticality

    theta, _, _ = calibrate_criticality(
        make_oscillator_model, [0.5, 0.9], zero_drift, oscillator_grid, tol=1e-10
    )
    model = make_oscillator_model(theta)
    gen = build_generator(model, zero_drift, oscillator_grid)
    spec = principal_eigentriple(gen, model)
    return model, zero_drift, oscillator_grid, gen, spec


@pytest.fixture(scope="session")
def supercritical_oscillator_setup(zero_drift, oscillator_grid):
    """theta = 1 oscillator: lambda0 = 1/sqrt(2) - 1 and a non-constant h."""
    model = make_oscillator_model(1.0)
    gen = build_generator(model, zero_drift, oscillator_grid)
    spec = principal_eigentriple(gen, model)
    return model, zero_drift, oscillator_grid, gen, spec


@pytest.fixture(scope="session")
def jump_kernel():
    return JumpKernel("uniform-window", constant(0.5), width=1.0, density_floor=[0.5, 0.25], m4=0.6)


@pytest.fixture(scope="session")
def jumps_setup(jump_kernel):
    """Calibrated-critical diffusion-with-jumps model (non-constant b)."""
    grid = Grid(-7.0, 7.0, 401, boundary="absorbing")
    dyn = DynamicsSpec(
        variant="diffusion-jumps",
        a=Curve("polynomial", {"coeffs": [0.0, 1.0]}),
        jump=jump_kernel,
        ha_constants={"C": 1.0, "beta": 0.5, "gamma": 0.0, "a3_bound": 1.0},
    )
    model = RateModel(
        b=Curve("gaussian-bump", {"amplitude": 0.36192166805267323, "width": 1.5}),
        d=Curve("polynomial", {"coeffs": [0.1, 0.0, 0.5]}),
        b_star=0.36192166805267323,
        hd_constants={"c": 0.5, "c_prime": 1.0, "radius": 2.0},
    )
    gen = build_generator(model, dyn, grid)
    spec = principal_eigentriple(gen, model)
    return model, dyn, grid, gen, spec


@pytest.fixture(scope="session")
def drifted_setup():
    grid = Grid(-10.0, 12.0, 441, boundary="absorbing")
    kern = JumpKernel("uniform-window", constant(1.0), width=2.0, density_floor=[1.0, 0.2], m4=4.2)
    dyn = DynamicsSpec(variant="drifted-jump", jump=kern)
    model = RateModel(
        b=Curve("gaussian-bump", {"amplitude": 1.3896805346012115, "width": 2.0}),
        d=Curve("abs-linear", {"offset": 0.2, "slope": 0.6}),
        b_star=1.3896805346012115,
        hd_constants={"c": 0.5, "c_prime": 0.5, "radius": 1.0},
    )
    gen = build_generator(model, dyn, grid)
    spec = principal_eigentriple(gen, model)
    return model, dyn, grid, gen, spec
