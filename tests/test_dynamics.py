import numpy as np
import pytest

from branchlab import DynamicsSpec, JumpKernel, rng
from branchlab.branching import CutoffSpec, simulate_ensemble
from branchlab.curves import Curve, constant
from branchlab.dynamics import ConfigurationError, move

from .conftest import make_constant_model
from .oracles import euler_ou_variance, ou_variance

OU = Curve("polynomial", {"coeffs": [0.0, 1.0]})


def test_step_diffusion_identity():
    # without drift the diffusion step adds only the scaled normal draw
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    keys = rng.root_key(4, np.arange(20))
    x = np.linspace(-2, 2, 20)
    out, jumped = move(x, keys, 3, 0.5, dyn)
    assert jumped is None
    assert np.array_equal(out, x + np.sqrt(0.5) * rng.normal(keys, 3, rng.CH_MOVE))


def test_step_diffusion_arithmetic():
    dyn = DynamicsSpec(variant="diffusion", a=OU)
    keys = rng.root_key(6, np.arange(20))
    x = np.linspace(-1, 1, 20)
    out, _ = move(x, keys, 5, 0.01, dyn)
    assert np.allclose(out, x - 0.01 * x + 0.1 * rng.normal(keys, 5, rng.CH_MOVE))


def test_step_diffusion_needs_positive_dt(zero_drift):
    with pytest.raises(ValueError, match="dt > 0"):
        simulate_ensemble(0.0, 1.0, 0.0, make_constant_model(1.0, 1.0), zero_drift,
                          CutoffSpec(m=30.0), seed=1, reps=4, record_times=[1.0])


def test_ou_variance_oracle():
    n, dt, t = 100_000, 1e-3, 1.0
    keys = rng.root_key(42, np.arange(n))
    x = np.zeros(n)
    for s in range(int(t / dt)):
        x = x - OU(x) * dt + np.sqrt(dt) * rng.normal(keys, s, rng.CH_MOVE)
    var = x.var()
    exact = ou_variance(1.0)
    se = np.sqrt(2.0 / n) * exact  # variance-estimator SE ~ var * sqrt(2/n)
    assert abs(var - exact) < 3.0 * se


def test_weak_error_halves_with_dt():
    # the Euler OU chain's variance error vs the exact flow halves with dt;
    # the simulator matches its own discrete law within noise
    t = 1.0
    exact = ou_variance(t)
    biases = {}
    for dt in (0.2, 0.1):
        theory = euler_ou_variance(t, dt)
        n = 40_000
        keys = rng.root_key(5, np.arange(n))
        x = np.zeros(n)
        for s in range(int(round(t / dt))):
            x = x - OU(x) * dt + np.sqrt(dt) * rng.normal(keys, s, rng.CH_MOVE)
        se = np.sqrt(2.0 / n) * theory
        assert abs(x.var() - theory) < 3.0 * se
        biases[dt] = abs(theory - exact)
    ratio = biases[0.2] / biases[0.1]
    assert 1.5 < ratio < 2.7


def test_jumpless_kernel_reduces_to_continuous():
    kern = JumpKernel("uniform-window", constant(0.0), width=1.0)
    dyn = DynamicsSpec(variant="diffusion-jumps", a=OU, jump=kern)
    keys = rng.root_key(3, np.arange(50))
    x = np.linspace(-1, 1, 50)
    out, jumped = move(x, keys, 7, 0.01, dyn)
    assert not jumped.any()
    expect = x - OU(x) * 0.01 + 0.1 * rng.normal(keys, 7, rng.CH_MOVE2)
    assert np.allclose(out, expect)


def test_poisson_jump_count_oracle():
    lam, t, dt, n = 2.0, 5.0, 0.01, 10_000
    kern = JumpKernel("uniform-window", constant(lam), width=1.0)
    dyn = DynamicsSpec(variant="drifted-jump", jump=kern)
    keys = rng.root_key(8, np.arange(n))
    x = np.zeros(n)
    count = np.zeros(n)
    for s in range(int(t / dt)):
        x, j = move(x, keys, s, dt, dyn)
        count += j
    mean_exact = lam * t
    se = np.sqrt(count.var() / n)
    assert abs(count.mean() - mean_exact) < 3.0 * se


def test_drifted_translation_without_jump():
    kern = JumpKernel("uniform-window", constant(0.0), width=1.0)
    dyn = DynamicsSpec(variant="drifted-jump", jump=kern)
    out, jumped = move(np.array([0.0]), rng.root_key(1, np.arange(1)), 0, 0.25, dyn)
    assert not jumped[0]
    assert out[0] == 0.25


def test_thinning_cap_enforced():
    # sup Rbar dt = 0.25 > 0.1 while (b_star + d) dt = 0.05 is within the cap
    kern = JumpKernel("uniform-window", constant(5.0), width=1.0)
    dyn = DynamicsSpec(variant="drifted-jump", jump=kern)
    with pytest.raises(ConfigurationError, match="Rbar"):
        simulate_ensemble(0.0, 1.0, 0.05, make_constant_model(0.5, 0.5), dyn, CutoffSpec(m=30.0),
                          seed=1, reps=4, record_times=[1.0])


def test_brownian_variance_oracle():
    # path-law check with the same stepping primitives, vectorized
    n, dt, t = 100_000, 0.01, 2.0
    keys = rng.root_key(17, np.arange(n))
    x = np.zeros(n)
    for s in range(int(t / dt)):
        x = x + np.sqrt(dt) * rng.normal(keys, s, rng.CH_MOVE)
    se = np.sqrt(2.0 / n) * t
    assert abs(x.var() - t) < 3.0 * se


def test_drifted_jump_between_jump_increments_exact():
    kern = JumpKernel("uniform-window", constant(0.3), width=1.0)
    dyn = DynamicsSpec(variant="drifted-jump", jump=kern)
    keys = rng.root_key(11, np.arange(20))
    x = np.zeros(20)
    n_jumps = 0
    for s in range(60):
        out, jumped = move(x, keys, s, 0.05, dyn)
        assert np.allclose(out[~jumped] - x[~jumped], 0.05)
        n_jumps += int(jumped.sum())
        x = out
    assert n_jumps > 0  # jumps do occur at rate 0.3 over 20 paths of 3 units


def test_weak_error_mean_halves_with_dt():
    # f(x) = x from x0 = 1: Euler OU mean is (1 - dt)^{t/dt}, exact e^{-t}
    t = 1.0
    exact = np.exp(-t)
    bias = {dt: abs((1.0 - dt) ** int(round(t / dt)) - exact) for dt in (0.2, 0.1)}
    assert 1.5 < bias[0.2] / bias[0.1] < 2.7
    n, dt = 50_000, 0.1
    keys = rng.root_key(31, np.arange(n))
    x = np.ones(n)
    for s in range(int(round(t / dt))):
        x = x - OU(x) * dt + np.sqrt(dt) * rng.normal(keys, s, rng.CH_MOVE)
    se = x.std(ddof=1) / np.sqrt(n)
    assert abs(x.mean() - (1.0 - dt) ** 10) < 3.0 * se
