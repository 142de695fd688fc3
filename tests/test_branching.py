import math

import numpy as np
import pytest

from branchlab import DynamicsSpec
from branchlab.branching import (
    CutoffSpec,
    cutoff_diagnostics,
    mc_moments,
    mc_survival,
    qprocess_weight,
    simulate_ensemble,
    yule_moment_bound,
)
from branchlab.curves import constant
from branchlab.dynamics import ConfigurationError
from branchlab.semigroup import evolve_P

from .conftest import make_constant_model
from .oracles import bd_survival, yule_mean, yule_second_moment

CUT = CutoffSpec(m=30.0)
FREE = DynamicsSpec(variant="diffusion", a=constant(0.0))


def test_no_events_constant_population(zero_drift):
    m = make_constant_model(0.0, 0.0)
    m.b_star = 0.1  # declared supremum may exceed the actual rate
    res = simulate_ensemble(0.0, 2.0, 0.05, m, zero_drift, CUT, seed=1, reps=200, record_times=[0.5, 2.0])
    assert np.all(res.counts == 1)


def test_yule_mean_oracle(zero_drift):
    m = make_constant_model(1.0, 0.0)
    res = simulate_ensemble(0.0, 2.0, 0.002, m, zero_drift, CUT, seed=3, reps=10_000, record_times=[2.0])
    n = res.counts[-1]
    se = n.std(ddof=1) / math.sqrt(len(n))
    assert abs(n.mean() - yule_mean(2.0, 1.0)) < 3.0 * se


def test_critical_survival_oracle(zero_drift):
    m = make_constant_model(1.0, 1.0)
    res = simulate_ensemble(0.0, 9.0, 0.01, m, zero_drift, CUT, seed=4, reps=30_000, record_times=[9.0])
    row = mc_survival(res)[-1]
    assert abs(row["estimate"] - bd_survival(9.0, 1.0, 1.0)) < 3.0 * row["se"]


def test_event_cap_enforced(zero_drift):
    m = make_constant_model(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        simulate_ensemble(0.0, 1.0, 0.06, m, zero_drift, CUT, seed=1, reps=10, record_times=[1.0])


def test_extinction_absorbing(zero_drift):
    m = make_constant_model(1.0, 1.0)
    res = simulate_ensemble(0.0, 9.0, 0.02, m, zero_drift, CUT, seed=5, reps=2_000, record_times=[3.0, 6.0, 9.0])
    dead_at_3 = res.counts[0] == 0
    assert np.all(res.counts[1][dead_at_3] == 0)
    assert np.all(res.counts[2][dead_at_3] == 0)


def test_determinism(zero_drift):
    m = make_constant_model(1.0, 1.0)
    a = simulate_ensemble(0.0, 4.0, 0.02, m, zero_drift, CUT, seed=6, reps=500, record_times=[4.0])
    b = simulate_ensemble(0.0, 4.0, 0.02, m, zero_drift, CUT, seed=6, reps=500, record_times=[4.0])
    assert np.array_equal(a.counts, b.counts)


def test_rep_offset_chunks_match_monolithic(zero_drift):
    m = make_constant_model(1.0, 1.0)
    whole = simulate_ensemble(0.0, 3.0, 0.02, m, zero_drift, CUT, seed=7, reps=400, record_times=[3.0])
    first = simulate_ensemble(0.0, 3.0, 0.02, m, zero_drift, CUT, seed=7, reps=250, record_times=[3.0])
    second = simulate_ensemble(0.0, 3.0, 0.02, m, zero_drift, CUT, seed=7, reps=150, record_times=[3.0], rep_offset=250)
    merged = np.concatenate([first.counts[0], second.counts[0]])
    assert np.array_equal(whole.counts[0], merged)


def test_yule_moment_bound_values():
    assert yule_moment_bound(1, 0.0, 1.0) == pytest.approx(1.0)
    assert yule_moment_bound(2, 1.0, 1.0) == pytest.approx(2.0 * math.e**2)
    # exact second moment of the pure-birth size sits under the ceiling
    assert yule_second_moment(1.0, 1.0) == pytest.approx(2 * math.e**2 - math.e)
    assert yule_second_moment(1.0, 1.0) <= yule_moment_bound(2, 1.0, 1.0)


def test_yule_moment_bound_overflow_sentinel():
    with pytest.warns(UserWarning):
        assert yule_moment_bound(50, 100.0, 1.0) == math.inf


def test_mc_moments_oracles(zero_drift):
    m = make_constant_model(1.0, 1.0)
    res = simulate_ensemble(0.0, 1.0, 0.005, m, zero_drift, CUT, seed=9, reps=40_000, record_times=[1.0])
    rows = mc_moments(res, 2, 1.0)
    mean = next(r for r in rows if r["order"] == 1)
    second = next(r for r in rows if r["order"] == 2)
    assert abs(mean["estimate"] - 1.0) < 3.0 * mean["se"]  # critical mean is constant
    assert abs(second["estimate"] - 3.0) < 3.0 * second["se"]  # 1 + 2bt
    # with b_star = 0 the Yule ceiling of order 2 is 2! = 2, below E N_1^2 = 3
    with pytest.raises(RuntimeError, match="Yule ceiling"):
        mc_moments(res, 2, 0.0)


def test_mc_survival_oracles(zero_drift):
    m = make_constant_model(1.0, 1.0)
    res = simulate_ensemble(0.0, 1.0, 0.005, m, zero_drift, CUT, seed=10, reps=30_000, record_times=[0.0, 1.0])
    rows = mc_survival(res)
    assert rows[0]["estimate"] == 1.0
    assert abs(rows[1]["estimate"] - 0.5) < 3.0 * rows[1]["se"]


def test_mc_survival_subcritical_ode_oracle(zero_drift):
    from scipy.integrate import solve_ivp

    b, d = 0.5, 1.0
    m = make_constant_model(b, d)
    res = simulate_ensemble(0.0, 3.0, 0.005, m, zero_drift, CUT, seed=11, reps=30_000, record_times=[3.0])
    row = mc_survival(res)[-1]
    # scalar backward equation for the extinction probability K:
    # dK/dt = d - (b+d) K + b K^2, K(0) = 0, and u0 = 1 - K
    sol = solve_ivp(lambda t, k: d - (b + d) * k + b * k * k, (0, 3.0), [0.0],
                    rtol=1e-11, atol=1e-13, method="DOP853")
    oracle = 1.0 - sol.y[0][-1]
    assert oracle == pytest.approx(bd_survival(3.0, b, d), abs=1e-7)
    assert abs(row["estimate"] - oracle) < 3.0 * row["se"]


def test_monotone_nonincreasing_survival(zero_drift):
    m = make_constant_model(1.0, 1.0)
    res = simulate_ensemble(0.0, 6.0, 0.01, m, zero_drift, CUT, seed=12, reps=20_000, record_times=[1.0, 2.0, 4.0, 6.0])
    est = [r["estimate"] for r in mc_survival(res)]
    assert all(a >= b for a, b in zip(est, est[1:]))


def test_fk_consistency_with_semigroup(oscillator_setup):
    model, dyn, grid, gen, spec = oscillator_setup
    xs = grid.nodes
    bump = np.exp(-0.5 * xs**2)
    fs = {"one": lambda a: np.ones_like(a), "theta0": lambda a: np.interp(a, xs, spec.theta0),
          "bump": lambda a: np.exp(-0.5 * a**2)}
    res = simulate_ensemble(0.0, 2.0, 0.005, model, dyn, CutoffSpec(m=4.0), seed=13, reps=40_000,
                            record_times=[2.0], functionals=fs)
    x0i = np.argmin(np.abs(xs))
    for name, f_vals in [("one", np.ones_like(xs)), ("theta0", spec.theta0), ("bump", bump)]:
        pde = evolve_P(f_vals, 2.0, gen, dt_pde=0.005, smooth_start=False)[x0i]
        samples = res.functionals[name][-1]
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - pde) < 3.0 * se + 1e-3, name


def test_martingale_theta0_constant_mean(supercritical_setup):
    model, dyn, grid, gen, spec = supercritical_setup
    xs = grid.nodes
    fs = {"theta0": lambda a: np.interp(a, xs, spec.theta0)}
    res = simulate_ensemble(0.0, 4.0, 0.01, model, dyn, CUT, seed=14, reps=5_000,
                            record_times=[1.0, 2.5, 4.0], functionals=fs, reflect_at=(grid.x_min, grid.x_max))
    theta_x0 = spec.theta0_at(0.0)
    for k, t in enumerate(res.times):
        w = math.exp(spec.lambda0 * t) * res.functionals["theta0"][k]
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - theta_x0) < 3.0 * se


def test_trajectory_stabilization_proxy(supercritical_setup):
    model, dyn, grid, gen, spec = supercritical_setup
    times = np.round(np.arange(1.0, 8.01, 0.25), 10)
    res = simulate_ensemble(0.0, 8.0, 0.01, model, dyn, CUT, seed=15, reps=400, record_times=times)
    lam0 = spec.lambda0
    w = np.exp(lam0 * res.times)[:, None] * res.counts
    surv = res.counts[-1] > 0
    def osc(win):
        mask = (res.times >= win[0]) & (res.times <= win[1])
        vals = w[mask][:, surv]
        return np.median(vals.max(axis=0) - vals.min(axis=0))
    early = osc((1.0, 2.0))
    late = osc((4.0, 8.0))
    assert late < early


def test_qprocess_weight_trivials(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    assert qprocess_weight(np.array([0.0]), 0.0, 0.0, spec) == pytest.approx(1.0, abs=1e-9)
    assert qprocess_weight(np.array([]), 3.0, 0.0, spec) == 0.0


def test_qprocess_weight_size_biasing(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    s = 1.0
    res = simulate_ensemble(0.0, s, 0.005, model, dyn, CUT, seed=16, reps=40_000, record_times=[s])
    n_s = res.counts[-1].astype(float)
    weights = n_s  # Theta0 = 1 on this toy, so the weight is the size itself
    reweighted = (n_s * weights).mean()
    target = 1.0 + 2.0 * s  # E[N_s^2] = E[N_s^2]/E[N_s] with E[N_s] = 1
    se = (n_s * weights).std(ddof=1) / math.sqrt(len(n_s))
    assert abs(reweighted - target) < 3.0 * se


def test_cutoff_diagnostics_trivial_bounds(zero_drift):
    m = make_constant_model(0.0, 0.0)
    m.b_star = 0.1
    res = simulate_ensemble(2.0, 1.0, 0.01, m, zero_drift, CutoffSpec(m=1.0), seed=17, reps=100, record_times=[0.0, 1.0])
    assert np.all(res.max_abs >= 2.0)  # |x0| = 2 > m = 1 from the start
    rows = cutoff_diagnostics(res, m_grid=[1.0, 100.0])
    assert [(r["time"], r["m"]) for r in rows] == [(0.0, 1.0), (0.0, 100.0), (1.0, 1.0), (1.0, 100.0)]
    assert [r["estimate"] for r in rows] == [1.0, 0.0, 1.0, 0.0]


def test_cutoff_monotone_in_m_and_single_particle_oracle(zero_drift):
    # b = d = 0: each replica is a single Brownian path, so the ensemble
    # exceedance table must match a direct path-maximum simulation
    m = make_constant_model(0.0, 0.0)
    m.b_star = 0.1
    res = simulate_ensemble(0.0, 1.0, 0.005, m, zero_drift, CutoffSpec(m=10.0), seed=18, reps=20_000, record_times=[1.0])
    grid_m = [0.5, 1.0, 1.5, 2.0]
    rows = cutoff_diagnostics(res, m_grid=grid_m)
    est = [r["estimate"] for r in rows]
    assert all(a >= b for a, b in zip(est, est[1:]))
    from branchlab import rng as _rng
    keys = _rng.root_key(99, np.arange(20_000))
    x = np.zeros(20_000)
    peak = np.zeros(20_000)
    for s in range(200):
        x = x + math.sqrt(0.005) * _rng.normal(keys, s, _rng.CH_MOVE)
        np.maximum(peak, np.abs(x), out=peak)
    for mm, e in zip(grid_m, est):
        direct = (peak > mm).mean()
        se = math.sqrt(max(direct * (1 - direct), 1e-12) / 20_000)
        assert abs(e - direct) < 4.0 * se + 1e-3


def test_yule_bound_monotone_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 12), t=st.floats(0.0, 20.0), b=st.floats(0.01, 3.0))
    def check(n, t, b):
        v = yule_moment_bound(n, t, b)
        assert v >= 1.0
        assert yule_moment_bound(n + 1, t, b) >= v
        assert yule_moment_bound(n, t + 1.0, b) >= v

    check()
