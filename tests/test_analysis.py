import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from branchlab import analysis
from branchlab.analysis import (
    CriticalDecomposition,
    TestReport,
    critical_ode_residual,
    critical_survival_check,
    exponential_law,
    geometric_ks_distance,
    ks_band,
    ks_slack,
    ks_test,
    lln_ratio_test,
    moment_z_test,
    null_calibration,
    qprocess_law_test,
    subcritical_yaglom_test,
    upsilon_law,
    upsilon_law_of_mass,
    upsilon_quantile_h,
    upsilon_test,
    w_infty_diagnostics,
    yaglom_test_critical,
)
from branchlab.moments import RegimeError, solve_survival

from .conftest import make_constant_model
from .oracles import bd_extinction_params


# ----------------------------------------------------------------------
# generic statistics


def test_ks_statistic_hand_computed():
    # five-point sample against the uniform CDF on [0, 1]:
    # D = max_i max(i/n - x_(i), x_(i) - (i-1)/n)
    x = np.array([0.1, 0.2, 0.5, 0.7, 0.9])
    d, p = ks_test(np.repeat(x, 4), lambda v: np.clip(v, 0, 1))  # 20 points, same D
    d5 = max(
        max(abs((i + 1) / 5 - xi), abs(xi - i / 5)) for i, xi in enumerate(x)
    )
    assert d == pytest.approx(d5, abs=1e-12)
    assert 0.0 <= p <= 1.0


def test_ks_rejects_shifted_sample():
    rng = np.random.default_rng(0)
    x = rng.normal(0.6, 1.0, size=2000)
    from scipy.stats import norm

    d, p = ks_test(x, norm.cdf)
    assert p < 1e-6


def test_ks_null_p_values_uniform():
    rng = np.random.default_rng(1)
    ps = []
    for _ in range(200):
        x = rng.uniform(size=200)
        _, p = ks_test(x, lambda v: np.clip(v, 0, 1))
        ps.append(p)
    d, p_of_p = ks_test(np.array(ps), lambda v: np.clip(v, 0, 1))
    assert p_of_p > 1e-3


def test_ks_statistic_and_band_match_scipy_stats():
    """D is scipy's kstest statistic and the band scipy's kstwobign
    quantile, bit for bit; the p-value is the asymptotic Kolmogorov tail."""
    from scipy import stats

    def cdf(v):
        return 1.0 - np.exp(-np.clip(v, 0.0, None))

    for seed in range(5):
        x = np.random.default_rng(seed).exponential(1.02, size=707)
        d, p = ks_test(x, cdf)
        assert d == stats.kstest(x, cdf).statistic
        assert p == pytest.approx(stats.kstwobign.sf(math.sqrt(len(x)) * d), rel=1e-12)
    for alpha in (0.01, 0.05, 0.001):
        for n in (50, 707, 5000):
            assert ks_band(alpha, n) == float(stats.kstwobign.ppf(1.0 - alpha) / math.sqrt(n))


def test_ks_helpers_leave_scipy_stats_unloaded():
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        from branchlab.analysis import ks_band, ks_test
        x = np.random.default_rng(3).uniform(size=200)
        d, p = ks_test(x, lambda v: np.clip(v, 0.0, 1.0))
        assert 0.0 < d < 1.0 and 0.0 < p <= 1.0 and ks_band(0.01, 200) > 0.0
        assert "scipy.stats" not in sys.modules
        """
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_moment_z_test():
    rep = moment_z_test([1.0, 2.1], [1.0, 2.0], [0.1, 0.1], z_max=4.0, name="moment-z")
    assert rep.passed
    rep2 = moment_z_test([1.0, 3.0], [1.0, 2.0], [0.1, 0.1], z_max=4.0, name="moment-z")
    assert not rep2.passed


def test_sample_moment_test_hand_computed():
    # x = 1..4: means 2.5 and 7.5, sample SDs sqrt(5/3) and sqrt(43), SE = SD / 2
    rep = analysis.sample_moment_test([1.0, 2.0, 3.0, 4.0], (1, 2), [2.0, 7.0], 0.5, name="m")
    assert rep.details["moments"] == [2.5, 7.5] and rep.details["targets"] == [2.0, 7.0]
    assert rep.details["z_scores"] == pytest.approx([math.sqrt(0.6), 1.0 / math.sqrt(43.0)], rel=1e-12)
    assert rep.value == pytest.approx(math.sqrt(0.6), rel=1e-12)
    assert rep.sample_size == 4 and not rep.passed  # sqrt(0.6) > 0.5


def test_null_calibration_harness():
    def run_once(seed):
        rng = np.random.default_rng(seed)
        x = rng.exponential(size=500)
        d, _ = ks_test(x, lambda v: 1 - np.exp(-np.clip(v, 0, None)))
        return TestReport(
            name="t", statistic="d", value=d, threshold=ks_band(0.01, 500),
            sample_size=500, passed=d <= ks_band(0.01, 500),
        )

    rate = null_calibration(run_once, reps=100, seed=0)
    assert rate >= 0.98


# ----------------------------------------------------------------------
# upsilon law


def test_upsilon_quantile_point_values():
    assert math.exp(-upsilon_quantile_h(0.0)) == pytest.approx(math.exp(-0.5), abs=1e-12)
    h10 = ((-10.0 + math.sqrt(102.0)) / 2.0) ** 2
    assert upsilon_quantile_h(-10.0) == pytest.approx(h10, abs=1e-15)
    assert upsilon_law(-10.0) == pytest.approx(1.0 - math.exp(-h10), abs=1e-12)
    # large negative tail ~ 1/(4 y^2)
    assert upsilon_law(-10.0) == pytest.approx(1.0 / 400.0, rel=0.02)


def test_upsilon_transform_sampling():
    rng = np.random.default_rng(2)
    xi = rng.exponential(size=50_000)
    y = np.sqrt(xi) - 0.5 / np.sqrt(xi)
    d, p = ks_test(y, upsilon_law)
    assert d <= ks_band(0.01, len(y))


# ----------------------------------------------------------------------
# critical decomposition and checks


@pytest.fixture(scope="module")
def critical_field(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    u0f = solve_survival(60.0, gen, model, dt_pde=0.005, n_store=300)
    return model, gen, spec, u0f


def test_decomposition_invariants(critical_field):
    model, gen, spec, u0f = critical_field
    dec = CriticalDecomposition.from_field(u0f, spec)
    assert np.max(np.abs(dec.psi @ spec.mu0)) < 1e-10  # mu0(Psi) = 0
    rec = dec.r[:, None] * spec.theta0[None, :] + dec.psi
    assert np.max(np.abs(u0f.fields[0] - rec)) < 1e-14
    assert np.all(np.diff(dec.r) <= 1e-12)
    assert np.all(dec.r > 0)


def test_critical_survival_check_constant(critical_field):
    model, gen, spec, u0f = critical_field
    rep = critical_survival_check(u0f, spec)
    assert rep.passed
    # (1+t) u0 = 1 exactly for the constant toy: deviation ~ solver tolerance
    assert rep.value < 1e-4


def test_critical_survival_check_regime_gate(subcritical_setup):
    model, dyn, grid, gen, spec = subcritical_setup
    u0f = solve_survival(5.0, gen, model, dt_pde=0.01, n_store=200)
    with pytest.raises(RegimeError):
        critical_survival_check(u0f, spec)


def test_critical_survival_check_short_horizon_inconclusive(critical_setup):
    model, dyn, grid, gen, spec = critical_setup
    u0f = solve_survival(10.0, gen, model, dt_pde=0.01, n_store=200)
    rep = critical_survival_check(u0f, spec)
    assert rep.inconclusive


def test_ode_residual_pure_riccati(critical_field):
    model, gen, spec, u0f = critical_field
    dec = CriticalDecomposition.from_field(u0f, spec)
    rep = critical_ode_residual(dec, spec, model)
    assert rep.passed
    assert rep.details["psi_over_r2_bounded"]


def test_ode_residual_reports_its_window(critical_field):
    """The details name the first and last time the filter kept and its
    cut on the truncation estimate (B r dt)^2."""
    model, gen, spec, u0f = critical_field
    dec = CriticalDecomposition.from_field(u0f, spec)
    rep = critical_ode_residual(dec, spec, model)
    times, r = dec.times[1:-1], dec.r[1:-1]
    dt = dec.times[1] - dec.times[0]
    kept = times[((spec.B * r * dt) ** 2 <= 1e-4) & (r > 1e-6)]
    assert rep.details["window_cut"] == 1e-4
    assert (rep.details["window_first_t"], rep.details["window_last_t"]) == (kept[0], kept[-1])
    assert rep.sample_size == len(kept)


def test_ode_residual_detects_fault_injection(critical_field):
    model, gen, spec, u0f = critical_field
    dec = CriticalDecomposition.from_field(u0f, spec)
    rng = np.random.default_rng(3)
    noise = 0.02 * rng.normal(size=dec.psi.shape)
    noise -= np.outer(noise @ spec.mu0, spectral_ones(spec))  # keep mu0(psi) ~ 0
    bad = CriticalDecomposition(times=dec.times, r=dec.r, psi=dec.psi + noise)
    rep = critical_ode_residual(bad, spec, model)
    assert not rep.passed


def spectral_ones(spec):
    return spec.theta0 / np.dot(spec.mu0, spec.theta0)


def test_psi_ratio_nonincreasing_oscillator(oscillator_setup):
    model, dyn, grid, gen, spec = oscillator_setup
    u0f = solve_survival(120.0, gen, model, dt_pde=0.01, n_store=240)
    dec = CriticalDecomposition.from_field(u0f, spec)
    ratio = np.max(np.abs(dec.psi), axis=1) / np.maximum(dec.r**2, 1e-300)
    t = dec.times
    window = lambda a, b: ratio[(t >= a) & (t <= b)].max()
    assert window(60, 120) <= window(30, 60) + 1e-9


# ----------------------------------------------------------------------
# limit-law tests on synthetic nulls (exact finite-t laws)


def geometric_conditional_sample(rng, t, n, b=1.0):
    alpha, beta = bd_extinction_params(t, b, b)
    u = rng.uniform(size=n)
    alive = u >= alpha
    sizes = np.zeros(n)
    sizes[alive] = rng.geometric(1.0 - beta, size=int(alive.sum()))
    return sizes


def test_yaglom_critical_own_null_calibration(critical_setup):
    spec = critical_setup[4]
    t = 30.0

    def run_once(seed):
        rng = np.random.default_rng(seed)
        return yaglom_test_critical(geometric_conditional_sample(rng, t, 30_000), spec, t, alpha=0.01)

    rate = null_calibration(run_once, reps=100, seed=100)
    assert rate >= 0.98


def test_yaglom_starved_inconclusive(critical_setup):
    spec = critical_setup[4]
    rep = yaglom_test_critical(np.zeros(100), spec, 30.0, alpha=0.01)
    assert rep.inconclusive


def test_lln_exact_for_constant_f(critical_setup):
    spec = critical_setup[4]
    rng = np.random.default_rng(4)
    n = geometric_conditional_sample(rng, 20.0, 20_000)
    rep = lln_ratio_test(n.astype(float), n, spec, spec.nu(np.ones(len(spec.theta0))))
    assert rep.passed


def test_lln_scale_invariance(critical_setup):
    spec = critical_setup[4]
    rng = np.random.default_rng(5)
    n = geometric_conditional_sample(rng, 20.0, 20_000)
    f_of_x = 0.7  # a flat functional value per particle
    zf = f_of_x * n + rng.normal(scale=0.01, size=len(n)) * (n > 0)
    rep1 = lln_ratio_test(zf, n, spec, f_of_x * spec.nu(np.ones(len(spec.theta0))))
    for c in (10.0, 0.1):
        rep2 = lln_ratio_test(c * zf, n, spec, c * f_of_x * spec.nu(np.ones(len(spec.theta0))))
        assert rep2.passed == rep1.passed


def test_upsilon_own_null_calibration(critical_setup):
    spec = critical_setup[4]
    t = 30.0

    def run_once(seed):
        rng = np.random.default_rng(seed)
        n = geometric_conditional_sample(rng, t, 30_000)
        return upsilon_test(n.astype(float), n, t, spec, spec.nu(np.ones(len(spec.theta0))), alpha=0.01)

    rate = null_calibration(run_once, reps=100, seed=300)
    assert rate >= 0.98


def test_upsilon_requires_nonzero_nu():
    with pytest.raises(ValueError):
        upsilon_test(np.ones(100), np.ones(100), 10.0, _fake_critical_spec(), 0.0, alpha=0.01)


def _fake_critical_spec():
    from branchlab.grid import Grid
    from branchlab.semigroup import SpectralData

    return SpectralData(
        grid=Grid(-1, 1, 3),
        lambda0=0.0,
        lambda1=1.0,
        theta0=np.ones(3),
        mu0=np.full(3, 1 / 3),
        A=1.0,
        B=1.0,
        H=1.0,
    )


def test_subcritical_yaglom_synthetic(subcritical_setup):
    # exact conditional law of the subcritical constant model is geometric
    rng = np.random.default_rng(6)
    # t = 8 keeps ~1800 survivors at 2e5 draws; the finite-t bias of the
    # conditional geometric law sits well inside the 4-SE band
    alpha, beta = bd_extinction_params(8.0, 0.5, 1.0)
    n = 200_000
    u = rng.uniform(size=n)
    sizes = np.zeros(n)
    alive = u >= alpha
    sizes[alive] = rng.geometric(1.0 - beta, size=int(alive.sum()))
    limits = {
        "K_minus": 0.5,
        "V": {1: 1.0, 2: 3.0, 3: 13.0, 4: 75.0},  # V_n^- for this model
    }
    rep = subcritical_yaglom_test(sizes, limits, n_orders=4)
    assert rep.passed


def test_subcritical_yaglom_starved():
    rep = subcritical_yaglom_test(np.zeros(50), {"K_minus": 1.0, "V": {1: 1.0}}, n_orders=1)
    assert rep.inconclusive


# ----------------------------------------------------------------------
# supercritical diagnostics


def test_w_diagnostics_mixture_null(supercritical_setup):
    spec = supercritical_setup[4]
    rng = np.random.default_rng(7)
    n = 20_000
    t_end = 6.0
    # null: atom at (almost) zero smeared to the doomed scale, positive part Exp(mean 2)
    doomed = math.exp(spec.lambda0 * t_end)
    w = np.where(
        rng.uniform(size=n) < 0.5,
        rng.uniform(0.2 * doomed, 2.0 * doomed, size=n),
        rng.exponential(2.0, size=n),
    )
    rep = w_infty_diagnostics(w, spec, 0.5, 0.0, t_end, v_plus={1: 1.0, 2: 4.0})
    assert rep.passed, rep.details


def test_w_diagnostics_names_the_martingale_failure(supercritical_setup):
    """A mean 3.1 SE off Theta0(x0) fails the 3-SE martingale check alone,
    and the value, each |z| over its own limit, reads above 1."""
    spec = supercritical_setup[4]
    rng = np.random.default_rng(7)
    n = 20_000
    t_end = 6.0
    doomed = math.exp(spec.lambda0 * t_end)
    atom = rng.uniform(size=n) < 0.5
    w = np.where(atom, rng.uniform(0.2 * doomed, 2.0 * doomed, size=n), rng.exponential(2.0, size=n))
    # shift the positive part until the mean sits 3.1 SE above Theta0(0)
    target = spec.theta0_at(0.0)
    shift = 0.0
    for _ in range(20):
        shifted = np.where(atom, w, w + shift)
        se = np.std(shifted, ddof=1) / math.sqrt(n)
        shift += (target + 3.1 * se - shifted.mean()) / np.mean(~atom)
    rep = w_infty_diagnostics(shifted, spec, 0.5, 0.0, t_end, v_plus={1: 1.0, 2: 4.0})
    assert rep.details["martingale_z"] == pytest.approx(3.1, abs=1e-6)
    assert rep.details["atom_z"] <= 4.0
    assert max(abs(z) for z in rep.details["moment_z"]) <= 4.0
    assert not rep.passed
    assert rep.details["failed_checks"] == ["martingale"]
    assert rep.threshold == 1.0
    assert rep.value == pytest.approx(3.1 / 3.0, abs=1e-6)


def test_w_diagnostics_needs_large_t(supercritical_setup):
    spec = supercritical_setup[4]
    with pytest.raises(ValueError):
        w_infty_diagnostics(np.ones(100), spec, 0.5, 0.0, 1.0, v_plus={1: 1.0, 2: 4.0})


def test_w_diagnostics_regime_gate(critical_setup):
    spec = critical_setup[4]
    with pytest.raises(RegimeError):
        w_infty_diagnostics(np.ones(100), spec, 0.5, 0.0, 10.0, v_plus={1: 1.0, 2: 4.0})


# ----------------------------------------------------------------------
# conditioned-process comparison


def test_qprocess_normalization_trivial():
    rng = np.random.default_rng(8)
    n = 5000
    w = rng.exponential(size=n)  # weights integrate to 1 in the null
    surv = {10.0: rng.uniform(size=n) < 0.4}
    rep = qprocess_law_test(np.ones(n), w / w.mean(), surv)
    assert rep.passed
    assert rep.details["reweighted_mean"] == pytest.approx(1.0, abs=1e-12)


def test_qprocess_starved():
    rep = qprocess_law_test(np.ones(100), np.ones(100), {5.0: np.zeros(100, dtype=bool)})
    assert rep.inconclusive


def test_ks_slack_calibration_scales():
    c30 = geometric_ks_distance(exponential_law, 30.0)
    c60 = geometric_ks_distance(exponential_law, 60.0)
    assert c30 == pytest.approx(1.0 / 31.0, rel=0.05)
    assert c60 < c30
    assert ks_slack(exponential_law, 30.0, 1.0) >= c30  # the margin covers the exact distance
    assert ks_slack(exponential_law, 30.0, B=2.0) == pytest.approx(ks_slack(exponential_law, 60.0, 1.0), rel=1e-12)


def _geometric_ks_reference(t, limit_cdf_of_u):
    """The slack calibrations written out: KS distance between the
    geometric conditional law of the constant-rate model (b = 1) and a
    limit CDF of u = k / mean, over both sides of each atom."""
    mean = 1.0 + t
    q = t / (1.0 + t)
    ks = np.arange(1, int(40 * mean) + 1)
    limit = limit_cdf_of_u(ks / mean)
    return float(max(np.max(np.abs(1.0 - q**ks - limit)), np.max(np.abs(1.0 - q ** (ks - 1) - limit))))


@pytest.mark.parametrize("t, B", [(5.0, 1.0), (30.0, 1.0), (14.0, 0.7)])
def test_ks_slacks_are_bit_equal_to_the_written_out_calibration(t, B):
    exp_d = _geometric_ks_reference(t, lambda u: 1.0 - np.exp(-u))
    ups_d = _geometric_ks_reference(t, lambda u: upsilon_law(np.sqrt(u) - 0.5 / np.sqrt(u)))
    assert geometric_ks_distance(exponential_law, t) == exp_d
    assert geometric_ks_distance(upsilon_law_of_mass, t) == ups_d
    exp_c = 1.5 * 30.0 * _geometric_ks_reference(30.0, lambda u: 1.0 - np.exp(-u))
    ups_c = 1.5 * 30.0 * _geometric_ks_reference(30.0, lambda u: upsilon_law(np.sqrt(u) - 0.5 / np.sqrt(u)))
    assert ks_slack(exponential_law, t, B) == exp_c / (B * t)
    assert ks_slack(upsilon_law_of_mass, t, B) == ups_c / (B * t)


def test_subcritical_two_starting_points_agree():
    # same conditional limits from two starting traits (subcritical oscillator)
    import math

    from branchlab import DynamicsSpec, Grid
    from branchlab.branching import CutoffSpec, simulate_ensemble

    from .conftest import make_oscillator_model
    from .oracles import constant

    model = make_oscillator_model(0.5)
    dyn = DynamicsSpec(variant="diffusion", a=constant(0.0))
    cut = CutoffSpec(m=4.0)
    t = 10.0
    means = []
    for seed, x0 in ((41, 0.0), (42, 0.5)):
        res = simulate_ensemble(x0, t, 0.005, model, dyn, cut, seed=seed, reps=60_000, record_times=[t])
        n = res.counts[-1]
        alive = n > 0
        assert alive.sum() > 300
        vals = n[alive].astype(float)
        means.append((vals.mean(), vals.std(ddof=1) / math.sqrt(alive.sum())))
    gap = abs(means[0][0] - means[1][0])
    se = math.hypot(means[0][1], means[1][1])
    assert gap <= 4.0 * se


def test_lln_antisymmetric_f_mean_zero(critical_setup):
    # antisymmetric functional on the symmetric reflected toy: nu(f) = 0
    from branchlab.branching import CutoffSpec, simulate_ensemble

    model, dyn, grid, gen, spec = critical_setup
    res = simulate_ensemble(
        0.0, 12.0, 0.01, model, dyn, CutoffSpec(m=30.0), seed=61, reps=30_000,
        record_times=[12.0], functionals={"odd": lambda a: np.clip(a, -4, 4)},
        reflect_at=(grid.x_min, grid.x_max),
    )
    rep = lln_ratio_test(res.functionals["odd"][-1], res.counts[-1], spec, 0.0)
    assert rep.passed
    assert abs(rep.details["mean"]) < 0.2


def test_subcritical_f_vs_theta0_first_moment_ratio(subcritical_setup):
    # formula cross-check: V_1^-(f)/V_1^-(Theta0) must equal the
    # mu0-integral ratio for any bounded f
    model, dyn, grid, gen, spec = subcritical_setup
    xs = grid.nodes
    bump = np.exp(-0.5 * xs**2)
    v1_f = spec.mu0_integral(bump)
    v1_t = spec.mu0_integral(spec.theta0)
    assert v1_f / v1_t == pytest.approx(spec.nu(bump) / spec.nu(spec.theta0), rel=1e-12)


def test_qprocess_weight_s_zero_identity(critical_setup):
    # at s = 0 the conditioned and reweighted functionals agree exactly
    from branchlab.branching import qprocess_weight

    spec = critical_setup[4]
    x0 = 0.3
    w = qprocess_weight(np.array([x0]), 0.0, x0, spec)
    assert w == pytest.approx(1.0, abs=1e-9)
    f_of_start = 0.77
    assert f_of_start * w == pytest.approx(f_of_start, abs=1e-9)


def test_upsilon_cdf_monotone_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=100, deadline=None)
    @given(y=st.floats(-50.0, 50.0), dy=st.floats(1e-6, 10.0))
    def check(y, dy):
        lo, hi = upsilon_law(y), upsilon_law(y + dy)
        assert 0.0 <= lo <= hi <= 1.0

    check()


# ----------------------------------------------------------------------
# inconclusive reports


def _fake_spec(lambda0, B=1.0):
    from branchlab.grid import Grid
    from branchlab.semigroup import SpectralData

    return SpectralData(
        grid=Grid(-1, 1, 3), lambda0=lambda0, lambda1=1.0, theta0=np.ones(3), mu0=np.full(3, 1 / 3), A=1.0, B=B
    )


def _inconclusive_dict(name, statistic, threshold, sample_size, details):
    return {
        "name": name,
        "statistic": statistic,
        "value": math.nan,
        "threshold": threshold,
        "sample_size": sample_size,
        "passed": False,
        "inconclusive": True,
        "details": details,
    }


def _starved_reports():
    """(report, the dict that report gave when each check built its own)
    for every check with an inconclusive branch, driven into it."""
    from branchlab.moments import MomentField

    crit = _fake_spec(0.0, B=2.0)
    sup = _fake_spec(-1.0)
    field = MomentField(
        times=np.linspace(0.0, 10.0, 11), nodes=crit.grid.nodes, fields={0: np.ones((11, 3))}, dt_pde=0.01
    )
    decomp = CriticalDecomposition(times=np.arange(6.0), r=np.full(6, 1e-7), psi=np.zeros((6, 3)))
    zeros = np.zeros(100)
    # log-uniform W: no density gap between the doomed and survivor scales
    w = 10.0 ** np.linspace(-6.0, 1.0, 2000)
    _thr, shallow = analysis.w_atom_threshold(w, math.exp(-10.0))
    assert _thr is None and set(shallow) == {"reason", "threshold_candidate", "histogram"}
    return [
        (
            critical_survival_check(field, crit),
            _inconclusive_dict("critical-survival-asymptotic", "sup deviation", 0.01, 11,
                               {"reason": "horizon 10 below 50/B = 25"}),
        ),
        (
            critical_ode_residual(decomp, crit, make_constant_model(1.0, 1.0)),
            _inconclusive_dict("critical-ode-residual", "relative residual", 1e-3, 0,
                               {"reason": "differentiation noise dominates everywhere"}),
        ),
        (
            yaglom_test_critical(zeros, crit, 30.0, alpha=0.01),
            _inconclusive_dict("critical-yaglom-exponential", "KS distance", math.nan, 0,
                               {"reason": "only 0 survivors < 500"}),
        ),
        (
            lln_ratio_test(zeros, zeros, crit, 1.0),
            _inconclusive_dict("critical-lln-ratio", "|mean - nu(f)| / SE", 4.0, 0, {"reason": "survivor starvation"}),
        ),
        (
            upsilon_test(zeros, zeros, 30.0, crit, 1.0, alpha=0.01),
            _inconclusive_dict("critical-upsilon-law", "KS distance", math.nan, 0, {"reason": "survivor starvation"}),
        ),
        (
            subcritical_yaglom_test(zeros, {"K_minus": 1.0, "V": {1: 1.0}}, n_orders=1),
            _inconclusive_dict("subcritical-yaglom-moments", "max |z|", 4.0, 0,
                               {"reason": "survivor starvation; push t down or reps up"}),
        ),
        (
            w_infty_diagnostics(np.zeros(30), sup, 0.5, 0.0, 10.0, v_plus={1: 1.0, 2: 4.0}),
            _inconclusive_dict("supercritical-w-diagnostics", "atom separation", math.nan, 30,
                               {"reason": "too few positive samples"}),
        ),
        (
            w_infty_diagnostics(w, sup, 0.5, 0.0, 10.0, v_plus={1: 1.0, 2: 4.0}),
            _inconclusive_dict("supercritical-w-diagnostics", "atom separation", math.nan, 2000,
                               {"reason": "atom separation ambiguous", **shallow}),
        ),
        (
            qprocess_law_test(np.ones(100), np.ones(100), {5.0: np.zeros(100, dtype=bool)}),
            _inconclusive_dict("qprocess-law", "|gap| / SE", 4.0, 0, {"reason": "survivor starvation at T = 5.0"}),
        ),
    ]


def test_inconclusive_reports_keep_their_fields():
    for rep, want in _starved_reports():
        assert rep.inconclusive and not rep.passed
        # json spells NaN out, so the comparison covers the NaN fields too
        assert json.dumps(rep.to_dict()) == json.dumps(want), want["name"]
