"""Regime-specific verification: the critical dynamical system (r, Psi),
limit-law statistical tests, supercritical martingale diagnostics, the
conditioned-process law comparison, the generic test statistics, and
``verify_suite``, which runs the battery of a config's regime (grid checks,
then one particle ensemble) and returns its reports and plot tables.

Statistical conventions: comparisons of Monte Carlo output against exact
finite-t values use 3 standard errors; comparisons against t -> infinity
limits use 4 standard errors (they carry additional O(1/t) bias).  The
Kolmogorov-Smirnov tests of the limit laws get a finite-t slack delta(t) =
c / t added to the rejection band, with c calibrated once against the
exactly known conditional law of the constant-rate model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .branching import run_ensemble
from .moments import (
    RegimeError,
    criticality_epsilon,
    hamburger_bound,
    solve_h,
    solve_moments,
    solve_survival,
    subcritical_limits,
    supercritical_limits,
)

# the statistics and checks; the battery that runs them (verify_suite) and
# its functional bank are drivers, not tests, and are left out
__all__ = [
    "TestReport",
    "CriticalDecomposition",
    "critical_survival_check",
    "critical_ode_residual",
    "yaglom_test_critical",
    "lln_ratio_test",
    "upsilon_law",
    "upsilon_quantile_h",
    "upsilon_test",
    "upsilon_slack",
    "upsilon_ks_slack_constant",
    "subcritical_yaglom_test",
    "w_infty_diagnostics",
    "w_atom_threshold",
    "qprocess_law_test",
    "ks_test",
    "ks_band",
    "moment_z_test",
    "critical_ks_slack_constant",
    "null_calibration",
]


@dataclass
class TestReport:
    """Outcome of one statistical or numerical verification."""

    __test__ = False  # not a pytest class despite the name

    name: str
    statistic: str
    value: float
    threshold: float
    sample_size: int
    passed: bool
    p_value: float | None = None
    inconclusive: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "name": self.name,
            "statistic": self.statistic,
            "value": self.value,
            "threshold": self.threshold,
            "sample_size": self.sample_size,
            "passed": bool(self.passed),
            "inconclusive": bool(self.inconclusive),
        }
        if self.p_value is not None:
            out["p_value"] = self.p_value
        if self.details:
            out["details"] = _jsonable(self.details)
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _require_regime(spectral, regime, op):
    actual = spectral.regime()
    if actual != regime:
        raise RegimeError(
            f"{op} needs the {regime} regime (|lambda0| gate {criticality_epsilon(spectral):.2e}); "
            f"spectral data is {actual} with lambda0 = {spectral.lambda0:.4g}"
        )


# ----------------------------------------------------------------------
# generic statistics


def ks_test(samples, cdf):
    """One-sample two-sided Kolmogorov-Smirnov test against ``cdf``.

    Returns (statistic, asymptotic p-value)."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 20:
        raise ValueError("KS test needs at least 20 samples")
    # imported here: at module level scipy.stats would add ~0.6 s to the
    # start-up of every command, testing or not
    from scipy import stats

    res = stats.kstest(samples, cdf)
    return float(res.statistic), float(res.pvalue)


def ks_band(alpha, n):
    """Two-sided KS rejection threshold at level alpha for n samples."""
    # kstwobign.ppf, not special.kolmogi: the two differ by 1 ulp at the
    # shipped alphas, and the band is written to verification.json
    from scipy import stats

    return float(stats.kstwobign.ppf(1.0 - alpha) / math.sqrt(n))


def moment_z_test(sample_moments, targets, ses, z_max, name="moment-z"):
    """z-scores of sample moments against targets; passes when all |z| are
    within ``z_max``."""
    sample_moments = np.asarray(sample_moments, dtype=float)
    targets = np.asarray(targets, dtype=float)
    ses = np.asarray(ses, dtype=float)
    z = (sample_moments - targets) / np.where(ses > 0, ses, np.inf)
    worst = float(np.max(np.abs(z))) if len(z) else 0.0
    return TestReport(
        name=name,
        statistic="max |z|",
        value=worst,
        threshold=float(z_max),
        sample_size=len(z),
        passed=bool(worst <= z_max),
        details={"z_scores": z.tolist()},
    )


def null_calibration(run_once, reps=100, seed=0):
    """Feed a test its own null ``reps`` times; returns the pass rate.

    ``run_once(seed)`` must return a TestReport (or bool).
    """
    passes = 0
    for k in range(reps):
        out = run_once(seed + k)
        ok = out.passed if isinstance(out, TestReport) else bool(out)
        passes += int(ok)
    return passes / reps


# ----------------------------------------------------------------------
# critical dynamical system


@dataclass
class CriticalDecomposition:
    """u0(t, .) split into r(t) Theta0 + Psi(t, .) with mu0(Psi) = 0."""

    times: np.ndarray
    r: np.ndarray
    psi: np.ndarray  # (n_times, n_nodes)
    spectral: object

    @classmethod
    def from_field(cls, u0_field, spectral):
        u0 = u0_field.fields[0]
        r = u0 @ spectral.mu0
        psi = u0 - r[:, None] * spectral.theta0[None, :]
        return cls(times=u0_field.times, r=r, psi=psi, spectral=spectral)

    def reconstruction_error(self, u0_field):
        u0 = u0_field.fields[0]
        rec = self.r[:, None] * self.spectral.theta0[None, :] + self.psi
        return float(np.max(np.abs(u0 - rec)))

    def orthogonality_defect(self):
        return float(np.max(np.abs(self.psi @ self.spectral.mu0)))


def critical_survival_check(u0_field, spectral, model=None, tolerance=0.02):
    """Fit of the survival asymptotics (1+t) u0 -> Theta0 / B.

    Checks sup_x |(1+t) u0(t,x) - Theta0(x)/B| against the declared
    tolerance times 1/B at the final time, fits the deviation against
    c log(2+t)/(1+t), and requires the fitted c to be stable within 20%
    over the last doubling of t with decreasing residual.
    """
    _require_regime(spectral, "critical", "critical_survival_check")
    B = spectral.B
    times = u0_field.times
    t_end = float(times[-1])
    if t_end < 50.0 / B:
        return TestReport(
            name="critical-survival-asymptotic",
            statistic="sup deviation",
            value=math.nan,
            threshold=tolerance / B,
            sample_size=len(times),
            passed=False,
            inconclusive=True,
            details={"reason": f"horizon {t_end:.3g} below 50/B = {50 / B:.3g}"},
        )
    u0 = u0_field.fields[0]
    target = spectral.theta0 / B
    dev = np.max(np.abs((1.0 + times)[:, None] * u0 - target[None, :]), axis=1)
    final_dev = float(dev[-1])

    # envelope fit on two windows: [T/2, 3T/4] and [3T/4, T]
    def fitted_c(mask):
        tt = times[mask]
        return float(np.mean(dev[mask] * (1.0 + tt) / np.log(2.0 + tt)))

    half = times >= 0.5 * t_end
    w1 = half & (times < 0.75 * t_end)
    w2 = times >= 0.75 * t_end
    c1, c2 = fitted_c(w1), fitted_c(w2)
    stable = abs(c2 - c1) <= 0.2 * max(abs(c1), abs(c2), 1e-300)
    decreasing = dev[np.argmin(np.abs(times - 0.5 * t_end))] >= final_dev
    passed = final_dev <= tolerance / B and stable and decreasing
    return TestReport(
        name="critical-survival-asymptotic",
        statistic="sup_x |(1+t) u0 - Theta0/B| at t_end",
        value=final_dev,
        threshold=tolerance / B,
        sample_size=len(times),
        passed=bool(passed),
        details={
            "envelope_c_first": c1,
            "envelope_c_last": c2,
            "envelope_stable": bool(stable),
            "residual_decreasing": bool(decreasing),
            "t_end": t_end,
            "B": B,
        },
    )


def critical_ode_residual(decomp, spectral, model, rel_tol=1e-3):
    """Residual of dr/dt = -B r^2 - r mu0(2 Theta0 b Psi) - mu0(b Psi^2).

    Uses centered differences on the stored r(t); restricted to times where
    r is well above the differentiation noise.  Also reports the empirical
    ratio sup |Psi|/r^2 and checks it stays bounded over the final half.
    """
    _require_regime(spectral, "critical", "critical_ode_residual")
    times = decomp.times
    if len(times) < 5:
        raise ValueError("need at least 5 stored times")
    dt = float(times[1] - times[0])
    r = decomp.r
    xs = spectral.grid.nodes
    b_vals = np.asarray(model.b(xs), dtype=float)
    drdt = (r[2:] - r[:-2]) / (2.0 * dt)
    mid = slice(1, -1)
    two_tb_psi = decomp.psi[mid] @ (2.0 * spectral.theta0 * b_vals * spectral.mu0)
    b_psi2 = (decomp.psi[mid] ** 2) @ (b_vals * spectral.mu0)
    rhs = -spectral.B * r[mid] ** 2 - r[mid] * two_tb_psi - b_psi2
    # centered differences truncate at ~ (B r dt)^2 relative to the right
    # side, and drown in rounding when r itself is tiny; keep the window
    # where both effects sit a decade below the tolerance
    trunc_rel = (spectral.B * r[mid] * dt) ** 2
    use = (trunc_rel <= rel_tol / 10.0) & (r[mid] > 1e-6)
    if not use.any():
        return TestReport(
            name="critical-ode-residual",
            statistic="relative residual",
            value=math.nan,
            threshold=rel_tol,
            sample_size=0,
            passed=False,
            inconclusive=True,
            details={"reason": "differentiation noise dominates everywhere"},
        )
    rel = np.abs(drdt[use] - rhs[use]) / np.maximum(np.abs(rhs[use]), 1e-300)
    worst = float(np.max(rel))

    ratio = np.max(np.abs(decomp.psi), axis=1) / np.maximum(r**2, 1e-300)
    lastq = times >= 0.5 * times[-1]
    ratio_bounded = float(np.max(ratio[lastq])) <= 2.0 * float(np.max(ratio[~lastq])) + 1e-12
    return TestReport(
        name="critical-ode-residual",
        statistic="max relative residual",
        value=worst,
        threshold=rel_tol,
        sample_size=int(use.sum()),
        passed=bool(worst <= rel_tol),
        details={
            "psi_over_r2_final": float(ratio[-1]),
            "psi_over_r2_max_late": float(np.max(ratio[lastq])),
            "psi_over_r2_bounded": bool(ratio_bounded),
        },
    )


# ----------------------------------------------------------------------
# critical limit laws


def _geometric_ks_distance(t, b, k_max, limit_cdf_of_u):
    """Exact KS distance between the conditional law of the constant-rate
    critical model at time t (geometric, with u = k / mean) and a limit CDF
    of u, over both sides of each atom."""
    mean = 1.0 + b * t
    q = b * t / (1.0 + b * t)
    k_max = k_max or int(40 * mean)
    ks = np.arange(1, k_max + 1)
    cdf_limit = limit_cdf_of_u(ks / mean)
    cdf_right = 1.0 - q**ks
    cdf_left = 1.0 - q ** (ks - 1)
    return float(max(np.max(np.abs(cdf_right - cdf_limit)), np.max(np.abs(cdf_left - cdf_limit))))


@functools.cache
def _slack_constant(ks_distance):
    """c = 1.5 t_cal d(t_cal): the finite-t KS slack constant of one limit
    law, calibrated once on the constant-rate model (B = 1, 50% margin)."""
    t_cal = 30.0
    return 1.5 * t_cal * ks_distance(t_cal)


def critical_ks_slack_constant(t, b=1.0, k_max=None):
    """Exact KS distance between the conditional law of the constant-rate
    critical model at time t (geometric, normalized by (t+1) with A=B=1)
    and the exponential limit.  Used to calibrate the finite-t slack
    c = t * distance once; delta(t) = c / t."""
    return _geometric_ks_distance(t, b, k_max, lambda u: 1.0 - np.exp(-u))


def ks_slack(t, B=1.0):
    """Finite-t KS slack delta(t) = c / (B t), with c calibrated once on
    the constant-rate model (where B = 1; 50% safety margin).  The B
    scaling matches the conditional population scale E[N_t | alive] ~ B t,
    which sets the lattice spacing of the normalized law."""
    return _slack_constant(critical_ks_slack_constant) / (B * t)


def yaglom_test_critical(n_samples, spectral, t, alpha=0.01, min_survivors=500):
    """KS test of N_t / ((t+1) A B) conditioned on survival against the
    unit-mean exponential, with finite-t slack; plus the first three
    conditional moments against n! within 4 SE."""
    _require_regime(spectral, "critical", "yaglom_test_critical")
    n_samples = np.asarray(n_samples, dtype=float)
    survivors = n_samples[n_samples > 0]
    if len(survivors) < min_survivors:
        return TestReport(
            name="critical-yaglom-exponential",
            statistic="KS distance",
            value=math.nan,
            threshold=math.nan,
            sample_size=len(survivors),
            passed=False,
            inconclusive=True,
            details={"reason": f"only {len(survivors)} survivors < {min_survivors}"},
        )
    scale = (t + 1.0) * spectral.A * spectral.B
    x = survivors / scale
    d, p = ks_test(x, lambda v: 1.0 - np.exp(-np.clip(v, 0.0, None)))
    threshold = ks_band(alpha, len(x)) + ks_slack(t, spectral.B)
    ks_pass = d <= threshold

    moments = [float(np.mean(x**n)) for n in (1, 2, 3)]
    ses = [float(np.std(x**n, ddof=1) / math.sqrt(len(x))) for n in (1, 2, 3)]
    mom = moment_z_test(moments, [1.0, 2.0, 6.0], ses, z_max=4.0, name="yaglom moments")
    return TestReport(
        name="critical-yaglom-exponential",
        statistic="KS distance",
        value=d,
        threshold=threshold,
        sample_size=len(x),
        passed=bool(ks_pass and mom.passed),
        p_value=p,
        details={
            "slack": ks_slack(t, spectral.B),
            "moment_z": mom.details["z_scores"],
            "moments": moments,
            "targets": [1.0, 2.0, 6.0],
        },
    )


def lln_ratio_test(zf_samples, n_samples, spectral, nu_f, z_max=4.0, min_survivors=500, sys_tol=1e-4):
    """Conditional <Z_t, f>/N_t concentrates at nu(f): mean within
    ``z_max`` SE of nu(f); the sample SD is reported for shrinkage checks.

    ``sys_tol`` absorbs the deterministic grid tolerance of nu(f) itself
    (relevant when the ratio is degenerate, e.g. f proportional to 1).
    Scaling f by a positive constant leaves the decision unchanged.
    """
    _require_regime(spectral, "critical", "lln_ratio_test")
    zf = np.asarray(zf_samples, dtype=float)
    ns = np.asarray(n_samples, dtype=float)
    alive = ns > 0
    if alive.sum() < min_survivors:
        return TestReport(
            name="critical-lln-ratio",
            statistic="|mean - nu(f)| / SE",
            value=math.nan,
            threshold=z_max,
            sample_size=int(alive.sum()),
            passed=False,
            inconclusive=True,
            details={"reason": "survivor starvation"},
        )
    ratio = zf[alive] / ns[alive]
    scale = max(abs(nu_f), float(np.max(np.abs(ratio))), 1e-300)
    se = float(np.std(ratio, ddof=1) / math.sqrt(len(ratio)))
    se_eff = max(se, sys_tol * scale / z_max)
    z = abs(float(np.mean(ratio)) - nu_f) / se_eff
    return TestReport(
        name="critical-lln-ratio",
        statistic="|mean - nu(f)| / SE",
        value=z,
        threshold=z_max,
        sample_size=len(ratio),
        passed=bool(z <= z_max),
        details={
            "mean": float(np.mean(ratio)),
            "sd": float(np.std(ratio, ddof=1)),
            "nu_f": nu_f,
            "systematic_slack": sys_tol * scale,
        },
    )


def upsilon_quantile_h(y):
    """h(y) = ((y + sqrt(y^2 + 2)) / 2)^2, the exponential quantile map of
    the centered ratio law."""
    y = np.asarray(y, dtype=float)
    out = ((y + np.sqrt(y * y + 2.0)) / 2.0) ** 2
    return float(out) if out.ndim == 0 else out


def upsilon_law(y):
    """CDF of the limit of the centered normalized ratio: 1 - e^{-h(y)}."""
    return 1.0 - np.exp(-upsilon_quantile_h(y))


def upsilon_ks_slack_constant(t, b=1.0, k_max=None):
    """Exact KS distance of the centered ratio on the constant-rate model
    (spatially constant f, so the ratio is a deterministic transform of the
    geometric population size) from its limit law at time t."""
    # y = sqrt(u) - 1/(2 sqrt(u)) is monotone increasing in k
    return _geometric_ks_distance(t, b, k_max, lambda u: upsilon_law(np.sqrt(u) - 0.5 / np.sqrt(u)))


def upsilon_slack(t, B=1.0):
    """Finite-t slack for the centered-ratio KS test, delta(t) = c / (B t)
    with c calibrated once on the constant-rate model (50% margin)."""
    return _slack_constant(upsilon_ks_slack_constant) / (B * t)


def upsilon_samples(zf_samples, n_samples, t, spectral, nu_f):
    """Build the centered normalized ratio from conditional MC samples."""
    zf = np.asarray(zf_samples, dtype=float)
    ns = np.asarray(n_samples, dtype=float)
    alive = ns > 0
    A, B = spectral.A, spectral.B
    num = zf[alive] / (t + 1.0) - nu_f * A * B / 2.0
    den = nu_f * math.sqrt(A * B) * np.sqrt(ns[alive] / (t + 1.0))
    return num / den


def upsilon_test(zf_samples, n_samples, t, spectral, nu_f, alpha=0.01, min_survivors=500):
    """KS test of the sampled centered ratio against 1 - e^{-h(y)}."""
    _require_regime(spectral, "critical", "upsilon_test")
    if nu_f == 0:
        raise ValueError("upsilon_test needs nu(f) != 0")
    ups = upsilon_samples(zf_samples, n_samples, t, spectral, nu_f)
    if len(ups) < min_survivors:
        return TestReport(
            name="critical-upsilon-law",
            statistic="KS distance",
            value=math.nan,
            threshold=math.nan,
            sample_size=len(ups),
            passed=False,
            inconclusive=True,
            details={"reason": "survivor starvation"},
        )
    d, p = ks_test(ups, upsilon_law)
    threshold = ks_band(alpha, len(ups)) + upsilon_slack(t, spectral.B)
    return TestReport(
        name="critical-upsilon-law",
        statistic="KS distance",
        value=d,
        threshold=threshold,
        sample_size=len(ups),
        passed=bool(d <= threshold),
        p_value=p,
        details={"slack": upsilon_slack(t, spectral.B)},
    )


# ----------------------------------------------------------------------
# subcritical limit law


def subcritical_yaglom_test(zf_samples, limits, f_sup=None, z_max=4.0, n_orders=4, min_survivors=200, name_suffix=""):
    """Conditional moments of <Z_t, f> given survival against V_n^-/K^-."""
    zf = np.asarray(zf_samples, dtype=float)
    alive = zf != 0.0
    survivors = zf[alive]
    if len(survivors) < min_survivors:
        return TestReport(
            name="subcritical-yaglom-moments" + name_suffix,
            statistic="max |z|",
            value=math.nan,
            threshold=z_max,
            sample_size=len(survivors),
            passed=False,
            inconclusive=True,
            details={"reason": "survivor starvation; push t down or reps up"},
        )
    k_minus = limits["K_minus"]
    moments, targets, ses = [], [], []
    for n in range(1, n_orders + 1):
        yn = survivors**n
        moments.append(float(np.mean(yn)))
        ses.append(float(np.std(yn, ddof=1) / math.sqrt(len(yn))))
        targets.append(limits["V"][n] / k_minus)
    rep = moment_z_test(moments, targets, ses, z_max, name="subcritical moments")
    return TestReport(
        name="subcritical-yaglom-moments" + name_suffix,
        statistic="max |z|",
        value=rep.value,
        threshold=z_max,
        sample_size=len(survivors),
        passed=rep.passed,
        details={"moments": moments, "targets": targets, "z_scores": rep.details["z_scores"]},
    )


# ----------------------------------------------------------------------
# supercritical diagnostics


def w_atom_threshold(w_samples, doomed_scale, bins=60):
    """Data-driven separation of the extinction atom of W_T from its
    positive part: the minimum-density bin of the log-histogram between the
    doomed-trajectory scale and the survivor median.

    At finite T the atom at zero smears into values of order
    ``doomed_scale`` ~ e^{lambda0 T} (a handful of particles about to die
    out); genuine survivors sit near the positive part of the limit law.
    Returns (threshold, details); threshold is None when the density gap is
    too shallow to separate the clusters."""
    w = np.asarray(w_samples, dtype=float)
    pos = w[w > 0]
    if len(pos) < 20:
        return None, {"reason": "too few positive samples"}
    logs = np.log10(pos)
    lo_scale = math.log10(doomed_scale)
    # anchor the top of the search window inside the survivor cluster; the
    # median can sit inside a large smeared atom and collapse the window
    hi_scale = float(np.log10(np.quantile(pos, 0.9)))
    if hi_scale - lo_scale < 0.5:
        return None, {"reason": "doomed and survivor scales not separated; increase T"}
    counts, edges = np.histogram(logs, bins=bins, range=(lo_scale - 1.0, float(logs.max())))
    centers = 0.5 * (edges[:-1] + edges[1:])
    window = (centers >= lo_scale) & (centers <= hi_scale)
    if not window.any():
        return None, {"reason": "empty search window"}
    idx = np.nonzero(window)[0]
    k = idx[int(np.argmin(counts[idx]))]
    thr = float(10.0 ** centers[k])
    peak = counts.max()
    if counts[k] > 0.2 * peak:
        return None, {
            "reason": "density gap too shallow",
            "threshold_candidate": thr,
            "histogram": counts.tolist(),
        }
    return thr, {"bin_index": int(k), "gap_count": int(counts[k]), "histogram": counts.tolist()}


def w_infty_diagnostics(w_samples, spectral, h_at_x0, x0, t_end, v_plus=None, z_mean=3.0, z_limit=4.0):
    """Terminal-value diagnostics of the martingale e^{lambda0 t}<Z_t, Theta0>.

    (a) mean equals Theta0(x0) within ``z_mean`` SE (martingale property);
    (b) the fraction above the fitted atom-separation threshold matches
        h(x0) within ``z_limit`` SE;
    (c) when ``v_plus`` (moments of the limit) is given, the first moments
        match within ``z_limit`` SE.

    ``value`` is the largest |z|/limit over the checks, so the threshold is
    1; ``details["failed_checks"]`` names the checks that failed.

    ``t_end`` must be large enough that e^{lambda0 t_end} <= 0.01, so the
    smeared atom sits well below the positive part.
    """
    _require_regime(spectral, "supercritical", "w_infty_diagnostics")
    w = np.asarray(w_samples, dtype=float)
    n = len(w)
    doomed_scale = math.exp(spectral.lambda0 * t_end)
    if doomed_scale > 0.01:
        raise ValueError(
            f"need e^(lambda0 T) <= 0.01 for atom separation; got {doomed_scale:.3g}"
        )
    theta_x0 = spectral.theta0_at(x0)
    se_mean = float(np.std(w, ddof=1) / math.sqrt(n))
    z_mart = abs(float(np.mean(w)) - theta_x0) / max(se_mean, 1e-300)

    thr, thr_details = w_atom_threshold(w, doomed_scale)
    if thr is None:
        return TestReport(
            name="supercritical-w-diagnostics",
            statistic="atom separation",
            value=math.nan,
            threshold=math.nan,
            sample_size=n,
            passed=False,
            inconclusive=True,
            details={"reason": "atom separation ambiguous", **thr_details},
        )
    frac = float(np.mean(w > thr))
    se_frac = math.sqrt(max(frac * (1 - frac), 1e-300) / n)
    z_atom = abs(frac - h_at_x0) / se_frac

    checks = {"martingale_z": z_mart, "atom_z": z_atom, "threshold": thr, "survival_fraction": frac}
    failed = [name for name, ok in (("martingale", z_mart <= z_mean), ("atom", z_atom <= z_limit)) if not ok]
    # each check's |z| over its own limit, so 1.0 is the pass line for all
    value = max(z_mart / z_mean, z_atom / z_limit)
    if v_plus is not None:
        moments = []
        targets = []
        ses = []
        for order, target in v_plus.items():
            yn = w**order
            moments.append(float(np.mean(yn)))
            ses.append(float(np.std(yn, ddof=1) / math.sqrt(n)))
            targets.append(float(target))
        rep = moment_z_test(moments, targets, ses, z_limit, name="W moments")
        checks["moment_z"] = rep.details["z_scores"]
        checks["moments"] = moments
        checks["moment_targets"] = targets
        value = max(value, rep.value / z_limit)
        if not rep.passed:
            failed.append("moments")
    checks["failed_checks"] = failed
    return TestReport(
        name="supercritical-w-diagnostics",
        statistic=f"max |z|/limit: martingale z over {z_mean:g}, atom and moment z over {z_limit:g}",
        value=float(value),
        threshold=1.0,
        sample_size=n,
        passed=not failed,
        details=checks,
    )


# ----------------------------------------------------------------------
# conditioned-process law


def qprocess_law_test(fvals, weights, survival_by_T, z_max=4.0, min_survivors=100):
    """Conditioned functional law vs the reweighted unconditional law.

    ``fvals``: per-replica values F(<L_s, Phi>); ``weights``: per-replica
    martingale weights at s; ``survival_by_T``: {T: survival mask}.  The
    directly conditioned mean E[F | N_T > 0] must approach the reweighted
    mean E[F * weight] as T grows, with the final gap within ``z_max``
    combined standard errors.
    """
    fvals = np.asarray(fvals, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(fvals)
    rw = fvals * weights
    rw_mean = float(np.mean(rw))
    rw_se = float(np.std(rw, ddof=1) / math.sqrt(n))

    ts = sorted(survival_by_T)
    gaps, ses, sizes = [], [], []
    for T in ts:
        mask = np.asarray(survival_by_T[T], dtype=bool)
        m = int(mask.sum())
        if m < min_survivors:
            return TestReport(
                name="qprocess-law",
                statistic="|gap| / SE",
                value=math.nan,
                threshold=z_max,
                sample_size=m,
                passed=False,
                inconclusive=True,
                details={"reason": f"survivor starvation at T = {T}"},
            )
        cond = fvals[mask]
        cond_mean = float(np.mean(cond))
        cond_se = float(np.std(cond, ddof=1) / math.sqrt(m))
        gaps.append(cond_mean - rw_mean)
        ses.append(math.hypot(cond_se, rw_se))
        sizes.append(m)
    z_final = abs(gaps[-1]) / max(ses[-1], 1e-300)
    shrinking = len(gaps) < 2 or abs(gaps[-1]) <= abs(gaps[0]) + 2.0 * math.hypot(ses[0], ses[-1])
    return TestReport(
        name="qprocess-law",
        statistic="|gap at largest T| / SE",
        value=z_final,
        threshold=z_max,
        sample_size=sizes[-1],
        passed=bool(z_final <= z_max and shrinking),
        details={
            "gaps": gaps,
            "ses": ses,
            "reweighted_mean": rw_mean,
            "T_list": [float(T) for T in ts],
            "gap_shrinking": bool(shrinking),
        },
    )


# ----------------------------------------------------------------------
# the verify battery


def functional_bank(cfg, spec):
    """Grid values of the test functions f whose <Z_t, f> the ensembles
    record: 1, Theta0 and a unit Gaussian bump at the starting trait."""
    xs = cfg.grid.nodes
    return {
        "one": np.ones(len(xs)),
        "theta0": spec.theta0.copy(),
        "bump": np.exp(-0.5 * (xs - float(cfg.mc["x0"])) ** 2),
    }


def verify_suite(cfg, gen, spec, threads=1):
    """The verification battery of the regime of ``spec``.

    The grid checks run first, then one particle ensemble (``threads``
    chunks) to ``verify.t_mc`` (default: the last ``mc.times``) feeds the
    limit-law tests.  Returns ``(reports, tables)``: the TestReports in
    battery order, and plot data as {file name: (header, rows)}.
    """
    regime = spec.regime()
    solver, model, xs = cfg.solver, cfg.model, cfg.grid.nodes
    x0 = float(cfg.mc["x0"])
    t_mc = float(cfg.verify.get("t_mc") or max(cfg.mc["times"]))
    bank = functional_bank(cfg, spec)
    reports, tables = [], {}

    if regime == "supercritical":
        h_tol = float(solver["h_tol"])
        hres = solve_h(
            model, cfg.dynamics, cfg.grid, tol=h_tol, generator=gen, spectral=spec, dt_pde=solver["dt_pde"]
        )
        reports.append(
            TestReport(
                name="supercritical-h-routes",
                statistic="sup |h_Newton - h_u0|",
                value=hres.agreement,
                threshold=3.0 * h_tol,
                sample_size=cfg.grid.n_points,
                passed=bool(hres.agreement <= 3.0 * h_tol),
            )
        )
        sup_t = supercritical_limits(spec, model, gen, 3, spec.theta0)
        sup_b = supercritical_limits(spec, model, gen, 3, bank["bump"])
        mu_b = spec.mu0_integral(bank["bump"])
        worst = 0.0
        for n in (2, 3):
            pred = sup_t["V"][n] * mu_b**n
            err = float(np.max(np.abs(sup_b["V"][n] - pred)) / max(np.max(np.abs(pred)), 1e-300))
            worst = max(worst, err)
        reports.append(
            TestReport(
                name="supercritical-factorization",
                statistic="max relative deviation",
                value=worst,
                threshold=1e-4,
                sample_size=2,
                passed=bool(worst <= 1e-4),
                details={
                    "note": "algebraic identity: V_n^+ is homogeneous of degree n in mu0(f); "
                    "tests/test_moments.py::test_supercritical_resolvent_matches_moment_march "
                    "checks V_n^+ against the moment march"
                },
            )
        )
    else:
        t_end = float(solver["t_end"])
        u0f = solve_survival(t_end, gen, model, dt_pde=solver["dt_pde"], n_store=solver["n_store"])
        if regime == "critical":
            reports.append(critical_survival_check(u0f, spec))
            decomp = CriticalDecomposition.from_field(u0f, spec)
            reports.append(critical_ode_residual(decomp, spec, model))
            tables["r_series.csv"] = (
                ["time", "r", "scaled_r"],
                list(zip(decomp.times, decomp.r, (1.0 + decomp.times) * decomp.r)),
            )
        else:
            mom_field = solve_moments(
                np.ones(cfg.grid.n_points), 4, t_end, gen, model,
                dt_pde=solver["dt_pde"], n_store=solver["n_store"],
            )
            limits = subcritical_limits(spec, model, mom_field, u0f, 4)
            floor = limits["V"][1] ** 2 / limits["V"][2]
            reports.append(
                TestReport(
                    name="subcritical-K-floor",
                    statistic="K^- - (V1^-)^2/V2^-",
                    value=limits["K_minus"] - floor,
                    threshold=0.0,
                    sample_size=1,
                    passed=bool(limits["K_minus"] >= floor > 0),
                    details={"K_minus": limits["K_minus"], "floor": floor},
                )
            )
            # moment-determinacy ceiling on the computed limits
            c1 = float(np.max(mom_field.normalized(1, "subcritical", spec.lambda0)))
            eta = c1 * model.b_star / spec.lambda0
            theta_sup = float(np.max(spec.theta0))
            worst_excess = -math.inf
            for n in sorted(limits["V"]):
                _r_star, bound = hamburger_bound(c1, eta, n)
                worst_excess = max(worst_excess, abs(limits["V"][n]) - bound / theta_sup)
            reports.append(
                TestReport(
                    name="subcritical-hamburger-bound",
                    statistic="max (|V_n^-| - bound)",
                    value=worst_excess,
                    threshold=0.0,
                    sample_size=len(limits["V"]),
                    passed=bool(worst_excess <= 1e-9),
                )
            )

    res = run_ensemble(cfg, [t_mc], bank, threads)
    n_t = res.counts[-1]
    if regime == "critical":
        alpha = float(cfg.verify["alpha"])
        reports.append(yaglom_test_critical(n_t, spec, t_mc, alpha=alpha))
        survivors = np.sort(n_t[n_t > 0]) / ((t_mc + 1.0) * spec.A * spec.B)
        emp = np.arange(1, len(survivors) + 1) / len(survivors)
        tables["yaglom_cdf.csv"] = (
            ["normalized_mass", "empirical_cdf", "exponential_cdf"],
            list(zip(survivors, emp, 1.0 - np.exp(-survivors))),
        )
        z_theta = res.functionals["theta0"][-1]
        nu_theta = spec.nu(spec.theta0)
        reports.append(lln_ratio_test(z_theta, n_t, spec, nu_theta))
        reports.append(lln_ratio_test(res.functionals["bump"][-1], n_t, spec, spec.nu(bank["bump"])))
        reports.append(upsilon_test(z_theta, n_t, t_mc, spec, nu_theta, alpha=alpha))
    elif regime == "subcritical":
        n_orders_mc = int(cfg.verify.get("n_orders_mc", 3))
        reports.append(subcritical_yaglom_test(n_t.astype(float), limits, n_orders=n_orders_mc))
    else:
        w = math.exp(spec.lambda0 * t_mc) * res.functionals["theta0"][-1]
        h_x0 = float(np.interp(x0, xs, hres.h))
        v_plus = {n: float(np.interp(x0, xs, sup_t["V"][n])) for n in (1, 2)}
        reports.append(w_infty_diagnostics(w, spec, h_x0, x0, t_mc, v_plus=v_plus))
    return reports, tables
