"""Deterministic solution of the moment and survival equations.

The mild (Duhamel) integral equations for the moments u_n, the survival
probability u_0 and the exponential functional H are solved in their
differential form

    d/dt u_n = L u_n + b * sum_{k=1}^{n-1} C(n,k) u_k u_{n-k},   u_n(0) = f^n
    d/dt u_0 = L u_0 - b u_0^2,                                  u_0(0) = 1
    d/dt H   = L H   - b H^2,                                    H(0) = 1 - e^{w f}

with an IMEX TR-BDF2 march under local error control
(``semigroup.Propagator.march``): the linear part implicit, the source
unsplit and taken at each stage's end, by a predictor-corrector for the
survival and Laplace equations, whose source reads the field itself.  The
moment orders are the columns of one block, each order's source reads the
orders below it, so each stage is a single band solve with a cached factor
of I - (gamma h / 2) L, and the block takes the steps of order 1.

The extinction limit h solves the stationary equation L h - b h^2 = 0 by
Newton's method, cross-checked against the long-time survival march.
Regime-specific limit constants (critical V_n, subcritical V_n^- and K^-,
supercritical V_n^+ and the beta_n rates) come from the spectral data:
V_n^+ by one sparse resolvent solve per order, V_n^- and K^- by quadrature
over the stored fields.  Analytic tail completion of an infinite-time
quadrature remains only in the subcritical constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import comb

from .branching import yule_moment_bound
# perfbench checks that its tracer patched the Propagator this module sees
from .semigroup import Propagator

__all__ = [
    "MomentField",
    "RegimeError",
    "solve_moments",
    "solve_survival",
    "solve_h",
    "laplace_functional",
    "critical_limits",
    "subcritical_limits",
    "supercritical_limits",
    "hamburger_bound",
    "calibrate_criticality",
    "require_regime",
]


class RegimeError(ValueError):
    """Raised when a regime-specific operation gets the wrong regime."""


class BlowupError(RuntimeError):
    pass


def require_regime(spectral, regime, op):
    """Raise a RegimeError naming ``op`` unless ``spectral`` reads as
    ``regime`` (``SpectralData.regime``)."""
    actual = spectral.regime()
    if actual != regime:
        raise RegimeError(
            f"{op} needs the {regime} regime (|lambda0| gate {spectral.criticality_eps:.2e}); "
            f"spectral data is {actual} with lambda0 = {spectral.lambda0:.4g}"
        )


@dataclass
class MomentField:
    """Stored time slices of u_n(t, .) for n = 0 ... N, marched at the
    tolerance of ``dt_pde``, with the march's time-error estimate (the sum
    of its local error estimates, relative to each field's sup).

    ``fields[n]`` has shape (n_times, n_nodes).  Order 0 is the survival
    probability when present.
    """

    times: np.ndarray
    nodes: np.ndarray
    fields: dict
    dt_pde: float
    time_error: float
    f_vals: np.ndarray | None = None

    @property
    def orders(self):
        return sorted(self.fields)

    @property
    def dt_store(self):
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def normalized(self, n, lambda0):
        """The subcritical scaling e^{lambda0 t} u_n."""
        return np.exp(lambda0 * self.times[:, None]) * self.fields[n]


def _survival_source(b_vals):
    """Block source -b u^2 of the survival and Laplace-functional equations."""
    neg_b = -b_vals[:, None]

    def source(state, out):
        np.multiply(neg_b, state, out=out)
        out *= state

    return source


def _store_steps(t_end, dt, n_store, ensure_times):
    n_steps = int(round(t_end / dt))
    anchors = [n_steps]
    for t in ensure_times:
        k = int(round(t / dt))
        if abs(k * dt - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"requested slice time {t} is not on the solver step grid")
        if 0 < k <= n_steps:
            anchors.append(k)
    every = max(1, n_steps // max(n_store, 1))
    # uniform stored grid that hits every anchor step
    while every > 1 and any(a % every for a in anchors):
        every -= 1
    return list(range(0, n_steps + 1, every))


_GUARD_FACTOR = 10.0  # a moment this many times the pure-birth ceiling is a blow-up


def solve_moments(f_vals, n_max, t_end, generator, model, dt_pde, n_store, ensure_times=()):
    """March all moment orders 1..n_max simultaneously.

    The blow-up guard aborts when any order exceeds ``_GUARD_FACTOR`` times
    the pure-birth moment ceiling.  Returns a MomentField.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    xs = generator.grid.nodes
    f_vals = np.asarray(f_vals, dtype=float)
    b_vals = np.asarray(model.b(xs), dtype=float)
    f_sup = float(np.max(np.abs(f_vals))) if np.max(np.abs(f_vals)) > 0 else 1.0
    init = np.column_stack([f_vals**n for n in range(1, n_max + 1)])
    # the terms k and n - k of sum_k C(n,k) u_k u_{n-k} are equal: each
    # unordered pair k <= n - k is formed once, with weight 2 C(n,k) when
    # k < n - k
    pairs = {n: [(k, float(comb(n, k)) * (1 if 2 * k == n else 2)) for k in range(1, n // 2 + 1)]
             for n in range(2, n_max + 1)}
    term = np.empty(len(xs))

    def source(state, out):
        # column n - 1 holds order n; order 1 has no source, and order n
        # reads only the columns of orders below n
        out[:, 0] = 0.0
        for n in range(2, n_max + 1):
            s = out[:, n - 1]
            (k, weight), *rest = pairs[n]
            np.multiply(state[:, k - 1], state[:, n - k - 1], out=s)
            s *= weight
            for k, weight in rest:
                prod = np.multiply(state[:, k - 1], state[:, n - k - 1], out=term)
                prod *= weight
                s += prod
            s *= b_vals

    def ceilings(t):
        bounds = [_GUARD_FACTOR * (f_sup**n) * yule_moment_bound(n, t, model.b_star) for n in range(1, n_max + 1)]
        return np.array(bounds)

    # with b_star >= 0 the ceilings grow with t, so those of an earlier step
    # bound the current ones from below: they are recomputed only when a
    # peak passes them
    known = ceilings(0.0)

    def guard(state, t):
        nonlocal known
        peaks = np.abs(state).max(axis=0)
        if model.b_star >= 0 and not (peaks > known).any():
            return
        known = ceilings(t)
        for n in range(1, n_max + 1):
            if peaks[n - 1] > known[n - 1]:
                raise BlowupError(
                    f"order-{n} moment reached {peaks[n - 1]:.3g} at t = {t:.3g}, above "
                    f"{_GUARD_FACTOR}x the pure-birth ceiling; check the model scale"
                )

    steps = _store_steps(t_end, dt_pde, n_store, ensure_times)
    # initial data f^n generally ignores the absorbing boundary, so damp
    # the startup like the survival solver does
    stored, time_error = Propagator.march(
        generator, dt_pde, init, t_end, steps, source_fn=source, guard=guard, smooth_start=True, triangular=True
    )
    times = np.array(steps) * dt_pde
    return MomentField(
        times=times,
        nodes=xs,
        fields={n: stored[n - 1] for n in range(1, n_max + 1)},
        dt_pde=dt_pde,
        time_error=time_error,
        f_vals=f_vals,
    )


_POSITIVITY_TOL = 1e-10  # rounding below zero that the survival march tolerates


def solve_survival(t_end, generator, model, dt_pde, n_store, ensure_times=()):
    """March the survival probability u_0 (init 1, source -b u_0^2).

    u_0 stays in [0, 1] and is nonincreasing in t; a value below
    -``_POSITIVITY_TOL`` raises BlowupError.
    """
    xs = generator.grid.nodes
    source = _survival_source(np.asarray(model.b(xs), dtype=float))

    def guard(state, t):
        m = float(np.min(state))
        if m < -_POSITIVITY_TOL:
            raise BlowupError(f"survival went negative ({m:.3e}) at t = {t:.3g}")

    steps = _store_steps(t_end, dt_pde, n_store, ensure_times)
    stored, time_error = Propagator.march(
        generator, dt_pde, np.ones((len(xs), 1)), t_end, steps, source_fn=source, guard=guard, smooth_start=True
    )
    u0 = np.clip(stored[0], 0.0, 1.0)
    return MomentField(
        times=np.array(steps) * dt_pde, nodes=xs, fields={0: u0}, dt_pde=dt_pde, time_error=time_error
    )


def laplace_functional(f_vals, w, t_end, generator, model, dt_pde=0.01, n_store=100, ensure_times=()):
    """March H(t, x, w) = E[1 - exp(w <Z_t, f>)] in differential form.

    ``w`` is real with |w| < 1 / (sup|f| e^{b_star t_end}).  Pending API:
    the finite-t law checks of ROADMAP item 4 will read it (at w <= 0).
    """
    w = float(w)
    f_vals = np.asarray(f_vals, dtype=float)
    f_sup = float(np.max(np.abs(f_vals)))
    radius = 1.0 / (f_sup * math.exp(model.b_star * t_end)) if f_sup > 0 else math.inf
    if abs(w) >= radius:
        raise ValueError(f"|w| = {abs(w):.3g} outside the analyticity radius {radius:.3g}")
    xs = generator.grid.nodes
    h0 = 1.0 - np.exp(w * f_vals)
    source = _survival_source(np.asarray(model.b(xs), dtype=float))
    steps = _store_steps(t_end, dt_pde, n_store, ensure_times)
    stored, time_error = Propagator.march(
        generator, dt_pde, h0[:, None], t_end, steps, source_fn=source, smooth_start=True
    )
    times = np.array(steps) * dt_pde
    return MomentField(times=times, nodes=xs, fields={0: stored[0]}, dt_pde=dt_pde, time_error=time_error)


# ----------------------------------------------------------------------
# the extinction-probability limit h


@dataclass
class HResult:
    """The Newton h, the survival route's h, the Newton steps taken, and
    sup |h - h_u0_route| (sup h of the Newton diagnostic outside the
    supercritical regime)."""

    h: np.ndarray
    h_u0_route: np.ndarray
    iterations: int
    agreement: float


# Newton converges quadratically to a positive h and, where the only
# nonnegative solution is 0 with a singular Jacobian (critical regime),
# halves its step each time: 60 steps reach any tolerance above 1e-17
_NEWTON_MAX_STEPS = 60


# sup-norm tolerance of h: Newton stops on a step below a fifth of it, the
# survival route on an extrapolated remainder below half of it, and the two
# routes must agree to H_ROUTES_TOL, 3 times it
_H_TOL = 1e-6
H_ROUTES_TOL = 3.0 * _H_TOL


def _newton_h(generator, b_vals):
    """Newton's method on L h - b h^2 = 0 from h = 1.

    h = 1 is a supersolution and -(L - 2 b h) is an M-matrix, so the
    iterates decrease monotonically to the largest nonnegative solution.
    Stops on a step below ``_H_TOL`` / 5; returns (h, step sizes)."""
    L = generator.matrix.tocsc()
    h = np.ones(L.shape[0])
    steps = []
    for _ in range(_NEWTON_MAX_STEPS):
        jac = (L - sp.diags(2.0 * b_vals * h)).tocsc()
        step = spla.spsolve(jac, L @ h - b_vals * h * h)
        if not np.all(np.isfinite(step)):
            raise RuntimeError("Newton solve for h: non-finite step (singular Jacobian L - 2 b h)")
        h = np.clip(h - step, 0.0, 1.0)
        steps.append(float(np.max(np.abs(step))))
        if steps[-1] < 0.2 * _H_TOL:
            return h, steps
    raise RuntimeError(
        f"Newton solve for h: no convergence in {_NEWTON_MAX_STEPS} steps (last step {steps[-1]:.3g})"
    )


def solve_h(model, generator, spectral, dt_pde, survival=None):
    """Extinction-probability limit h, by Newton's method on the stationary
    equation L h - b h^2 = 0 and by the long-time survival march.

    Away from the supercritical regime the limit is identically zero; the
    Newton solve still runs as a consistency diagnostic (a positive
    stationary solution there is an error) and the zero field is returned.
    In the supercritical regime both routes are computed, and their
    disagreement is returned for the caller to hold to ``H_ROUTES_TOL``.

    The survival route marches u0 on in segments of about 1 / beta, beta =
    min(|lambda0|, gap), until the extrapolated remainder drops below
    ``_H_TOL``.
    ``survival`` is an optional u0 field from ``solve_survival`` (the survey
    march of ``survive``): the route continues from its last slice, at the
    tolerance of its ``dt_pde``, in segments of whole stored slices, and
    measures its first contraction rates on the field's slices.  Without it the route
    first marches u0 from t = 0 over four segments at ``dt_pde``.
    """
    regime = spectral.regime()
    xs = generator.grid.nodes
    b_vals = np.asarray(model.b(xs), dtype=float)
    h, steps = _newton_h(generator, b_vals)

    if regime != "supercritical":
        if float(np.max(h)) > 0.2:
            raise RuntimeError(f"positive stationary solution (sup h = {np.max(h):.3g}) in the {regime} regime")
        zero = np.zeros(len(xs))
        return HResult(h=zero, h_u0_route=zero, iterations=len(steps), agreement=float(np.max(h)))

    # survival route: march u0 on in segments of about 1 / beta until the
    # geometrically extrapolated remainder drops below _H_TOL
    beta = min(abs(spectral.lambda0), spectral.gap)
    t_probe = max(4.0 / beta, 2.0)
    if survival is None or len(survival.times) < 2:
        dt_seg = math.ceil(t_probe / (4.0 * dt_pde)) * dt_pde
        survival = solve_survival(4.0 * dt_seg, generator, model, dt_pde=dt_pde, n_store=4)
        stride = 1
    else:
        # segments of a whole number of the survey's stored slices
        stride = max(1, round(t_probe / (4.0 * survival.dt_store)))
        dt_seg = stride * survival.dt_store
    # checkpoints a segment apart, newest first: the field's last slice and
    # up to two before it
    marks = list(survival.fields[0][::-stride][:3])
    src = _survival_source(b_vals)
    t_total = float(survival.times[-1])
    for _ in range(60):
        if len(marks) > 1:
            inc = float(np.max(np.abs(marks[0] - marks[1])))
            inc_prev = float(np.max(np.abs(marks[1] - marks[2]))) if len(marks) > 2 else 0.0
            # contraction per segment: measured where sane, else the spectral rate
            q = math.exp(-beta * dt_seg)
            if inc_prev > 0 and inc > 0:
                q = min(max(inc / inc_prev, q), 0.98)
            remaining = inc * q / max(1.0 - q, 1e-12)
            if remaining < 0.5 * _H_TOL or t_total > 400.0:
                break
        out, _err = Propagator.march(generator, survival.dt_pde, marks[0][:, None], dt_seg, None, source_fn=src)
        marks = [np.clip(out[0, -1], 0.0, 1.0), *marks[:2]]
        t_total += dt_seg
    h_u0 = marks[0]

    # strictly positive wherever the eigenfunction carries mass; the far
    # killing tails may underflow to zero without meaning anything
    carrying = spectral.theta0 > 1e-8 * float(np.max(spectral.theta0))
    if not np.all(h[carrying] > 0):
        raise RuntimeError("supercritical h must be positive on the carrying region")
    return HResult(h=h, h_u0_route=h_u0, iterations=len(steps), agreement=float(np.max(np.abs(h - h_u0))))


# ----------------------------------------------------------------------
# regime limit constants


def critical_limits(spectral, n_max):
    """Critical limits of the total mass's moments, V_n(x) = n! Theta0(x) A^n B^{n-1}."""
    require_regime(spectral, "critical", "critical_limits")
    return {n: math.factorial(n) * spectral.theta0 * spectral.A**n * spectral.B ** (n - 1) for n in range(1, n_max + 1)}


def _simpson_weights(J, dt):
    """Composite Simpson weights on J + 1 uniform nodes a step dt apart;
    the last interval falls back to the trapezoid when J is odd."""
    w = np.zeros(J + 1)
    j_even = J if J % 2 == 0 else J - 1
    if j_even >= 2:
        w[0:j_even + 1:2] += 2.0 * dt / 3.0
        w[1:j_even:2] += 4.0 * dt / 3.0
        w[0] -= dt / 3.0
        w[j_even] -= dt / 3.0
    if j_even < J:
        w[J] += dt / 2.0
        w[j_even] += dt / 2.0
    return w


_MIN_DECAY = 1e-12  # values at or below it count as decayed: the tail fit skips them


def _tail_completed_time_integral(times, integrand):
    """Simpson quadrature of a decaying scalar time series on the uniform
    grid plus analytic exponential tail completion with the fitted rate.

    Returns (value, tail_fraction)."""
    times = np.asarray(times, dtype=float)
    y = np.asarray(integrand, dtype=float)
    J = len(times) - 1
    w = _simpson_weights(J, times[1] - times[0])
    body = float(np.dot(w, y))
    # fit the tail decay rate on the last quarter of the series
    k0 = max(J - max(J // 4, 2), 0)
    tail_y = y[k0:]
    pos = tail_y > _MIN_DECAY
    if pos.sum() >= 3:
        ts = times[k0:][pos]
        ln = np.log(tail_y[pos])
        slope = np.polyfit(ts, ln, 1)[0]
        rate = -slope
    else:
        rate = math.inf
    if not math.isfinite(rate) or rate <= 0:
        tail = 0.0 if y[-1] <= _MIN_DECAY else math.inf
    else:
        tail = y[-1] / rate
    total = body + tail
    frac = abs(tail) / max(abs(total), 1e-300)
    return total, frac


# largest share of a subcritical quadrature that the fitted tail may carry
_MAX_TAIL_FRACTION = 0.01


def subcritical_limits(spectral, model, fields, u0_field, n_max):
    """Subcritical limit constants from the stored normalized fields.

    Returns {"V": {n: V_n^-(f)}, "K_minus": K^-, "beta": {n: beta_n}}.  A
    quadrature whose fitted tail carries more than ``_MAX_TAIL_FRACTION`` of
    it raises.
    """
    require_regime(spectral, "subcritical", "subcritical_limits")
    lam0 = spectral.lambda0
    xs = spectral.grid.nodes
    b_mu = np.asarray(model.b(xs), dtype=float) * spectral.mu0
    f_vals = fields.f_vals
    times = fields.times

    v_norm = {n: fields.normalized(n, lam0) for n in range(1, n_max + 1)}
    V = {1: spectral.mu0_integral(f_vals)}
    for n in range(2, n_max + 1):
        series = np.zeros(len(times))
        for k in range(1, n):
            prod = v_norm[k] * v_norm[n - k]  # (n_times, n_nodes)
            series += comb(n, k) * (prod @ b_mu)
        series *= np.exp(-lam0 * times)
        integral, frac = _tail_completed_time_integral(times, series)
        if frac > _MAX_TAIL_FRACTION:
            raise RuntimeError(
                f"order-{n} quadrature tail {frac:.1%} above {_MAX_TAIL_FRACTION:.0%}; extend t_end"
            )
        V[n] = spectral.mu0_integral(f_vals**n) + integral

    v0 = u0_field.normalized(0, lam0)
    series0 = np.exp(-lam0 * u0_field.times) * ((v0 * v0) @ b_mu)
    integral0, frac0 = _tail_completed_time_integral(u0_field.times, series0)
    if frac0 > _MAX_TAIL_FRACTION:
        raise RuntimeError(f"survival quadrature tail {frac0:.1%} unresolved; extend t_end")
    k_minus = spectral.A - integral0
    if not 0.0 < k_minus <= spectral.A + 1e-9:
        raise RuntimeError(f"K^- = {k_minus:.4g} outside (0, A]")

    beta = {1: spectral.gap}
    for n in range(2, n_max + 1):
        beta[n] = (lam0 / spectral.lambda1) * spectral.gap
    return {"V": V, "K_minus": k_minus, "beta": beta}


def supercritical_limits(spectral, model, generator, n_max, f_vals):
    """Supercritical limit constants V_n^+(f, x) by upward recursion.

    V_1^+(f, x) = Theta0(x) mu0(f); for n >= 2 the defining time integral
    int_0^inf e^{n lambda0 s} P_s(b * conv_n)(x) ds is the resolvent
    -(L + n lambda0)^{-1}(b * conv_n), one sparse solve per order (the
    spectral abscissa of L + n lambda0 is (n - 1) lambda0 < 0).  Also
    returns the beta_n convergence-rate recursion.
    """
    require_regime(spectral, "supercritical", "supercritical_limits")
    lam0 = spectral.lambda0
    xs = spectral.grid.nodes
    b_vals = np.asarray(model.b(xs), dtype=float)
    f_vals = np.asarray(f_vals, dtype=float)
    L = generator.matrix.tocsc()
    eye = sp.identity(L.shape[0], format="csc")

    V = {1: spectral.theta0 * spectral.mu0_integral(f_vals)}
    for n in range(2, n_max + 1):
        conv = np.zeros(len(xs))
        for k in range(1, n):
            conv = conv + comb(n, k) * V[k] * V[n - k]
        V[n] = -spla.spsolve(L + n * lam0 * eye, b_vals * conv)

    beta = {1: spectral.gap}
    for n in range(2, n_max + 1):
        prev = beta[n - 1]
        beta[n] = prev * abs(lam0) * (n - 1) / (prev + abs(lam0) * (n - 1))
    return {"V": V, "beta": beta}


def hamburger_bound(a1, eta, n):
    """Moment-determinacy bound: r* = log(1 + 1/(4 eta a1)) and the order-n
    ceiling n! / (2 eta r*^n) for sequences obeying the quadratic recursion
    a_n <= a_1 + eta sum C(n,k) a_k a_{n-k}."""
    if a1 <= 0 or eta <= 0:
        raise ValueError("need a1 > 0 and eta > 0")
    r_star = math.log1p(1.0 / (4.0 * eta * a1))
    bound = math.factorial(n) / (2.0 * eta * r_star**n)
    return r_star, bound


_BRENT_MAX_ITER = 100  # iterations of the calibration search, scipy's brentq default


def _brentq(f, xa, xb):
    """Root of ``f`` on [xa, xb] by Brent's method, step for step the search
    of scipy's ``brentq.c`` with its default tolerances: it evaluates ``f``
    at the same points and returns the same float as ``scipy.optimize.brentq``.
    Importing ``scipy.optimize`` (or any of its submodules) runs the whole
    package ``__init__``, ~12 MB and ~0.15 s for one scalar search.

    An endpoint where f is exactly 0 is returned at once.  Raises ValueError
    when f(xa) and f(xb) have the same sign bit or f is NaN, and
    RuntimeError after ``_BRENT_MAX_ITER`` iterations without convergence; the
    messages call the function lambda0, as its one caller is the
    calibration search.
    """
    # scipy's brentq defaults
    xtol, rtol = 2e-12, 4 * math.ulp(1.0)

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"lambda0 is NaN at {x!r}")
        return fx

    def same_sign(a, b):
        return math.copysign(1.0, a) == math.copysign(1.0, b)

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if same_sign(fpre, fcur):
        raise ValueError(f"lambda0 does not change sign on [{xpre}, {xcur}]: {fpre:.3g}, {fcur:.3g}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and not same_sign(fpre, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # the tolerance is 2 * delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(
        f"no root of lambda0 on [{float(xa)}, {float(xb)}] after {_BRENT_MAX_ITER} iterations of Brent's method "
        f"({_BRENT_MAX_ITER + 2} evaluations, last at {xcur!r})"
    )


def calibrate_criticality(model_factory, bracket, dyn, grid, tol):
    """Brent's method on the principal eigenvalue over a scalar model knob.

    ``model_factory(theta)`` must return a RateModel.  The bracket must
    change the sign of lambda0; a knob with |lambda0| <= tol is a root.
    The search is ``_brentq``, scipy's ``brentq`` iterate for iterate
    without importing ``scipy.optimize``; each evaluation builds the
    generator and computes its principal eigentriple.  Returns
    (theta*, lambda0*, history) with one (theta, lambda0) history entry per
    eigentriple computed.  Raises ValueError when lambda0 does not change
    sign on the bracket and RuntimeError when ``_BRENT_MAX_ITER`` iterations
    do not reach |lambda0| <= tol.
    """
    from .semigroup import build_generator, principal_eigentriple

    history = []

    def lam0(theta):
        mdl = model_factory(theta)
        gen = build_generator(mdl, dyn, grid)
        value = principal_eigentriple(gen, mdl).lambda0
        history.append((theta, value))
        # the search returns at once on an exact zero
        return 0.0 if abs(value) <= tol else value

    theta = _brentq(lam0, bracket[0], bracket[1])
    lam = dict(history)[theta]
    if abs(lam) > tol:
        raise RuntimeError(
            f"calibration converged in theta at {theta!r} with |lambda0| = {abs(lam):.3g} > tol = {tol:.3g}"
        )
    return theta, lam, history
