"""Deterministic solution of the moment and survival equations.

The mild (Duhamel) integral equations for the moments u_n, the survival
probability u_0 and the exponential functional H are solved in their
differential form

    d/dt u_n = L u_n + b * sum_{k=1}^{n-1} C(n,k) u_k u_{n-k},   u_n(0) = f^n
    d/dt u_0 = L u_0 - b u_0^2,                                  u_0(0) = 1
    d/dt H   = L H   - b H^2,                                    H(0) = 1 - e^{w f}

with an IMEX Crank-Nicolson march (implicit linear part, trapezoidal
predictor-corrector source).  The fields of one march (all moment orders
together; the real and imaginary parts of a complex H) are the columns of
one block, so each predictor and each corrector is a single band solve
with the propagator's factor of I - (dt/2) L, and no matrix-vector
product (see ``semigroup.Propagator``).  The integral form is then
re-evaluated by quadrature over the stored time slices as an independent
residual check.

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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import comb

from .branching import yule_moment_bound
# Propagator stays importable from here: perfbench checks that its tracer
# patched the class this module sees
from .semigroup import Propagator, _propagator

__all__ = [
    "MomentField",
    "RegimeError",
    "solve_moments",
    "solve_survival",
    "solve_h",
    "laplace_functional",
    "duhamel_residual",
    "survival_semigroup_check",
    "critical_limits",
    "subcritical_limits",
    "supercritical_limits",
    "hamburger_bound",
    "calibrate_criticality",
    "criticality_epsilon",
]


class RegimeError(ValueError):
    """Raised when a regime-specific operation gets the wrong regime."""


class BlowupError(RuntimeError):
    pass


def criticality_epsilon(spectral, factor=1e-4):
    """Criticality tolerance, dimensionless against the spectral gap."""
    return factor * max(spectral.gap, 1e-12)


@dataclass
class MomentField:
    """Stored time slices of u_n(t, .) for n = 0 ... N.

    ``fields[n]`` has shape (n_times, n_nodes).  Order 0 is the survival
    probability when present.  ``normalized`` applies the regime scaling:
    v_n = u_n/(t+1)^{n-1} (critical), e^{lambda0 t} u_n (subcritical),
    e^{n lambda0 t} u_n (supercritical).
    """

    times: np.ndarray
    nodes: np.ndarray
    fields: dict
    f_vals: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def orders(self):
        return sorted(self.fields)

    @property
    def dt_store(self):
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def at(self, n, t):
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"time {t} is not a stored slice")
        return self.fields[n][k]

    def normalized(self, n, regime, lambda0):
        u = self.fields[n]
        t = self.times[:, None]
        if regime == "critical":
            return u / (1.0 + t) ** (n - 1) if n >= 1 else u
        if regime == "subcritical":
            return np.exp(lambda0 * t) * u
        if regime == "supercritical":
            return np.exp(max(n, 1) * lambda0 * t) * u if n >= 1 else u
        raise RegimeError(f"unknown regime {regime!r}")


class _IMEXMarcher:
    """Crank-Nicolson march with trapezoidal predictor-corrector sources.

    The fields are the columns of one Fortran-ordered (n, k) block, so every
    predictor and every corrector is one band solve for all of them.  The
    propagator comes from ``semigroup._propagator``'s cache: marches at the
    same (generator, dt) share one factorization."""

    def __init__(self, generator, dt):
        self.prop = _propagator(generator, dt)
        self.dt = float(dt)

    def run(self, init, source_fn, t_end, store_steps, guard=None, smooth_start=False):
        """March the block and return its stored slices, shape (k, n_stored, n).

        ``init`` is the (n, k) block of initial fields; ``source_fn(state,
        out)`` writes the source of every column of ``state`` into the
        (n, k) buffer ``out``.  ``store_steps`` is a sorted iterable of step
        indices to record (0 = initial data); ``guard(state, t)`` may raise.
        """
        n_steps = int(round(t_end / self.dt))
        if abs(n_steps * self.dt - t_end) > 1e-9 * max(1.0, t_end):
            raise ValueError("t_end must be a multiple of the solver step")
        state = np.array(init, dtype=complex if np.iscomplexobj(init) else float, order="F")
        src0 = np.empty_like(state)
        src1 = np.empty_like(state)
        slot = {step: i for i, step in enumerate(store_steps)}
        stored = np.empty((state.shape[1], len(slot), state.shape[0]), dtype=state.dtype)
        if 0 in slot:
            stored[:, slot[0]] = state.T
        smooth_left = self.prop.rannacher if smooth_start else 0
        for step in range(n_steps):
            source_fn(state, src0)
            if smooth_left > 0:
                # implicit-Euler half steps with midpoint source refresh
                half = self.prop.step_be_half(state, src0)
                source_fn(half, src1)
                state = self.prop.step_be_half(half, src1)
                smooth_left -= 1
            else:
                pred = self.prop.step_cn(state, src0)
                source_fn(pred, src1)
                src1 += src0
                src1 *= 0.5
                state = self.prop.step_cn(state, src1)
            if guard is not None:
                guard(state, (step + 1) * self.dt)
            if (step + 1) in slot:
                stored[:, slot[step + 1]] = state.T
        return stored


def _survival_source(b_vals):
    """Block source -b u^2 of the survival and Laplace-functional equations."""
    neg_b = -b_vals[:, None]

    def source(state, out):
        np.multiply(neg_b, state, out=out)
        out *= state

    return source


def _store_steps(t_end, dt, n_store, ensure_times=()):
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


def solve_moments(f_vals, n_max, t_end, generator, model, dt_pde=0.01, n_store=200, guard_factor=10.0, ensure_times=()):
    """March all moment orders 1..n_max simultaneously.

    The blow-up guard aborts when any order exceeds ``guard_factor`` times
    the pure-birth moment ceiling.  Returns a MomentField.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    xs = generator.grid.nodes
    f_vals = np.asarray(f_vals, dtype=float)
    b_vals = np.asarray(model.b(xs), dtype=float)
    f_sup = float(np.max(np.abs(f_vals))) if np.max(np.abs(f_vals)) > 0 else 1.0
    init = np.column_stack([f_vals**n for n in range(1, n_max + 1)])
    binom = {n: [float(comb(n, k)) for k in range(n + 1)] for n in range(2, n_max + 1)}

    def source(state, out):
        # column n - 1 holds order n; order 1 has no source
        out[:, 0] = 0.0
        for n in range(2, n_max + 1):
            s = out[:, n - 1]
            s[:] = 0.0
            for k in range(1, n):
                s += binom[n][k] * state[:, k - 1] * state[:, n - k - 1]
            s *= b_vals

    def guard(state, t):
        peaks = np.max(np.abs(state), axis=0)
        for n in range(1, n_max + 1):
            ceiling = guard_factor * (f_sup**n) * yule_moment_bound(n, t, model.b_star)
            if peaks[n - 1] > ceiling:
                raise BlowupError(
                    f"order-{n} moment reached {peaks[n - 1]:.3g} at t = {t:.3g}, above "
                    f"{guard_factor}x the pure-birth ceiling; check the model scale"
                )

    steps = _store_steps(t_end, dt_pde, n_store, ensure_times)
    marcher = _IMEXMarcher(generator, dt_pde)
    # initial data f^n generally ignores the absorbing boundary, so damp
    # the startup like the survival solver does
    stored = marcher.run(init, source, t_end, steps, guard=guard, smooth_start=True)
    times = np.array(steps) * dt_pde
    return MomentField(
        times=times,
        nodes=xs,
        fields={n: stored[n - 1] for n in range(1, n_max + 1)},
        f_vals=f_vals,
        meta={"dt_pde": dt_pde, "b_star": model.b_star, "f_sup": f_sup},
    )


def solve_survival(t_end, generator, model, dt_pde=0.01, n_store=200, positivity_tol=1e-10, ensure_times=()):
    """March the survival probability u_0 (init 1, source -b u_0^2).

    u_0 stays in [0, 1] and is nonincreasing in t; positivity loss beyond
    the tolerance triggers one step-size halving, then an error.
    """
    xs = generator.grid.nodes
    source = _survival_source(np.asarray(model.b(xs), dtype=float))
    attempt_dt = dt_pde
    last_err = None
    for _ in range(2):
        worst = [0.0]

        def guard(state, t, worst=worst):
            m = float(np.min(state.real))
            worst[0] = min(worst[0], m)
            if m < -positivity_tol * 10:
                raise BlowupError(f"survival went negative ({m:.3e}) at t = {t:.3g}")

        steps = _store_steps(t_end, attempt_dt, n_store, ensure_times)
        marcher = _IMEXMarcher(generator, attempt_dt)
        try:
            stored = marcher.run(np.ones((len(xs), 1)), source, t_end, steps, guard=guard, smooth_start=True)
        except BlowupError as err:
            last_err = err
            attempt_dt /= 2.0
            continue
        if worst[0] < -positivity_tol:
            last_err = BlowupError(f"survival positivity loss {worst[0]:.3e}")
            attempt_dt /= 2.0
            continue
        u0 = np.clip(stored[0].real, 0.0, 1.0)
        times = np.array(steps) * attempt_dt
        return MomentField(
            times=times,
            nodes=xs,
            fields={0: u0},
            meta={"dt_pde": attempt_dt, "b_star": model.b_star},
        )
    raise BlowupError(f"survival solver failed after step halving: {last_err}")


def laplace_functional(f_vals, w, t_end, generator, model, dt_pde=0.01, n_store=100, ensure_times=()):
    """March H(t, x, w) = E[1 - exp(w <Z_t, f>)] in differential form.

    ``w`` must satisfy |w| < 1 / (sup|f| e^{b_star t_end}).
    """
    f_vals = np.asarray(f_vals, dtype=float)
    f_sup = float(np.max(np.abs(f_vals)))
    radius = 1.0 / (f_sup * math.exp(model.b_star * t_end)) if f_sup > 0 else math.inf
    if abs(w) >= radius:
        raise ValueError(f"|w| = {abs(w):.3g} outside the analyticity radius {radius:.3g}")
    xs = generator.grid.nodes
    h0 = 1.0 - np.exp(w * f_vals)
    source = _survival_source(np.asarray(model.b(xs), dtype=float))
    steps = _store_steps(t_end, dt_pde, n_store, ensure_times)
    marcher = _IMEXMarcher(generator, dt_pde)
    stored = marcher.run(h0[:, None], source, t_end, steps, smooth_start=True)
    times = np.array(steps) * dt_pde
    return MomentField(times=times, nodes=xs, fields={0: stored[0]}, meta={"w": w, "dt_pde": dt_pde})


# ----------------------------------------------------------------------
# integral-form residuals


def _duhamel_accumulate(generator, slices, dt_store, dt_pde, terminal=None):
    """Evaluate int_0^T P_s q(T - s) ds + P_T(terminal) by backward Horner
    accumulation over the stored slices with composite Simpson weights.

    ``slices[j]`` must hold q at time j * dt_store, j = 0 .. J with J even
    (the last interval falls back to trapezoid when J is odd).
    """
    J = len(slices) - 1
    weights = np.zeros(J + 1)
    if J == 0:
        if terminal is None:
            return np.zeros_like(slices[0])
        return np.asarray(terminal, dtype=float)
    j_even = J if J % 2 == 0 else J - 1
    if j_even >= 2:
        weights[0:j_even + 1:2] += 2.0 * dt_store / 3.0
        weights[1:j_even:2] += 4.0 * dt_store / 3.0
        weights[0] -= dt_store / 3.0
        weights[j_even] -= dt_store / 3.0
    if j_even < J:
        weights[J] += dt_store / 2.0
        weights[j_even] += dt_store / 2.0
    prop = _propagator(generator, dt_pde)
    # y accumulates sum_j P_{s_j} (w_j q(T - s_j)); s_J = T carries terminal
    y = weights[J] * slices[0]
    if terminal is not None:
        y = y + terminal
    for j in range(J - 1, -1, -1):
        y = prop.evolve(y, dt_store)
        y = y + weights[j] * slices[J - j]
    return y


def duhamel_residual(field, order, t_star, generator, model, dt_pde=None):
    """Relative deviation of the stored order-``order`` field at ``t_star``
    from the integral (mild) form, re-evaluated by quadrature over the
    stored slices.  Independent of the march's source treatment."""
    if order < 1:
        raise ValueError("duhamel_residual applies to moment orders >= 1")
    dt_pde = dt_pde or field.meta.get("dt_pde", 0.01)
    xs = field.nodes
    b_vals = np.asarray(model.b(xs), dtype=float)
    k_star = int(round(t_star / field.dt_store))
    if abs(k_star * field.dt_store - t_star) > 1e-9 * max(1.0, t_star):
        raise KeyError("t_star must be a stored slice time")
    f_vals = field.f_vals

    if order == 1:
        qs = [np.zeros_like(f_vals) for _ in range(k_star + 1)]
    else:
        qs = []
        for j in range(k_star + 1):
            s = np.zeros_like(field.fields[1][0])
            for k in range(1, order):
                s = s + comb(order, k) * field.fields[k][j] * field.fields[order - k][j]
            qs.append(b_vals * s)
    # the terminal data f^order is as nonsmooth as the march's initial data,
    # so it gets the same damped startup; the q slices are already smooth
    terminal = _propagator(generator, dt_pde).evolve(f_vals**order, t_star, smooth_start=True)
    rhs = terminal + _duhamel_accumulate(generator, qs, field.dt_store, dt_pde)
    lhs = field.fields[order][k_star]
    scale = max(float(np.max(np.abs(lhs))), 1e-12)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def survival_semigroup_check(field, t, t0, generator, model, dt_pde=None):
    """Max absolute deviation of u0(t) from the nonlinear semigroup
    reconstruction started at u0(t0):

        u0(t) = P_{t-t0} u0(t0) - int_0^{t-t0} P_s (b u0^2(t-s)) ds.
    """
    dt_pde = dt_pde or field.meta.get("dt_pde", 0.01)
    b_vals = np.asarray(model.b(field.nodes), dtype=float)
    k_t = int(round(t / field.dt_store))
    k_t0 = int(round(t0 / field.dt_store))
    if k_t0 >= k_t:
        raise ValueError("need t0 < t on the stored grid")
    # the accumulation takes q(tau) with tau measured from t0 upward:
    # q(tau) = b u0^2(t0 + tau), so P_s gets b u0^2(t - s) as required
    qs = [b_vals * field.fields[0][k_t0 + j] ** 2 for j in range(0, k_t - k_t0 + 1)]
    rhs = _duhamel_accumulate(
        generator, [-q for q in qs], field.dt_store, dt_pde, terminal=field.fields[0][k_t0]
    )
    return float(np.max(np.abs(field.fields[0][k_t] - rhs)))


# ----------------------------------------------------------------------
# the extinction-probability limit h


@dataclass
class HResult:
    h: np.ndarray
    h_u0_route: np.ndarray
    iterations: int
    residuals: list
    agreement: float
    regime: str
    degenerate: bool = False


# Newton converges quadratically to a positive h and, where the only
# nonnegative solution is 0 with a singular Jacobian (critical regime),
# halves its step each time: 60 steps reach any tolerance above 1e-17
_NEWTON_MAX_STEPS = 60


def _newton_h(generator, b_vals, tol):
    """Newton's method on L h - b h^2 = 0 from h = 1.

    h = 1 is a supersolution and -(L - 2 b h) is an M-matrix, so the
    iterates decrease monotonically to the largest nonnegative solution.
    Stops on a step below tol / 5; returns (h, step sizes)."""
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
        if steps[-1] < 0.2 * tol:
            return h, steps
    raise RuntimeError(
        f"Newton solve for h: no convergence in {_NEWTON_MAX_STEPS} steps (last step {steps[-1]:.3g})"
    )


def solve_h(model, dyn, grid, tol=1e-6, generator=None, spectral=None, dt_pde=0.005):
    """Extinction-probability limit h, by Newton's method on the stationary
    equation L h - b h^2 = 0 and by the long-time survival march.

    Away from the supercritical regime the limit is identically zero; the
    Newton solve still runs as a consistency diagnostic (a positive
    stationary solution there is an error) and the zero field is returned.
    In the supercritical regime both routes are computed and must agree to
    3 * tol, else a hard failure is raised.
    """
    from .semigroup import build_generator, principal_eigentriple

    if generator is None:
        generator = build_generator(model, dyn, grid)
    if spectral is None:
        spectral = principal_eigentriple(generator, model)
    regime = spectral.regime()
    xs = generator.grid.nodes
    b_vals = np.asarray(model.b(xs), dtype=float)
    h, residuals = _newton_h(generator, b_vals, tol)

    if regime != "supercritical":
        if float(np.max(h)) > 0.2:
            raise RuntimeError(f"positive stationary solution (sup h = {np.max(h):.3g}) in the {regime} regime")
        zero = np.zeros(len(xs))
        return HResult(
            h=zero,
            h_u0_route=zero,
            iterations=len(residuals),
            residuals=residuals,
            agreement=float(np.max(h)),
            regime=regime,
        )

    # survival route: march u0 in fixed segments until the geometrically
    # extrapolated remainder drops below tol
    beta = min(abs(spectral.lambda0), spectral.gap)
    dt_seg = math.ceil(max(4.0 / beta, 2.0) / (4.0 * dt_pde)) * dt_pde
    t_probe = 4.0 * dt_seg
    seg = solve_survival(t_probe, generator, model, dt_pde=dt_pde, n_store=4)
    u0_final = seg.fields[0][-1]
    u_prev = seg.fields[0][-2]
    dt_used = seg.meta["dt_pde"]  # the survival solver may have halved its step
    marcher = _IMEXMarcher(generator, dt_used)
    src = _survival_source(b_vals)
    t_total = t_probe
    inc_prev = float(np.max(np.abs(seg.fields[0][-2] - seg.fields[0][-3])))
    for _ in range(60):
        inc = float(np.max(np.abs(u0_final - u_prev)))
        # contraction per segment: measured where sane, else the spectral rate
        q = math.exp(-beta * dt_seg)
        if inc_prev > 0 and inc > 0:
            q = min(max(inc / inc_prev, q), 0.98)
        remaining = inc * q / max(1.0 - q, 1e-12)
        if remaining < 0.5 * tol or t_total > 400.0:
            break
        u_prev = u0_final
        inc_prev = inc
        out = marcher.run(u0_final[:, None], src, dt_seg, [int(round(dt_seg / dt_used))])
        u0_final = np.clip(out[0][-1].real, 0.0, 1.0)
        t_total += dt_seg
    h_u0 = u0_final

    agreement = float(np.max(np.abs(h - h_u0)))
    if agreement > 3.0 * tol:
        raise RuntimeError(
            f"h routes disagree by {agreement:.3g} > 3 tol; boundary bias suspected"
        )
    # strictly positive wherever the eigenfunction carries mass; the far
    # killing tails may underflow to zero without meaning anything
    carrying = spectral.theta0 > 1e-8 * float(np.max(spectral.theta0))
    if not np.all(h[carrying] > 0):
        raise RuntimeError("supercritical h must be positive on the carrying region")
    # sup h = 1 happens only for deathless models, which break the standing
    # growth hypothesis on d; flag rather than fail
    degenerate = bool(float(np.max(h)) >= 1.0 - 10.0 * tol)
    return HResult(
        h=h,
        h_u0_route=h_u0,
        iterations=len(residuals),
        residuals=residuals,
        agreement=agreement,
        regime=regime,
        degenerate=degenerate,
    )


# ----------------------------------------------------------------------
# regime limit constants


def critical_limits(spectral, model, n_max, f_vals=None):
    """Critical moment limits V_n(x) = n! Theta0(x) nu(f)^n A^n B^{n-1}."""
    eps = criticality_epsilon(spectral)
    if abs(spectral.lambda0) > eps:
        raise RegimeError(
            f"critical limits need |lambda0| <= {eps:.3g}; got {spectral.lambda0:.3g}"
        )
    nu_f = 1.0 if f_vals is None else spectral.nu(np.asarray(f_vals, dtype=float))
    out = {}
    for n in range(1, n_max + 1):
        out[n] = (
            math.factorial(n)
            * spectral.theta0
            * (nu_f**n)
            * (spectral.A**n)
            * (spectral.B ** (n - 1))
        )
    return out


def _tail_completed_time_integral(times, integrand, min_decay=1e-12):
    """Simpson quadrature of a decaying scalar time series on the uniform
    grid plus analytic exponential tail completion with the fitted rate.

    Returns (value, tail_fraction)."""
    times = np.asarray(times, dtype=float)
    y = np.asarray(integrand, dtype=float)
    J = len(times) - 1
    dt = times[1] - times[0]
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
    body = float(np.dot(w, y))
    # fit the tail decay rate on the last quarter of the series
    k0 = max(J - max(J // 4, 2), 0)
    tail_y = y[k0:]
    pos = tail_y > min_decay
    if pos.sum() >= 3:
        ts = times[k0:][pos]
        ln = np.log(tail_y[pos])
        slope = np.polyfit(ts, ln, 1)[0]
        rate = -slope
    else:
        rate = math.inf
    if not math.isfinite(rate) or rate <= 0:
        tail = 0.0 if y[-1] <= min_decay else math.inf
    else:
        tail = y[-1] / rate
    total = body + tail
    frac = abs(tail) / max(abs(total), 1e-300)
    return total, frac


# largest share of a subcritical quadrature that the fitted tail may carry
_MAX_TAIL_FRACTION = 0.01


def subcritical_limits(spectral, model, fields, u0_field, n_max):
    """Subcritical limit constants from the stored normalized fields.

    Returns {"V": {n: V_n^-(f)}, "K_minus": K^-, "beta": {n: beta_n},
    "tail_fractions": ...}.  Unresolved quadrature tails raise.
    """
    eps = criticality_epsilon(spectral)
    if not spectral.lambda0 > eps:
        raise RegimeError("subcritical limits need lambda0 > 0")
    lam0 = spectral.lambda0
    xs = spectral.grid.nodes
    b_mu = np.asarray(model.b(xs), dtype=float) * spectral.mu0
    f_vals = fields.f_vals
    times = fields.times

    v_norm = {n: fields.normalized(n, "subcritical", lam0) for n in range(1, n_max + 1)}
    V = {1: spectral.mu0_integral(f_vals)}
    tails = {}
    for n in range(2, n_max + 1):
        series = np.zeros(len(times))
        for k in range(1, n):
            prod = v_norm[k] * v_norm[n - k]  # (n_times, n_nodes)
            series += comb(n, k) * (prod @ b_mu)
        series *= np.exp(-lam0 * times)
        integral, frac = _tail_completed_time_integral(times, series)
        tails[n] = frac
        if frac > _MAX_TAIL_FRACTION:
            raise RuntimeError(
                f"order-{n} quadrature tail {frac:.1%} above {_MAX_TAIL_FRACTION:.0%}; extend t_end"
            )
        V[n] = spectral.mu0_integral(f_vals**n) + integral

    v0 = u0_field.normalized(0, "subcritical", lam0)
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

    # Cauchy-Schwarz floor on K^- (for f = 1 fields)
    return {
        "V": V,
        "K_minus": k_minus,
        "beta": beta,
        "tail_fractions": {"orders": tails, "survival": frac0},
    }


def supercritical_limits(spectral, model, generator, n_max, f_vals):
    """Supercritical limit constants V_n^+(f, x) by upward recursion.

    V_1^+(f, x) = Theta0(x) mu0(f); for n >= 2 the defining time integral
    int_0^inf e^{n lambda0 s} P_s(b * conv_n)(x) ds is the resolvent
    -(L + n lambda0)^{-1}(b * conv_n), one sparse solve per order (the
    spectral abscissa of L + n lambda0 is (n - 1) lambda0 < 0).  Also
    returns the beta_n convergence-rate recursion.
    """
    eps = criticality_epsilon(spectral)
    if not spectral.lambda0 < -eps:
        raise RegimeError("supercritical limits need lambda0 < 0")
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


def hamburger_recursion_sequence(a1, eta, n_max):
    """The extremal sequence a_n = a_1 + eta sum C(n,k) a_k a_{n-k}."""
    a = {1: a1}
    for n in range(2, n_max + 1):
        a[n] = a1 + eta * sum(comb(n, k) * a[k] * a[n - k] for k in range(1, n))
    return a


def carleman_partial_sums(moments_even, scale=1.0):
    """Partial sums of sum_n (m_{2n}/scale)^{-1/(2n)}; divergence of the
    series certifies moment determinacy."""
    out = []
    total = 0.0
    for n, m2n in enumerate(moments_even, start=1):
        total += (m2n / scale) ** (-1.0 / (2 * n))
        out.append(total)
    return out


def calibrate_criticality(model_factory, bracket, dyn, grid, tol=1e-6, max_iter=100, dt_report=1.0):
    """Brent's method on the principal eigenvalue over a scalar model knob.

    ``model_factory(theta)`` must return a RateModel.  The bracket must
    change the sign of lambda0; a knob with |lambda0| <= tol is a root.
    Returns (theta*, lambda0*, history) with one (theta, lambda0) history
    entry per eigentriple computed.
    """
    # imported here: at module level scipy.optimize would add ~0.2 s to
    # the start-up of every command, calibrating or not
    from scipy.optimize import brentq

    from .semigroup import build_generator, principal_eigentriple

    history = []

    def lam0(theta):
        mdl = model_factory(theta)
        gen = build_generator(mdl, dyn, grid, dt_report=dt_report)
        value = principal_eigentriple(gen, mdl).lambda0
        history.append((theta, value))
        # brentq returns at once on an exact zero
        return 0.0 if abs(value) <= tol else value

    lo, hi = float(bracket[0]), float(bracket[1])
    try:
        theta = brentq(lam0, lo, hi, maxiter=max_iter)
    except ValueError:
        if len(history) == 2 and history[0][1] * history[1][1] > 0:
            raise ValueError(
                f"lambda0 does not change sign on [{lo}, {hi}]: "
                f"{history[0][1]:.3g}, {history[1][1]:.3g}"
            ) from None
        raise
    lam = dict(history)[theta]
    if abs(lam) > tol:
        raise RuntimeError(
            f"calibration converged in theta at {theta!r} with |lambda0| = {abs(lam):.3g} > tol = {tol:.3g}"
        )
    return theta, lam, history
