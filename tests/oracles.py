"""Independent closed-form oracles for the linear birth-death process and
related exact laws, and second routes to the package's grid results (the
Girsanov-conjugated spectrum, the mild form of the moment and survival
equations, the extremal Hamburger sequence).  Kept out of the package: the
closed forms share no code with the paths they verify, and the second
routes reuse only its generator, propagator and eigenvalue primitives.
``slice_at`` is how the tests read a stored time slice of a MomentField,
and ``constant`` how they write a constant curve."""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.special import comb

from branchlab import DynamicsSpec
from branchlab.curves import Curve
from branchlab.model import DIFFUSION, NotApplicableError, ell_and_rho, potential
from branchlab.moments import _simpson_weights
from branchlab.semigroup import EigenSolverError, _diffusion_block, _rightmost_eigs, evolve_P


def constant(value):
    """The constant curve of ``value``."""
    return Curve("constant", {"value": value})


def slice_at(field, n, t):
    """The stored slice of order ``n`` of a MomentField at time ``t``."""
    k = int(np.argmin(np.abs(field.times - t)))
    if abs(field.times[k] - t) > 1e-9 * max(1.0, abs(t)):
        raise KeyError(f"time {t} is not a stored slice")
    return field.fields[n][k]


def bd_survival(t, b, d):
    """P(N_t > 0) for the linear birth-death process from one ancestor."""
    if b == d:
        return 1.0 / (1.0 + b * t)
    e = math.exp((b - d) * t)
    return (b - d) * e / (b * e - d)


def bd_extinction_params(t, b, d):
    """(alpha, beta): P(N_t = 0) = alpha and N_t | N_t > 0 geometric with
    failure parameter beta on {1, 2, ...}."""
    if b == d:
        q = b * t / (1.0 + b * t)
        return q, q
    e = math.exp((b - d) * t)
    alpha = d * (e - 1.0) / (b * e - d)
    beta = b * (e - 1.0) / (b * e - d)
    return alpha, beta


def bd_conditional_moment(t, b, d, n):
    """E[N_t^n | N_t > 0] via the geometric conditional law."""
    _, beta = bd_extinction_params(t, b, d)
    ks = np.arange(1, 400 + int(200 / max(1e-9, 1.0 - beta)))
    pmf = (1.0 - beta) * beta ** (ks - 1)
    return float(np.sum(ks**n * pmf))


def bd_sample(n0, dt, b, d, rng):
    """Exact transition sample of the linear birth-death chain over dt,
    vectorized over the array of current sizes ``n0``."""
    alpha, beta = bd_extinction_params(dt, b, d)
    n0 = np.asarray(n0)
    survivors = rng.binomial(n0, 1.0 - alpha)
    # each surviving line contributes 1 + NegBinomial(1, 1-beta) individuals
    extra = rng.negative_binomial(np.maximum(survivors, 1), 1.0 - beta)
    extra = np.where(survivors > 0, extra, 0)
    return survivors + extra


def yule_mean(t, b):
    return math.exp(b * t)


def yule_second_moment(t, b):
    p = math.exp(-b * t)
    return (2.0 - p) / p**2


def ou_variance(t, rate=1.0):
    """Stationary-approach variance of dX = -rate X dt + dB from X_0 = 0."""
    return (1.0 - math.exp(-2.0 * rate * t)) / (2.0 * rate)


def euler_ou_variance(t, dt, rate=1.0):
    """Exact variance of the Euler chain X_{k+1} = (1 - rate dt) X_k + sqrt(dt) xi."""
    n = int(round(t / dt))
    a = 1.0 - rate * dt
    return dt * (1.0 - a ** (2 * n)) / (1.0 - a * a)


def oscillator_eigenvalue(k):
    """k-th eigenvalue of -(1/2) u'' + x^2 u."""
    return math.sqrt(2.0) * (k + 0.5)


def evolve_reference(generator, g, t, dt_pde, smooth_start=False):
    """P_t g of one field by a plain loop over the steps that
    ``Propagator.march`` takes for it, for t a whole number of steps
    dt_pde, with time kept as a Fraction of dt_pde: with smoothing,
    _DAMPED_STEPS steps of dt_pde / 2**_DAMPED_DEPTH as pairs of
    implicit-Euler half steps, then TR-BDF2 from dt_pde / 2**_RAMP_DEPTH, halving on a step error over _START_TOL
    tol and doubling on one a ninth of it (at an aligned time) up to
    dt_pde; steps of dt_pde always taken; a longer step, a divisor of t,
    once its error per unit time leaves room below tol."""
    from fractions import Fraction

    from branchlab import semigroup as sg

    u = np.array(np.asarray(g, dtype=float)[:, None], order="F")
    total = Fraction(round(t / dt_pde))
    tol = sg._TIME_TOL * dt_pde**2
    now = Fraction(0)
    step, damped = (Fraction(1, 2**sg._DAMPED_DEPTH), sg._DAMPED_STEPS) if smooth_start else (Fraction(1), 0)
    divisors = [d for d in range(1, int(total) + 1) if total % d == 0]
    lin = None
    while now < total:
        h = dt_pde * float(step)
        if damped:
            prop = sg._propagator(generator, h)
            u = prop.step_be_half(prop.step_be_half(u))
            now, damped, lin = now + step, damped - 1, None
            step = step if damped else Fraction(1, 2**sg._RAMP_DEPTH)
            continue
        allowed = sg._START_TOL * tol if step < 1 else tol * h
        lin = generator.matrix @ u if lin is None else lin
        new, new_lin, err, _lip = sg._propagator(generator, sg._GAMMA * h).step_trbdf2(
            u, lin, allowed, None, False, None, step != 1
        )
        room = math.inf if err == 0 else sg._SAFETY * (allowed / err) ** (1 / 3)
        if step < 1 and err > allowed:
            step /= 2 ** max(1, math.ceil(-math.log2(max(sg._MAX_SHRINK, room))))
            continue
        if step > 1 and err > allowed:
            fit = float(step) * math.sqrt(sg._SAFETY * allowed / err)
            step = Fraction(max(d for d in divisors if d <= max(fit, 1) and now % d == 0))
            continue
        u, lin, now = new, new_lin, now + step
        if step < 1 and now % (2 * step) == 0 and room >= 2:
            step *= 2
        elif step >= 1:
            longer = next((d for d in divisors if d >= 2 * step), None)
            if longer is not None and now % longer == 0 and err * (longer / step) ** 2 <= sg._SAFETY * tol * h:
                step = Fraction(longer)
    return u[:, 0]


def rightmost_eigs_dense(matrix, k, rho):
    """The k rightmost eigenvalues, by decreasing value, of a sparse
    generator that is symmetric in ``rho``, by the dense symmetrisation
    ``semigroup._rightmost_eigs`` ran before it read the three diagonals:
    S = D L D^{-1} (D = diag sqrt(rho)) as an n x n array, then a
    tridiagonal solve on the diagonals of (S + S^T)/2 when L is
    tridiagonal, else a dense symmetric solve.  None when S is not
    symmetric to 1e-8 of its largest entry."""
    n = matrix.shape[0]
    d = np.sqrt(rho)
    S = (sp.diags(d) @ matrix @ sp.diags(1.0 / d)).toarray()
    if not np.max(np.abs(S - S.T)) < 1e-8 * max(1.0, np.max(np.abs(S))):
        return None
    S = 0.5 * (S + S.T)
    coo = matrix.tocoo()
    if np.all(np.abs(coo.row - coo.col) <= 1):
        vals = sla.eigh_tridiagonal(np.diag(S), np.diag(S, k=1), select="i", select_range=(n - k, n - 1))[0]
    else:
        vals = np.sort(np.linalg.eigvalsh(S))[-k:]
    return vals[::-1]


def rightmost_eigs_general_dense(matrix, k):
    """The k rightmost eigenvalues of a sparse generator by decreasing real
    part, one of each complex-conjugate pair, from the full dense spectrum:
    the route ``semigroup._rightmost_eigs`` took for every generator that
    is not a rho-symmetric tridiagonal before it used shift-invert Arnoldi."""
    vals = sla.eigvals(matrix.toarray())
    out = []
    for idx in np.argsort(vals.real)[::-1]:
        # skip the conjugate partner of a complex value just taken
        prev = out[-1] if out else None
        if prev is not None and abs(prev.imag) > 0 and abs(vals[idx] - np.conj(prev)) < 1e-10 * max(1.0, abs(prev)):
            continue
        out.append(vals[idx])
        if len(out) == k:
            return np.array(out)
    raise EigenSolverError(f"could not isolate {k} eigenvalues")


def _diffusion_eigenvalues(dyn, grid, v, k):
    """The k rightmost eigenvalues of (1/2) f'' - a f' + v f, with potential
    values ``v`` at the nodes, assembled from the blocks of
    ``build_generator`` without its edge-killing check."""
    ell, rho = ell_and_rho(dyn, grid)
    matrix = (_diffusion_block(grid, dyn, ell) + sp.diags(v)).tocsr()
    return _rightmost_eigs(matrix, k, rho=rho).real.tolist()


def girsanov_crosscheck(dyn, model, grid, n_eigs=3):
    """Compare the spectrum of the drifted diffusion generator with the
    conjugated Schroedinger form (1/2) u'' + (V + (a' - a^2)/2) u; the
    conjugated potential need not kill at the grid edges.

    Returns a report dict with both eigenvalue lists and the max deviation.
    """
    if dyn.variant != DIFFUSION:
        raise NotApplicableError("Girsanov cross-check applies to the pure diffusion variant")
    xs = grid.nodes
    a = dyn.a(xs)
    a_prime = dyn.a.derivative(xs)
    v = potential(model, xs)
    v_tilde = v + 0.5 * (a_prime - a * a)
    eigs = _diffusion_eigenvalues(dyn, grid, v, n_eigs)
    eigs_tilde = _diffusion_eigenvalues(DynamicsSpec(variant=DIFFUSION, a=constant(0.0)), grid, v_tilde, n_eigs)
    dev = float(np.max(np.abs(np.asarray(eigs) - np.asarray(eigs_tilde))))
    return {
        "eigenvalues": eigs,
        "eigenvalues_conjugated": eigs_tilde,
        "max_deviation": dev,
    }


def _duhamel_accumulate(generator, slices, dt_store, dt_pde, terminal=None):
    """Evaluate int_0^T P_s q(T - s) ds + P_T(terminal) by backward Horner
    accumulation over the stored slices with composite Simpson weights.

    ``slices[j]`` must hold q at time j * dt_store, j = 0 .. J with J even
    (the last interval falls back to trapezoid when J is odd).
    """
    J = len(slices) - 1
    if J == 0:
        return np.zeros_like(slices[0]) if terminal is None else np.asarray(terminal, dtype=float)
    weights = _simpson_weights(J, dt_store)
    # y accumulates sum_j P_{s_j} (w_j q(T - s_j)); s_J = T carries terminal
    y = weights[J] * slices[0]
    if terminal is not None:
        y = y + terminal
    for j in range(J - 1, -1, -1):
        y = evolve_P(y, dt_store, generator, dt_pde=dt_pde, smooth_start=False)
        y = y + weights[j] * slices[J - j]
    return y


def duhamel_residual(field, order, t_star, generator, model, dt_pde=None):
    """Relative deviation of the stored order-``order`` field at ``t_star``
    from the integral (mild) form, re-evaluated by quadrature over the
    stored slices.  Independent of the march's source treatment."""
    if order < 1:
        raise ValueError("duhamel_residual applies to moment orders >= 1")
    dt_pde = dt_pde or field.dt_pde
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
    terminal = evolve_P(f_vals**order, t_star, generator, dt_pde=dt_pde, smooth_start=True)
    rhs = terminal + _duhamel_accumulate(generator, qs, field.dt_store, dt_pde)
    lhs = field.fields[order][k_star]
    scale = max(float(np.max(np.abs(lhs))), 1e-12)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def survival_semigroup_check(field, t, t0, generator, model, dt_pde=None):
    """Max absolute deviation of u0(t) from the nonlinear semigroup
    reconstruction started at u0(t0):

        u0(t) = P_{t-t0} u0(t0) - int_0^{t-t0} P_s (b u0^2(t-s)) ds.
    """
    dt_pde = dt_pde or field.dt_pde
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


def hamburger_recursion_sequence(a1, eta, n_max):
    """The extremal sequence a_n = a_1 + eta sum C(n,k) a_k a_{n-k}."""
    a = {1: a1}
    for n in range(2, n_max + 1):
        a[n] = a1 + eta * sum(comb(n, k) * a[k] * a[n - k] for k in range(1, n))
    return a
