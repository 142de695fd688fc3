"""Independent closed-form oracles for the linear birth-death process and
related exact laws.  Kept separate from the package so the dual-route
checks never share code with the paths they verify."""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp


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


def evolve_reference(prop, g, t, smooth_start=False):
    """P_t g by the fixed-step loop ``Propagator.evolve`` ran before
    ``Propagator.march`` took its place, for t a whole number of steps:
    ``prop.rannacher`` pairs of implicit-Euler half steps when smoothing,
    then one Crank-Nicolson step at a time."""
    g = np.asarray(g, dtype=complex if np.iscomplexobj(g) else float)
    if t == 0:
        return g.copy()
    n_full = int(round(t / prop.dt))
    u = g
    k = 0
    if smooth_start:
        for _ in range(min(prop.rannacher, n_full)):
            u = prop.step_be_half(prop.step_be_half(u))
            k += 1
    for _ in range(n_full - k):
        u = prop.step_cn(u)
    return u


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
