"""Grid generators, propagators and the principal spectral data.

Discretizes the three generator classes on a uniform grid:

- diffusion:        (1/2) f'' - a f' + V f
- diffusion-jumps:  the same plus the jump operator L1
- drifted-jump:     f' + L1 f + V f

with L1 f(y) = int (f(z) - f(y)) R(y, dz).  The diffusion block is written
in divergence form, (1/2) e^{2l} d/dx (e^{-2l} df/dx), and discretized with
exponentially fitted fluxes.  That keeps the off-diagonal sign structure of
a generator (so the propagators stay positive), is second order, and makes
the matrix exactly symmetric in the speed measure rho = e^{-2l} dx, which
in turn makes the left eigenvector equal Theta0 * rho at solver precision.

Propagation uses Crank-Nicolson with Rannacher startup (implicit-Euler
half steps) to damp nonsmooth initial data.  Each propagator factors
A = I - (dt/2) L once as a LAPACK band matrix (tridiagonal for pure
diffusion, with the bandwidth of L otherwise) and takes every CN
step as u_new = A^{-1}(2u + dt s) - u, which equals the CN update because
I + (dt/2) L = 2I - A: one band solve per step, no matrix-vector product,
for one field or for a block of fields marched as columns.
``Propagator.march`` is the one time loop: ``evolve_P``, ``fit_H`` and
every march of ``moments`` run through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid
from .model import DIFFUSION, DRIFTED_JUMP, ell_and_rho, ell_values, potential

__all__ = [
    "Grid",
    "GeneratorMatrix",
    "SpectralData",
    "Propagator",
    "build_generator",
    "evolve_P",
    "evolve_Q",
    "principal_eigentriple",
    "fit_H",
    "hp4_edge_decay",
    "GridTooNarrowError",
]


class GridTooNarrowError(ValueError):
    pass


@dataclass
class GeneratorMatrix:
    """Discretized generator: motion block + jump block + diagonal potential,
    with the speed-measure weights rho of a drift curve (None without one)."""

    grid: Grid
    variant: str
    matrix: sp.csr_matrix
    rho: np.ndarray | None = None

    @property
    def n(self):
        return self.grid.n_points


def _diffusion_block(grid, dyn):
    """Exponentially fitted divergence-form discretization of (1/2)f'' - a f'."""
    xs = grid.nodes
    n = len(xs)
    dx = grid.dx
    if dyn.a is None:
        ell_nodes = np.zeros(n)
        ell_half = np.zeros(n - 1)
    else:
        ell_nodes = ell_values(dyn, xs)
        ell_half = ell_values(dyn, 0.5 * (xs[:-1] + xs[1:]))
    # flux coefficient on each interior face i+1/2, as seen from both sides
    w_left = 0.5 / dx**2 * np.exp(2.0 * (ell_nodes[:-1] - ell_half))  # row i -> i+1
    w_right = 0.5 / dx**2 * np.exp(2.0 * (ell_nodes[1:] - ell_half))  # row i+1 -> i
    upper = w_left
    lower = w_right
    diag = np.zeros(n)
    diag[:-1] -= w_left
    diag[1:] -= w_right
    if grid.boundary == "absorbing":
        # ghost value 0 beyond each edge, flux coefficient from the edge cell
        diag[0] -= 0.5 / dx**2
        diag[-1] -= 0.5 / dx**2
    return sp.diags([lower, diag, upper], [-1, 0, 1], format="csr")


def _unit_drift_block(grid):
    """Upwind discretization of f' for the unit positive drift."""
    n = grid.n_points
    dx = grid.dx
    upper = np.full(n - 1, 1.0 / dx)
    diag = np.full(n, -1.0 / dx)
    if grid.boundary == "reflecting":
        diag[-1] = 0.0  # no outflow through the right edge
    return sp.diags([diag, upper], [0, 1], format="csr")


_MASS_TOL = 1e-6  # largest relative row-mass error the jump block's mass correction may leave


def _jump_block(grid, kernel):
    """Quadrature of L1 restricted to the grid, mass corrected per row."""
    xs = grid.nodes
    n = len(xs)
    dens = kernel.density(xs[:, None], xs[None, :])  # R(x_i, x_j) density values
    w = dens * grid.dx
    # trapezoid endpoints
    w[:, 0] *= 0.5
    w[:, -1] *= 0.5
    declared = np.asarray(kernel.total_mass(xs), dtype=float)
    row_mass = w.sum(axis=1)
    ok = row_mass > 0
    scale = np.ones(n)
    scale[ok] = declared[ok] / row_mass[ok]
    w *= scale[:, None]
    if np.max(np.abs(w.sum(axis=1) - declared)) > _MASS_TOL * max(1.0, declared.max()):
        raise ValueError("jump-block mass correction failed to match declared total mass")
    block = w - np.diag(declared)
    return sp.csr_matrix(block)


# the largest potential an absorbing grid edge may have: the edges sit deep
# in the killing region, where P_t 1 falls by e^-5 or more per unit time
_EDGE_KILLING = -5.0


def build_generator(model, dyn, grid):
    """Assemble the generator matrix for (model, dynamics) on the grid.

    For absorbing boundaries the grid must be wide enough that the edges
    sit deep in the killing region: V(x_edge) <= ``_EDGE_KILLING``.
    """
    xs = grid.nodes
    v = potential(model, xs)
    if grid.boundary == "absorbing":
        v_edge = max(v[0], v[-1])
        if v_edge > _EDGE_KILLING:
            # rough widening suggestion from the declared HD constants
            c = float(model.hd_constants.get("c", 1.0)) or 1.0
            cp = float(model.hd_constants.get("c_prime", 0.0))
            suggestion = (abs(_EDGE_KILLING) + model.b_star + cp) / c
            raise GridTooNarrowError(
                f"V at the grid edge is {v_edge:.3g} > {_EDGE_KILLING:.3g}; "
                f"widen the grid to roughly |x| >= {suggestion:.3g}"
            )

    if dyn.variant == DRIFTED_JUMP:
        motion = _unit_drift_block(grid)
    else:
        motion = _diffusion_block(grid, dyn)
    if dyn.has_jumps:
        motion = (motion + _jump_block(grid, dyn.jump)).tocsr()

    return GeneratorMatrix(
        grid=grid,
        variant=dyn.variant,
        matrix=(motion + sp.diags(v)).tocsr(),
        rho=ell_and_rho(dyn, grid)[1] if dyn.has_drift_curve else None,
    )


# ----------------------------------------------------------------------
# Crank-Nicolson propagation


def _band(matrix):
    """(coo, kl, ku): a sparse matrix's nonzeros and its two bandwidths."""
    coo = matrix.tocoo()
    coo.sum_duplicates()
    coo.eliminate_zeros()
    offsets = coo.col - coo.row
    return coo, -int(offsets.min(initial=0)), int(offsets.max(initial=0))


class Propagator:
    """Crank-Nicolson stepper for du/dt = L u (+ source), factored once.

    A = I - (dt/2) L is factored once through LAPACK in band form: the
    tridiagonal ``dgttrf`` when L is tridiagonal (pure diffusion),
    else ``dgbtrf`` with the band read from the nonzeros of L (jumps and
    the upwind drift; a kernel of unbounded support fills the whole band).
    Since I + (dt/2) L = 2I - A, a CN step is u_new = A^{-1}(2u + dt s) - u:
    one band solve and no matrix-vector product.  A is also the
    implicit-Euler half-step matrix.  ``u`` may be one real field of shape
    (n,) or a Fortran-ordered block (n, k) of fields marched together.
    """

    # implicit-Euler half-step pairs that start a smoothed march, to damp
    # nonsmooth initial data
    rannacher = 2

    def __init__(self, generator, dt):
        self.generator = generator
        self.dt = float(dt)
        n = generator.n
        A, self._kl, self._ku = _band(sp.identity(n, format="csr") - (self.dt / 2.0) * generator.matrix)
        if self._kl <= 1 and self._ku <= 1:
            *self._tri, info = sla.lapack.dgttrf(A.diagonal(-1), A.diagonal(), A.diagonal(1))
        else:
            # LAPACK band storage: A[i, j] at row kl + ku + i - j; the
            # first kl rows are room for the fill-in of the pivoting
            band = np.zeros((2 * self._kl + self._ku + 1, n))
            band[self._kl + self._ku + A.row - A.col, A.col] = A.data
            self._tri = None
            self._band, self._ipiv, info = sla.lapack.dgbtrf(band, self._kl, self._ku, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(f"Crank-Nicolson matrix I - (dt/2) L is singular (LAPACK info {info})")

    def _solve(self, rhs):
        """A^{-1} rhs, overwriting ``rhs`` when it is a contiguous float
        array of shape (n,) or a Fortran-ordered (n, k) block."""
        if self._tri is not None:
            return sla.lapack.dgttrs(*self._tri, rhs, overwrite_b=1)[0]
        return sla.lapack.dgbtrs(self._band, self._kl, self._ku, rhs, self._ipiv, overwrite_b=1)[0]

    def step_cn(self, u, source_mid=None):
        rhs = u + u
        if source_mid is not None:
            rhs += self.dt * source_mid
        x = self._solve(rhs)
        x -= u
        return x

    def step_be_half(self, u, source=None):
        rhs = np.copy(u) if source is None else u + (self.dt / 2.0) * source
        return self._solve(rhs)

    def steps_in(self, t):
        """The number of steps in time t; a ValueError unless t is a
        nonnegative whole number of steps."""
        n = int(round(t / self.dt))
        if t < 0 or abs(n * self.dt - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"time {t:g} is not a nonnegative multiple of the solver step {self.dt:g}")
        return n

    def march(self, init, t_end, store_steps, source_fn=None, guard=None, smooth_start=False, triangular=False):
        """March the (n, k) block ``init`` over ``t_end`` and return the
        slices at ``store_steps`` (sorted step indices, 0 = initial data;
        None = the last step), shape (k, n_stored, n).

        ``smooth_start`` replaces the first ``rannacher`` steps by pairs of
        implicit-Euler half steps; ``guard(state, t)`` may raise after a
        step.  Without ``source_fn`` a step is one ``step_cn``.  With it, a
        step is a trapezoidal predictor-corrector and ``source_fn(state,
        out)`` writes the source of every column of ``state`` into ``out``;
        a half-step pair refreshes the source at its midpoint.

        ``triangular`` declares that the source of column j reads only
        columns below j, so column 0 has none (the moment hierarchy).  Then
        column 0's predictor is already its corrected value and no source
        reads the top column's predictor: a CN step solves columns 0..k-2
        as the predictor (``source_fn`` gets that narrower block) and
        columns 1..k-1 as the corrector, bit for bit the full step.
        """
        n_steps = self.steps_in(t_end)
        state = np.array(init, dtype=float, order="F")
        if source_fn is not None:
            src0 = np.empty_like(state)
            src1 = np.empty_like(state)
        slot = {step: i for i, step in enumerate([n_steps] if store_steps is None else store_steps)}
        stored = np.empty((state.shape[1], len(slot), state.shape[0]))
        if 0 in slot:
            stored[:, slot[0]] = state.T
        n_smooth = self.rannacher if smooth_start else 0
        lead = max(state.shape[1] - 1, 1)
        for step in range(n_steps):
            if source_fn is None:
                state = self.step_be_half(self.step_be_half(state)) if step < n_smooth else self.step_cn(state)
            else:
                source_fn(state, src0)
                if step < n_smooth:
                    half = self.step_be_half(state, src0)
                    source_fn(half, src1)
                    state = self.step_be_half(half, src1)
                elif triangular:
                    pred = self.step_cn(state[:, :lead], src0[:, :lead])
                    if lead < state.shape[1]:
                        source_fn(pred, src1)
                        src1 += src0
                        src1 *= 0.5
                        state[:, 1:] = self.step_cn(state[:, 1:], src1[:, 1:])
                    state[:, 0] = pred[:, 0]
                else:
                    pred = self.step_cn(state, src0)
                    source_fn(pred, src1)
                    src1 += src0
                    src1 *= 0.5
                    state = self.step_cn(state, src1)
            if guard is not None:
                guard(state, (step + 1) * self.dt)
            if (step + 1) in slot:
                stored[:, slot[step + 1]] = state.T
        return stored


_PROP_CACHE = {}


def _propagator(generator, dt):
    key = (id(generator), float(dt))
    prop = _PROP_CACHE.get(key)
    if prop is None or prop.generator is not generator:
        prop = Propagator(generator, dt)
        _PROP_CACHE[key] = prop
        if len(_PROP_CACHE) > 32:
            _PROP_CACHE.pop(next(iter(_PROP_CACHE)))
    return prop


def evolve_P(g, t, generator, dt_pde, smooth_start):
    """Feynman-Kac propagation P_t g on the grid of one field, or of an
    (n, k) block of fields; t must be a whole number of steps ``dt_pde``."""
    g = np.asarray(g)
    stored = _propagator(generator, dt_pde).march(g.reshape(len(g), -1), t, None, smooth_start=smooth_start)
    return stored[:, -1].T.reshape(g.shape)


def evolve_Q(g, t, model, dyn=None, grid=None, generator=None, dt_pde=0.01, smooth_start=False):
    """Propagation with the killed potential -(b + d) instead of V.
    Pending API: the Q-process checks of ROADMAP item 5 will call it."""
    if generator is None:
        generator = build_generator(model, dyn, grid)
    return evolve_P(g, t, q_generator(generator, model), dt_pde=dt_pde, smooth_start=smooth_start)


def q_generator(generator, model):
    """Generator with potential -(b + d) = V - 2b on the same grid.
    Pending API: the Q-process checks of ROADMAP item 5 will call it."""
    b = np.asarray(model.b(generator.grid.nodes), dtype=float)
    return replace(generator, matrix=(generator.matrix - sp.diags(2.0 * b)).tocsr())


# ----------------------------------------------------------------------
# spectral data


@dataclass
class SpectralData:
    """Principal eigentriple and derived constants.

    Conventions: Theta0 > 0 with sup Theta0 = 1; mu0 are positive weights
    with sum(Theta0 * mu0) = 1.  lambda0 is the decay exponent (P_t Theta0
    = e^{-lambda0 t} Theta0); lambda1 the real part of the next eigenvalue.
    H, the HP2 projection constant, stays ``None`` until ``fit_H`` runs;
    only the ``spectrum`` command fits it and writes it.
    """

    grid: Grid
    lambda0: float
    lambda1: float
    theta0: np.ndarray
    mu0: np.ndarray
    A: float
    B: float
    H: float | None = None
    lambda1_complex: bool = False
    eigen_residual: float = 0.0

    @property
    def gap(self):
        return self.lambda1 - self.lambda0

    @property
    def nu_weights(self):
        """Weights of the probability measure nu = mu0 / mu0(1)."""
        return self.mu0 / self.A

    def nu(self, f_vals):
        return float(np.dot(self.nu_weights, f_vals))

    def mu0_integral(self, f_vals):
        return float(np.dot(self.mu0, f_vals))

    def theta0_at(self, x):
        return np.interp(x, self.grid.nodes, self.theta0)

    @property
    def criticality_eps(self):
        """The criticality gate: |lambda0| <= 1e-4 of the gap reads as
        critical."""
        return 1e-4 * max(self.gap, 1e-12)

    def regime(self):
        eps = self.criticality_eps
        if self.lambda0 > eps:
            return "subcritical"
        if self.lambda0 < -eps:
            return "supercritical"
        return "critical"

    def to_dict(self):
        return {
            "grid": self.grid.to_config(),
            "lambda0": self.lambda0,
            "lambda1": self.lambda1,
            "lambda1_complex": self.lambda1_complex,
            "theta0": self.theta0.tolist(),
            "mu0": self.mu0.tolist(),
            "A": self.A,
            "B": self.B,
            "H": self.H,
            "eigen_residual": self.eigen_residual,
        }


class EigenSolverError(RuntimeError):
    pass


# Ritz values asked of ARPACK beyond the k kept: shift-invert returns the
# eigenvalues nearest the shift, and a complex pair can sit nearer to it
# than the next eigenvalue by real part, or take a second slot as the
# partner of one already kept
_EXTRA_EIGS = 2
# the shift's distance beyond the Gershgorin bound on the real parts: at
# the bound itself A - sigma I could be singular (an eigenvalue on the
# bound); one unit keeps it strictly diagonally dominant
_SHIFT_MARGIN = 1.0


def _rightmost_eigs(matrix, k, rho):
    """The k rightmost eigenvalues of the generator by decreasing real part,
    one of each complex-conjugate pair: by a symmetric tridiagonal solve on
    the three diagonals when the matrix is tridiagonal and rho-symmetric
    (real values), else by ARPACK's shift-invert Arnoldi on the sparse
    matrix.  Its real shift sigma lies right of the Gershgorin bound, so
    the values nearest sigma are the rightmost ones; its start vector is
    fixed, so the values depend on the matrix alone.  No n x n array is
    formed.  Raises EigenSolverError, naming n and sigma, when ARPACK does
    not converge or fewer than k distinct values come back."""
    n = matrix.shape[0]
    if rho is not None and max(_band(matrix)[1:]) <= 1:
        # the diagonals of S = D L D^{-1}, D = diag(sqrt(rho)), each entry
        # rounded as the sparse product diags(d) @ L @ diags(1/d) rounds it
        d = np.sqrt(rho)
        inv = 1.0 / d
        lower = d[1:] * matrix.diagonal(-1) * inv[:-1]
        main = d * matrix.diagonal() * inv
        upper = d[:-1] * matrix.diagonal(1) * inv[1:]
        scale = max(1.0, *(np.max(np.abs(diag)) for diag in (lower, main, upper)))
        if np.max(np.abs(upper - lower)) < 1e-8 * scale:
            off = 0.5 * (upper + lower)
            vals = sla.eigh_tridiagonal(main, off, select="i", select_range=(n - k, n - 1))[0]
            return vals[::-1]
    diag = matrix.diagonal()
    # Gershgorin: every eigenvalue has real part <= max_i a_ii + sum_{j != i} |a_ij|
    sigma = float(np.max(diag + np.asarray(abs(matrix).sum(axis=1)).ravel() - np.abs(diag))) + _SHIFT_MARGIN
    # ARPACK finds fewer than n - 1 values: on a grid of 3 nodes, one
    n_eigs = min(k + _EXTRA_EIGS, n - 2)
    # a positive start vector, so it has a Perron component, and a ramp, so
    # it is not reflection-symmetric: the Krylov space of an even vector
    # misses every odd eigenvector of a symmetric generator.  rng seeds the
    # fresh vector ARPACK asks for after a breakdown.
    v0 = np.linspace(1.0, 2.0, n)
    try:
        vals = spla.eigs(matrix, n_eigs, sigma=sigma, v0=v0, rng=0, return_eigenvectors=False)
    except spla.ArpackError as err:  # ArpackNoConvergence included
        raise EigenSolverError(f"shift-invert Arnoldi failed on n = {n}, sigma = {sigma:.6g}: {err}") from None
    out = []
    for idx in np.argsort(vals.real)[::-1]:
        # skip the conjugate partner of a complex value just taken
        prev = out[-1] if out else None
        if prev is not None and abs(prev.imag) > 0 and abs(vals[idx] - np.conj(prev)) < 1e-10 * max(1.0, abs(prev)):
            continue
        out.append(vals[idx])
        if len(out) == k:
            return np.array(out)
    raise EigenSolverError(f"could not isolate {k} eigenvalues of n = {n} by shift-invert at sigma = {sigma:.6g}")


_EIGEN_TOL, _EIGEN_MAX_STEPS = 1e-10, 200  # the eigenpair polish's Rayleigh-quotient tolerance and step limit


def _inverse_iteration(matrix, shift, v0, transpose=False):
    """Shifted inverse power iteration; returns (eigenvalue, vector)."""
    A = matrix.T if transpose else matrix
    n = A.shape[0]
    lu = spla.splu((A - shift * sp.identity(n)).tocsc())
    v = np.asarray(v0, dtype=float)
    v = v / np.linalg.norm(v)
    lam = shift
    for _ in range(_EIGEN_MAX_STEPS):
        w = lu.solve(v)
        w_norm = np.linalg.norm(w)
        if not np.isfinite(w_norm) or w_norm == 0:
            raise EigenSolverError("inverse iteration diverged")
        v_new = w / w_norm
        if np.dot(v_new, v) < 0:
            v_new = -v_new
        Av = A @ v_new
        lam_new = float(np.dot(v_new, Av))
        residual = np.linalg.norm(Av - lam_new * v_new)
        converged = abs(lam_new - lam) < _EIGEN_TOL * max(1.0, abs(lam_new)) and residual < math.sqrt(_EIGEN_TOL)
        v, lam = v_new, lam_new
        if converged:
            break
    else:
        raise EigenSolverError("inverse iteration stagnated")
    return lam, v


def principal_eigentriple(generator, model):
    """Principal eigentriple (lambda0, Theta0, mu0), the gap lambda1 and
    the constants A, B.

    The two rightmost eigenvalues come from a symmetric tridiagonal solve
    on the generator's three diagonals (diffusion) or a sparse shift-invert
    Arnoldi solve (the jump classes), so no n x n array is formed; an
    ARPACK failure raises EigenSolverError.  The eigenpair is then polished by
    shifted inverse power iteration to ``_EIGEN_TOL`` on the Rayleigh quotient,
    and mu0 comes from the matching left eigenvector.
    No propagation runs here: H is left ``None`` for ``fit_H``, which only
    the ``spectrum`` command calls.
    """
    grid = generator.grid
    L = generator.matrix
    rightmost = _rightmost_eigs(L, 2, rho=generator.rho if generator.variant == DIFFUSION else None)
    top, second = rightmost.real
    complex_pair = bool(abs(rightmost[1].imag) > 1e-10)
    lambda0 = -float(top)
    lambda1 = -float(second)
    if not lambda1 > lambda0 + 1e-12:
        raise EigenSolverError(
            f"spectral gap not resolved: lambda0 = {lambda0:.6g}, lambda1 = {lambda1:.6g}"
        )

    gap = lambda1 - lambda0
    shift = top + 0.25 * gap
    xs = grid.nodes
    v0 = np.exp(-((xs - xs.mean()) ** 2))
    lam_r, theta = _inverse_iteration(L, shift, v0)
    if np.sum(theta) < 0:
        theta = -theta
    if np.min(theta) < -1e-8 * np.max(np.abs(theta)):
        raise EigenSolverError("principal eigenfunction is not positive")
    theta = np.clip(theta, 0.0, None)
    theta = theta / np.max(theta)

    lam_l, left = _inverse_iteration(L, shift, v0, transpose=True)
    if np.sum(left) < 0:
        left = -left
    if np.min(left) < -1e-8 * np.max(np.abs(left)):
        raise EigenSolverError("principal left eigenvector is not positive")
    left = np.clip(left, 0.0, None)
    norm = float(np.dot(left, theta))
    if norm <= 0:
        raise EigenSolverError("left/right eigenvector pairing degenerate")
    mu0 = left / norm

    lambda0 = -0.5 * (lam_r + lam_l)

    A = float(np.sum(mu0))
    B = float(np.sum(theta**2 * model.b(xs) * mu0))

    residual = float(np.max(np.abs(L @ theta - (-lambda0) * theta)))

    return SpectralData(
        grid=grid,
        lambda0=float(lambda0),
        lambda1=float(lambda1),
        theta0=theta,
        mu0=mu0,
        A=A,
        B=B,
        lambda1_complex=complex_pair,
        eigen_residual=residual,
    )


def fit_H(generator, spectral, dt_pde):
    """Fitted projection constant from HP2, a lower estimate over a finite
    test-function family: sup e^{(l1-l0)t} |e^{l0 t} P_t g - Pi g| / |g|
    at t = 0.5, 1, 2, 4, by Crank-Nicolson steps of ``dt_pde`` (which
    must divide 0.5)."""
    xs = generator.grid.nodes
    width = 0.25 * (xs[-1] - xs[0])
    tests = [
        np.ones_like(xs),
        np.exp(-((xs - xs.mean()) ** 2) / (2 * (width / 4) ** 2)),
        np.tanh(xs / max(width, 1e-6)),
        np.sin(xs),
    ]
    tests = [g for g in tests if np.max(np.abs(g)) > 0]
    times = (0.5, 1.0, 2.0, 4.0)
    prop = _propagator(generator, dt_pde)
    # one block march: a column's values do not depend on its block
    stored = prop.march(np.column_stack(tests), times[-1], [prop.steps_in(t) for t in times], smooth_start=True)
    H = 0.0
    for g, slices in zip(tests, stored):
        gn = np.max(np.abs(g))
        pi_g = spectral.theta0 * spectral.mu0_integral(g)
        for t, u in zip(times, slices):
            dev = np.max(np.abs(np.exp(spectral.lambda0 * t) * u - pi_g))
            H = max(H, float(np.exp(spectral.gap * t) * dev / gn))
    return H


_EDGE_FRACTION, _EDGE_THRESHOLD = 0.05, 1e-3  # the edge-decay check's edge share and pass line


def hp4_edge_decay(generator, t, dt_pde):
    """Check that P_t 1 decays at the grid edges (C_b -> C_0 behaviour).

    Passes when the max of P_t 1 over the outer ``_EDGE_FRACTION`` of nodes
    is below ``_EDGE_THRESHOLD`` times the interior max.
    """
    if t <= 0:
        raise ValueError("edge-decay check needs t > 0")
    n = generator.grid.n_points
    k = max(1, int(_EDGE_FRACTION * n))
    u = evolve_P(np.ones(n), t, generator, dt_pde=dt_pde, smooth_start=True)
    interior = float(np.max(u[k:-k]))
    edge = float(max(np.max(u[:k]), np.max(u[-k:])))
    passed = bool(edge <= _EDGE_THRESHOLD * interior)
    return {
        "t": t,
        "edge_max": edge,
        "interior_max": interior,
        "ratio": edge / interior if interior > 0 else math.inf,
        "threshold": _EDGE_THRESHOLD,
        "passed": passed,
    }
