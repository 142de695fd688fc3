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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import model as model_mod
from .grid import Grid
from .model import DIFFUSION, DRIFTED_JUMP, NotApplicableError, ell_values, potential

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
    "constants_AB",
    "girsanov_crosscheck",
    "hp4_edge_decay",
    "GridTooNarrowError",
]


class GridTooNarrowError(ValueError):
    pass


@dataclass
class GeneratorMatrix:
    """Discretized generator: motion block + jump block + diagonal potential."""

    grid: Grid
    variant: str
    matrix: sp.csr_matrix  # full operator, motion + jumps + V
    motion_jump: sp.csr_matrix  # operator without the potential diagonal
    potential_diag: np.ndarray
    ell: np.ndarray | None = None
    rho: np.ndarray | None = None

    @property
    def n(self):
        return self.grid.n_points

    def with_potential(self, v_diag):
        """Same motion/jump blocks with a different diagonal potential."""
        v_diag = np.asarray(v_diag, dtype=float)
        mat = (self.motion_jump + sp.diags(v_diag)).tocsr()
        return GeneratorMatrix(
            grid=self.grid,
            variant=self.variant,
            matrix=mat,
            motion_jump=self.motion_jump,
            potential_diag=v_diag,
            ell=self.ell,
            rho=self.rho,
        )


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


def _jump_block(grid, kernel, mass_tol=1e-6):
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
    if np.max(np.abs(w.sum(axis=1) - declared)) > mass_tol * max(1.0, declared.max()):
        raise ValueError("jump-block mass correction failed to match declared total mass")
    block = w - np.diag(declared)
    return sp.csr_matrix(block)


def build_generator(model, dyn, grid, dt_report=1.0):
    """Assemble the generator matrix for (model, dynamics) on the grid.

    For absorbing boundaries the grid must be wide enough that the edges
    sit deep in the killing region: V(x_edge) <= -5 / dt_report.
    """
    xs = grid.nodes
    v = potential(model, xs)
    if grid.boundary == "absorbing":
        v_edge = max(v[0], v[-1])
        need = -5.0 / dt_report
        if v_edge > need:
            # rough widening suggestion from the declared HD constants
            c = float(model.hd_constants.get("c", 1.0)) or 1.0
            cp = float(model.hd_constants.get("c_prime", 0.0))
            suggestion = (abs(need) + model.b_star + cp) / c
            raise GridTooNarrowError(
                f"V at the grid edge is {v_edge:.3g} > {need:.3g}; "
                f"widen the grid to roughly |x| >= {suggestion:.3g}"
            )

    if dyn.variant == DRIFTED_JUMP:
        motion = _unit_drift_block(grid)
    else:
        motion = _diffusion_block(grid, dyn)
    if dyn.has_jumps:
        motion = (motion + _jump_block(grid, dyn.jump)).tocsr()

    mat = (motion + sp.diags(v)).tocsr()
    if dyn.has_drift_curve:
        ell, rho = model_mod.ell_and_rho(dyn, grid)
    else:
        ell, rho = None, None
    return GeneratorMatrix(
        grid=grid,
        variant=dyn.variant,
        matrix=mat,
        motion_jump=motion.tocsr(),
        potential_diag=np.asarray(v, dtype=float),
        ell=ell,
        rho=rho,
    )


# ----------------------------------------------------------------------
# Crank-Nicolson propagation


class Propagator:
    """Crank-Nicolson stepper for du/dt = L u (+ source), factored once.

    A = I - (dt/2) L is factored once through LAPACK in band form: the
    tridiagonal ``dgttrf`` when L is tridiagonal (pure diffusion),
    else ``dgbtrf`` with the band read from the nonzeros of L (jumps and
    the upwind drift; a kernel of unbounded support fills the whole band).
    Since I + (dt/2) L = 2I - A, a CN step is u_new = A^{-1}(2u + dt s) - u:
    one band solve and no matrix-vector product.  A is also the
    implicit-Euler half-step matrix.  ``u`` may be one field of shape (n,)
    or a Fortran-ordered block (n, k) of fields marched together; a
    complex field is solved as its real and imaginary columns.

    ``rannacher`` implicit-Euler half steps are used at the start of each
    ``evolve`` call to damp nonsmooth initial data.
    """

    def __init__(self, generator, dt, rannacher=2):
        self.generator = generator
        self.dt = float(dt)
        self.rannacher = int(rannacher)
        n = generator.n
        A = (sp.identity(n, format="csr") - (self.dt / 2.0) * generator.matrix).tocoo()
        A.sum_duplicates()
        A.eliminate_zeros()
        offsets = A.col - A.row
        self._kl = max(0, -int(offsets.min()))
        self._ku = max(0, int(offsets.max()))
        if self._kl <= 1 and self._ku <= 1:
            *self._tri, info = sla.lapack.dgttrf(A.diagonal(-1), A.diagonal(), A.diagonal(1))
        else:
            # LAPACK band storage: A[i, j] at row kl + ku + i - j; the
            # first kl rows are room for the fill-in of the pivoting
            band = np.zeros((2 * self._kl + self._ku + 1, n))
            band[self._kl + self._ku - offsets, A.col] = A.data
            self._tri = None
            self._band, self._ipiv, info = sla.lapack.dgbtrf(band, self._kl, self._ku, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(f"Crank-Nicolson matrix I - (dt/2) L is singular (LAPACK info {info})")

    def _solve(self, rhs):
        """A^{-1} rhs, overwriting ``rhs`` when it is a contiguous float
        array of shape (n,) or a Fortran-ordered (n, k) block."""
        if np.iscomplexobj(rhs):
            cols = rhs.reshape(len(rhs), -1)
            k = cols.shape[1]
            x = self._solve(np.hstack([cols.real, cols.imag]))
            return (x[:, :k] + 1j * x[:, k:]).reshape(rhs.shape)
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

    def evolve(self, g, t, smooth_start=False):
        """Propagate g over time t (>= 0) with fixed steps; the last step is
        shortened via a temporary factorization when t is not a multiple."""
        g = np.asarray(g, dtype=complex if np.iscomplexobj(g) else float)
        if t < 0:
            raise ValueError("time must be nonnegative")
        if t == 0:
            return g.copy()
        n_round = int(round(t / self.dt))
        if abs(n_round * self.dt - t) > 1e-9 * max(self.dt, t):
            n_full = int(math.floor(t / self.dt))
            rem = t - n_full * self.dt
            out = self.evolve(g, n_full * self.dt, smooth_start=smooth_start) if n_full else g.copy()
            short = Propagator(self.generator, rem, rannacher=0)
            return short.step_cn(out)
        n_full = n_round
        u = g
        k = 0
        if smooth_start:
            for _ in range(min(self.rannacher, n_full)):
                u = self.step_be_half(self.step_be_half(u))
                k += 1
        for _ in range(n_full - k):
            u = self.step_cn(u)
        return u


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


def evolve_P(g, t, generator, dt_pde=0.01, smooth_start=False):
    """Feynman-Kac propagation P_t g on the grid."""
    return _propagator(generator, dt_pde).evolve(g, t, smooth_start=smooth_start)


def evolve_Q(g, t, model, dyn=None, grid=None, generator=None, dt_pde=0.01, smooth_start=False):
    """Propagation with the killed potential -(b + d) instead of V."""
    if generator is None:
        generator = build_generator(model, dyn, grid)
    q_gen = q_generator(generator, model)
    return _propagator(q_gen, dt_pde).evolve(g, t, smooth_start=smooth_start)


def q_generator(generator, model):
    """Generator with potential -(b + d) = V - 2b on the same grid."""
    xs = generator.grid.nodes
    return generator.with_potential(-(model.b(xs) + model.d(xs)))


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

    def regime(self, eps_factor=1e-4):
        eps = eps_factor * max(self.gap, 1e-12)
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

    @classmethod
    def from_dict(cls, d):
        return cls(
            grid=Grid.from_config(d["grid"]),
            lambda0=float(d["lambda0"]),
            lambda1=float(d["lambda1"]),
            theta0=np.asarray(d["theta0"], dtype=float),
            mu0=np.asarray(d["mu0"], dtype=float),
            A=float(d["A"]),
            B=float(d["B"]),
            H=None if d["H"] is None else float(d["H"]),
            lambda1_complex=bool(d.get("lambda1_complex", False)),
            eigen_residual=float(d.get("eigen_residual", 0.0)),
        )


class EigenSolverError(RuntimeError):
    pass


def _rightmost_eigs(matrix, k, rho=None):
    """The k rightmost eigenvalues of the generator by decreasing real part,
    one of each complex-conjugate pair: by a symmetric solve when the
    matrix is rho-symmetric (real values), else by a dense solve."""
    n = matrix.shape[0]
    if rho is not None:
        # S = D L D^{-1} with D = diag(sqrt(rho)) is symmetric tridiagonal
        # for the fitted diffusion scheme
        d = np.sqrt(rho)
        S = sp.diags(d) @ matrix @ sp.diags(1.0 / d)
        S = S.toarray()
        sym_defect = np.max(np.abs(S - S.T))
        if sym_defect < 1e-8 * max(1.0, np.max(np.abs(S))):
            S = 0.5 * (S + S.T)
            if sp.issparse(matrix) and matrix.format == "csr" and _is_tridiagonal(matrix):
                main = np.diag(S)
                off = np.diag(S, k=1)
                vals = sla.eigh_tridiagonal(main, off, select="i", select_range=(n - k, n - 1))[0]
            else:
                vals = np.sort(np.linalg.eigvalsh(S))[-k:]
            return vals[::-1]
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


def _is_tridiagonal(matrix):
    coo = matrix.tocoo()
    return bool(np.all(np.abs(coo.row - coo.col) <= 1))


def _inverse_iteration(matrix, shift, v0, tol=1e-10, max_iter=200, transpose=False):
    """Shifted inverse power iteration; returns (eigenvalue, vector)."""
    A = matrix.T if transpose else matrix
    n = A.shape[0]
    lu = spla.splu((A - shift * sp.identity(n)).tocsc())
    v = np.asarray(v0, dtype=float)
    v = v / np.linalg.norm(v)
    lam = shift
    for _ in range(max_iter):
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
        converged = abs(lam_new - lam) < tol * max(1.0, abs(lam_new)) and residual < math.sqrt(tol)
        v, lam = v_new, lam_new
        if converged:
            break
    else:
        raise EigenSolverError("inverse iteration stagnated")
    return lam, v


def principal_eigentriple(generator, model, tol=1e-10):
    """Principal eigentriple (lambda0, Theta0, mu0), the gap lambda1 and
    the constants A, B.

    The rightmost eigenvalue is located from the full spectrum, then the
    eigenpair is polished by shifted inverse power iteration to ``tol`` on
    the Rayleigh quotient; mu0 comes from the matching left eigenvector.
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
    lam_r, theta = _inverse_iteration(L, shift, v0, tol=tol)
    if np.sum(theta) < 0:
        theta = -theta
    if np.min(theta) < -1e-8 * np.max(np.abs(theta)):
        raise EigenSolverError("principal eigenfunction is not positive")
    theta = np.clip(theta, 0.0, None)
    theta = theta / np.max(theta)

    lam_l, left = _inverse_iteration(L, shift, v0, tol=tol, transpose=True)
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
    at t = 0.5, 1, 2, 4, by Crank-Nicolson steps of ``dt_pde``."""
    xs = generator.grid.nodes
    width = 0.25 * (xs[-1] - xs[0])
    tests = [
        np.ones_like(xs),
        np.exp(-((xs - xs.mean()) ** 2) / (2 * (width / 4) ** 2)),
        np.tanh(xs / max(width, 1e-6)),
        np.sin(xs),
    ]
    prop = _propagator(generator, dt_pde)
    H = 0.0
    for g in tests:
        gn = np.max(np.abs(g))
        if gn == 0:
            continue
        pi_g = spectral.theta0 * spectral.mu0_integral(g)
        u = g
        t_prev = 0.0
        for t in (0.5, 1.0, 2.0, 4.0):
            u = prop.evolve(u, t - t_prev, smooth_start=(t_prev == 0.0))
            t_prev = t
            dev = np.max(np.abs(np.exp(spectral.lambda0 * t) * u - pi_g))
            H = max(H, float(np.exp(spectral.gap * t) * dev / gn))
    return H


def constants_AB(spectral, model):
    """A = total mass of mu0; B = int Theta0^2 b dmu0."""
    xs = spectral.grid.nodes
    A = float(np.sum(spectral.mu0))
    B = float(np.sum(spectral.theta0**2 * model.b(xs) * spectral.mu0))
    if not (A > 0 and B > 0):
        raise ValueError("A and B must be positive")
    return A, B


def girsanov_crosscheck(dyn, model, grid, n_eigs=3):
    """Compare the spectrum of the drifted diffusion generator with the
    conjugated Schroedinger form (1/2) u'' + (V + (a' - a^2)/2) u.

    Returns a report dict with both eigenvalue lists and the max deviation.
    """
    if dyn.variant != DIFFUSION:
        raise NotApplicableError("Girsanov cross-check applies to the pure diffusion variant")
    gen = build_generator(model, dyn, grid, dt_report=np.inf)
    xs = grid.nodes
    a = dyn.a(xs)
    a_prime = dyn.a.derivative(xs)
    v_tilde = potential(model, xs) + 0.5 * (a_prime - a * a)

    class _TildeModel:
        b_star = model.b_star
        hd_constants = model.hd_constants

        @staticmethod
        def b(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        @staticmethod
        def d(x):
            return -np.interp(np.asarray(x, dtype=float), xs, v_tilde)

    dyn0 = model_mod.DynamicsSpec(variant=DIFFUSION, a=model_mod.curve_from_config(0.0))
    gen_tilde = build_generator(_TildeModel, dyn0, grid, dt_report=np.inf)

    eigs = _rightmost_eigs(gen.matrix, n_eigs, rho=gen.rho).real.tolist()
    eigs_tilde = _rightmost_eigs(gen_tilde.matrix, n_eigs, rho=gen_tilde.rho).real.tolist()
    dev = float(np.max(np.abs(np.asarray(eigs) - np.asarray(eigs_tilde))))
    return {
        "eigenvalues": eigs,
        "eigenvalues_conjugated": eigs_tilde,
        "max_deviation": dev,
    }


def hp4_edge_decay(generator, t, dt_pde=0.01, edge_fraction=0.05, threshold=1e-3):
    """Check that P_t 1 decays at the grid edges (C_b -> C_0 behaviour).

    Passes when the max of P_t 1 over the outer ``edge_fraction`` of nodes
    is below ``threshold`` times the interior max.
    """
    if t <= 0:
        raise ValueError("edge-decay check needs t > 0")
    n = generator.grid.n_points
    k = max(1, int(edge_fraction * n))
    u = evolve_P(np.ones(n), t, generator, dt_pde=dt_pde, smooth_start=True)
    interior = float(np.max(u[k:-k]))
    edge = float(max(np.max(u[:k]), np.max(u[-k:])))
    passed = bool(edge <= threshold * interior)
    return {
        "t": t,
        "edge_max": edge,
        "interior_max": interior,
        "ratio": edge / interior if interior > 0 else math.inf,
        "threshold": threshold,
        "passed": passed,
    }
