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

Propagation is TR-BDF2, an L-stable second-order step (Bank et al. 1985;
Hosea & Shampine 1996), under a controller that picks each step from an
embedded local error estimate against a tolerance of ``_TIME_TOL``
dt_pde**2.  Nonsmooth initial data get a damped start: three pairs of
implicit-Euler steps of dt_pde / 8, then TR-BDF2 steps shorter than dt_pde
that grow as the error allows.  After it a step is never shorter than
dt_pde, and grows past it, to a divisor of the span between stored times,
where its error per unit time stays below the tolerance.  Both stages of a
step of length h solve with A = I - (gamma h / 2) L, which each
``Propagator`` factors once through LAPACK (a symmetric tridiagonal factor
for a pure diffusion, a band factor with the bandwidth of L otherwise); a
march meets few distinct steps.  The trapezoidal stage is a Crank-Nicolson
step u_new = A^{-1}(2u + dt s) - u, since I + (dt/2) L = 2I - A: one band
solve, no matrix-vector product, for one field or for a block of fields
marched as columns.
``Propagator.march`` is the one time loop: ``evolve_P``, ``fit_H``,
``hp4_edge_decay`` and every march of ``moments`` run through it.
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


def _diffusion_block(grid, dyn, ell_nodes):
    """Exponentially fitted divergence-form discretization of (1/2)f'' - a f',
    given the drift antiderivative l at the nodes."""
    xs = grid.nodes
    n = len(xs)
    dx = grid.dx
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
        motion, rho = _unit_drift_block(grid), None
    else:
        ell, rho = ell_and_rho(dyn, grid)
        motion = _diffusion_block(grid, dyn, ell)
    if dyn.has_jumps:
        motion = (motion + _jump_block(grid, dyn.jump)).tocsr()

    return GeneratorMatrix(grid=grid, variant=dyn.variant, matrix=(motion + sp.diags(v)).tocsr(), rho=rho)


# ----------------------------------------------------------------------
# time stepping: TR-BDF2 under a local error controller


def _band(matrix):
    """(coo, kl, ku): a sparse matrix's nonzeros and its two bandwidths."""
    coo = matrix.tocoo()
    coo.sum_duplicates()
    coo.eliminate_zeros()
    offsets = coo.col - coo.row
    return coo, -int(offsets.min(initial=0)), int(offsets.max(initial=0))


def _symmetrized(matrix, rho, rel_tol):
    """(main, off): the diagonals of S = D M D^{-1}, D = diag(sqrt(rho)),
    with off the mean of its two off-diagonals, when M is tridiagonal and S
    is symmetric to ``rel_tol`` of its largest entry; else None.  Each entry
    is rounded as the sparse product diags(d) @ M @ diags(1/d) rounds it."""
    if rho is None or max(_band(matrix)[1:]) > 1:
        return None
    d = np.sqrt(rho)
    inv = 1.0 / d
    lower = d[1:] * matrix.diagonal(-1) * inv[:-1]
    main = d * matrix.diagonal() * inv
    upper = d[:-1] * matrix.diagonal(1) * inv[1:]
    scale = max(1.0, *(np.max(np.abs(diag)) for diag in (lower, main, upper)))
    if not np.max(np.abs(upper - lower)) < rel_tol * scale:
        return None
    return main, 0.5 * (upper + lower)


def _whole_steps(t, dt):
    """The number of steps dt in time t; a ValueError unless t is a
    nonnegative whole number of them."""
    n = int(round(t / dt))
    if t < 0 or abs(n * dt - t) > 1e-9 * max(1.0, t):
        raise ValueError(f"time {t:g} is not a nonnegative multiple of the solver step {dt:g}")
    return n


# TR-BDF2 with gamma = 2 - sqrt 2 (Bank et al. 1985; Hosea & Shampine 1996):
# a trapezoidal stage Y2 to t + gamma h, then a BDF2 stage to t + h,
#     A u_new = u + w/d (Y2 - u) + (gamma h / 2) s,   w/d = (1 + sqrt 2) / 2.
# Both stages solve with A = I - (gamma h / 2) L, the Crank-Nicolson matrix
# of a step gamma h, so the Propagator of step gamma h takes a whole step:
# its step_cn is the trapezoidal stage, its step_be_half the BDF2 stage.
_GAMMA = 2.0 - math.sqrt(2.0)
_BDF2_W = (1.0 + math.sqrt(2.0)) / 2.0
# Hosea & Shampine's embedded estimate of the local error, written with the
# stages: (3 + 2 sqrt 2)(Y2 - u) - 2 (u_new - u) - sqrt 2 h u'(t), over 3
_EST_Y2, _EST_Y3, _EST_F = (3.0 + 2.0 * math.sqrt(2.0)) / 3.0, -2.0 / 3.0, -math.sqrt(2.0) / 3.0
# the controller's tolerance tol, in units of dt_pde**2, relative to each
# field's sup over the grid: a step longer than dt_pde keeps its error per
# unit time below tol, a step of the start shorter than dt_pde its error
# below _START_TOL tol
_TIME_TOL, _START_TOL = 0.019, 2.0
# the start: _DAMPED_STEPS steps of dt_pde / 2**_DAMPED_DEPTH, each a pair
# of implicit-Euler half steps, then TR-BDF2 from dt_pde / 2**_RAMP_DEPTH
_DAMPED_STEPS, _DAMPED_DEPTH, _RAMP_DEPTH = 3, 2, 4
# steps and times count units of dt_pde / _UNITS, so the march adds no
# rounding to them
_UNITS = 2**48
# the step-size rule: the local error of a second-order step scales as
# h**3; a short step is halved at least once on rejection and doubles when
# the error leaves room for 2 h
_SAFETY, _MAX_SHRINK = 0.9, 0.2
# the predictor-corrector takes the source explicitly, so it is stable only
# while h times the source's Lipschitz constant stays below about 2 (Heun's
# bound); a step longer than dt_pde keeps that product at most 1 for a
# source that reads its own column
_SOURCE_STEP = 1.0


def _col_sup(block):
    """sup |block| of each column of an (n, k) block, at least the
    smallest normal float."""
    return np.maximum(np.abs(block).max(axis=0), np.finfo(float).tiny)


def _rel_sup(block, scale):
    """The largest over the columns of sup |block| / ``scale``."""
    return float((np.abs(block).max(axis=0) / scale).max())


class Propagator:
    """Band-LU solves with A = I - (dt/2) L for one generator and step dt.

    A is factored once through LAPACK: for a pure diffusion, whose L is
    tridiagonal and symmetric in the speed measure rho, by ``dpttrf`` on A
    symmetrised in rho; otherwise in band form by ``dgbtrf``, with the band
    read from the nonzeros of L (jumps and the upwind drift; a kernel of
    unbounded support fills the whole band).  Since
    I + (dt/2) L = 2I - A, a Crank-Nicolson step is u_new = A^{-1}(2u +
    dt s) - u: one band solve and no matrix-vector product.  A is also the
    implicit-Euler matrix of a step dt/2.  ``u`` may be one real field of
    shape (n,) or a Fortran-ordered block (n, k) of fields marched
    together.  ``march`` is the one time loop over these solves.
    """

    def __init__(self, generator, dt):
        self.generator = generator
        self.dt = float(dt)
        half = self.dt / 2.0
        self._spd = None
        # a diffusion's L is symmetric in its speed measure rho, so A is
        # similar to a symmetric tridiagonal matrix, positive definite while
        # (dt/2) lambda0 < 1: its LDL^T solve costs half of a general one
        sym = _symmetrized(generator.matrix, generator.rho, 1e-12)
        if sym is not None:
            diag, off, info = sla.lapack.dpttrf(1.0 - half * sym[0], -half * sym[1])
            if info == 0:
                self._spd = (np.sqrt(generator.rho), diag, off)
                return
        n = generator.n
        A, self._kl, self._ku = _band(sp.identity(n, format="csr") - half * generator.matrix)
        # LAPACK band storage: A[i, j] at row kl + ku + i - j; the first kl
        # rows are room for the fill-in of the pivoting
        band = np.zeros((2 * self._kl + self._ku + 1, n))
        band[self._kl + self._ku + A.row - A.col, A.col] = A.data
        self._band, self._ipiv, info = sla.lapack.dgbtrf(band, self._kl, self._ku, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(f"Crank-Nicolson matrix I - (dt/2) L is singular (LAPACK info {info})")

    def _solve(self, rhs):
        """A^{-1} rhs, overwriting ``rhs`` when it is a contiguous float
        array of shape (n,) or a Fortran-ordered (n, k) block."""
        if self._spd is not None:
            d, diag, off = self._spd
            d = d if rhs.ndim == 1 else d[:, None]
            rhs *= d
            x = sla.lapack.dpttrs(diag, off, rhs, overwrite_b=1)[0]
            x /= d
            return x
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

    def step_trbdf2(self, u, lu, tol, source_fn, triangular, scratch, filtered):
        """One TR-BDF2 step of length dt / ``_GAMMA`` from the (n, k) block
        ``u``, given ``lu`` = L u; returns (u_new, L u_new, err, lip): err
        the largest over the columns of the local error estimate's sup
        relative to the column's sup, lip the source's Lipschitz constant
        measured between u and the extrapolated step end (0 without a
        source, or a triangular one).  L u_new comes from the BDF2 stage's
        equation, so the next step needs no matrix-vector product.

        ``scratch`` holds three blocks shaped like ``u``.  Each stage takes
        the source at its end, predicted from u: for the trapezoidal stage
        by an Euler step, or by a Crank-Nicolson step with the source frozen
        at u when the source reads its own column (the survival equation);
        for the BDF2 stage by the line through u and Y2, and a self-reading
        source is then corrected once from the stage's solution.  ``triangular``
        declares that the source of column j reads only columns below j, so
        column 0 has none and evolves alone (the moment hierarchy): no
        correction is needed, and err reads column 0 only, so the block
        takes the steps of column 0 marched by itself.  Either way a
        stationary solution of d/dt u = L u + s(u) is a fixed point of the
        step.  The estimate is filtered through A^{-1} (Hosea & Shampine)
        only when its raw value exceeds ``tol`` and ``filtered``: the
        filter turns down the stiff components that the raw estimate
        overstates."""
        h = self.dt / _GAMMA
        lip = 0.0
        if source_fn is None:
            f = lu
            y2 = self.step_cn(u)
            rise = y2 - u
            rhs = u + _BDF2_W * rise
            y3 = self.step_be_half(rhs)
        else:
            s0, s1, s2 = scratch
            source_fn(u, s0)
            f = lu + s0
            if triangular:
                source_fn(u + self.dt * f, s1)
            else:
                source_fn(self.step_cn(u, s0), s1)
            s1 += s0
            s1 *= 0.5
            y2 = self.step_cn(u, s1)
            rise = y2 - u
            ahead = rise / _GAMMA
            source_fn(u + ahead, s2)
            rhs = u + _BDF2_W * rise
            y3 = self.step_be_half(rhs, s2)
            if not triangular:
                lip = _rel_sup(s2 - s0, _col_sup(ahead))
                source_fn(y3, s2)
                y3 = self.step_be_half(rhs, s2)
        # A y3 = rhs + (dt/2) s with A = I - (dt/2) L
        lu_new = y3 - rhs
        lu_new *= 2.0 / self.dt
        if source_fn is not None:
            lu_new -= s2
        cols = slice(0, 1) if triangular else slice(None)
        est = _EST_Y2 * rise[:, cols] + _EST_Y3 * (y3[:, cols] - u[:, cols]) + (_EST_F * h) * f[:, cols]
        scale = _col_sup(y3[:, cols])
        err = _rel_sup(est, scale)
        if err > tol and filtered:
            err = _rel_sup(self.step_be_half(np.asfortranarray(est)), scale)
        return y3, lu_new, err, lip

    @staticmethod
    def march(generator, dt_pde, init, t_end, store_steps, source_fn=None, guard=None, smooth_start=False,
              triangular=False):
        """March the (n, k) block ``init`` over ``t_end`` by TR-BDF2 steps
        under a local error controller and return (slices, time_error):
        the slices at ``store_steps`` (sorted step indices on the grid of
        ``dt_pde``, 0 = initial data; None = ``t_end`` alone), shape (k,
        n_stored, n), and the sum of the accepted steps' local error
        estimates, relative to each field's sup.

        The tolerance tol is ``_TIME_TOL`` dt_pde**2.  ``smooth_start``
        begins with an L-stable, positive start for nonsmooth initial data:
        ``_DAMPED_STEPS`` steps of dt_pde / 2**``_DAMPED_DEPTH``, each a pair
        of implicit-Euler half steps, then TR-BDF2 from dt_pde /
        2**``_RAMP_DEPTH``, halving and doubling to keep each step's error
        below ``_START_TOL`` tol.  A
        step of dt_pde is always taken, as a march of fixed steps dt_pde
        would.  A longer one, a divisor of the span between two stored
        times, is taken where its error per unit time stays below tol and,
        for a source that reads its own column, h times the source's
        Lipschitz constant below ``_SOURCE_STEP``.  So every stored time is
        hit exactly, few distinct steps occur (each factored once,
        ``_propagator``) and the march is never coarser than steps of
        dt_pde.  Without ``smooth_start`` it starts at dt_pde.

        ``guard(state, t)`` may raise after an accepted step.
        ``source_fn(state, out)`` writes the source of every column of
        ``state`` into ``out``; ``triangular`` is passed to
        ``Propagator.step_trbdf2``.  The columns of a block that is not
        triangular are marched one at a time, so a column's values do not
        depend on the block it is marched in.
        """
        if not triangular and np.shape(init)[1] > 1:
            parts = [
                Propagator.march(generator, dt_pde, column[:, None], t_end, store_steps, source_fn, guard, smooth_start)
                for column in np.asarray(init, dtype=float).T
            ]
            return np.concatenate([slices for slices, _err in parts]), max(err for _slices, err in parts)
        n_total = _whole_steps(t_end, dt_pde)
        anchors = [n_total] if store_steps is None else list(store_steps)
        state = np.array(init, dtype=float, order="F")
        stored = np.empty((state.shape[1], len(anchors), state.shape[0]))
        scratch = [np.empty_like(state) for _ in range(3)] if source_fn is not None else None
        tol = _TIME_TOL * dt_pde**2
        time_error, lip, lin = 0.0, 0.0, None
        damped = _DAMPED_STEPS if smooth_start else 0
        rung = _UNITS >> _DAMPED_DEPTH if damped else _UNITS
        prev = 0
        for slot, anchor in enumerate(anchors):
            span = anchor - prev
            divisors = [d * _UNITS for d in range(1, span + 1) if span % d == 0]
            if rung > _UNITS:
                rung = max(d for d in divisors if d <= rung)
            position = 0
            while position < span * _UNITS:
                h = dt_pde * (rung / _UNITS)
                if damped:
                    # a pair of implicit-Euler half steps, the source
                    # refreshed at the midpoint
                    prop = _propagator(generator, h)
                    for _ in range(2):
                        if source_fn is not None:
                            source_fn(state, scratch[0])
                        state = prop.step_be_half(state, None if source_fn is None else scratch[0])
                    damped, lin = damped - 1, None
                    position += rung
                    if not damped:
                        rung = _UNITS >> _RAMP_DEPTH
                    err = 0.0
                else:
                    allowed = _START_TOL * tol if rung < _UNITS else tol * h
                    # a step of dt_pde is taken whatever its estimate says,
                    # so the estimate is not filtered there
                    if lin is None:
                        lin = generator.matrix @ state
                    new, new_lin, err, lip = _propagator(generator, _GAMMA * h).step_trbdf2(
                        state, lin, allowed, source_fn, triangular, scratch, rung != _UNITS
                    )
                    if rung < _UNITS and err > allowed:
                        shrink = max(_MAX_SHRINK, _SAFETY * (allowed / err) ** (1 / 3))
                        rung >>= max(1, math.ceil(-math.log2(shrink)))
                        continue
                    if rung > _UNITS and (err > allowed or h * lip > _SOURCE_STEP):
                        # back to the longest aligned step that fits, at least dt_pde
                        fit = rung * min(
                            math.sqrt(_SAFETY * allowed / err) if err > 0 else math.inf,
                            _SOURCE_STEP / (h * lip) if lip > 0 else math.inf,
                        )
                        rung = max(d for d in divisors if d <= max(fit, _UNITS) and position % d == 0)
                        continue
                    state, lin = new, new_lin
                    time_error += err
                    position += rung
                    if rung < _UNITS:
                        if position % (2 * rung) == 0 and (err == 0 or _SAFETY * (allowed / err) ** (1 / 3) >= 2):
                            rung *= 2
                    else:
                        longer = next((d for d in divisors if d >= 2 * rung), None)
                        if (
                            longer is not None
                            and position % longer == 0
                            and err * (longer / rung) ** 2 <= _SAFETY * tol * h
                            and dt_pde * (longer / _UNITS) * lip <= _SOURCE_STEP
                        ):
                            rung = longer
                if guard is not None:
                    guard(state, dt_pde * (prev + position / _UNITS))
            stored[:, slot] = state.T
            prev = anchor
        return stored, time_error


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
    (n, k) block of fields, by ``Propagator.march`` at the tolerance of
    ``dt_pde``; t must be a whole number of steps ``dt_pde``."""
    g = np.asarray(g)
    stored, _err = Propagator.march(generator, dt_pde, g.reshape(len(g), -1), t, None, smooth_start=smooth_start)
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
    sym = _symmetrized(matrix, rho, 1e-8)
    if sym is not None:
        vals = sla.eigh_tridiagonal(*sym, select="i", select_range=(n - k, n - 1))[0]
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


# the eigenpair polish stops when the Rayleigh quotient moves by less than
# _EIGEN_TOL (relative) and the residual |A v - lambda v| of the unit
# vector is below _EIGEN_TOL too, or no longer falls (its rounding floor);
# a vector stopped at a residual of 1e-5 was off by 2.4e-6 on
# critical_constant, whose Theta0 is constant
_EIGEN_TOL, _EIGEN_MAX_STEPS = 1e-10, 200


def _inverse_iteration(matrix, lu, shift, v0, transpose=False):
    """Shifted inverse power iteration with ``lu``, the SuperLU factor of
    matrix - shift I, on the matrix or (``transpose``) its transpose;
    returns (eigenvalue, vector)."""
    A = matrix.T if transpose else matrix
    trans = "T" if transpose else "N"
    v = np.asarray(v0, dtype=float)
    v = v / np.linalg.norm(v)
    lam, residual = shift, math.inf
    for _ in range(_EIGEN_MAX_STEPS):
        w = lu.solve(v, trans=trans)
        w_norm = np.linalg.norm(w)
        if not np.isfinite(w_norm) or w_norm == 0:
            raise EigenSolverError("inverse iteration diverged")
        v_new = w / w_norm
        if np.dot(v_new, v) < 0:
            v_new = -v_new
        Av = A @ v_new
        lam_new = float(np.dot(v_new, Av))
        residual, last = float(np.linalg.norm(Av - lam_new * v_new)), residual
        converged = abs(lam_new - lam) < _EIGEN_TOL * max(1.0, abs(lam_new)) and (
            residual < _EIGEN_TOL or residual > 0.5 * last
        )
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
    shifted inverse power iteration to ``_EIGEN_TOL`` on the Rayleigh quotient
    and the residual, and mu0 comes from the matching left eigenvector.
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
    # one factor serves both vectors: the left one solves with its transpose
    lu = spla.splu((L - shift * sp.identity(L.shape[0])).tocsc())
    lam_r, theta = _inverse_iteration(L, lu, shift, v0)
    if np.sum(theta) < 0:
        theta = -theta
    if np.min(theta) < -1e-8 * np.max(np.abs(theta)):
        raise EigenSolverError("principal eigenfunction is not positive")
    theta = np.clip(theta, 0.0, None)
    theta = theta / np.max(theta)

    lam_l, left = _inverse_iteration(L, lu, shift, v0, transpose=True)
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
    at t = 0.5, 1, 2, 4, by one block march at the tolerance of ``dt_pde``
    (which must divide 0.5)."""
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
    store = [_whole_steps(t, dt_pde) for t in times]
    stored, _err = Propagator.march(generator, dt_pde, np.column_stack(tests), times[-1], store, smooth_start=True)
    H = 0.0
    for g, slices in zip(tests, stored):
        gn = np.max(np.abs(g))
        pi_g = spectral.theta0 * spectral.mu0_integral(g)
        for t, u in zip(times, slices):
            dev = np.max(np.abs(np.exp(spectral.lambda0 * t) * u - pi_g))
            H = max(H, float(np.exp(spectral.gap * t) * dev / gn))
    return H


# the edge-decay check's time, edge share and pass line
_EDGE_T, _EDGE_FRACTION, _EDGE_THRESHOLD = 1.0, 0.05, 1e-3


def hp4_edge_decay(generator, dt_pde):
    """Check that P_t 1 decays at the grid edges (C_b -> C_0 behaviour) by
    t = ``_EDGE_T``.

    Passes when the max of P_t 1 over the outer ``_EDGE_FRACTION`` of nodes
    is below ``_EDGE_THRESHOLD`` times the interior max.
    """
    n = generator.grid.n_points
    k = max(1, int(_EDGE_FRACTION * n))
    u = evolve_P(np.ones(n), _EDGE_T, generator, dt_pde=dt_pde, smooth_start=True)
    interior = float(np.max(u[k:-k]))
    edge = float(max(np.max(u[:k]), np.max(u[-k:])))
    passed = bool(edge <= _EDGE_THRESHOLD * interior)
    return {
        "t": _EDGE_T,
        "edge_max": edge,
        "interior_max": interior,
        "ratio": edge / interior if interior > 0 else math.inf,
        "threshold": _EDGE_THRESHOLD,
        "passed": passed,
    }
