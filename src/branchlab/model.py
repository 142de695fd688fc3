"""Rate models, trait dynamics specifications and hypothesis scans.

This module is the single source of truth the solvers and the simulator
read: birth/death rate curves with their declared supremum, the dynamics
variant (pure diffusion, diffusion with jumps, or unit-drift jump process)
with its drift and its uniform-window jump kernel, and numerical validation
of the standing hypotheses as grid scans.  The ``from_config`` constructors
take the blocks that ``config`` checked, whose curves are already
``Curve``s.  Hypothesis failures are data (a report), not exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve
from .grid import Grid

__all__ = [
    "RateModel",
    "JumpKernel",
    "DynamicsSpec",
    "ValidationReport",
    "HypothesisCheck",
    "potential",
    "ell_and_rho",
    "ell_values",
    "validate_hypotheses",
    "DIFFUSION",
    "DIFFUSION_JUMPS",
    "DRIFTED_JUMP",
    "NotApplicableError",
]

DIFFUSION = "diffusion"
DIFFUSION_JUMPS = "diffusion-jumps"
DRIFTED_JUMP = "drifted-jump"


class NotApplicableError(ValueError):
    """Raised when an operation does not apply to the dynamics variant."""


# ----------------------------------------------------------------------
# model types


@dataclass
class RateModel:
    """Birth rate b, death rate d and the declared supremum b_star of b.

    ``hd_constants`` declares (c, c_prime, radius) for the linear-growth
    check d(x) >= c|x| - c_prime outside |x| <= radius.
    """

    b: Curve
    d: Curve
    b_star: float
    hd_constants: dict = field(default_factory=dict)

    @classmethod
    def from_config(cls, cfg):
        """The model of a checked ``model`` block, whose curves are Curves."""
        return cls(b=cfg["b"], d=cfg["d"], b_star=cfg["b_star"], hd_constants=dict(cfg["hd"]))


class JumpKernel:
    """Jump measure R(y, dz) = rate(y) * Unif(y - width, y + width)(dz), the
    ``uniform-window`` family.

    ``rate`` is the total mass Curve; ``density_floor`` optionally declares
    (epsilon, k0) for the check R(x, dz) >= k0 on (x - epsilon, x + epsilon).
    """

    def __init__(self, family, rate, *, width=None, density_floor=None, m4=None):
        if family != "uniform-window":
            raise ValueError(f"unknown jump kernel family {family!r}")
        self.family = family
        self.rate = rate
        self.width = None if width is None else float(width)
        self.density_floor = None if density_floor is None else tuple(density_floor)
        if not self.width or self.width <= 0:
            raise ValueError("uniform-window kernel needs width > 0")
        self.m4_declared = m4

    def total_mass(self, y):
        return self.rate(y)

    def density_profile(self, u):
        """Unit-mass displacement density evaluated at displacements ``u``."""
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) < self.width, 1.0 / (2.0 * self.width), 0.0)

    def density(self, y, z):
        """R(y, z) density values; broadcasts y against z."""
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return np.asarray(self.rate(y)) * self.density_profile(z - y)

    def sample_displacement(self, u):
        """Displacement draw from the unit-mass profile given uniforms ``u``."""
        u = np.asarray(u, dtype=float)
        return self.width * (2.0 * u - 1.0)

    def m4_profile(self):
        """sup_y of the fourth-moment integrand per unit rate."""
        return 1.0 + self.width**4 / 5.0

    @classmethod
    def from_config(cls, cfg):
        return cls(**cfg)


@dataclass
class DynamicsSpec:
    """One of the three trait-dynamics classes plus hypothesis constants.

    - diffusion:        dX = dB - a(X) dt
    - diffusion-jumps:  diffusion plus jumps from kernel R
    - drifted-jump:     dX = +dt between jumps from kernel R

    ``ha_constants`` declares (C, beta, gamma) for the linear-growth checks
    on a and on l(x) = int_0^x a, and optionally ``a3_bound`` for the upper
    bound on a' - a^2.
    """

    variant: str
    a: Curve | None = None
    jump: JumpKernel | None = None
    ha_constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in (DIFFUSION, DIFFUSION_JUMPS, DRIFTED_JUMP):
            raise ValueError(f"unknown dynamics variant {self.variant!r}")
        if self.variant in (DIFFUSION, DIFFUSION_JUMPS) and self.a is None:
            raise ValueError(f"{self.variant} needs a drift curve a")
        if self.variant in (DIFFUSION_JUMPS, DRIFTED_JUMP) and self.jump is None:
            raise ValueError(f"{self.variant} needs a jump kernel")

    @property
    def has_drift_curve(self):
        return self.variant in (DIFFUSION, DIFFUSION_JUMPS)

    @property
    def has_jumps(self):
        return self.variant in (DIFFUSION_JUMPS, DRIFTED_JUMP)

    @classmethod
    def from_config(cls, cfg):
        return cls(
            variant=cfg["variant"],
            a=cfg.get("a"),
            jump=JumpKernel.from_config(cfg["jump"]) if "jump" in cfg else None,
            ha_constants=dict(cfg["ha"]),
        )


# ----------------------------------------------------------------------
# operations


def potential(model, x):
    """Growth rate V(x) = b(x) - d(x)."""
    return model.b(x) - model.d(x)


# 16-point Gauss-Legendre, the workhorse for the drift antiderivative
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X8, _GL_W8 = np.polynomial.legendre.leggauss(8)


def _gauss_panels(f, lo, hi, xg, wg):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * xg[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    return half * (vals @ wg)


def _gauss_adaptive(f, lo, hi, tol, max_depth=12):
    """Panel integrals of f over [lo_i, hi_i] with per-panel tolerance."""
    coarse = _gauss_panels(f, lo, hi, _GL_X8, _GL_W8)
    fine = _gauss_panels(f, lo, hi, _GL_X, _GL_W)
    out = np.array(fine)
    bad = np.abs(fine - coarse) > tol
    for i in np.nonzero(bad)[0]:
        if max_depth <= 0:
            continue
        mid = 0.5 * (lo[i] + hi[i])
        left = _gauss_adaptive(f, np.array([lo[i]]), np.array([mid]), tol / 2, max_depth - 1)
        right = _gauss_adaptive(f, np.array([mid]), np.array([hi[i]]), tol / 2, max_depth - 1)
        out[i] = left[0] + right[0]
    return out


_ELL_TOL = 1e-10  # per-interval tolerance of the drift antiderivative's quadrature


def ell_values(dyn, xs):
    """Antiderivative l(x) = int_0^x a(z) dz at the points ``xs``.

    Composite Gauss quadrature per interval; anchored so l(0) = 0 exactly
    (exactly at the node when 0 is a grid node).
    """
    if not dyn.has_drift_curve:
        raise NotApplicableError("drifted-jump dynamics has no drift curve a")
    xs = np.asarray(xs, dtype=float)
    a = dyn.a
    cell = _gauss_adaptive(a, xs[:-1], xs[1:], _ELL_TOL)
    ell = np.concatenate([[0.0], np.cumsum(cell)])
    zero_idx = np.nonzero(np.abs(xs) < 1e-14)[0]
    if len(zero_idx):
        anchor = ell[zero_idx[0]]
    else:
        # 0 off the grid: integrate from 0 to the nearest node
        j = int(np.argmin(np.abs(xs)))
        lo, hi = (0.0, xs[j]) if xs[j] >= 0 else (xs[j], 0.0)
        seg = float(_gauss_adaptive(a, np.array([lo]), np.array([hi]), _ELL_TOL)[0])
        anchor = ell[j] - seg if xs[j] >= 0 else ell[j] + seg
    return ell - anchor


def ell_and_rho(dyn, grid):
    """Drift antiderivative l on the grid and speed-measure weights.

    rho_i = exp(-2 l(x_i)) * dx are quadrature weights for the measure
    exp(-2 l(y)) dy; for zero drift they are all equal.
    """
    ell = ell_values(dyn, grid.nodes)
    rho = np.exp(-2.0 * ell) * grid.dx
    return ell, rho


# ----------------------------------------------------------------------
# hypothesis validation


@dataclass
class HypothesisCheck:
    name: str
    passed: bool
    witness: float | None = None
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "witness": None if self.witness is None else float(self.witness),
            "detail": self.detail,
        }


@dataclass
class ValidationReport:
    checks: list
    scan_radius: float

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "scan_radius": self.scan_radius,
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _scan_check(name, values, ok_mask, xs, detail_fmt):
    ok_mask = np.asarray(ok_mask)
    if ok_mask.all():
        return HypothesisCheck(name, True, None, "")
    i = int(np.argmax(~ok_mask))
    return HypothesisCheck(
        name, False, float(xs[i]), detail_fmt.format(x=xs[i], v=values[i])
    )


def validate_hypotheses(model, dyn, grid):
    """Grid-based sufficient scan of the standing hypotheses.

    These are numeric spot checks over the evaluation grid, not proofs;
    the report records the scan radius.  Deterministic and side-effect
    free for a fixed grid.
    """
    xs = grid.nodes
    checks = []
    b = model.b(xs)
    d = model.d(xs)

    checks.append(_scan_check("HV1-b-nonnegative", b, b >= 0, xs, "b({x:.4g}) = {v:.4g} < 0"))
    checks.append(_scan_check("HV1-d-nonnegative", d, d >= 0, xs, "d({x:.4g}) = {v:.4g} < 0"))
    checks.append(
        HypothesisCheck(
            "HV1-b-nonzero", bool(np.max(b) > 0), None, "" if np.max(b) > 0 else "b vanishes on the grid"
        )
    )
    checks.append(
        HypothesisCheck(
            "HV1-d-nonzero", bool(np.max(d) > 0), None, "" if np.max(d) > 0 else "d vanishes on the grid"
        )
    )

    finite = math.isfinite(model.b_star)
    slack = 1e-12 * max(1.0, abs(model.b_star))
    checks.append(
        _scan_check(
            "HV2-b-bounded",
            b,
            finite & (b <= model.b_star + slack),
            xs,
            "b({x:.4g}) = {v:.4g} exceeds declared b_star",
        )
    )

    hd = model.hd_constants
    c = float(hd.get("c", 0.0))
    c_prime = float(hd.get("c_prime", 0.0))
    radius = float(hd.get("radius", 0.0))
    outside = np.abs(xs) >= radius
    if c <= 0:
        checks.append(HypothesisCheck("HD-linear-growth", False, None, "declared growth constant c must be > 0"))
    else:
        target = c * np.abs(xs) - c_prime
        ok = ~outside | (d >= target - 1e-12)
        checks.append(_scan_check("HD-linear-growth", d, ok, xs, "d({x:.4g}) = {v:.4g} below c|x| - c'"))

    # eq H4 consequence: V <= -E|x| outside some x0, with E from declared constants
    V = b - d
    if c > 0:
        # d >= c|x| - c' and b <= b_star give V <= -(c/2)|x| once |x| >= x0
        x0 = max(radius, 2.0 * (model.b_star + c_prime + 1.0) / c)
        far = np.abs(xs) >= x0
        if far.any():
            ok = ~far | (V <= -0.5 * c * np.abs(xs) + 1e-12)
            checks.append(
                _scan_check("H4-potential-decay", V, ok, xs, "V({x:.4g}) = {v:.4g} not below -E|x|")
            )
        else:
            checks.append(
                HypothesisCheck(
                    "H4-potential-decay",
                    True,
                    None,
                    f"grid radius below derived x0 = {x0:.3g}; decay not exercised",
                )
            )

    ha = dyn.ha_constants
    if dyn.has_drift_curve:
        a = dyn.a(xs)
        C = float(ha.get("C", 0.0))
        checks.append(
            _scan_check(
                "HA1-drift-linear-growth",
                a,
                np.abs(a) <= C * (np.abs(xs) + 1.0) + 1e-12,
                xs,
                "|a({x:.4g})| = {v:.4g} exceeds C(|x|+1)",
            )
        )
        beta = float(ha.get("beta", 0.0))
        gamma = float(ha.get("gamma", 0.0))
        ell = ell_values(dyn, xs)
        checks.append(
            _scan_check(
                "HA2-ell-linear-growth",
                ell,
                np.abs(ell) <= gamma + beta * np.abs(xs) + 1e-12,
                xs,
                "|l({x:.4g})| = {v:.4g} exceeds gamma + beta|x|",
            )
        )
        a_prime = dyn.a.derivative(xs)
        g = a_prime - a * a
        bound = float(ha.get("a3_bound", np.inf))
        checks.append(
            _scan_check(
                "HA3-aprime-minus-a2-bounded",
                g,
                g <= bound + 1e-12,
                xs,
                "a'({x:.4g}) - a^2 = {v:.4g} exceeds declared bound",
            )
        )

    if dyn.has_jumps:
        k = dyn.jump
        rbar = np.asarray(k.total_mass(xs), dtype=float)
        checks.append(
            HypothesisCheck(
                "HJ1-total-mass-bounded",
                bool(np.all(np.isfinite(rbar)) and np.max(rbar) < np.inf),
                None,
                f"sup total mass on grid = {np.max(rbar):.4g}",
            )
        )
        m4_scan = float(np.max(rbar)) * k.m4_profile()
        m4_ok = math.isfinite(m4_scan)
        if k.m4_declared is not None:
            m4_ok = m4_ok and m4_scan <= float(k.m4_declared) * (1 + 1e-9)
        checks.append(
            HypothesisCheck(
                "HJ1-fourth-moment",
                m4_ok,
                None,
                f"scanned fourth-moment bound = {m4_scan:.4g}",
            )
        )
        if k.density_floor is not None:
            eps, k0 = k.density_floor
            # floor on the density over the window, at the grid points
            u = np.linspace(-eps * 0.999, eps * 0.999, 41)
            dens = np.asarray(k.rate(xs))[:, None] * k.density_profile(u)[None, :]
            floor = dens.min(axis=1)
            checks.append(
                _scan_check(
                    "HJ4-density-floor",
                    floor,
                    floor >= k0 - 1e-12,
                    xs,
                    "density floor {v:.4g} below k0 near x = {x:.4g}",
                )
            )

    return ValidationReport(checks=checks, scan_radius=float(max(abs(grid.x_min), abs(grid.x_max))))
