"""Parametric curve families used for rates, drifts and potentials.

Curves are closed parametric families, so that every model is
reproducible from a JSON config without embedded code.  ``FAMILIES`` holds
the four that the shipped configs use.  A curve is a callable ``c(x)``
accepting scalars or numpy arrays, with its analytic derivative.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Curve", "curve_from_config"]


def _horner(coeffs):
    """c0 + c1 x + c2 x^2 + ... by the Horner recurrence of numpy's
    ``polyval``, step for step, so the values are bit-identical to
    ``np.polynomial.Polynomial``; updates run in place on one array."""
    head, *rest = [float(c) for c in coeffs[::-1]]

    def fn(x):
        out = x * 0.0
        out += head
        for c in rest:
            out *= x
            out += c
        return out

    return fn


def _constant(p):
    v = float(p["value"])
    return (
        lambda x: np.full_like(np.asarray(x, dtype=float), v),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def _polynomial(p):
    coeffs = np.asarray(p["coeffs"], dtype=float)
    if coeffs.ndim != 1 or len(coeffs) == 0:
        raise ValueError("polynomial curve needs a non-empty 1-d coeffs list")
    return _horner(coeffs), _horner(np.polynomial.polynomial.polyder(coeffs))


def _gaussian_bump(p):
    """The curve amp * exp(-(x - c)^2 / (2 w^2)) + base, with up to two
    numpy passes fewer than the literal formula and the same values: x - 0.0
    is x for every x, and negating the divisor instead of the dividend flips
    the sign of a correctly rounded quotient exactly (only a NaN's sign bit
    differs); and its derivative."""
    amp = float(p["amplitude"])
    c = float(p.get("center", 0.0))
    w = float(p["width"])
    base = float(p.get("baseline", 0.0))
    divisor = -(2.0 * w * w)

    def fn(x):
        d = np.asarray(x, dtype=float)
        if c != 0.0:
            d = d - c
        return amp * np.exp(np.square(d) / divisor) + base

    def deriv(x):
        return (
            amp
            * np.exp(-((np.asarray(x, dtype=float) - c) ** 2) / (2.0 * w * w))
            * (-(np.asarray(x, dtype=float) - c) / (w * w))
        )

    return fn, deriv


def _abs_linear(p):
    off = float(p.get("offset", 0.0))
    slope = float(p["slope"])
    c = float(p.get("center", 0.0))
    return (
        lambda x: off + slope * np.abs(np.asarray(x, dtype=float) - c),
        # kink at the center; the sign convention there is irrelevant for scans
        lambda x: slope * np.sign(np.asarray(x, dtype=float) - c),
    )


# family name -> builder of (c, c') from the family's parameters:
#   constant       value
#   polynomial     coeffs [c0, c1, ...] -> c0 + c1 x + c2 x^2 + ...
#   gaussian-bump  amplitude * exp(-(x - center)^2 / (2 width^2)) + baseline
#   abs-linear     offset + slope * |x - center|
FAMILIES = {
    "constant": _constant,
    "polynomial": _polynomial,
    "gaussian-bump": _gaussian_bump,
    "abs-linear": _abs_linear,
}


class Curve:
    """A named parametric curve on the real line, of one of ``FAMILIES``."""

    def __init__(self, family, params):
        if family not in FAMILIES:
            raise ValueError(f"unknown curve family {family!r}")
        self.family = family
        self.params = dict(params)
        self._fn, self._deriv = FAMILIES[family](self.params)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self._fn(x)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        out = self._deriv(x)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def __repr__(self):
        return f"Curve({self.family!r}, {self.params!r})"


def constant(value):
    return Curve("constant", {"value": value})


def curve_from_config(cfg):
    """Build a Curve from a ``{"family": ..., "params": {...}}`` mapping.

    A bare finite number is accepted as shorthand for a constant curve.
    """
    if isinstance(cfg, (int, float)) and not isinstance(cfg, bool) and np.isfinite(cfg):
        return constant(float(cfg))
    if not isinstance(cfg, dict) or "family" not in cfg or not set(cfg) <= {"family", "params"}:
        raise ValueError(f"curve config must be a finite number or a {{family, params}} mapping; got {cfg!r}")
    return Curve(cfg["family"], cfg.get("params", {}))
