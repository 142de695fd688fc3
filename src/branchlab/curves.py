"""Parametric curve families used for rates, drifts and potentials.

Curves are closed parametric families (plus a table-interpolated escape
hatch) so that every model is reproducible from a JSON config without
embedded code.  A curve is a callable ``c(x)`` accepting scalars or numpy
arrays, with an optional analytic derivative for the families where one
exists.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Curve", "make_curve", "curve_from_config"]


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


def _gaussian_bump(amp, c, w, base):
    """amp * exp(-(x - c)^2 / (2 w^2)) + base with up to two numpy passes
    fewer than the literal formula and the same values: x - 0.0 is x for
    every x, and negating the divisor instead of the dividend flips the sign
    of a correctly rounded quotient exactly (only a NaN's sign bit differs)."""
    divisor = -(2.0 * w * w)

    def fn(x):
        d = np.asarray(x, dtype=float)
        if c != 0.0:
            d = d - c
        return amp * np.exp(np.square(d) / divisor) + base

    return fn


class Curve:
    """A named parametric curve on the real line.

    Supported families:

    - ``constant``:        value
    - ``polynomial``:      coeffs [c0, c1, ...] -> c0 + c1 x + c2 x^2 + ...
    - ``gaussian-bump``:   amplitude * exp(-(x-center)^2 / (2 width^2)) + baseline
    - ``rational-bump``:   amplitude / (1 + ((x-center)/width)^2) + baseline
    - ``abs-linear``:      offset + slope * |x - center|
    - ``table``:           monotone cubic (PCHIP) through (xs, ys), clamped
                           to the end values outside the table range
    """

    def __init__(self, family, params):
        self.family = family
        self.params = dict(params)
        self._build()

    def _build(self):
        p = self.params
        f = self.family
        if f == "constant":
            v = float(p["value"])
            self._fn = lambda x: np.full_like(np.asarray(x, dtype=float), v)
            self._deriv = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        elif f == "polynomial":
            coeffs = np.asarray(p["coeffs"], dtype=float)
            if coeffs.ndim != 1 or len(coeffs) == 0:
                raise ValueError("polynomial curve needs a non-empty 1-d coeffs list")
            self._fn = _horner(coeffs)
            self._deriv = _horner(np.polynomial.polynomial.polyder(coeffs))
        elif f == "gaussian-bump":
            amp = float(p["amplitude"])
            c = float(p.get("center", 0.0))
            w = float(p["width"])
            base = float(p.get("baseline", 0.0))
            self._fn = _gaussian_bump(amp, c, w, base)
            self._deriv = lambda x: (
                amp
                * np.exp(-((np.asarray(x, dtype=float) - c) ** 2) / (2.0 * w * w))
                * (-(np.asarray(x, dtype=float) - c) / (w * w))
            )
        elif f == "rational-bump":
            amp = float(p["amplitude"])
            c = float(p.get("center", 0.0))
            w = float(p.get("width", 1.0))
            base = float(p.get("baseline", 0.0))

            def fn(x, amp=amp, c=c, w=w, base=base):
                u = (np.asarray(x, dtype=float) - c) / w
                return amp / (1.0 + u * u) + base

            def deriv(x, amp=amp, c=c, w=w):
                u = (np.asarray(x, dtype=float) - c) / w
                return -amp * 2.0 * u / (w * (1.0 + u * u) ** 2)

            self._fn = fn
            self._deriv = deriv
        elif f == "abs-linear":
            off = float(p.get("offset", 0.0))
            slope = float(p["slope"])
            c = float(p.get("center", 0.0))
            self._fn = lambda x: off + slope * np.abs(np.asarray(x, dtype=float) - c)
            # kink at the center; the sign convention there is irrelevant for scans
            self._deriv = lambda x: slope * np.sign(np.asarray(x, dtype=float) - c)
        elif f == "table":
            xs = np.asarray(p["xs"], dtype=float)
            ys = np.asarray(p["ys"], dtype=float)
            if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
                raise ValueError("table curve needs matching 1-d xs/ys with >= 2 points")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("table xs must be strictly increasing")
            # imported here: no shipped config uses a table curve, and
            # scipy.interpolate costs every process ~0.8 s at start-up
            from scipy.interpolate import PchipInterpolator

            interp = PchipInterpolator(xs, ys, extrapolate=False)
            dinterp = interp.derivative()
            lo, hi = ys[0], ys[-1]

            def fn(x, interp=interp, xs=xs, lo=lo, hi=hi):
                x = np.asarray(x, dtype=float)
                out = interp(x)
                out = np.where(x < xs[0], lo, out)
                out = np.where(x > xs[-1], hi, out)
                return out

            def deriv(x, dinterp=dinterp, xs=xs):
                x = np.asarray(x, dtype=float)
                out = dinterp(x)
                out = np.where((x < xs[0]) | (x > xs[-1]), 0.0, out)
                return out

            self._fn = fn
            self._deriv = deriv
        else:
            raise ValueError(f"unknown curve family {f!r}")

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


def make_curve(family, **params):
    return Curve(family, params)


def constant(value):
    return Curve("constant", {"value": value})


def curve_from_config(cfg):
    """Build a Curve from a ``{"family": ..., "params": {...}}`` mapping.

    A bare finite number is accepted as shorthand for a constant curve.
    """
    if isinstance(cfg, (int, float)) and not isinstance(cfg, bool) and np.isfinite(cfg):
        return constant(float(cfg))
    if isinstance(cfg, Curve):
        return cfg
    if not isinstance(cfg, dict) or "family" not in cfg or not set(cfg) <= {"family", "params"}:
        raise ValueError(f"curve config must be a finite number or a {{family, params}} mapping; got {cfg!r}")
    return Curve(cfg["family"], cfg.get("params", {}))
