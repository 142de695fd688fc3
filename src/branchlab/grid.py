"""Uniform evaluation grid shared by the generator, solvers and scans."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "whole_steps"]


def whole_steps(t, dt):
    """The number of steps dt in time t; a ValueError unless t is a
    nonnegative whole number of them, to 1e-9 relative."""
    n = int(round(t / dt))
    if t < 0 or abs(n * dt - t) > 1e-9 * max(1.0, t):
        raise ValueError(f"time {t:g} is not a nonnegative whole number of steps {dt:g}")
    return n


@dataclass(frozen=True)
class Grid:
    x_min: float
    x_max: float
    n_points: int
    boundary: str = "absorbing"  # absorbing | reflecting
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError("grid needs at least 3 nodes")
        if not self.x_min < self.x_max:
            raise ValueError("grid needs x_min < x_max")
        if self.boundary not in ("absorbing", "reflecting"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(
            self, "nodes", np.linspace(self.x_min, self.x_max, self.n_points)
        )

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def to_config(self):
        return {
            "x_min": self.x_min,
            "x_max": self.x_max,
            "n_points": self.n_points,
            "boundary": self.boundary,
        }

    @classmethod
    def from_config(cls, cfg):
        return cls(**cfg)
