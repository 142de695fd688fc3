"""Uniform evaluation grid shared by the generator, solvers and scans."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid"]


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
