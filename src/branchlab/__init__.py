"""branchlab: simulation and grid numerics for branching Markov processes.

The package pairs a time-stepped particle simulator for measure-valued
birth/death processes (first-order accurate in dt) with grid solvers for
the associated Feynman-Kac semigroup, moment recursions and survival
equations, plus statistical verification of the critical / subcritical /
supercritical long-time limits at desk scale.
"""

__version__ = "0.1.0"

from .curves import Curve, curve_from_config
from .grid import Grid
from .model import (
    DIFFUSION,
    DIFFUSION_JUMPS,
    DRIFTED_JUMP,
    DynamicsSpec,
    JumpKernel,
    RateModel,
    ell_and_rho,
    potential,
    validate_hypotheses,
)

__all__ = [
    "Curve",
    "curve_from_config",
    "Grid",
    "RateModel",
    "DynamicsSpec",
    "JumpKernel",
    "potential",
    "ell_and_rho",
    "validate_hypotheses",
    "DIFFUSION",
    "DIFFUSION_JUMPS",
    "DRIFTED_JUMP",
    "__version__",
]
