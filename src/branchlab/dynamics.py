"""Single-particle trait dynamics: Euler-Maruyama steps and thinned jumps.

The three dynamics classes share one fixed-step scheme:

- diffusion:        x -> x - a(x) dt + sqrt(dt) * N(0,1)
- diffusion-jumps:  with probability Rbar(x) dt a jump from R(x,.)/Rbar(x)
                    replaces the diffusion step
- drifted-jump:     x -> x + dt, unless a jump from R(x,.)/Rbar(x), taken
                    with probability Rbar(x) dt, replaces the translation

The scheme is not exact in distribution.  At most one event happens per
step, and in the particle system a particle that branches, dies or jumps in
a step takes no continuous move in that step: for drifted-jump it loses dt
of drift at every event.  Both errors are first order in dt.  Jump thinning
requires sup Rbar * dt <= 0.1 so the neglected double-jump probability
stays O(dt^2).  The step is stateless; randomness comes from the
counter-based streams in ``rng``.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .model import DRIFTED_JUMP

__all__ = ["ConfigurationError", "THINNING_CAP", "check_cap", "move"]

THINNING_CAP = 0.1


class ConfigurationError(ValueError):
    pass


def check_cap(rate_sup, dt, what):
    """Require ``rate_sup * dt <= THINNING_CAP``: the per-step probability of
    the events ``rate_sup`` bounds stays small enough that two in one step
    are an O(dt^2) error.  ``what`` names the rate in the error."""
    if rate_sup * dt > THINNING_CAP + 1e-12:
        raise ConfigurationError(
            f"dt * ({what}) = {rate_sup * dt:.3g} exceeds {THINNING_CAP}; "
            f"reduce dt below {THINNING_CAP / rate_sup:.3g}"
        )


def move(x, keys, step, dt, dyn):
    """One dynamics step for every particle of the 1-d arrays ``x`` and
    ``keys``; returns (new traits, jump flags), the flags None without jumps.

    The one particle-step routine of the package: the particle system's
    step kernel moves its particles through it.  With jumps, a particle jumps with probability Rbar(x) dt to x + z, z ~ R(x, .)/Rbar(x),
    and otherwise takes the continuous step (diffusion or x + dt).  Jump
    sizes are drawn for the jumping particles only; a draw depends on
    (key, step, channel) alone, so drawing for a subset changes no value.
    """
    if dyn.variant == DRIFTED_JUMP:
        out = x + dt
    else:
        noise = rng.normal(keys, step, rng.CH_MOVE2 if dyn.has_jumps else rng.CH_MOVE)
        noise *= np.sqrt(dt)
        out = x - dyn.a(x) * dt
        out += noise
    if not dyn.has_jumps:
        return out, None
    kernel = dyn.jump
    rate = np.asarray(kernel.total_mass(x), dtype=float)
    jumped = rng.uniform(keys, step, rng.CH_MOVE) < rate * dt
    jumpers = np.flatnonzero(jumped)
    if len(jumpers):
        u_size = rng.uniform(keys[jumpers], step, rng.CH_JUMP_SIZE)
        out[jumpers] = x[jumpers] + kernel.sample_displacement(u_size)
    return out, jumped
