"""Single-particle trait dynamics: Euler-Maruyama steps and thinned jumps.

The three dynamics classes share one fixed-step scheme:

- diffusion:        x -> x - a(x) dt + sqrt(dt) * N(0,1)
- diffusion-jumps:  with probability Rbar(x) dt a jump from R(x,.)/Rbar(x)
                    replaces the diffusion step
- drifted-jump:     x -> x + dt between jumps (exact translation, no
                    discretization error in the drift)

Jump thinning requires sup Rbar * dt <= 0.1 so the neglected double-jump
probability stays O(dt^2) below statistical noise.  All step functions are
stateless; randomness comes from the counter-based streams in ``rng``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .model import DRIFTED_JUMP

__all__ = ["PathSegment", "step_diffusion", "step_with_jumps", "move", "sample_path", "THINNING_CAP"]

THINNING_CAP = 0.1


class ConfigurationError(ValueError):
    pass


@dataclass
class PathSegment:
    """A sampled trajectory piece: aligned times/states plus jump flags."""

    times: np.ndarray
    states: np.ndarray
    jumped: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.jumped = np.asarray(self.jumped, dtype=bool)

    @property
    def t_start(self):
        return float(self.times[0])

    @property
    def t_end(self):
        return float(self.times[-1])

    def state_at(self, t):
        """State at time t by previous-value lookup (cadlag convention)."""
        i = np.searchsorted(self.times, t, side="right") - 1
        return float(self.states[max(i, 0)])


def step_diffusion(x, dt, noise, a):
    """One Euler-Maruyama step of dX = dB - a(X) dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return x - a(x) * dt + np.sqrt(dt) * noise


def check_cap(rate_sup, dt, what):
    """Require ``rate_sup * dt <= THINNING_CAP``: the per-step probability of
    the events ``rate_sup`` bounds stays small enough that two in one step
    are an O(dt^2) error.  ``what`` names the rate in the error."""
    if rate_sup * dt > THINNING_CAP + 1e-12:
        raise ConfigurationError(
            f"dt * ({what}) = {rate_sup * dt:.3g} exceeds {THINNING_CAP}; "
            f"reduce dt below {THINNING_CAP / rate_sup:.3g}"
        )


def check_thinning_cap(dyn, dt, scan_radius=50.0):
    if dyn.has_jumps:
        xs = np.linspace(-scan_radius, scan_radius, 1001)
        check_cap(float(np.max(dyn.jump.total_mass(xs))), dt, "sup Rbar")


def move(x, keys, step, dt, dyn):
    """One dynamics step for every particle of the 1-d arrays ``x`` and
    ``keys``; returns (new traits, jump flags), the flags None without jumps.

    The single particle-step routine of the package: paths, the ensemble
    and the coupled Yule process all move through it.  With jumps, a
    particle jumps with probability Rbar(x) dt to x + z, z ~ R(x, .)/Rbar(x),
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


def step_with_jumps(x, dt, key, step_index, dyn):
    """One thinned step of a jump variant; returns (new state, jumped flag).

    With probability Rbar(x) dt the particle jumps to z ~ R(x,.)/Rbar(x);
    otherwise it takes the continuous step (diffusion or x + dt).
    Vectorized over x/key arrays.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, key = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(key, dtype=np.uint64))
    check_cap(float(np.max(dyn.jump.total_mass(x), initial=0.0)), dt, "Rbar(x)")
    out, jumped = move(x.ravel(), key.ravel(), step_index, dt, dyn)
    if x.ndim == 0:
        return float(out[0]), bool(jumped[0])
    return out.reshape(x.shape), jumped.reshape(x.shape)


def sample_path(x0, t_end, dt, dyn, seed):
    """Sample one trajectory on [0, t_end] with fixed step dt.

    Deterministic given (seed, dt); the final time equals t_end exactly
    (the last step is shortened).  Returns a PathSegment.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    check_thinning_cap(dyn, dt)
    keys = np.atleast_1d(rng.root_key(seed))
    n_full = int(np.floor(t_end / dt + 1e-12))
    steps = [(s, dt) for s in range(n_full)]
    rem = t_end - n_full * dt
    if rem > 1e-12 * max(1.0, t_end):
        steps.append((n_full, rem))  # the shortened last step
    times = [0.0]
    states = [float(x0)]
    flags = [False]
    x = np.array([float(x0)])
    for step, h in steps:
        x, jumped = move(x, keys, step, h, dyn)
        times.append((step + 1) * dt)
        states.append(float(x[0]))
        flags.append(jumped is not None and bool(jumped[0]))
    times[-1] = t_end
    return PathSegment(times, states, flags)
