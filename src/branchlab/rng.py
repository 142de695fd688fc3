"""Counter-based splittable random streams.

Every particle lineage owns a 64-bit stream key.  A draw is a pure function
of ``(key, step, channel)``, so results are bit-reproducible regardless of
how particles are batched, ordered or scheduled.  Child lineages get fresh
keys derived from the parent key and the birth step, which is the
split-on-branch contract the simulator relies on.

The underlying generator is the SplitMix64 output function applied to the
key/counter mix; for a fixed key and increasing counter this walks the
SplitMix64 sequence, which is statistically solid at the scales used here.
All operations are vectorized over numpy uint64 arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "mix64",
    "uniform",
    "normal",
    "spawn_keys",
    "root_key",
    "CH_EVENT",
    "CH_MOVE",
    "CH_JUMP_SIZE",
    "CH_SPAWN",
    "CH_MOVE2",
]

# SplitMix64 constants as Python ints (for the per-call salt) and as uint64
_GAMMA_INT = 0x9E3779B97F4A7C15
_M1_INT = 0xBF58476D1CE4E5B9
_M2_INT = 0x94D049BB133111EB
_STEP_STRIDE_INT = 0x2545F4914F6CDD1D  # odd, decorrelates step from channel
_MASK64 = (1 << 64) - 1
_GAMMA, _M1, _M2, _STEP_STRIDE = (
    np.uint64(c) for c in (_GAMMA_INT, _M1_INT, _M2_INT, _STEP_STRIDE_INT)
)

# draw channels within one simulation step
CH_EVENT = 0  # branch/death/thinning uniform
CH_MOVE = 1  # diffusion noise / jump acceptance
CH_JUMP_SIZE = 2  # jump displacement draw
CH_SPAWN = 3  # child key derivation
CH_MOVE2 = 4  # continuous-move noise in the jump variants


def mix64(z):
    """SplitMix64 finalizer (vectorized, uint64 in / uint64 out)."""
    return _unwrap(_mix_inplace(np.array(z, dtype=np.uint64)))


def _unwrap(a):
    """A 0-d result as a numpy scalar, as plain numpy arithmetic returns it."""
    return a[()] if a.ndim == 0 else a


def _mix_inplace(z):
    """The SplitMix64 finalizer applied in place to the uint64 array ``z``
    (array arithmetic wraps modulo 2^64 without a warning)."""
    t = np.empty_like(z)
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= mult
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _salt(step, channel):
    """``mix64(step * STRIDE + channel * GAMMA + GAMMA)`` in Python ints
    masked to 64 bits: about 1 us, where the same arithmetic on numpy
    scalars under ``np.errstate`` costs ~17 us per draw call."""
    z = (int(step) * _STEP_STRIDE_INT + int(channel) * _GAMMA_INT + _GAMMA_INT) & _MASK64
    z = ((z ^ (z >> 30)) * _M1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _M2_INT) & _MASK64
    return np.uint64(z ^ (z >> 31))


def _raw(keys, step, channel):
    keys = np.asarray(keys, dtype=np.uint64)
    # pre-mix the counter so consecutive steps never feed the output
    # mixer with low-entropy Weyl increments (a known weak-gamma trap);
    # a new array (0-d for a scalar key): the caller's keys stay untouched
    state = np.bitwise_xor(keys, _salt(step, channel), out=np.empty_like(keys))
    state += _GAMMA
    return _mix_inplace(state)


def uniform(keys, step, channel):
    """Uniform draws on (0, 1), one per key."""
    bits = _raw(keys, step, channel)
    bits >>= np.uint64(11)
    # 53-bit mantissa, offset by half an ulp so 0 is excluded: (bits + 0.5)
    # * 2^-53, rounded once either way, since scaling by 2^-53 is exact
    out = np.multiply(bits, 2.0**-53, out=np.empty(bits.shape))
    out += 2.0**-54
    return _unwrap(out)


def normal(keys, step, channel):
    """Standard normal draws via the inverse CDF, one per key."""
    u = np.asarray(uniform(keys, step, channel))
    return _unwrap(ndtri(u, out=u))


def spawn_keys(parent_keys, step):
    """Derive fresh, independent child keys at a branch event."""
    return _unwrap(_raw(parent_keys, step, CH_SPAWN))


def root_key(seed, index=0):
    """Key for lineage ``index`` of the replica ensemble seeded by ``seed``.

    The seed is mixed before the index is folded in, so different seeds
    give unrelated key sequences rather than shifted copies of one.
    """
    with np.errstate(over="ignore"):
        base = mix64(np.uint64(seed) + _GAMMA)
        state = base + _GAMMA * np.asarray(index, dtype=np.uint64)
    return mix64(state)
