import warnings

import numpy as np
import pytest
from scipy import stats

from branchlab import rng


def test_deterministic():
    k = rng.root_key(42, np.arange(10))
    u1 = rng.uniform(k, 5, rng.CH_EVENT)
    u2 = rng.uniform(k, 5, rng.CH_EVENT)
    assert np.array_equal(u1, u2)


def test_channels_and_steps_differ():
    k = rng.root_key(1, np.arange(100))
    a = rng.uniform(k, 3, rng.CH_EVENT)
    b = rng.uniform(k, 3, rng.CH_MOVE)
    c = rng.uniform(k, 4, rng.CH_EVENT)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_open_unit_interval():
    u = rng.uniform(rng.root_key(7, np.arange(200_000)), 0, 0)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniformity_ks():
    u = np.concatenate(
        [rng.uniform(rng.root_key(11, np.arange(5000)), s, rng.CH_EVENT) for s in range(20)]
    )
    assert stats.kstest(u, "uniform").pvalue > 1e-4


def test_normal_moments():
    z = rng.normal(rng.root_key(3, np.arange(400_000)), 9, rng.CH_MOVE)
    n = len(z)
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_tail_probability_unbiased():
    # the simulator's exact access pattern: fixed keys, advancing step
    hits, n = 0, 0
    keys = rng.root_key(99, np.arange(100_000))
    for s in range(100):
        u = rng.uniform(keys, s, rng.CH_MOVE)
        hits += int((u < 0.02).sum())
        n += len(u)
    z = (hits / n - 0.02) / np.sqrt(0.02 * 0.98 / n)
    assert abs(z) < 4.0


def test_spawn_keys_independent():
    parents = rng.root_key(5, np.arange(50_000))
    children = rng.spawn_keys(parents, 17)
    assert len(np.intersect1d(parents, children)) == 0
    u_p = rng.uniform(parents, 20, 0)
    u_c = rng.uniform(children, 20, 0)
    assert abs(np.corrcoef(u_p, u_c)[0, 1]) < 0.02


def test_seeds_decorrelated():
    a = rng.uniform(rng.root_key(1, np.arange(10_000)), 0, 0)
    b = rng.uniform(rng.root_key(2, np.arange(10_000)), 0, 0)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
    assert not np.any(a == b)


def test_uniform_bounds_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), step=st.integers(0, 10**6), ch=st.integers(0, 4))
    def check(seed, step, ch):
        u = rng.uniform(rng.root_key(seed, np.arange(16)), step, ch)
        assert np.all((u > 0.0) & (u < 1.0))
        again = rng.uniform(rng.root_key(seed, np.arange(16)), step, ch)
        assert np.array_equal(u, again)

    check()


@pytest.mark.parametrize("step", [0, 1, 2**32, 2**63 - 1])
def test_python_int_salt_matches_numpy_mix64(step):
    for channel in range(5):
        with np.errstate(over="ignore"):
            ctr = np.uint64(step) * rng._STEP_STRIDE + np.uint64(channel) * rng._GAMMA
            want = rng.mix64(ctr + rng._GAMMA)
        assert rng._salt(step, channel) == want


def test_draws_raise_no_warnings():
    keys = rng.root_key(5, np.arange(64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (keys, keys[3]):  # arrays and scalar keys
            for step in (0, 2**63 - 1):
                rng.uniform(k, step, rng.CH_EVENT)
                rng.normal(k, step, rng.CH_MOVE)
                rng.spawn_keys(k, step)


def test_uniform_is_the_half_ulp_offset_mantissa():
    keys = np.concatenate([rng.root_key(9, np.arange(50_000)), np.array([0, 2**64 - 1], dtype=np.uint64)])
    for step in (0, 7, 2**40):
        bits = rng._raw(keys, step, rng.CH_MOVE) >> np.uint64(11)
        want = (bits.astype(np.float64) + 0.5) * 2.0**-53
        got = rng.uniform(keys, step, rng.CH_MOVE)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    edges = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    want = (edges.astype(np.float64) + 0.5) * 2.0**-53
    got = np.multiply(edges, 2.0**-53) + 2.0**-54  # the route uniform takes
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
