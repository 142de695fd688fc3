"""The blocked particle-step kernel against an unblocked reference step.

``_ReferenceEnsemble`` is the earlier, unblocked ensemble: mask the movers,
move them (drawing a jump size for every mover), scatter back, rebuild the
state with ``concatenate``.  Draws are pure functions of (key, step,
channel), so the blocked, in-place kernel must reproduce its outputs
exactly, for every block size.
"""

import math
import mmap
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab import DynamicsSpec, JumpKernel, RateModel, branching, rng
from branchlab.branching import CutoffSpec, simulate_ensemble
from branchlab.curves import Curve, constant
from branchlab.model import DRIFTED_JUMP

from .conftest import make_constant_model

OU = Curve("polynomial", {"coeffs": [0.0, 1.0]})
BUMP_B = Curve("gaussian-bump", {"amplitude": 1.2, "width": 1.5})
QUAD_D = Curve("polynomial", {"coeffs": [0.1, 0.0, 0.5]})

DIFFUSION = DynamicsSpec(variant="diffusion", a=OU)
JUMPS = DynamicsSpec(
    variant="diffusion-jumps", a=OU, jump=JumpKernel("uniform-window", constant(0.5), width=1.0)
)
DRIFTED = DynamicsSpec(variant="drifted-jump", jump=JumpKernel("uniform-window", constant(1.0), width=2.0))
SUPER = RateModel(b=BUMP_B, d=QUAD_D, b_star=1.2)
DRIFTED_MODEL = RateModel(
    b=Curve("gaussian-bump", {"amplitude": 1.6, "width": 2.0}),
    d=Curve("abs-linear", {"offset": 0.2, "slope": 0.6}),
    b_star=1.6,
)
FUNCTIONALS = {"x": lambda a: a, "bump": lambda a: np.exp(-0.5 * a * a)}


def _reference_move(x, keys, step, dt, dyn):
    if dyn.has_jumps:
        kernel = dyn.jump
        rate = np.asarray(kernel.total_mass(x), dtype=float)
        jumped = rng.uniform(keys, step, rng.CH_MOVE) < rate * dt
        u_size = rng.uniform(keys, step, rng.CH_JUMP_SIZE)
        z_jump = x + kernel.sample_displacement(u_size)
        if dyn.variant == DRIFTED_JUMP:
            z_cont = x + dt
        else:
            z_cont = x - dyn.a(x) * dt + math.sqrt(dt) * rng.normal(keys, step, rng.CH_MOVE2)
        return np.where(jumped, z_jump, z_cont)
    return x - dyn.a(x) * dt + math.sqrt(dt) * rng.normal(keys, step, rng.CH_MOVE)


class _ReferenceEnsemble:
    def __init__(self, x0, seed, reps, rep_offset=0, reflect_at=None):
        self.reflect_at = reflect_at
        self.x = np.full(reps, float(x0))
        self.keys = rng.root_key(seed, rep_offset + np.arange(reps, dtype=np.uint64))
        self.rep = np.arange(reps, dtype=np.int64)
        self.pmax = np.abs(self.x)
        self.reps = reps
        self.repmax = np.abs(self.x).copy()

    def replica_counts(self):
        return np.bincount(self.rep, minlength=self.reps)

    def replica_sums(self, weights):
        return np.bincount(self.rep, weights=weights, minlength=self.reps)

    def replica_max_abs(self):
        cur = self.repmax.copy()
        if len(self.x):
            np.maximum.at(cur, self.rep, self.pmax)
        return cur

    def step(self, step, dt, model, dyn, cutoff):
        if len(self.x) == 0:
            return
        x = self.x
        pb = np.asarray(model.b(x), dtype=float) * dt
        pd = np.asarray(cutoff.truncated_death(model, x), dtype=float) * dt
        u = rng.uniform(self.keys, step, rng.CH_EVENT)
        branch = u < pb
        die = (~branch) & (u < pb + pd)
        move = ~(branch | die)

        if np.any(move):
            x = x.copy()
            out = _reference_move(x[move], self.keys[move], step, dt, dyn)
            if self.reflect_at is not None:
                out = branching._reflect(out, self.reflect_at)
            x[move] = out
        self.x = x
        np.maximum(self.pmax, np.abs(self.x), out=self.pmax)

        if np.any(die):
            np.maximum.at(self.repmax, self.rep[die], self.pmax[die])

        if np.any(branch):
            child_keys = rng.spawn_keys(self.keys[branch], step)
            child_x = self.x[branch]
            child_rep = self.rep[branch]
            child_pmax = self.pmax[branch]
            keep = ~die
            self.x = np.concatenate([self.x[keep], child_x])
            self.keys = np.concatenate([self.keys[keep], child_keys])
            self.rep = np.concatenate([self.rep[keep], child_rep])
            self.pmax = np.concatenate([self.pmax[keep], child_pmax])
        elif np.any(die):
            keep = ~die
            self.x = self.x[keep]
            self.keys = self.keys[keep]
            self.rep = self.rep[keep]
            self.pmax = self.pmax[keep]


CASES = {
    "diffusion": dict(model=SUPER, dyn=DIFFUSION, x0=0.0, m=1.5),
    "diffusion-jumps": dict(model=SUPER, dyn=JUMPS, x0=0.3, m=1.5),
    "drifted-jump": dict(model=DRIFTED_MODEL, dyn=DRIFTED, x0=-1.0, m=3.0),
    "reflect": dict(model=make_constant_model(2.0, 1.0), dyn=JUMPS, x0=0.5, m=1.0, reflect_at=(-1.2, 1.4)),
}


# deaths at 9 per unit time: whole blocks die at small block sizes
DYING = dict(model=make_constant_model(0.5, 9.0), dyn=JUMPS, x0=0.2, m=1.0)


def _run(case, reps=40, t_end=2.0, seed=3, **kwargs):
    c = case if isinstance(case, dict) else CASES[case]
    kwargs.setdefault("record_traits_at", [t_end])
    return simulate_ensemble(
        c["x0"], t_end, 0.01, c["model"], c["dyn"], CutoffSpec(m=c["m"]), seed, reps,
        record_times=[0.0, 0.5, 1.0, t_end], functionals=FUNCTIONALS,
        reflect_at=c.get("reflect_at"), **kwargs,
    )


def _reference(monkeypatch, case, **kwargs):
    with monkeypatch.context() as mp:
        mp.setattr(branching, "_Ensemble", _ReferenceEnsemble)
        return _run(case, **kwargs)


def _assert_same(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.counts, b.counts)
    assert a.functionals.keys() == b.functionals.keys()
    for name in a.functionals:
        assert np.array_equal(a.functionals[name], b.functionals[name]), name
    assert np.array_equal(a.max_abs, b.max_abs)
    assert a.traits_at.keys() == b.traits_at.keys()
    for t, (rep, traits) in a.traits_at.items():
        rep_b, traits_b = b.traits_at[t]
        assert np.array_equal(rep, rep_b) and np.array_equal(traits, traits_b)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_unblocked_reference(monkeypatch, case):
    got = _run(case)
    assert got.counts[-1].sum() > got.reps  # births happened
    assert (got.max_abs[-1] > CASES[case]["m"]).any()  # so did cutoff exceedances
    _assert_same(got, _reference(monkeypatch, case))


def test_block_size_does_not_change_outputs(monkeypatch):
    default = _run("diffusion-jumps", reps=60)
    assert default.counts[-1].sum() > 20 * 7  # the population spans many blocks of 7
    monkeypatch.setattr(branching, "BLOCK", 7)
    _assert_same(_run("diffusion-jumps", reps=60), default)


@settings(max_examples=12, deadline=None)
@given(block=st.integers(1, 64), seed=st.integers(0, 2**32), case=st.sampled_from(sorted(CASES)))
def test_block_size_invariance_property(block, seed, case):
    default = _run(case, reps=6, t_end=1.0, seed=seed)
    old = branching.BLOCK
    branching.BLOCK = block
    try:
        blocked = _run(case, reps=6, t_end=1.0, seed=seed)
    finally:
        branching.BLOCK = old
    _assert_same(blocked, default)


@pytest.mark.parametrize("reps", [7, 8, 9])
def test_population_at_block_edges(monkeypatch, reps):
    monkeypatch.setattr(branching, "BLOCK", 8)
    _assert_same(_run("diffusion-jumps", reps=reps), _reference(monkeypatch, "diffusion-jumps", reps=reps))


def test_single_replica(monkeypatch):
    got = _run("diffusion", reps=1, seed=11)
    assert got.counts.shape == (4, 1)
    _assert_same(got, _reference(monkeypatch, "diffusion", reps=1, seed=11))


def test_zero_horizon():
    res = _run("diffusion", reps=5, t_end=0.0)
    assert np.array_equal(res.times, [0.0])
    assert np.all(res.counts == 1)
    assert np.all(res.max_abs == 0.0)


def test_extinction_mid_run(monkeypatch):
    model = make_constant_model(0.2, 1.5)
    kw = dict(record_times=[0.0, 1.0, 4.0, 8.0], functionals=FUNCTIONALS)
    res = simulate_ensemble(0.0, 8.0, 0.01, model, JUMPS, CutoffSpec(m=2.0), 5, 30, **kw)
    assert res.counts[1].sum() > 0 and res.counts[-1].sum() == 0
    assert np.array_equal(res.max_abs[-1], res.max_abs[-2])  # carried past extinction
    with monkeypatch.context() as mp:
        mp.setattr(branching, "_Ensemble", _ReferenceEnsemble)
        ref = simulate_ensemble(0.0, 8.0, 0.01, model, JUMPS, CutoffSpec(m=2.0), 5, 30, **kw)
    _assert_same(res, ref)


@settings(max_examples=8, deadline=None)
@given(lo=st.floats(-2.0, -0.2), width=st.floats(0.1, 3.0), seed=st.integers(0, 2**32))
def test_reflecting_grid_keeps_traits_inside(lo, width, seed):
    hi = lo + width
    times = [0.25, 0.5, 0.75, 1.0]
    res = simulate_ensemble(
        lo + 0.5 * width, 1.0, 0.01, make_constant_model(2.0, 1.0), JUMPS, CutoffSpec(m=10.0), seed, 8,
        record_times=times, record_traits_at=times, reflect_at=(lo, hi),
    )
    for _, traits in res.traits_at.values():
        assert np.all((traits >= lo) & (traits <= hi))


@pytest.mark.parametrize("dyn", [DIFFUSION, JUMPS, DRIFTED], ids=lambda d: d.variant)
def test_eventless_replica_is_sample_path(dyn):
    model = make_constant_model(0.0, 0.0)
    model.b_star = 0.1
    steps = [0, 1, 17, 100, 250]
    times = [s * 0.01 for s in steps]
    res = simulate_ensemble(
        0.4, 2.5, 0.01, model, dyn, CutoffSpec(m=50.0), 21, 1,
        record_times=times, record_traits_at=times,
    )
    keys = rng.root_key(21, np.arange(1, dtype=np.uint64))
    path = [np.array([0.4])]
    for s in range(250):
        path.append(_reference_move(path[-1], keys, s, 0.01, dyn))
    got = [res.traits_at[t][1][0] for t in res.times]
    assert got == [path[s][0] for s in steps]


def _spy_blocks(monkeypatch):
    """Record (block start, block length, write offset, survivors) per block."""
    seen = []
    step_block = branching._Ensemble._step_block

    def spy(self, lo, k, w, *args):
        out = step_block(self, lo, k, w, *args)
        seen.append((lo, k, w, out[0]))
        return out

    monkeypatch.setattr(branching._Ensemble, "_step_block", spy)
    return seen


def test_block_where_every_particle_dies(monkeypatch):
    monkeypatch.setattr(branching, "BLOCK", 2)
    seen = _spy_blocks(monkeypatch)
    got = _run(DYING, reps=60)
    assert any(k == 2 and kept == 0 for _, k, _, kept in seen)
    _assert_same(got, _reference(monkeypatch, DYING, reps=60))


def test_deathless_block_after_deaths_overlaps_its_copy(monkeypatch):
    monkeypatch.setattr(branching, "BLOCK", 8)
    seen = _spy_blocks(monkeypatch)
    got = _run("diffusion-jumps", reps=60)
    # no deaths in the block, moved down by less than its length
    assert any(kept == k and 0 < lo - w < k for lo, k, w, kept in seen)
    _assert_same(got, _reference(monkeypatch, "diffusion-jumps", reps=60))


def test_capacity_grows_mid_step(monkeypatch):
    monkeypatch.setattr(branching, "BLOCK", 8)
    growths = []
    put = branching._Rows.put

    def spy(self, at, rows):
        cap = len(self.cols["x"])
        if at + len(rows["x"]) > cap:
            growths.append(at > self.n)  # children of earlier blocks staged
        put(self, at, rows)

    monkeypatch.setattr(branching._Rows, "put", spy)
    got = _run("diffusion-jumps")
    assert len(growths) >= 3 and any(growths)
    _assert_same(got, _reference(monkeypatch, "diffusion-jumps"))


def test_trait_snapshot_survives_later_steps(monkeypatch):
    monkeypatch.setattr(branching, "BLOCK", 8)
    short = _run("diffusion-jumps", t_end=0.5, record_traits_at=[0.5])
    long = _run("diffusion-jumps", t_end=2.0, record_traits_at=[0.5])
    assert long.counts[-1].sum() > 2 * short.counts[-1].sum()  # buffers regrew after 0.5
    for a, b in zip(short.traits_at[0.5], long.traits_at[0.5]):
        assert np.array_equal(a, b)
    _assert_same(long, _reference(monkeypatch, "diffusion-jumps", t_end=2.0, record_traits_at=[0.5]))


def test_state_is_anonymous(monkeypatch):
    ensembles = []
    init = branching._Ensemble.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        ensembles.append(self)

    monkeypatch.setattr(branching._Ensemble, "__init__", spy)
    _run("diffusion")
    assert set(ensembles[-1].state.cols) == {"x", "keys", "rep", "pmax"}
    assert branching.BYTES_PER_PARTICLE == 8 * len(ensembles[-1].state.cols) + 8


def _mapping(col):
    """The ``mmap.mmap`` a state column is a view of (None if it is not)."""
    base = col.base
    return base.obj if isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap) else None


def test_growth_unmaps_the_old_columns():
    rows = branching._Rows(x=np.arange(4.0), rep=np.arange(4, dtype=np.int64))
    assert all(_mapping(col) is not None for col in rows.cols.values())
    old = {name: weakref.ref(_mapping(col)) for name, col in rows.cols.items()}
    rows.put(4, dict(x=np.array([4.0, 5.0]), rep=np.array([4, 5])))
    assert len(rows.cols["x"]) >= 6
    for name, col in rows.cols.items():
        assert _mapping(col) is not None, name
        assert old[name]() is None, name  # the pre-growth mapping is gone
    rows.n = 6
    assert np.array_equal(rows["x"], np.arange(6.0)) and np.array_equal(rows["rep"], np.arange(6))


def test_results_own_their_data():
    res = _run("diffusion-jumps", record_traits_at=[1.0, 2.0])
    arrays = [res.counts, res.max_abs, *res.functionals.values()]
    arrays += [a for pair in res.traits_at.values() for a in pair]
    assert len(arrays) == 2 + len(FUNCTIONALS) + 4
    assert all(a.flags.owndata for a in arrays)


def test_ensemble_respects_memory_budget(monkeypatch, zero_drift):
    monkeypatch.setattr(branching, "MEMORY_BUDGET", 50 * branching.BYTES_PER_PARTICLE)
    # 20 replicas fit, and the growing population then exceeds the budget
    with pytest.raises(MemoryError, match="population of .* particles"):
        simulate_ensemble(0.0, 2.0, 0.02, make_constant_model(2.0, 0.0), zero_drift,
                          CutoffSpec(m=30.0), seed=8, reps=20, record_times=[2.0])
    # too many replicas fail by name before the state is built
    monkeypatch.setattr(branching, "_Rows", None)
    with pytest.raises(MemoryError, match="population of 51 particles"):
        simulate_ensemble(0.0, 2.0, 0.02, make_constant_model(2.0, 0.0), zero_drift,
                          CutoffSpec(m=30.0), seed=8, reps=51, record_times=[2.0])
