"""Branching particle system: births at rate b, deaths at rate d^(m), traits
moving per the dynamics spec, with genealogy and Monte Carlo estimators.

The scheme is time stepped: in each step of size dt every particle
independently branches with probability b(x) dt, dies with probability
d^(m)(x) dt (d truncated at the cutoff level m), and otherwise takes one
dynamics step.  Children start at the parent trait and inherit a fresh
counter-based stream key split from the parent.  Replicas are simulated
together in flat arrays.

Every draw is a pure function of (key, step, channel).  The step kernel
therefore walks the population in cache-sized blocks, moves every particle
of a block and keeps the move only for the movers, and draws jump sizes
for the jumping particles alone, and none of this changes an output: the
block size, drawing for a subset, and the order in which particles are
visited are all invisible in the results.  What is visible is the order of
the state arrays, because the per-replica reductions (``bincount``) sum in
array order; each step keeps the survivors in their order and appends the
children in the order of their parents.  The state lives in capacity-backed
arrays and is compacted in place, block by block, while the block is in
cache: a block's survivors move down to a running write offset that never
passes the block's start, its children are staged past the live rows, and
at the end of the step the children move down behind the last survivor.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .dynamics import PathSegment, check_cap, move

__all__ = [
    "CutoffSpec",
    "Population",
    "HistoricalForest",
    "EnsembleResult",
    "simulate",
    "simulate_ensemble",
    "run_ensemble",
    "simulate_coupled_yule",
    "yule_moment_bound",
    "mc_moments",
    "mc_survival",
    "qprocess_weight",
    "cutoff_diagnostics",
]

# Particles are stepped in blocks of this many.  One block's temporaries
# (draws, rates, masks, moved traits: about a dozen 8-byte arrays, ~3 MB at
# 2^15) then stay in cache across the passes of a step, including the
# in-place compaction of the block's survivors, where the whole population
# would stream every pass through main memory; much smaller blocks pay
# numpy's per-call overhead instead.  A single-threaded supercritical_jumps
# ensemble to t = 10 on a 2-core x86-64 host took 8.9 s at 2^14, 8.2 s at
# 2^15, 8.5 s at 2^16 and 9.8 s unblocked.
BLOCK = 1 << 15

# Capacity growth factor of the state arrays.  Growing by half again keeps
# the rows a growing population copies in all its growths to about three
# times its final size, and leaves at most a third of the capacity unused
# (and its pages untouched until rows reach them).
GROWTH = 1.5

# Bytes per capacity row at the peak, a growth: the five 8-byte state
# arrays (x, keys, rep, pid, pmax) at the new capacity, plus the one old
# array being copied, at most 8 bytes per new row.  There is no second
# compacted copy of the state, and the block masks and temporaries are a
# fixed few MB, left out.
BYTES_PER_PARTICLE = 5 * 8 + 8
MEMORY_BUDGET = 2 * 1024**3  # bytes of particle state a run may hold


@dataclass(frozen=True)
class CutoffSpec:
    """Death-rate truncation level: d^(m)(x) = d(clamp(x, -m, m))."""

    m: float

    def truncated_death(self, model, x):
        return model.d(np.clip(x, -self.m, self.m))


@dataclass
class Population:
    """Snapshot of the particle system at one time."""

    time: float
    ids: np.ndarray
    traits: np.ndarray

    @property
    def size(self):
        return len(self.ids)

    def functional(self, f):
        return float(np.sum(f(self.traits))) if self.size else 0.0


class HistoricalForest:
    """Genealogy store: per-particle parent pointers and birth steps plus
    per-step id/trait snapshots, materialized lazily into ancestral paths."""

    def __init__(self, dt):
        self.dt = dt
        # indexed by particle id; -1 marks an id never registered as a child
        self._parent = np.full(0, -1, dtype=np.int64)
        self._birth_step = np.zeros(0, dtype=np.int64)
        self._steps = []  # (sorted ids, traits) per recorded step

    def register(self, ids, parents, step):
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return
        need = int(ids.max()) + 1
        if need > len(self._parent):
            grow = max(need, 2 * len(self._parent)) - len(self._parent)
            self._parent = np.concatenate([self._parent, np.full(grow, -1, dtype=np.int64)])
            self._birth_step = np.concatenate([self._birth_step, np.zeros(grow, dtype=np.int64)])
        self._parent[ids] = parents
        self._birth_step[ids] = step

    def _registered(self):
        return np.flatnonzero(self._parent >= 0)

    @property
    def parent(self):
        """Child id -> parent id, over the registered children."""
        ids = self._registered()
        return dict(zip(ids.tolist(), self._parent[ids].tolist()))

    @property
    def birth_step(self):
        """Child id -> step at which it was born, over the registered children."""
        ids = self._registered()
        return dict(zip(ids.tolist(), self._birth_step[ids].tolist()))

    def record_step(self, ids, traits):
        self._steps.append((ids.copy(), traits.copy()))

    @property
    def recorded_steps(self):
        return len(self._steps)

    def _lookup(self, step, pid):
        ids, traits = self._steps[step]
        j = np.searchsorted(ids, pid)
        if j < len(ids) and ids[j] == pid:
            return float(traits[j])
        return None

    def path(self, pid, upto_step=None):
        """Materialize the ancestral path of ``pid`` as a PathSegment."""
        upto = self.recorded_steps - 1 if upto_step is None else min(int(upto_step), self.recorded_steps - 1)
        states = np.full(upto + 1, np.nan)
        cur = int(pid)
        step = upto
        while step >= 0:
            known = cur < len(self._parent)
            born = int(self._birth_step[cur]) if known else 0
            while step >= born:
                val = self._lookup(step, cur)
                if val is None:
                    break
                states[step] = val
                step -= 1
            nxt = int(self._parent[cur]) if known else -1
            if nxt < 0:
                break
            cur = nxt
        seen = ~np.isnan(states)
        if not seen.any():
            raise KeyError(f"particle {pid} absent from the recorded history")
        first = int(np.argmax(seen))
        states[:first] = states[first]
        times = np.arange(upto + 1) * self.dt
        return PathSegment(times, states, np.zeros(upto + 1, dtype=bool))

    def alive_at(self, step):
        ids, traits = self._steps[min(step, self.recorded_steps - 1)]
        return ids, traits


@dataclass
class EnsembleResult:
    """Recorded output of one replica ensemble."""

    times: np.ndarray  # snapshot times (snapped to the step grid)
    counts: np.ndarray  # (n_times, reps) population sizes
    functionals: dict  # name -> (n_times, reps) values of <Z_t, f>
    max_abs: np.ndarray  # (n_times, reps) running max |trait| up to each time
    tm_first: np.ndarray  # (reps,) first time |trait| > m, inf if never
    seed: int
    dt: float
    x0: float
    cutoff_m: float
    reps: int
    traits_at: dict = field(default_factory=dict)  # time -> (rep idx, traits, ids)
    forest: HistoricalForest | None = None
    history_rep_limit: int = 0

    def survival(self, k):
        return self.counts[k] > 0


def _snap_steps(record_times, dt, t_end):
    n_end = int(round(t_end / dt))
    return sorted({min(max(int(round(t / dt)), 0), n_end) for t in record_times})


def _reflect(x, bounds):
    lo, hi = bounds
    width = hi - lo
    y = np.mod(x - lo, 2.0 * width)
    return lo + np.minimum(y, 2.0 * width - y)


def check_event_cap(model, dyn, cutoff, dt):
    """Enforce dt * (b_star + sup_{[-m,m]} d) <= 0.1 and the thinning cap."""
    xs = np.linspace(-cutoff.m, cutoff.m, 2001)
    check_cap(model.b_star + float(np.max(model.d(xs))), dt, "b_star + sup d^(m)")
    if dyn.has_jumps:
        check_cap(float(np.max(dyn.jump.total_mass(xs))), dt, "sup Rbar")


def _check_budget(n_particles, what):
    need = n_particles * BYTES_PER_PARTICLE
    if need > MEMORY_BUDGET:
        raise MemoryError(
            f"{what} of {n_particles} particles needs {need} bytes of state "
            f"({BYTES_PER_PARTICLE} per particle), over the {MEMORY_BUDGET}-byte "
            f"budget; lower t_end or reps"
        )


class _Rows:
    """Parallel per-particle arrays in capacity-backed buffers: rows
    ``[:n]`` are live, the rest is room to grow into."""

    def __init__(self, what, **columns):
        self.what = what  # names the population in a budget error
        self.cols = columns
        self.n = len(next(iter(columns.values())))

    def __getitem__(self, name):
        return self.cols[name][: self.n]

    def put(self, at, rows):
        """Write the equal-length arrays ``rows`` (name -> values) at row
        ``at``, growing the buffers first if needed; rows ``[:at]`` are kept."""
        k = len(next(iter(rows.values())))
        cap = len(next(iter(self.cols.values())))
        if at + k > cap:
            # growth slack is clipped to the budget, so only a real need fails
            new_cap = max(at + k, min(int(cap * GROWTH), MEMORY_BUDGET // BYTES_PER_PARTICLE))
            _check_budget(new_cap, self.what)
            for name, old in self.cols.items():
                new = np.empty(new_cap, dtype=old.dtype)
                new[:at] = old[:at]
                self.cols[name] = new
                del old  # free it before the next column grows
        for name, values in rows.items():
            self.cols[name][at : at + k] = values

    def append(self, rows):
        self.put(self.n, rows)
        self.n += len(next(iter(rows.values())))

    def move_down(self, src, dst, k, keep=None):
        """Move rows ``[src, src + k)`` (only those where ``keep`` is True,
        if given) to start at row ``dst <= src``."""
        if dst == src and keep is None:
            return
        for buf in self.cols.values():
            block = buf[src : src + k]
            if keep is not None:
                block = block[keep]  # a gathered copy
            buf[dst : dst + len(block)] = block  # overlap-safe assignment


class _Ensemble:
    """Flat-array state of all replicas during a stepped simulation.

    ``pid`` (particle ids) is kept only with ``track_ids``, for genealogy
    and trait snapshots; ``next_id`` advances either way."""

    def __init__(self, x0, seed, reps, rep_offset=0, reflect_at=None, *, track_ids):
        self.reflect_at = reflect_at
        x = np.full(reps, float(x0))
        cols = dict(
            x=x,
            keys=rng.root_key(seed, rep_offset + np.arange(reps, dtype=np.uint64)),
            rep=np.arange(reps, dtype=np.int64),
            pmax=np.abs(x),
        )
        if track_ids:
            cols["pid"] = np.arange(reps, dtype=np.int64)
        self.state = _Rows("population", **cols)
        self.next_id = reps
        self.reps = reps
        self.repmax = np.abs(x)  # running max per replica, deaths folded in

    @property
    def x(self):
        return self.state["x"]

    @property
    def rep(self):
        return self.state["rep"]

    @property
    def pid(self):
        return self.state["pid"]

    def step(self, step, dt, model, dyn, cutoff, on_birth=None):
        """Advance one step.  Every particle draws one event uniform: it
        branches (u < b dt), dies (the next strip of width d^(m) dt) or moves.
        Survivors keep their order and children follow in parent order, so
        the replica reductions (``bincount``) sum in a fixed order.

        Returns the replicas (with repeats) of the particles whose running
        max |trait| passed ``cutoff.m`` in this step.  The running max only
        grows and children inherit it, so these are the only replicas that
        can gain a first exceedance."""
        n = self.state.n
        w = 0  # survivors so far, compacted into rows [:w]
        n_born = 0  # children so far, staged in rows [n, n + n_born)
        crossed = []
        for lo in range(0, n, BLOCK):
            k = min(BLOCK, n - lo)
            kept, born, hit = self._step_block(lo, k, w, step, dt, model, dyn, cutoff, on_birth)
            w += kept
            if born is not None:
                self.state.put(n + n_born, born)
                n_born += len(born["x"])
            if hit is not None:
                crossed.append(hit)
        self.state.move_down(n, w, n_born)
        self.state.n = w + n_born
        return np.concatenate(crossed) if crossed else np.zeros(0, dtype=np.int64)

    def _step_block(self, lo, k, w, step, dt, model, dyn, cutoff, on_birth):
        """Step rows ``[lo, lo + k)`` and move their survivors down to row
        ``w``.  Returns (survivors, children rows or None, replicas whose
        running max passed the cutoff or None)."""
        cols = self.state.cols
        blk = slice(lo, lo + k)
        xb, kb, pmb, repb = cols["x"][blk], cols["keys"][blk], cols["pmax"][blk], cols["rep"][blk]
        pb = np.asarray(model.b(xb), dtype=float) * dt
        pd = np.asarray(cutoff.truncated_death(model, xb), dtype=float) * dt
        pd += pb
        u = rng.uniform(kb, step, rng.CH_EVENT)
        br = np.less(u, pb)
        stay = np.less(u, pd)
        dd = np.greater(stay, br)  # stay & ~br
        stay |= br
        moved, _ = move(xb, kb, step, dt, dyn)
        if self.reflect_at is not None:
            moved = _reflect(moved, self.reflect_at)
        # only the movers take the new trait; x is owned by the ensemble
        np.copyto(xb, moved, where=~stay)
        ab = np.abs(xb)
        hit = None
        cross = np.greater(ab, cutoff.m)
        if cross.any():
            cross &= pmb <= cutoff.m
            hit = repb[cross]
        np.maximum(pmb, ab, out=pmb)

        # children rows are copies, taken before survivors overwrite the block
        born = None
        parents = np.flatnonzero(br)
        if len(parents):
            born = dict(x=xb[parents], keys=rng.spawn_keys(kb[parents], step),
                        rep=repb[parents], pmax=pmb[parents])
            child_pid = self.next_id + np.arange(len(parents), dtype=np.int64)
            self.next_id += len(parents)
            if "pid" in cols:
                born["pid"] = child_pid
            if on_birth is not None:
                on_birth(child_pid, cols["pid"][blk][parents], born["rep"])
        n_die = int(np.count_nonzero(dd))
        if n_die:
            np.maximum.at(self.repmax, repb[dd], pmb[dd])
            self.state.move_down(lo, w, k, keep=~dd)
        else:
            self.state.move_down(lo, w, k)
        return k - n_die, born, hit

    def replica_counts(self):
        return np.bincount(self.rep, minlength=self.reps)

    def replica_sums(self, weights):
        return np.bincount(self.rep, weights=weights, minlength=self.reps)

    def replica_max_abs(self):
        cur = self.repmax.copy()
        if self.state.n:
            np.maximum.at(cur, self.rep, self.state["pmax"])
        return cur


def simulate_ensemble(
    x0,
    t_end,
    dt,
    model,
    dyn,
    cutoff,
    seed,
    reps,
    record_times,
    functionals=None,
    record_traits_at=(),
    history_until=None,
    history_rep_limit=None,
    rep_offset=0,
    reflect_at=None,
):
    """Simulate ``reps`` independent replicas, all started at delta_{x0}.

    ``functionals`` maps names to vectorized trait functions; <Z_t, f> is
    recorded at every snapshot time.  ``reflect_at = (lo, hi)`` folds every
    continuous move back into the interval (matching a reflecting solver
    grid); ``rep_offset`` shifts the stream indices so chunked runs
    reproduce the monolithic ensemble bit for bit.  ``record_traits_at`` lists times whose
    full per-replica trait arrays are kept.  ``history_until`` turns on
    genealogy recording through that time, limited to the first
    ``history_rep_limit`` replicas.
    """
    if t_end < 0 or dt <= 0:
        raise ValueError("need t_end >= 0 and dt > 0")
    check_event_cap(model, dyn, cutoff, dt)
    functionals = functionals or {}
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be a multiple of dt for ensemble runs")
    record_steps = _snap_steps(record_times, dt, t_end)
    record_set = set(record_steps)
    trait_steps = set(_snap_steps(record_traits_at, dt, t_end))

    ens = _Ensemble(
        x0, seed, reps, rep_offset=rep_offset, reflect_at=reflect_at,
        track_ids=history_until is not None or bool(trait_steps),
    )

    history = None
    hist_limit = 0
    hist_steps = -1
    if history_until is not None:
        hist_limit = history_rep_limit if history_rep_limit is not None else reps
        history = HistoricalForest(dt)
        hist_steps = int(round(history_until / dt))

    n_rec = len(record_steps)
    counts = np.zeros((n_rec, reps), dtype=np.int64)
    func_vals = {name: np.zeros((n_rec, reps)) for name in functionals}
    max_abs_rec = np.zeros((n_rec, reps))
    tm_first = np.full(reps, np.inf)
    traits_at = {}

    out0 = np.abs(ens.x) > cutoff.m
    tm_first[out0] = 0.0

    def record(rec_idx, step_idx):
        counts[rec_idx] = ens.replica_counts()
        for name, f in functionals.items():
            func_vals[name][rec_idx] = ens.replica_sums(f(ens.x)) if len(ens.x) else 0.0
        max_abs_rec[rec_idx] = ens.replica_max_abs()
        if step_idx in trait_steps:
            traits_at[float(step_idx * dt)] = (ens.rep.copy(), ens.x.copy(), ens.pid.copy())

    def record_history(step_idx):
        sel = ens.rep < hist_limit
        order = np.argsort(ens.pid[sel], kind="stable")
        history.record_step(ens.pid[sel][order], ens.x[sel][order])

    rec_idx = 0
    if history is not None:
        record_history(0)
    if 0 in record_set:
        record(0, 0)
        rec_idx = 1

    for step in range(n_steps):
        if len(ens.x) == 0:
            break
        on_birth = None
        if history is not None and step < hist_steps:
            def on_birth(child_pid, parent_pid, child_rep, _s=step):
                sel = child_rep < hist_limit
                history.register(child_pid[sel], parent_pid[sel], _s + 1)

        hit = ens.step(step, dt, model, dyn, cutoff, on_birth=on_birth)
        if len(hit):
            tm_first[hit[~np.isfinite(tm_first[hit])]] = (step + 1) * dt

        if history is not None and step + 1 <= hist_steps:
            record_history(step + 1)
        if (step + 1) in record_set:
            record(rec_idx, step + 1)
            rec_idx += 1

    # everything extinct before later snapshots: counts stay 0, max carries over
    while rec_idx < n_rec:
        max_abs_rec[rec_idx] = ens.repmax
        rec_idx += 1

    times = np.array([s * dt for s in record_steps])
    return EnsembleResult(
        times=times,
        counts=counts,
        functionals=func_vals,
        max_abs=max_abs_rec,
        tm_first=tm_first,
        seed=seed,
        dt=dt,
        x0=float(x0),
        cutoff_m=cutoff.m,
        reps=reps,
        traits_at=traits_at,
        forest=history,
        history_rep_limit=hist_limit,
    )


def run_ensemble(cfg, record_times, fields, threads=1):
    """The Monte Carlo ensemble of an experiment config: ``mc.reps``
    replicas from ``mc.x0`` with the config's dt, seed and cutoff,
    reflecting at the grid ends when the solver grid reflects, recording
    <Z_t, f> at ``record_times`` for each named field f of grid values
    (interpolated between nodes).

    The replicas run as ``threads`` chunks on at most ``os.cpu_count()``
    worker threads.  Each chunk is a ``simulate_ensemble`` call shifted by
    ``rep_offset``, so the concatenated result is the one-chunk ensemble bit
    for bit, whatever the number of chunks or workers.
    """
    reps = int(cfg.mc["reps"])
    xs = cfg.grid.nodes
    common = dict(
        reflect_at=(cfg.grid.x_min, cfg.grid.x_max) if cfg.grid.boundary == "reflecting" else None,
        x0=float(cfg.mc["x0"]),
        t_end=float(max(record_times)),
        dt=float(cfg.mc["dt"]),
        model=cfg.model,
        dyn=cfg.dynamics,
        cutoff=CutoffSpec(m=float(cfg.mc["cutoff_m"])),
        seed=int(cfg.mc["seed"]),
        record_times=record_times,
        functionals={name: (lambda a, v=v: np.interp(a, xs, v)) for name, v in fields.items()},
    )
    if threads <= 1 or reps < 2 * threads:
        return simulate_ensemble(reps=reps, **common)
    chunk = math.ceil(reps / threads)
    with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
        parts = list(
            pool.map(
                lambda lo: simulate_ensemble(reps=min(chunk, reps - lo), rep_offset=lo, **common),
                range(0, reps, chunk),
            )
        )
    return replace(
        parts[0],
        counts=np.concatenate([p.counts for p in parts], axis=1),
        functionals={
            name: np.concatenate([p.functionals[name] for p in parts], axis=1)
            for name in parts[0].functionals
        },
        max_abs=np.concatenate([p.max_abs for p in parts], axis=1),
        tm_first=np.concatenate([p.tm_first for p in parts]),
        reps=reps,
    )


def simulate(x0, t_end, dt, model, dyn, cutoff, seed, record_history=False, record_times=None):
    """Single-replica simulation.

    Returns (list of Population snapshots, HistoricalForest or None,
    T_m estimate).  Deterministic given the seed.
    """
    if record_times is None:
        record_times = np.linspace(0.0, t_end, 11) if t_end > 0 else [0.0]
    res = simulate_ensemble(
        x0,
        t_end,
        dt,
        model,
        dyn,
        cutoff,
        seed,
        reps=1,
        record_times=record_times,
        record_traits_at=record_times,
        history_until=t_end if record_history else None,
    )
    snaps = []
    for t in res.times:
        _, traits, ids = res.traits_at.get(
            float(t), (None, np.zeros(0), np.zeros(0, dtype=np.int64))
        )
        snaps.append(Population(time=float(t), ids=ids, traits=traits))
    return snaps, res.forest, float(res.tm_first[0])


def simulate_coupled_yule(x0, t_end, dt, model, dyn, cutoff, seed, reps, record_times):
    """Couple the system with its dominating Yule process (birth rate
    b_star, no deaths) through shared event uniforms.

    Every Yule particle carries an in-system flag.  One shared uniform per
    particle per step decides: system birth (u < b(x) dt), system death
    (the next strip of width d^(m)(x) dt), Yule birth (u < b_star dt;
    a superset of system births since b <= b_star).  Returns (times,
    counts_system, counts_yule); pathwise counts_system <= counts_yule.
    """
    check_event_cap(model, dyn, cutoff, dt)
    n_steps = int(round(t_end / dt))
    record_steps = _snap_steps(record_times, dt, t_end)
    record_set = set(record_steps)

    state = _Rows(
        "coupled Yule population",
        x=np.full(reps, float(x0)),
        keys=rng.root_key(seed, np.arange(reps, dtype=np.uint64)),
        alive=np.ones(reps, dtype=bool),
        rep=np.arange(reps, dtype=np.int64),
    )

    n_rec = len(record_steps)
    counts_z = np.zeros((n_rec, reps), dtype=np.int64)
    counts_y = np.zeros((n_rec, reps), dtype=np.int64)

    def record(idx):
        rep = state["rep"]
        counts_z[idx] = np.bincount(rep[state["alive"]], minlength=reps)
        counts_y[idx] = np.bincount(rep, minlength=reps)

    rec_idx = 0
    if 0 in record_set:
        record(0)
        rec_idx = 1

    p_star = model.b_star * dt
    for step in range(n_steps):
        x, keys, alive_z = state["x"], state["keys"], state["alive"]
        pb = np.asarray(model.b(x), dtype=float) * dt
        pd = np.asarray(cutoff.truncated_death(model, x), dtype=float) * dt
        u = rng.uniform(keys, step, rng.CH_EVENT)
        branch_z = alive_z & (u < pb)
        die_z = alive_z & (~branch_z) & (u < pb + pd)
        parents = np.flatnonzero(u < p_star)
        # only live system particles that neither branch nor die move
        moved, _ = move(x, keys, step, dt, dyn)
        np.copyto(x, moved, where=alive_z & ~(branch_z | die_z))
        alive_z &= ~die_z

        if len(parents):
            state.append(dict(
                x=x[parents], keys=rng.spawn_keys(keys[parents], step),
                alive=branch_z[parents], rep=state["rep"][parents],
            ))
        if (step + 1) in record_set:
            record(rec_idx)
            rec_idx += 1

    times = np.array([s * dt for s in record_steps])
    return times, counts_z, counts_y


# ----------------------------------------------------------------------
# estimators


def yule_moment_bound(n, t, b_star):
    """Hard moment ceiling n! e^{n b_star t} for the dominating pure-birth
    process; +inf sentinel (with a warning) on overflow."""
    if n < 1:
        raise ValueError("moment order must be >= 1")
    log_val = math.lgamma(n + 1) + n * b_star * t
    if log_val > 700:
        warnings.warn("Yule moment bound overflows float range; returning inf")
        return math.inf
    return math.exp(log_val)


def _jackknife_se(values):
    """Jackknife standard error of the sample mean."""
    r = len(values)
    if r < 2:
        return math.inf
    mean = values.mean()
    loo = (r * mean - values) / (r - 1)
    return float(np.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2)))


def mc_moments(result, n_max, f_name=None, f_sup=None, b_star=None):
    """Empirical moments of <Z_t, f> with jackknife standard errors.

    ``f_name`` selects a recorded functional; None means total mass.  When
    ``f_sup`` and ``b_star`` are given the Yule ceiling is enforced.
    Returns rows {time, order, estimate, se}.
    """
    if result.reps < 2:
        raise ValueError("moment estimation needs at least 2 replicas")
    vals = result.counts.astype(float) if f_name is None else result.functionals[f_name]
    rows = []
    for k, t in enumerate(result.times):
        y = vals[k]
        for n in range(1, n_max + 1):
            yn = y**n
            est = float(yn.mean())
            se = _jackknife_se(yn)
            if f_sup is not None and b_star is not None:
                ceiling = (f_sup**n) * yule_moment_bound(n, t, b_star)
                if est > ceiling * (1 + 1e-9):
                    raise RuntimeError(
                        f"moment estimate {est:.4g} exceeds the Yule ceiling "
                        f"{ceiling:.4g} (order {n}, t = {t:g})"
                    )
            rows.append({"time": float(t), "order": n, "estimate": est, "se": se})
    return rows


def mc_survival(result):
    """Survival probability estimates with binomial standard errors."""
    rows = []
    for k, t in enumerate(result.times):
        alive = result.counts[k] > 0
        p = float(alive.mean())
        se = math.sqrt(max(p * (1 - p), 1e-300) / result.reps)
        rows.append({"time": float(t), "estimate": p, "se": se, "survivors": int(alive.sum())})
    return rows


def qprocess_weight(traits_at_s, s, x0, spectral, h_field=None):
    """Radon-Nikodym weight of the conditioned-on-survival limit law.

    Critical/subcritical: e^{lambda0 s} <Z_s, Theta0> / Theta0(x0).
    Supercritical (``h_field`` given): (1 - exp<Z_s, log(1-h)>) / h(x0).
    An empty population gives weight 0 in both variants; at s = 0 the
    weight is 1.
    """
    traits = np.asarray(traits_at_s, dtype=float)
    regime = spectral.regime()
    if regime == "supercritical":
        if h_field is None:
            raise ValueError("supercritical weight needs the extinction-limit field h")
        hx0 = float(np.interp(x0, spectral.grid.nodes, h_field))
        if hx0 <= 0:
            raise ValueError("h(x0) = 0; the supercritical weight is undefined")
        if traits.size == 0:
            return 0.0
        hvals = np.clip(np.interp(traits, spectral.grid.nodes, h_field), 1e-15, 1 - 1e-15)
        return float((1.0 - np.exp(np.sum(np.log1p(-hvals)))) / hx0)
    if traits.size == 0:
        return 0.0
    th = np.interp(traits, spectral.grid.nodes, spectral.theta0)
    return float(math.exp(spectral.lambda0 * s) * np.sum(th) / spectral.theta0_at(x0))


def cutoff_diagnostics(result, m_grid, times=None):
    """P(T_m <= t) table over the m grid, from the running max |trait|.

    Estimates are monotone nonincreasing in m at fixed t by construction;
    report them alongside survival/moment estimates as the truncation-bias
    bound (the bias is at most twice the exceedance probability).
    """
    times = result.times if times is None else times
    rows = []
    for t in times:
        k = int(np.argmin(np.abs(result.times - t)))
        for m in m_grid:
            p = float((result.max_abs[k] > m).mean())
            se = math.sqrt(max(p * (1 - p), 1e-300) / result.reps)
            rows.append({"time": float(result.times[k]), "m": float(m), "estimate": p, "se": se})
    return rows
