"""Branching particle system: births at rate b, deaths at rate d^(m), traits
moving per the dynamics spec, and Monte Carlo estimators.

The scheme is time stepped: in each step of size dt every particle
independently branches with probability b(x) dt, dies with probability
d^(m)(x) dt (d truncated at the cutoff level m), and otherwise takes one
dynamics step; a particle that branches or dies takes no move in that step.
Children start at the parent trait and inherit a fresh counter-based stream
key split from the parent.  Particles are anonymous: the state of a particle
is its trait, its stream key, its replica and its running max |trait|.
Replicas are simulated together in flat arrays.

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
Each state column is an anonymous memory mapping of its own, so a growth
returns the old column's pages to the OS instead of leaving them resident
in the allocator's heap.
"""

from __future__ import annotations

import math
import mmap
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .dynamics import check_cap, move

__all__ = [
    "CutoffSpec",
    "EnsembleResult",
    "simulate_ensemble",
    "run_ensemble",
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

# Bytes per capacity row at the peak, a growth: the four 8-byte state
# columns (x, keys, rep, pmax) at the new capacity, plus the one old column
# being copied, at most 8 bytes per new row.  The columns grow one at a
# time, and each old column is unmapped before the next one grows, so no
# more than one old copy is ever mapped.  There is no second compacted
# copy of the state, and the block masks and temporaries are a fixed few
# MB, left out.
BYTES_PER_PARTICLE = 4 * 8 + 8
# bytes of particle state one ensemble chunk (one simulate_ensemble call)
# may hold; ``--threads T`` runs T chunks, which may hold T times this
MEMORY_BUDGET = 2 * 1024**3


@dataclass(frozen=True)
class CutoffSpec:
    """Death-rate truncation level: d^(m)(x) = d(clamp(x, -m, m))."""

    m: float

    def truncated_death(self, model, x):
        return model.d(np.clip(x, -self.m, self.m))


@dataclass
class EnsembleResult:
    """Recorded output of one replica ensemble."""

    times: np.ndarray  # snapshot times (snapped to the step grid)
    counts: np.ndarray  # (n_times, reps) population sizes
    functionals: dict  # name -> (n_times, reps) values of <Z_t, f>
    max_abs: np.ndarray  # (n_times, reps) running max |trait| up to each time
    dt: float
    cutoff_m: float
    reps: int
    traits_at: dict = field(default_factory=dict)  # time -> (rep idx, traits)


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


def _check_budget(n_particles):
    need = n_particles * BYTES_PER_PARTICLE
    if need > MEMORY_BUDGET:
        raise MemoryError(
            f"population of {n_particles} particles needs {need} bytes of state "
            f"({BYTES_PER_PARTICLE} per particle), over the {MEMORY_BUDGET}-byte "
            f"budget per ensemble chunk; lower t_end or reps"
        )


def _mapped(n, dtype):
    """An array of ``n`` elements of ``dtype`` in an anonymous memory
    mapping of its own, unmapped when the last view of it goes.  A column
    freed through numpy's allocator can stay resident: glibc raises its mmap
    threshold to the size of each mapped block it frees (up to 32 MiB), so
    later columns come from its arenas, which keep freed pages."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, n * dtype.itemsize), dtype, count=n)


class _Rows:
    """Parallel per-particle arrays in capacity-backed buffers, each in a
    mapping of its own (``_mapped``): rows ``[:n]`` are live, the rest is
    room to grow into."""

    def __init__(self, **columns):
        self.n = len(next(iter(columns.values())))
        self.cols = {}
        for name, values in columns.items():
            self.cols[name] = _mapped(self.n, values.dtype)
            self.cols[name][:] = values

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
            _check_budget(new_cap)
            for name, old in self.cols.items():
                new = _mapped(new_cap, old.dtype)
                new[:at] = old[:at]
                self.cols[name] = new
                del old  # unmap it before the next column grows
        for name, values in rows.items():
            self.cols[name][at : at + k] = values

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
    """Flat-array state of all replicas during a stepped simulation: per
    particle its trait, stream key, replica and running max |trait|."""

    def __init__(self, x0, seed, reps, rep_offset, reflect_at):
        _check_budget(reps)
        self.reflect_at = reflect_at
        x = np.full(reps, float(x0))
        self.state = _Rows(
            x=x,
            keys=rng.root_key(seed, rep_offset + np.arange(reps, dtype=np.uint64)),
            rep=np.arange(reps, dtype=np.int64),
            pmax=np.abs(x),
        )
        self.reps = reps
        self.repmax = np.abs(x)  # running max per replica, deaths folded in

    @property
    def x(self):
        return self.state["x"]

    @property
    def rep(self):
        return self.state["rep"]

    def step(self, step, dt, model, dyn, cutoff):
        """Advance one step.  Every particle draws one event uniform: it
        branches (u < b dt), dies (the next strip of width d^(m) dt) or moves.
        Survivors keep their order and children follow in parent order, so
        the replica reductions (``bincount``) sum in a fixed order."""
        n = self.state.n
        w = 0  # survivors so far, compacted into rows [:w]
        n_born = 0  # children so far, staged in rows [n, n + n_born)
        for lo in range(0, n, BLOCK):
            k = min(BLOCK, n - lo)
            kept, born = self._step_block(lo, k, w, step, dt, model, dyn, cutoff)
            w += kept
            if born is not None:
                self.state.put(n + n_born, born)
                n_born += len(born["x"])
        self.state.move_down(n, w, n_born)
        self.state.n = w + n_born

    def _step_block(self, lo, k, w, step, dt, model, dyn, cutoff):
        """Step rows ``[lo, lo + k)`` and move their survivors down to row
        ``w``.  Returns (survivors, children rows or None)."""
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
        np.maximum(pmb, np.abs(xb), out=pmb)

        # children rows are copies, taken before survivors overwrite the block
        born = None
        parents = np.flatnonzero(br)
        if len(parents):
            born = dict(x=xb[parents], keys=rng.spawn_keys(kb[parents], step),
                        rep=repb[parents], pmax=pmb[parents])
        n_die = int(np.count_nonzero(dd))
        if n_die:
            np.maximum.at(self.repmax, repb[dd], pmb[dd])
            self.state.move_down(lo, w, k, keep=~dd)
        else:
            self.state.move_down(lo, w, k)
        return k - n_die, born

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
    rep_offset=0,
    reflect_at=None,
):
    """Simulate ``reps`` independent replicas, all started at delta_{x0}.

    ``functionals`` maps names to vectorized trait functions; <Z_t, f> is
    recorded at every snapshot time.  ``reflect_at = (lo, hi)`` folds every
    continuous move back into the interval (matching a reflecting solver
    grid); ``rep_offset`` shifts the stream indices so chunked runs
    reproduce the monolithic ensemble bit for bit.  ``record_traits_at``
    lists times at which the (replica, trait) arrays of the whole
    population are kept.
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

    ens = _Ensemble(x0, seed, reps, rep_offset=rep_offset, reflect_at=reflect_at)

    n_rec = len(record_steps)
    counts = np.zeros((n_rec, reps), dtype=np.int64)
    func_vals = {name: np.zeros((n_rec, reps)) for name in functionals}
    max_abs_rec = np.zeros((n_rec, reps))
    traits_at = {}

    def record(rec_idx, step_idx):
        counts[rec_idx] = ens.replica_counts()
        for name, f in functionals.items():
            func_vals[name][rec_idx] = ens.replica_sums(f(ens.x)) if len(ens.x) else 0.0
        max_abs_rec[rec_idx] = ens.replica_max_abs()
        if step_idx in trait_steps:
            traits_at[float(step_idx * dt)] = (ens.rep.copy(), ens.x.copy())

    rec_idx = 0
    if 0 in record_set:
        record(0, 0)
        rec_idx = 1

    for step in range(n_steps):
        if len(ens.x) == 0:
            break
        ens.step(step, dt, model, dyn, cutoff)
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
        dt=dt,
        cutoff_m=cutoff.m,
        reps=reps,
        traits_at=traits_at,
    )


def run_ensemble(cfg, record_times, fields, threads):
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
    reps = cfg.mc["reps"]
    xs = cfg.grid.nodes
    common = dict(
        reflect_at=(cfg.grid.x_min, cfg.grid.x_max) if cfg.grid.boundary == "reflecting" else None,
        x0=cfg.mc["x0"],
        t_end=float(max(record_times)),
        dt=cfg.mc["dt"],
        model=cfg.model,
        dyn=cfg.dynamics,
        cutoff=CutoffSpec(m=cfg.mc["cutoff_m"]),
        seed=cfg.mc["seed"],
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
        reps=reps,
    )


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


_MC_ORDERS = 2  # the moment orders of N_t that ``simulate`` reports: 1 and 2


def mc_moments(result, b_star):
    """Empirical moments of orders 1 to ``_MC_ORDERS`` of the total mass N_t
    with jackknife standard errors, each checked against the Yule ceiling of
    birth-rate bound ``b_star``.  Returns rows {time, order, estimate, se}.
    """
    if result.reps < 2:
        raise ValueError("moment estimation needs at least 2 replicas")
    rows = []
    for t, y in zip(result.times, result.counts.astype(float)):
        for n in range(1, _MC_ORDERS + 1):
            yn = y**n
            est = float(yn.mean())
            se = _jackknife_se(yn)
            ceiling = yule_moment_bound(n, t, b_star)
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
    Pending API: the Q-process checks of ROADMAP item 5 will call it.

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


def cutoff_diagnostics(result, m_grid):
    """P(T_m <= t) table over the m grid at the recorded times, from the running max |trait|.

    Estimates are monotone nonincreasing in m at fixed t by construction;
    report them alongside survival/moment estimates as the truncation-bias
    bound (the bias is at most twice the exceedance probability).
    """
    rows = []
    for k, t in enumerate(result.times):
        for m in m_grid:
            p = float((result.max_abs[k] > m).mean())
            se = math.sqrt(max(p * (1 - p), 1e-300) / result.reps)
            rows.append({"time": float(t), "m": float(m), "estimate": p, "se": se})
    return rows
