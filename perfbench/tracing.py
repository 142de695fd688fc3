"""Span recording around branchlab's public functions, and the per-layer
metrics computed from the recorded spans.

Nothing inside ``src/`` is instrumented.  ``install()`` replaces every
binding of each traced function (module attributes, names imported with
``from ... import``, and the CLI's command table) by a timing wrapper, and
patches ``Propagator`` methods on the class itself.  A binding that is
missed reads zero and fails ``coverage_problems``.

A span is ``[name, start, end, parent, n, step]`` with ``parent`` a
``(thread, index)`` pair or ``None``.  ``n`` is the work count of the call
(draws, particles, evaluations, iterations) and ``step`` the simulation step
of an event draw.  Spans are kept in memory per thread and written out once,
when the traced command ends.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

# population buckets of the particle-step kernel, by live particles per step
BUCKETS = (("lt1e4", 0, 1e4), ("1e4_1e5", 1e4, 1e5), ("ge1e5", 1e5, float("inf")))


class Recorder:
    """Per-thread span buffers.  Threads that open a span while their own
    stack is empty take the main thread's innermost open span as parent, so
    the main thread's self time excludes time it spent waiting on workers."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers = []  # per thread: list of spans
        self.main_stack = None

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                tid = len(self.buffers)
                self.buffers.append([])
            st = self._local.state = (tid, self.buffers[tid], [])
            if threading.current_thread() is threading.main_thread():
                self.main_stack = st
        return st

    def wrap(self, name, fn, count=None, step=None, skip_nested=False):
        """Timing wrapper.  ``count(args, kwargs, result)`` gives ``n``;
        ``step(args, kwargs)`` gives the step field; with ``skip_nested`` a
        call made while a span of the same layer is innermost is not
        recorded (a normal draw calls the uniform draw)."""
        layer = name.split(".")[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            tid, buf, stack = self._state()
            if skip_nested and stack and buf[stack[-1]][0].split(".")[0] == layer:
                return fn(*args, **kwargs)
            if stack:
                parent = (tid, stack[-1])
            else:
                main = self.main_stack
                top = main[2][-1:] if main else []
                parent = (main[0], top[0]) if top else None
            span = [name, 0.0, 0.0, parent, 1, None]
            buf.append(span)
            stack.append(len(buf) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            if step is not None:
                span[5] = step(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"threads": self.buffers}, fh, separators=(",", ":"))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rebind(old, new):
    """Point every binding of ``old`` in branchlab's modules, and in their
    module-level dicts, at ``new``.  Returns the number of bindings."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if not (modname == "branchlab" or modname.startswith("branchlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                hits += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new
                        hits += 1
    return hits


def install():
    """Wrap branchlab's public functions; returns the Recorder."""
    from branchlab import analysis, cli, config, model, moments, rng, semigroup, branching

    rec = Recorder()

    def patch(fn, name, **kw):
        if _rebind(fn, rec.wrap(name, fn, **kw)) == 0:
            raise RuntimeError(f"no binding found for {name}")

    patch(cli.main, "cli.main")
    for command, fn in list(cli._COMMANDS.items()):
        patch(fn, f"cli.{command}")
    patch(config.load_config, "config.load")
    patch(model.validate_hypotheses, "model.validate")

    def rng_step(args, kwargs):
        return int(_arg(args, kwargs, 1, "step"))

    def draws(args, kwargs, result):
        return int(result.size)

    uniform = rng.uniform
    uniform_traced = rec.wrap("rng.uniform", uniform, count=draws, skip_nested=True)
    event_traced = rec.wrap("rng.event", uniform, count=draws, step=rng_step, skip_nested=True)

    def uniform_dispatch(keys, step, channel):
        if channel == rng.CH_EVENT:
            return event_traced(keys, step, channel)
        return uniform_traced(keys, step, channel)

    if _rebind(uniform, uniform_dispatch) == 0:
        raise RuntimeError("no binding found for rng.uniform")
    patch(rng.normal, "rng.normal", count=draws, skip_nested=True)
    patch(rng.spawn_keys, "rng.spawn_keys", count=draws, skip_nested=True)

    patch(branching.simulate_ensemble, "branching.ensemble")

    patch(semigroup.build_generator, "semigroup.build_generator")
    patch(semigroup.principal_eigentriple, "semigroup.eigentriple")
    prop = semigroup.Propagator
    prop.__init__ = rec.wrap("semigroup.lu", prop.__init__)
    prop.step_cn = rec.wrap("semigroup.cn", prop.step_cn)
    prop.step_be_half = rec.wrap("semigroup.cn", prop.step_be_half)

    patch(
        moments.calibrate_criticality,
        "moments.calibration",
        count=lambda a, k, result: len(result[2]),
    )
    patch(moments.solve_survival, "moments.solve_survival")
    patch(moments.solve_moments, "moments.solve_moments")
    patch(moments.solve_h, "moments.solve_h", count=lambda a, k, result: int(result.iterations))
    for fn in (moments.critical_limits, moments.subcritical_limits, moments.supercritical_limits):
        patch(fn, "moments.limits")

    for name in analysis.__all__:
        fn = getattr(analysis, name)
        if callable(fn) and not isinstance(fn, type):
            patch(fn, "analysis.tests")
    return rec


# ----------------------------------------------------------------------
# metrics from recorded spans


def _load(processes):
    """Flatten the per-thread buffers of each traced process into spans
    keyed by (thread, index), numbering threads across processes."""
    spans = {}
    offset = 0
    for threads in processes:
        for tid, buf in enumerate(threads, start=offset):
            for i, s in enumerate(buf):
                name, t0, t1, parent, n, step = s
                spans[(tid, i)] = {
                    "name": name,
                    "t0": t0,
                    "t1": t1,
                    "parent": (parent[0] + offset, parent[1]) if parent is not None else None,
                    "n": n,
                    "step": step,
                    "thread": tid,
                }
        offset += len(threads)
    return spans


def _union(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def analyse(processes):
    """Return (spans, children, self_time) for the span buffers of each
    traced process."""
    spans = _load(processes)
    children = defaultdict(list)
    for key, s in spans.items():
        if s["parent"] is not None:
            children[s["parent"]].append(key)
    self_time = {}
    for key, s in spans.items():
        covered = _union([(spans[c]["t0"], spans[c]["t1"]) for c in children.get(key, ())], s["t0"], s["t1"])
        self_time[key] = (s["t1"] - s["t0"]) - covered
    return spans, children, self_time


def _outermost(spans, key):
    """True unless an ancestor span carries the same name (a label nested
    in itself counts once)."""
    name = spans[key]["name"]
    parent = spans[key]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return False
        parent = spans[parent]["parent"]
    return True


def layer_metrics(processes, bytes_written, overhead_s, mc_fail_verdicts):
    spans, children, self_time = analyse(processes)
    by_name = defaultdict(list)
    for key, s in spans.items():
        by_name[s["name"]].append(key)

    def total(name):
        return sum(spans[k]["t1"] - spans[k]["t0"] for k in by_name[name] if _outermost(spans, k))

    def count(name):
        return sum(spans[k]["n"] for k in by_name[name])

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    for command in ("verify", "moments", "survive"):
        m[f"cli.{command}.wall_s"] = total(f"cli.{command}")
    m["cli.self_s"] = sum(self_time[k] for k, s in spans.items() if s["name"].startswith("cli."))
    m["cli.bytes_written"] = bytes_written
    m["config.load_s"] = total("config.load")

    rng_names = ("rng.uniform", "rng.event", "rng.normal", "rng.spawn_keys")
    m["rng.draws"] = sum(count(n) for n in ("rng.uniform", "rng.event", "rng.normal"))
    m["rng.busy_s"] = sum(total(n) for n in rng_names)
    m["rng.draws_per_s"] = rate(m["rng.draws"], m["rng.busy_s"])

    ensembles = by_name["branching.ensemble"]
    m["branching.ensemble_s"] = sum(spans[k]["t1"] - spans[k]["t0"] for k in ensembles)
    m["branching.self_s"] = sum(self_time[k] for k in ensembles)
    m["branching.particle_steps"] = count("rng.event")
    m["branching.births"] = count("rng.spawn_keys")
    m["branching.particle_steps_per_s"] = rate(m["branching.particle_steps"], m["branching.ensemble_s"])
    # live population at a step: the event draws of every ensemble chunk
    # started by the same caller (one per thread), summed per step index;
    # each chunk's step, timed from its event draw to its next one, goes to
    # the bucket of that live population
    live = defaultdict(int)
    chunk_steps = []
    for ens in ensembles:
        events = sorted(
            (spans[c] for c in children.get(ens, ()) if spans[c]["name"] == "rng.event"),
            key=lambda s: s["t0"],
        )
        for i, ev in enumerate(events):
            step = (spans[ens]["parent"], ev["step"])
            live[step] += ev["n"]
            end = events[i + 1]["t0"] if i + 1 < len(events) else spans[ens]["t1"]
            chunk_steps.append((step, ev["n"], end - ev["t0"]))
    bucket_steps = defaultdict(int)
    bucket_s = defaultdict(float)
    for step, n, seconds in chunk_steps:
        label = next(b for b, lo, hi in BUCKETS if lo <= live[step] < hi)
        bucket_steps[label] += n
        bucket_s[label] += seconds
    m["branching.peak_live"] = max(live.values(), default=0)
    for label, _lo, _hi in BUCKETS:
        m[f"branching.particle_steps.{label}"] = bucket_steps[label]
        m[f"branching.ensemble_s.{label}"] = bucket_s[label]
        m[f"branching.particle_steps_per_s.{label}"] = rate(bucket_steps[label], bucket_s[label])

    m["semigroup.eigentriple_calls"] = count("semigroup.eigentriple")
    m["semigroup.eigentriple_s"] = total("semigroup.eigentriple")
    m["semigroup.lu_factorizations"] = count("semigroup.lu")
    m["semigroup.lu_s"] = total("semigroup.lu")
    m["semigroup.cn_steps"] = count("semigroup.cn")
    m["semigroup.cn_s"] = total("semigroup.cn")
    m["semigroup.cn_steps_per_s"] = rate(m["semigroup.cn_steps"], m["semigroup.cn_s"])
    m["semigroup.build_generator_s"] = total("semigroup.build_generator")

    m["moments.calibration_s"] = total("moments.calibration")
    m["moments.calibration_evals"] = count("moments.calibration")
    m["moments.solve_survival_s"] = total("moments.solve_survival")
    m["moments.solve_moments_s"] = total("moments.solve_moments")
    m["moments.solve_h_s"] = total("moments.solve_h")
    m["moments.solve_h_iterations"] = count("moments.solve_h")
    m["moments.limits_s"] = total("moments.limits")

    m["analysis.tests_s"] = total("analysis.tests")
    m["analysis.mc_fail_verdicts"] = mc_fail_verdicts
    m["model.validate_s"] = total("model.validate")
    m["trace.spans"] = len(spans)
    m["trace.overhead_s"] = overhead_s
    return m, spans, children, self_time


def coverage_problems(metrics, spans, children, self_time, spec):
    """The trace self-check: counts that must agree, and child self times
    that must fit inside their parent, thread by thread."""
    problems = []
    n_commands = len(spec["commands"])
    n_cli = sum(1 for s in spans.values() if s["name"] == "cli.main")
    n_load = sum(1 for s in spans.values() if s["name"] == "config.load")
    if n_cli != n_commands or n_load != n_commands:
        problems.append(f"{n_cli} cli.main and {n_load} config.load spans for {n_commands} commands")
    if metrics["semigroup.eigentriple_calls"] == 0 or metrics["semigroup.build_generator_s"] == 0:
        problems.append("no semigroup.eigentriple or semigroup.build_generator spans")
    if spec["calibrates"]:
        want = metrics["moments.calibration_evals"] + n_commands
        if metrics["semigroup.eigentriple_calls"] != want:
            problems.append(
                f"semigroup.eigentriple_calls = {metrics['semigroup.eigentriple_calls']}, "
                f"expected moments.calibration_evals + {n_commands} = {want}"
            )
    if spec["particles"]:
        if metrics["rng.draws"] <= 0 or metrics["branching.particle_steps"] <= 0:
            problems.append("rng.draws or branching.particle_steps is 0 on a particle workload")
    elif metrics["rng.draws"] != 0:
        problems.append(f"rng.draws = {metrics['rng.draws']} on a workload without particles")
    for key, kids in children.items():
        parent = spans[key]
        per_thread = defaultdict(float)
        for c in kids:
            per_thread[spans[c]["thread"]] += self_time[c]
        duration = parent["t1"] - parent["t0"]
        for tid, summed in per_thread.items():
            if summed > duration * (1 + 1e-9) + 1e-6:
                problems.append(
                    f"children of {parent['name']} on thread {tid} have {summed:.6f} s self time "
                    f"in a {duration:.6f} s span"
                )
                break
    return problems
