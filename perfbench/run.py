"""branchlab benchmark: named workloads of real CLI commands.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --check [--seed N] [--seconds S]

Run from the repository root.  Each workload (perfbench/workloads.json) is a
list of ``branchlab`` commands, started one after the other from this
process as a closed loop: a command starts when the previous one exits.
``--seed`` is passed to every command (default: each config's mc.seed).

With ``--trace 0`` the workload repeats until ``--seconds`` have passed,
after a few start-up probes; the end-to-end metrics are medians over the
iterations.  One iteration of a verify workload takes longer than the
10 s that BENCHMARK.json gives a run, so it runs once: a second one would
double the run for little steadiness, because the run-to-run spread is
mostly host drift, which two adjacent iterations share.  With
``--trace 1`` one untraced iteration is followed by one traced iteration,
whose spans (tracing.py) give the per-layer metrics; the traced wall time
minus the untraced one is reported as ``trace.overhead_s``.  Every
iteration's outputs go through the output check (check.py), and data files
must be byte-identical across the iterations of one invocation, so every
traced run is also a determinism check.

``--check`` runs every workload twice and requires identical data files,
checks that verify_super_jumps gives the same verification.json with
``--threads 1``, feeds the output check three tampered outputs, and prints
every end-to-end metric by name.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import check
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

# start-up-only launches per untraced run, on top of the iterations' own
# commands; each adds ~1.2 s to every run
SETUP_PROBES = 6
COMMAND_TIMEOUT_S = 170.0
RUN_BUDGET_S = 120.0  # no iteration starts after this much of a run


def load_spec():
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def load_units():
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json
    declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def spawn(cli_args, out_dir, seed, logs, spans_path=None, probe=False):
    """Run one launcher process to completion; returns its measurements."""
    os.makedirs(logs, exist_ok=True)
    tag = f"{len(os.listdir(logs)):03d}"
    stamp = os.path.join(logs, tag + ".stamp.json")
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), stamp]
    if probe:
        cmd.append("--probe")
    if spans_path:
        cmd += ["--spans", spans_path]
    cmd += ["--", *cli_args, "--out", out_dir]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ)
    env.pop("BRANCHLAB_OUT_ROOT", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    err_path = os.path.join(logs, tag + ".stderr")
    with open(os.path.join(logs, tag + ".stdout"), "w") as out, open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(err_path) as fh:
        stderr = fh.read()
    try:
        with open(stamp) as fh:
            stamp_doc = json.load(fh)
    except (OSError, ValueError):
        stamp_doc = {}
    entered = stamp_doc.get("main_entered")
    return {
        "argv": cli_args,
        "code": code,
        "stderr": stderr,
        "start": start,
        "end": end,
        "setup_s": entered - start if entered is not None else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "blas": stamp_doc.get("blas"),
    }


def with_threads(argv, threads):
    argv = list(argv)
    argv[argv.index("--threads") + 1] = str(threads)
    return argv


def run_iteration(commands, seed, out_dir, logs, spans_dir=None):
    """Run a workload's commands in order into ``out_dir``."""
    os.makedirs(out_dir)
    results = []
    for k, argv in enumerate(commands):
        spans = os.path.join(spans_dir, f"spans{k}.json") if spans_dir else None
        results.append(spawn(argv, out_dir, seed, logs, spans_path=spans))
    return {
        "dir": out_dir,
        "results": results,
        "wall_s": results[-1]["end"] - results[0]["start"],
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "spans": [os.path.join(spans_dir, f"spans{k}.json") for k in range(len(commands))] if spans_dir else None,
    }


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(root, f)) for root, _d, files in os.walk(path) for f in files)


def check_iteration(spec, it, first):
    per_command, soft = check.iteration_problems(
        spec, it["dir"], [(r["argv"], r["code"], r["stderr"]) for r in it["results"]],
        first_dir=first["dir"] if first is not None else None,
    )
    it["problems"] = per_command
    it["mc_fail_verdicts"] = soft
    return per_command


def measure(name, spec, seed, seconds, trace, run_dir):
    """One benchmark run of a workload; returns a result dict."""
    commands = spec["commands"]
    logs = os.path.join(run_dir, "logs")
    setup_samples = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = spawn(commands[0], os.path.join(run_dir, "probe"), seed, logs, probe=True)
            if probe["code"] != 0 or probe["setup_s"] is None:
                raise RuntimeError(f"start-up probe failed (exit {probe['code']}): {probe['stderr'][-2000:]}")
            setup_samples.append(probe["setup_s"])

    iterations = []
    begin = time.monotonic()
    while True:
        k = len(iterations)
        traced = trace and k == 1
        spans_dir = os.path.join(run_dir, "spans") if traced else None
        if spans_dir:
            os.makedirs(spans_dir)
        it = run_iteration(commands, seed, os.path.join(run_dir, f"iter{k}"), logs, spans_dir)
        check_iteration(spec, it, iterations[0] if iterations else None)
        iterations.append(it)
        elapsed = time.monotonic() - begin
        if trace:
            if traced:
                break
        elif elapsed >= seconds or elapsed >= RUN_BUDGET_S:
            break

    for it in iterations:
        setup_samples += [r["setup_s"] for r in it["results"] if r["setup_s"] is not None]
    untraced = iterations[:1] if trace else iterations
    e2e = {
        "wall_s": statistics.median(it["wall_s"] for it in untraced),
        "setup_s": len(commands) * statistics.median(setup_samples) if setup_samples else None,
        "cpu_s": statistics.median(it["cpu_s"] for it in untraced),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in untraced),
    }
    result = {
        "workload": name,
        "iterations": iterations,
        "end_to_end": e2e,
        "setup_samples": setup_samples,
        "coverage_problems": [],
    }
    if trace:
        last = iterations[-1]
        processes = []
        for path in last["spans"]:
            with open(path) as fh:
                processes.append(json.load(fh)["threads"])
        metrics, spans, children, self_time = tracing.layer_metrics(
            processes,
            bytes_written=dir_bytes(last["dir"]),
            overhead_s=last["wall_s"] - iterations[0]["wall_s"],
            mc_fail_verdicts=last["mc_fail_verdicts"],
        )
        problems = tracing.coverage_problems(metrics, spans, children, self_time, spec)
        result["per_layer"] = metrics
        result["coverage_problems"] = problems
        if problems:
            for cmd_problems in last["problems"]:
                cmd_problems.append("trace coverage self-check failed")
    return result


def counts(result):
    per_command = [p for it in result["iterations"] for p in it["problems"]]
    return len(per_command), sum(1 for p in per_command if p)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _config_hashes(result):
    """config_hash as the program wrote it into its JSON outputs, per
    config (a workload's commands share one config)."""
    first = result["iterations"][0]
    hashes = set()
    for rel, path in check.data_files(first["dir"]).items():
        if rel.endswith(".json"):
            try:
                with open(path) as fh:
                    doc = json.load(fh)
            except (OSError, ValueError):
                continue
            if isinstance(doc, dict) and "config_hash" in doc:
                hashes.add(doc["config_hash"])
    configs = sorted({argv[argv.index("--config") + 1] for argv in (r["argv"] for r in first["results"])})
    return {cfg: sorted(hashes) for cfg in configs}


def provenance(result, seed, seconds, trace):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    first = result["iterations"][0]["results"][0]
    return {
        "workload": result["workload"],
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config_hash": _config_hashes(result),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": first["blas"],
        "iterations": [
            {
                "wall_s": it["wall_s"],
                "cpu_s": it["cpu_s"],
                "peak_rss_mb": it["peak_rss_mb"],
                "traced": bool(it["spans"]),
                "mc_fail_verdicts": it["mc_fail_verdicts"],
                "problems": [p for p in it["problems"] if p],
            }
            for it in result["iterations"]
        ],
        "setup_samples_s": result["setup_samples"],
        "coverage_problems": result["coverage_problems"],
    }


def report(result, values, units, seed, seconds, trace):
    """Print a run's provenance, failures and metrics; returns
    (attempted, failed) commands."""
    name = result["workload"]
    attempted, failed = counts(result)
    print("provenance " + json.dumps(provenance(result, seed, seconds, trace), sort_keys=True))
    # failures go to stderr, with the failing command's own stderr tail,
    # so that a caller keeping only the stderr tail still sees the cause
    for it in result["iterations"]:
        for res, problems in zip(it["results"], it["problems"]):
            for p in problems:
                print(f"FAILED {name} ({' '.join(res['argv'])}): {p}", file=sys.stderr)
            if problems and res["stderr"].strip():
                print(f"stderr of that command, last lines:\n{res['stderr'][-1500:]}", file=sys.stderr)
    for metric, value in values.items():
        print(f"  {name:28s} {metric:40s} {value:>16.6g} {units[metric]}")
    print(f"  {name:28s} {'failed_frac':40s} {failed / attempted:>16.6g} 1")
    return attempted, failed


def run_one(args, spec_all):
    spec = spec_all["workloads"][args.workload]
    e2e_units, layer_units = load_units()
    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    result = measure(args.workload, spec, args.seed, args.seconds, args.trace, run_dir)
    values = result["per_layer"] if args.trace else result["end_to_end"]
    units = layer_units if args.trace else e2e_units
    attempted, failed = report(result, values, units, args.seed, args.seconds, args.trace)
    if failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        print(f"outputs kept in {run_dir}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0 if failed == 0 else 1


def run_check(args, spec_all):
    """Every workload once, thread invariance, and the tampered outputs."""
    e2e_units, _layer_units = load_units()
    attempted = failed = 0
    metrics = {}
    base = os.path.join(RUNS_DIR, f"check-s{args.seed}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    for name, spec in spec_all["workloads"].items():
        run_dir = os.path.join(base, name)
        result = measure(name, spec, args.seed, args.seconds, False, run_dir)
        a, f = report(result, result["end_to_end"], e2e_units, args.seed, args.seconds, False)
        attempted, failed = attempted + a, failed + f
        for metric, value in result["end_to_end"].items():
            metrics[f"{name}.{metric}"] = {"value": value, "unit": e2e_units[metric]}

        first = result["iterations"][0]
        rerun = run_iteration(spec["commands"], args.seed, os.path.join(run_dir, "rerun"), os.path.join(run_dir, "logs"))
        problems = check_iteration(spec, rerun, first)
        attempted += len(problems)
        failed += sum(1 for p in problems if p)
        print(f"rerun of {name}: {'identical data files' if not any(problems) else problems}")

        results = [(r["argv"], r["code"], r["stderr"]) for r in first["results"]]
        for case, n_failed in check.tampered_cases(spec, first["dir"], results, run_dir).items():
            attempted += 1
            caught = n_failed > 0
            failed += 0 if caught else 1
            print(f"tampered output '{case}' on {name}: {'counted as failed' if caught else 'NOT DETECTED'}")

        if any("--threads" in argv for argv in spec["commands"]):
            commands = [with_threads(argv, 1) for argv in spec["commands"]]
            single = run_iteration(commands, args.seed, os.path.join(run_dir, "threads1"), os.path.join(run_dir, "logs"))
            problems = check_iteration(spec, single, None)
            with open(os.path.join(first["dir"], "verification.json"), "rb") as fa, open(
                os.path.join(single["dir"], "verification.json"), "rb"
            ) as fb:
                same = fa.read() == fb.read() and not any(problems)
            attempted += 1
            failed += 0 if same else 1
            print(f"thread invariance on {name} (--threads 1 vs 2): {'identical' if same else 'DIFFERS'}")
        if not failed:
            shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None):
    spec_all = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(spec_all["workloads"]))
    mode.add_argument("--check", action="store_true", help="all workloads, thread invariance, tampered outputs")
    parser.add_argument("--seed", type=int, default=None, help="passed to every command as --seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="minimum measured time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "branchlab", "cli.py")):
        print(f"error: no branchlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.check:
        return run_check(args, spec_all)
    return run_one(args, spec_all)


if __name__ == "__main__":
    sys.exit(main())
