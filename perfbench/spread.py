"""Run-to-run spread of the benchmark's end-to-end metrics over several
seeds, in the format of perfbench/baseline.json.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per workload and seed, one after
the other, and prints for each metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the interquartile spread as a
share of the median.  ``--out`` also makes one traced run per workload (the
first seed) and writes everything as JSON; perfbench/baseline.json was made
this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results):
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        metrics[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values,
        }
    return metrics


def run(name, seed, seconds, trace):
    """One run.py invocation; returns its result line with the provenance
    line under ``provenance``, or None when the run failed."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"{name} seed {seed} trace {trace}: run failed (exit {proc.returncode})\n"
              f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
        return None
    prov = [ln for ln in lines if ln.startswith("provenance ")]
    result["provenance"] = json.loads(prov[-1][len("provenance "):])
    return result


def main(argv=None):
    with open(os.path.join(HERE, "workloads.json")) as fh:
        names = list(json.load(fh)["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    workloads, prov = {}, None
    for name in args.workload or names:
        results = []
        for seed in args.seeds:
            result = run(name, seed, args.seconds, 0)
            if result is None:
                return 1
            prov = prov or result["provenance"]
            results.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
        summary = summarize(results)
        for metric, s in summary.items():
            spread = f"{s['spread']:.4f}" if s["spread"] is not None else "n/a"
            print(f"  {name:28s} {metric:12s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}", flush=True)
        workloads[name] = {
            "seeds": args.seeds,
            "end_to_end": summary,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "mc_fail_verdicts_per_run": [
                sum(it["mc_fail_verdicts"] for it in r["provenance"]["iterations"]) for r in results
            ],
        }
        if args.out:
            traced = run(name, args.seeds[0], args.seconds, 1)
            if traced is None:
                return 1
            workloads[name]["traced"] = {
                "seed": args.seeds[0],
                "correct": traced["correct"],
                "coverage_problems": traced["provenance"]["coverage_problems"],
                "metrics": {m: v["value"] for m, v in traced["metrics"].items()},
            }
    if args.out:
        doc = {
            "description": f"Baseline at the commit below: {len(args.seeds)} untraced runs per workload "
                           f"(seeds {args.seeds[0]}-{args.seeds[-1]}, --seconds {args.seconds}) and one traced "
                           "run per workload. spread = (q3 - q1) / median with statistics.quantiles(values, n=4).",
            "git_sha": prov["git_sha"],
            "machine": {k: prov[k] for k in ("cpu_model", "nproc", "affinity_cpus", "python", "numpy", "scipy", "blas")},
            "workloads": workloads,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
