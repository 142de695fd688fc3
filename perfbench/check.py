"""Output check for one iteration of a workload.

A command fails when it exits with an unexpected code or prints a
traceback, when a verify verdict is FAIL, when a verdict recorded as
conclusive for the workload is missing or inconclusive, when a grid
quantity leaves its reference tolerance, or when its data files differ
from the first iteration's.

The one exception is a workload's ``soft_fail_verdicts``: Monte Carlo
verdicts whose outcome moves with the seed at commit 9939954.  On
critical_driftedjump over the seeds 0-29, critical-lln-ratio FAILs on 10
seeds (z up to 6.5 against 4; its z has mean 3.5 and SD 1.0, a bias) and
critical-yaglom-exponential on 3 (a moment z-score up to 4.46 against 4).
A FAIL of such a verdict is counted, not failed, unless its statistic or
any of its moment z-scores exceeds ``MC_GROSS_FACTOR`` times its limit.
"""

from __future__ import annotations

import collections
import json
import math
import os
import shutil

# a soft verdict counts as a failed command beyond this multiple of its
# limit; commit 9939954 reaches at most 1.62x over the seeds 0-29
MC_GROSS_FACTOR = 2.0
# limit of the moment z-scores (details.moment_z, details.z_scores) that
# branchlab.analysis folds into a verdict
MOMENT_Z_MAX = 4.0

IGNORED_FILES = {"run_meta.json"}


def lookup(doc, key):
    """Follow a dotted key; ``name=X`` selects the list item named X."""
    cur = doc
    for part in key.split("."):
        if isinstance(cur, list):
            if part.startswith("name="):
                cur = next(item for item in cur if item.get("name") == part[5:])
            else:
                cur = cur[int(part)]
        else:
            cur = cur[part]
    return cur


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def miss_ratio(test):
    """Largest of the verdict's statistic over its threshold and of its
    moment z-scores over ``MOMENT_Z_MAX``; inf when not finite."""
    details = test.get("details") or {}
    try:
        ratios = [test["value"] / test["threshold"]]
        for key in ("moment_z", "z_scores"):
            ratios += [abs(z) / MOMENT_Z_MAX for z in details.get(key) or ()]
    except (TypeError, ZeroDivisionError):
        return math.inf
    worst = max(ratios)
    return worst if math.isfinite(worst) else math.inf


def verdict_problems(out_dir, spec):
    """Return (problems, soft FAIL count, any FAIL) for the
    verification.json in ``out_dir``."""
    problems, soft, any_fail = [], 0, False
    soft_names = set(spec.get("soft_fail_verdicts", ()))
    doc = _load_json(os.path.join(out_dir, "verification.json"))
    conclusive = collections.Counter(t["name"] for t in doc["tests"] if not t["inconclusive"])
    for name, want in collections.Counter(spec["verdicts"]).items():
        if conclusive[name] < want:
            problems.append(f"verdict {name}: {conclusive[name]} conclusive, expected {want}")
    for test in doc["tests"]:
        if test["passed"] or test["inconclusive"]:
            continue
        any_fail = True
        if test["name"] not in soft_names:
            problems.append(f"verdict {test['name']} is FAIL ({test['value']!r} against {test['threshold']!r})")
        elif (ratio := miss_ratio(test)) > MC_GROSS_FACTOR:
            problems.append(f"verdict {test['name']} misses by {ratio:.3g} x its limit, beyond {MC_GROSS_FACTOR:g}")
        else:
            soft += 1
    return problems, soft, any_fail


def reference_problems(out_dir, references):
    problems = []
    for ref in references:
        label = ref.get("label", ref["key"])
        try:
            got = float(lookup(_load_json(os.path.join(out_dir, ref["file"])), ref["key"]))
        except (OSError, KeyError, IndexError, StopIteration, ValueError, TypeError) as err:
            problems.append(f"{label}: cannot read {ref['file']}:{ref['key']} ({err!r})")
            continue
        allowed = ref["abs_tol"] + ref["rel_tol"] * abs(ref["value"])
        if not abs(got - ref["value"]) <= allowed:
            problems.append(f"{label} = {got!r}, reference {ref['value']!r} +- {allowed:.3g}")
    return problems


def data_files(out_dir):
    found = {}
    for root, _dirs, files in os.walk(out_dir):
        for name in files:
            if name not in IGNORED_FILES:
                path = os.path.join(root, name)
                found[os.path.relpath(path, out_dir)] = path
    return found


def differing_files(dir_a, dir_b):
    """Data files (run_meta.json excluded) that are missing from one
    directory or whose bytes differ."""
    a, b = data_files(dir_a), data_files(dir_b)
    diff = sorted(set(a) ^ set(b))
    for rel in sorted(set(a) & set(b)):
        with open(a[rel], "rb") as fa, open(b[rel], "rb") as fb:
            if fa.read() != fb.read():
                diff.append(rel)
    return diff


def iteration_problems(spec, out_dir, results, first_dir=None):
    """Check one iteration.  ``results`` holds (argv, exit code, stderr) per
    command.  Returns (problems per command, soft FAIL count)."""
    per_command, soft = [], 0
    for argv, code, stderr in results:
        problems = []
        if "Traceback (most recent call last)" in stderr:
            problems.append("traceback on stderr")
        expected = {0}
        if argv[0] == "verify":
            try:
                verdicts, soft_here, any_fail = verdict_problems(out_dir, spec)
            except (OSError, ValueError, KeyError) as err:
                verdicts, soft_here, any_fail = [f"verification.json unreadable ({err!r})"], 0, False
            problems += verdicts
            soft += soft_here
            expected = {1} if any_fail else {0}
        if code not in expected:
            problems.append(f"exit code {code}, expected {sorted(expected)}")
        per_command.append(problems)
    if per_command:
        per_command[-1] += reference_problems(out_dir, spec["references"])
        if first_dir is not None:
            diff = differing_files(first_dir, out_dir)
            if diff:
                per_command[-1].append(f"data files differ from the first iteration: {', '.join(diff)}")
    return per_command, soft


# ----------------------------------------------------------------------
# tampered outputs: each must be reported as a failed command


def _rewrite(path, edit):
    doc = _load_json(path)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def tamper_fail_verdict(out_dir, spec):
    """Turn the first verdict that is not soft into FAIL."""
    soft_names = set(spec.get("soft_fail_verdicts", ()))

    def edit(doc):
        test = next(t for t in doc["tests"] if t["name"] not in soft_names)
        test["passed"] = False
        test["inconclusive"] = False

    _rewrite(os.path.join(out_dir, "verification.json"), edit)


def tamper_lambda0(out_dir, references):
    """Shift the reference lambda0 value by 1e-3."""
    ref = next(r for r in references if r["key"] == "lambda0")

    def edit(doc):
        doc["lambda0"] = doc["lambda0"] + 1e-3

    _rewrite(os.path.join(out_dir, ref["file"]), edit)


def tamper_rerun(out_dir):
    """Change one byte of the largest data file, as a rerun that differs."""
    files = data_files(out_dir)
    path = max(files.values(), key=os.path.getsize)
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(b"0" if byte != b"0" else b"1")


def tampered_cases(spec, out_dir, results, scratch):
    """Apply each tamper to a copy of ``out_dir`` and check it against the
    untouched original.  Returns {case: number of failed commands}."""
    # (tamper, compare with the untouched copy as an earlier iteration)
    cases = {"rerun differs": (tamper_rerun, True)}
    if any(r["key"] == "lambda0" for r in spec["references"]):
        cases["lambda0 + 1e-3"] = (lambda d: tamper_lambda0(d, spec["references"]), False)
    if any(argv[0] == "verify" for argv, _c, _e in results):
        cases["FAIL verdict"] = (lambda d: tamper_fail_verdict(d, spec), False)
    failed = {}
    for name, (tamper, rerun) in cases.items():
        copy = os.path.join(scratch, "tampered-" + name.replace(" ", "_"))
        shutil.copytree(out_dir, copy)
        tamper(copy)
        per_command, _soft = iteration_problems(spec, copy, results, first_dir=out_dir if rerun else None)
        failed[name] = sum(1 for p in per_command if p)
        shutil.rmtree(copy)
    return failed
