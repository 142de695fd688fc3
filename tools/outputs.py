"""Output-sameness harness: run every shipped config through every command,
then compare two such runs file by file.

    python3 tools/outputs.py run TREE OUT     # TREE: a checkout of this repository
    python3 tools/outputs.py diff A B         # A, B: two OUT directories of `run`

``run`` executes the 12 configs of ``TREE/configs`` through ``validate``,
``spectrum``, ``moments``, ``survive``, ``simulate``, ``verify --threads 1``
and ``report`` (one output directory per config, ``main/``), plus
``verify --threads 2`` into ``threads2/``, with the package of
``TREE/src``.  It writes ``OUT/manifest.json``: the sha256 of every data
file (``run_meta.json`` holds wall-clock times and is left out) and each
command's exit code, stdout and stderr, with OUT shown as ``<OUT>``, and
the ``peak_rss_mb`` of the ``run_meta.json`` it wrote (null when it wrote
none, or a tree whose commands do not record it).

``diff`` counts the identical files, lists each changed JSON key or CSV
column (grouped by file name over the configs) with its maximum absolute
and relative deviation, lists commands whose exit code or text changed,
lists each verify verdict (config, name, position) whose status (PASS,
FAIL or INCONCLUSIVE) changed, and checks in each run that ``verify
--threads 2`` wrote the bytes of ``--threads 1``.  It exits 0 only when nothing differs.  It also lists the
commands whose peak RSS moved by more than 5%, as information: memory
does not enter the exit code.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time

COMMANDS = (
    ("main", ["validate"]),
    ("main", ["spectrum"]),
    ("main", ["moments"]),
    ("main", ["survive"]),
    ("main", ["simulate"]),
    ("main", ["verify", "--threads", "1"]),
    ("threads2", ["verify", "--threads", "2"]),
    ("main", ["report"]),
)
SKIPPED = {"run_meta.json"}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def hash_files(out):
    """{relative path: sha256} of the data files under ``out``."""
    files = {}
    for root, _dirs, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out)
            if name not in SKIPPED and rel != "manifest.json":
                files[rel.replace(os.sep, "/")] = _sha256(path)
    return dict(sorted(files.items()))


def run(tree, out):
    """Run every config of ``tree`` through COMMANDS into ``out``; returns
    the manifest it writes."""
    tree, out = os.path.abspath(tree), os.path.abspath(out)
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    configs = sorted(f[:-5] for f in os.listdir(os.path.join(tree, "configs")) if f.endswith(".json"))
    commands = []
    for name in configs:
        for sub, argv in COMMANDS:
            target = os.path.join(out, name, sub)
            full = [argv[0], "--config", os.path.join("configs", f"{name}.json"), "--out", target, *argv[1:]]
            start = time.time()
            proc = subprocess.run(
                [sys.executable, "-m", "branchlab.cli", *full], cwd=tree, env=env, capture_output=True, text=True
            )
            commands.append(
                {
                    "config": name,
                    "argv": [*argv, f"-> {sub}"],
                    "exit": proc.returncode,
                    "stdout": proc.stdout.replace(out, "<OUT>"),
                    "stderr": proc.stderr.replace(out, "<OUT>"),
                    "peak_rss_mb": peak_rss_mb(os.path.join(target, "run_meta.json"), start),
                }
            )
            print(f"{name} {' '.join(argv)}: exit {proc.returncode}", flush=True)
    manifest = {"commands": commands, "files": hash_files(out)}
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return manifest


def peak_rss_mb(meta, since):
    """The ``peak_rss_mb`` of the run_meta.json at ``meta`` if a command
    finished it at or after unix time ``since``; None when there is no such
    file or field, or when it is an earlier command's (a failing command
    writes none, and the directory is the command's own input, left as is)."""
    try:
        with open(meta) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    return doc.get("peak_rss_mb") if doc["finished_unix"] >= since else None


# ----------------------------------------------------------------------
# comparison


def _flatten(doc, prefix=""):
    """{dotted key: leaf} of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {prefix: doc}
    flat = {}
    for key, value in items:
        flat.update(_flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return flat


def _csv_columns(path):
    """{column name: list of cells} of a CSV written with a '#' meta line."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _leaves(path):
    """Comparable leaves of a data file: {key: value}, or None for text."""
    if path.endswith(".json"):
        with open(path) as fh:
            return _flatten(json.load(fh))
    if path.endswith(".csv"):
        return _csv_columns(path)
    return None


def _number(v):
    if isinstance(v, bool):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _deviation(a, b):
    """(max absolute, max relative deviation) between two leaves (a number
    or a column of cells); None when they differ in something other than
    numbers."""
    a_vals, b_vals = (a, b) if isinstance(a, list) else ([a], [b])
    if len(a_vals) != len(b_vals):
        return None
    worst_abs = worst_rel = 0.0
    for x, y in zip(a_vals, b_vals):
        if x == y:
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            return None
        if math.isnan(fx) and math.isnan(fy):
            continue
        d = abs(fx - fy)
        scale = max(abs(fx), abs(fy))
        worst_abs = max(worst_abs, d)
        worst_rel = max(worst_rel, d / scale if scale > 0 else math.inf)
    return worst_abs, worst_rel


def compare(a_dir, b_dir):
    """Differences between two ``run`` outputs, as a dict (see ``diff``)."""
    with open(os.path.join(a_dir, "manifest.json")) as fh:
        a = json.load(fh)
    with open(os.path.join(b_dir, "manifest.json")) as fh:
        b = json.load(fh)
    fa, fb = a["files"], b["files"]
    identical = sorted(p for p in fa if fb.get(p) == fa[p])
    changed = sorted(p for p in fa if p in fb and fb[p] != fa[p])
    deviations = {}
    for rel in changed:
        base = rel.rsplit("/", 1)[-1]
        la, lb = _leaves(os.path.join(a_dir, rel)), _leaves(os.path.join(b_dir, rel))
        if la is None or lb is None:
            deviations.setdefault((base, "<text>"), {"files": 0, "abs": None, "rel": None})["files"] += 1
            continue
        for key in sorted(set(la) | set(lb)):
            if la.get(key) == lb.get(key):
                continue
            dev = _deviation(la[key], lb[key]) if key in la and key in lb else None
            entry = deviations.setdefault((base, key), {"files": 0, "abs": 0.0, "rel": 0.0})
            entry["files"] += 1
            if dev is None or entry["abs"] is None:
                entry["abs"] = entry["rel"] = None
            else:
                entry["abs"] = max(entry["abs"], dev[0])
                entry["rel"] = max(entry["rel"], dev[1])
    commands = [
        (ca["config"], " ".join(ca["argv"]), field)
        for ca, cb in zip(a["commands"], b["commands"])
        for field in ("exit", "stdout", "stderr")
        if ca[field] != cb[field]
    ]
    if len(a["commands"]) != len(b["commands"]):
        commands.append(("*", "command list", "length"))
    rss = [
        (ca["config"], " ".join(ca["argv"]), ca.get("peak_rss_mb"), cb.get("peak_rss_mb"))
        for ca, cb in zip(a["commands"], b["commands"])
    ]
    rss = [r for r in rss if r[2] and r[3]]
    va, vb = verdict_statuses(a_dir, fa), verdict_statuses(b_dir, fb)
    return {
        "identical": len(identical),
        "changed": changed,
        "only_a": sorted(set(fa) - set(fb)),
        "only_b": sorted(set(fb) - set(fa)),
        "deviations": deviations,
        "commands": commands,
        "threads": {"a": threads_mismatch(fa), "b": threads_mismatch(fb)},
        "rss_compared": len(rss),
        "rss_moved": [r for r in rss if abs(r[3] / r[2] - 1) > 0.05],
        "verdicts": len(set(va) | set(vb)),
        "verdicts_changed": [
            (*key, va.get(key), vb.get(key)) for key in sorted(set(va) | set(vb)) if va.get(key) != vb.get(key)
        ],
    }


def verdict_statuses(out, files):
    """{(config, verdict name, position): PASS, FAIL or INCONCLUSIVE} of
    every verdict in the ``verify --threads 1`` output of each config."""
    statuses = {}
    for rel in files:
        config, *rest = rel.split("/")
        if rest != ["main", "verification.json"]:
            continue
        with open(os.path.join(out, rel)) as fh:
            tests = json.load(fh).get("tests", [])
        for position, test in enumerate(tests):
            status = "INCONCLUSIVE" if test.get("inconclusive") else "PASS" if test.get("passed") else "FAIL"
            statuses[(config, test.get("name"), position)] = status
    return statuses


def threads_mismatch(files):
    """Files of ``verify --threads 2`` whose bytes differ from (or are
    missing in) the ``--threads 1`` run of the same config."""
    bad = []
    for rel, digest in files.items():
        parts = rel.split("/")
        if len(parts) == 3 and parts[1] == "threads2":
            if files.get(f"{parts[0]}/main/{parts[2]}") != digest:
                bad.append(rel)
    return bad


def _fmt(x):
    return "n/a" if x is None else f"{x:.3g}"


def diff(a_dir, b_dir, stream=sys.stdout):
    """Print the comparison of two ``run`` outputs; returns 0 when the data
    files, the commands' exit codes and text, and the thread counts all
    agree."""
    res = compare(a_dir, b_dir)
    total = res["identical"] + len(res["changed"]) + len(res["only_a"]) + len(res["only_b"])
    print(f"identical files: {res['identical']} of {total}", file=stream)
    for rel in res["only_a"]:
        print(f"only in A: {rel}", file=stream)
    for rel in res["only_b"]:
        print(f"only in B: {rel}", file=stream)
    for (base, key), dev in sorted(res["deviations"].items()):
        print(
            f"changed: {base} {key} in {dev['files']} file(s): "
            f"max abs {_fmt(dev['abs'])}, max rel {_fmt(dev['rel'])}",
            file=stream,
        )
    for config, argv, field in res["commands"]:
        print(f"command differs: {config} {argv}: {field}", file=stream)
    if res["verdicts_changed"]:
        for config, name, position, was, now in res["verdicts_changed"]:
            print(f"verdict status changed: {config} {name} (position {position}): {was} -> {now}", file=stream)
    else:
        print(f"verdict statuses: {res['verdicts']} of {res['verdicts']} identical", file=stream)
    for side in ("a", "b"):
        bad = res["threads"][side]
        status = "same bytes" if not bad else f"{len(bad)} file(s) differ: {', '.join(bad)}"
        print(f"--threads 1 vs 2 in {side.upper()}: {status}", file=stream)
    print(f"peak RSS in both runs: {res['rss_compared']} command(s), "
          f"{len(res['rss_moved'])} moved by more than 5% (not part of the exit code)", file=stream)
    for config, argv, mb_a, mb_b in res["rss_moved"]:
        print(f"peak RSS moved: {config} {argv}: {mb_a:.1f} -> {mb_b:.1f} MB ({mb_b / mb_a - 1:+.1%})", file=stream)
    clean = total == res["identical"] and not res["commands"] and not any(res["threads"].values())
    return 0 if clean else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run every config through every command")
    p_run.add_argument("tree")
    p_run.add_argument("out")
    p_diff = sub.add_parser("diff", help="compare two run outputs")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.tree, args.out)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
