"""The differ of tools/outputs.py on small fixture directories, and ``run``
on a stand-in tree (the full ``run`` over every config and command stays
out of the test suite)."""

import importlib.util
import io
import json
import os

import pytest

spec = importlib.util.spec_from_file_location(
    "outputs_tool", os.path.join(os.path.dirname(__file__), "..", "tools", "outputs.py")
)
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)


def _fixture(root, files, commands=None):
    """An output directory of ``run``: ``files`` maps relative paths to text."""
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    manifest = {
        "commands": commands or [{"config": "c", "argv": ["validate", "-> main"], "exit": 0, "stdout": "", "stderr": ""}],
        "files": outputs.hash_files(str(root)),
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    return str(root)


CSV = "# config_hash=abc seed=1\ntime,node,u0\r\n0.0,-1.0,1.0\r\n0.5,-1.0,{}\r\n"
VERIFY = {"c/main/verification.json": '{"tests": [{"value": 0.5}]}', "c/threads2/verification.json": '{"tests": [{"value": 0.5}]}'}


def _pair(tmp_path, a_files, b_files, **kw):
    return _fixture(tmp_path / "a", a_files), _fixture(tmp_path / "b", b_files, **kw)


def test_identical_runs_diff_clean(tmp_path):
    files = {**VERIFY, "c/main/u0.csv": CSV.format(0.25), "c/main/run_meta.json": "{}"}
    a, b = _pair(tmp_path, files, {**files, "c/main/run_meta.json": '{"wall_clock_s": 2}'})
    out = io.StringIO()
    assert outputs.diff(a, b, stream=out) == 0
    text = out.getvalue()
    assert "identical files: 3 of 3" in text
    assert "--threads 1 vs 2 in A: same bytes" in text and "--threads 1 vs 2 in B: same bytes" in text


def test_changed_json_key_and_csv_column_report_their_deviation(tmp_path):
    a_files = {**VERIFY, "c/main/u0.csv": CSV.format(0.25), "c/main/survival.json": '{"h": 1.0, "n": 3, "r": "x"}'}
    b_files = {**VERIFY, "c/main/u0.csv": CSV.format(0.2), "c/main/survival.json": '{"h": 1.5, "n": 3, "r": "y"}'}
    a, b = _pair(tmp_path, a_files, b_files)
    res = outputs.compare(a, b)
    assert res["identical"] == 2 and res["changed"] == ["c/main/survival.json", "c/main/u0.csv"]
    dev = res["deviations"]
    assert set(dev) == {("survival.json", "h"), ("survival.json", "r"), ("u0.csv", "u0")}
    assert dev[("survival.json", "h")]["abs"] == pytest.approx(0.5)
    assert dev[("survival.json", "h")]["rel"] == pytest.approx(0.5 / 1.5)
    assert dev[("u0.csv", "u0")]["abs"] == pytest.approx(0.05)
    assert dev[("u0.csv", "u0")]["rel"] == pytest.approx(0.05 / 0.25)
    assert dev[("survival.json", "r")]["abs"] is None
    out = io.StringIO()
    assert outputs.diff(a, b, stream=out) == 1
    assert "changed: u0.csv u0 in 1 file(s): max abs 0.05, max rel 0.2" in out.getvalue()


def test_thread_mismatch_missing_file_and_command_change_fail(tmp_path):
    b_files = {**VERIFY, "c/threads2/verification.json": '{"tests": [{"value": 0.6}]}', "c/main/extra.txt": "x"}
    changed = [{"config": "c", "argv": ["validate", "-> main"], "exit": 2, "stdout": "", "stderr": "config error"}]
    a, b = _pair(tmp_path, VERIFY, b_files, commands=changed)
    res = outputs.compare(a, b)
    assert res["threads"] == {"a": [], "b": ["c/threads2/verification.json"]}
    assert res["only_b"] == ["c/main/extra.txt"]
    assert res["commands"] == [("c", "validate -> main", "exit"), ("c", "validate -> main", "stderr")]
    assert outputs.diff(a, b, stream=io.StringIO()) == 1


# a stand-in CLI: every command writes one data file and a sidecar whose
# peak_rss_mb is the command name's length, except simulate, which fails
FAKE_CLI = """
import json, os, sys, time
command, out = sys.argv[1], sys.argv[sys.argv.index("--out") + 1]
os.makedirs(out, exist_ok=True)
if command == "simulate":
    sys.exit(1)
with open(os.path.join(out, command + ".json"), "w") as fh:
    json.dump({"command": command}, fh)
with open(os.path.join(out, "run_meta.json"), "w") as fh:
    json.dump({"finished_unix": time.time(), "peak_rss_mb": float(len(command))}, fh)
"""


def test_run_copies_each_commands_peak_rss(tmp_path):
    tree = tmp_path / "tree"
    (tree / "configs").mkdir(parents=True)
    (tree / "configs" / "c.json").write_text("{}")
    (tree / "src" / "branchlab").mkdir(parents=True)
    (tree / "src" / "branchlab" / "__init__.py").write_text("")
    (tree / "src" / "branchlab" / "cli.py").write_text(FAKE_CLI)
    manifest = outputs.run(str(tree), str(tmp_path / "out"))
    got = {(" ".join(c["argv"]), c["exit"], c["peak_rss_mb"]) for c in manifest["commands"]}
    assert got == {
        ("validate -> main", 0, 8.0), ("spectrum -> main", 0, 8.0), ("moments -> main", 0, 7.0),
        ("survive -> main", 0, 7.0), ("verify --threads 1 -> main", 0, 6.0),
        ("verify --threads 2 -> threads2", 0, 6.0), ("report -> main", 0, 6.0),
        ("simulate -> main", 1, None),  # not the sidecar survive left behind
    }
    assert (tmp_path / "out" / "c" / "main" / "run_meta.json").exists()  # run removes nothing
    assert "c/main/run_meta.json" not in manifest["files"] and "c/main/verify.json" in manifest["files"]


def _commands(*peaks):
    return [
        {"config": "c", "argv": [f"cmd{i}", "-> main"], "exit": 0, "stdout": "", "stderr": "", "peak_rss_mb": mb}
        for i, mb in enumerate(peaks)
    ]


def test_peak_rss_moves_are_listed_but_do_not_fail(tmp_path):
    a = _fixture(tmp_path / "a", VERIFY, commands=_commands(100.0, 80.0, 70.0, None))
    b = _fixture(tmp_path / "b", VERIFY, commands=_commands(100.0, 86.0, 73.0, 50.0))
    res = outputs.compare(a, b)
    # 80 -> 86 MB moved 7.5%, 70 -> 73 MB only 4.3%, and a missing side is not compared
    assert res["rss_compared"] == 3 and res["rss_moved"] == [("c", "cmd1 -> main", 80.0, 86.0)]
    out = io.StringIO()
    assert outputs.diff(a, b, stream=out) == 0
    text = out.getvalue()
    assert "peak RSS in both runs: 3 command(s), 1 moved by more than 5%" in text
    assert "peak RSS moved: c cmd1 -> main: 80.0 -> 86.0 MB (+7.5%)" in text
