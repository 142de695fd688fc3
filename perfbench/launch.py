"""Run one branchlab CLI command as the ``branchlab`` console script does,
and record when ``cli.main`` was entered.

    python3 perfbench/launch.py STAMP.json [--probe] [--spans SPANS.json] -- CLI ARGS...

STAMP.json receives ``main_entered`` (``time.monotonic()``, a clock shared
by all processes on the host) and the OpenBLAS builds loaded with their
thread counts.  ``--probe`` stops before ``cli.main``, to time start-up
alone.  ``--spans`` wraps branchlab's public functions (see tracing.py) and
writes the recorded spans when the command ends.  Needs ``src`` on
PYTHONPATH.
"""

import ctypes
import json
import sys
import time


def blas_info():
    """OpenBLAS builds mapped into this process, with config and threads."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    info = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": path.rsplit("/", 1)[-1]}
        for suffix in ("", "64_"):
            get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            get_config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
            if get_threads is not None and get_config is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                entry["threads"] = get_threads()
                entry["config"] = get_config().decode()
        info.append(entry)
    return info


def main(argv):
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    stamp_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    from branchlab import cli

    recorder = None
    if spans_path:
        import tracing

        recorder = tracing.install()
    entered = time.monotonic()
    code = 0
    try:
        if "--probe" not in opts:
            code = cli.main(cli_args)
    finally:
        if recorder is not None:
            recorder.dump(spans_path)
        with open(stamp_path, "w") as fh:
            json.dump({"main_entered": entered, "blas": blas_info()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
