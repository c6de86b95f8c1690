#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, in a fresh interpreter.

    python3 simbench/run.py --workload {testbed-lpl,city-forest,chaos-grid} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root. The measured program (``bench.py``) runs
in a child interpreter with ``PYTHONHASHSEED=0``, ``PYTHONPATH=src`` and
the numpy fast path on (``REPRO_NO_NUMPY`` removed), after the sources are
byte-compiled here so that no run pays for compilation. Temporary files
(the chaos grid's cache and journal) go to ``.simbench-tmp/`` in the
checkout, which is removed afterwards. The child prints the result; this
launcher passes its exit code on, and kills the child's whole process group
if it outlives ``TIMEOUT_S``.
"""

from __future__ import annotations

import compileall
import os
import shutil
import signal
import subprocess
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".simbench-tmp")
TIMEOUT_S = 170


def child_env() -> dict:
    """The environment every measured run gets."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = TMP
    env.pop("REPRO_NO_NUMPY", None)
    return env


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"simbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)
    os.makedirs(TMP, exist_ok=True)
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "bench.py"), *argv],
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"simbench: run exceeded {TIMEOUT_S} s; killed", file=sys.stderr)
        return 3
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # stragglers of any kind
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
