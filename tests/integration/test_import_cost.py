"""``import repro`` stays light: the flow's imports load no process pool,
HTTP server or deterministic profiler until a run asks for one."""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Modules only a multi-chain run, ``serve``, or an ad-hoc profile needs.
HEAVY = ("multiprocessing", "http.server", "cProfile")


def test_import_repro_loads_no_heavy_modules():
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys, repro; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout.split() == []
