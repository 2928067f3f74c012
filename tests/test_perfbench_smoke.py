"""The benchmark harness still runs end to end on the current package.

``perfbench/run.py --smoke`` runs one operation of every workload, each
checked for correctness, plus one traced run, which fails when a function
the per-layer metrics need is no longer wrapped or called.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
