"""The benchmark still runs against the package.

``perfbench/smoke.py`` runs every workload at tiny size, traced and
untraced, and checks its result lines.  Running it here makes a change that
breaks how the benchmark calls the package fail in the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
