"""The benchmark's own smoke run: one checked operation per workload, each
against the exit code and stdout digest recorded in perfbench/expected.json."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
