"""Start-up cost of a fresh zp process: what importing the CLI loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules an ordinary run never needs: records are plain classes and
#: named tuples, and only a parallel batch loads the process pool.
HEAVY = ("dataclasses", "concurrent.futures", "multiprocessing")

PROBE = """
import json, sys
before = set(sys.modules)
import topzeta.cli
topzeta.cli.build_parser()
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _added_modules() -> list[str]:
    out = subprocess.run([sys.executable, "-c", PROBE], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(out.stdout)


def test_cli_import_leaves_out_heavy_modules():
    added = _added_modules()
    assert "topzeta.cli" in added
    assert [m for m in added if m.startswith(HEAVY)] == []
