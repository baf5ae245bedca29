"""Every operation recorded in perfbench/expected.json, replayed in process
through ``topzeta.cli.main``: each keeps its recorded exit code and stdout
digest.  The benchmark draws only a sample of them per run, so this is the
check that no report byte, exit code or refusal moved anywhere in its
universe.  It only reads perfbench/."""

import contextlib
import io
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_recorded_operation_replays(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    import topzeta.cli

    ops = json.loads((PERFBENCH / "expected.json").read_text(
        encoding="utf-8"))["ops"]
    assert ops
    moved = []
    for key, want in ops.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = topzeta.cli.main(json.loads(key))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else -1
        if [code, workloads.digest(out.getvalue())] != want:
            moved.append((key, code, want[0]))
    assert moved == []
