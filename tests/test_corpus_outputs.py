"""Every view of every ideal in tests/corpus.py, replayed in process through
``topzeta.cli.main``: each keeps the exit code and stdout SHA-256 recorded
in tests/corpus_outputs.json.  The benchmark replay covers only the
benchmark's commands; this covers the text views, ``poles``, ``--dot`` and
the JSON diagram payload on the corpus, the curves and the refused inputs.

Rewrite the fixture with ``PYTHONPATH=src python tests/test_corpus_outputs.py``
only when a report is meant to change."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "corpus_outputs.json"

#: The output flags of each view: text, --json, and principalize --dot.
COMMANDS = [(view, flags)
            for view in ("principalize", "zeta", "poles", "classify")
            for flags in ((), ("--json",))] + [("principalize", ("--dot",))]


def _ideals() -> list[tuple[str, ...]]:
    """Generator texts: the typed texts where the corpus has them, so that
    parsed products of powers are read as such, else the canonical text."""
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import corpus
    from topzeta.poly import poly_to_str

    built = corpus.family_entries() + corpus.monomial_entries()
    texts = [tuple(t) for _, t in corpus.MIXED_TEXTS + corpus.CURVE_TEXTS]
    texts += [tuple(map(poly_to_str, gens)) for _, gens in built]
    texts += [tuple(t) for _, t, _ in corpus.EXCLUDED]
    return texts


def operations() -> list[list[str]]:
    return [[view, *flags, "--", *gens]
            for gens in _ideals() for view, flags in COMMANDS]


def outcome(argv: list[str]) -> list:
    """[exit code, SHA-256 of stdout] of one in-process run."""
    from topzeta.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


def test_every_corpus_view_replays():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))["ops"]
    ops = operations()
    assert sorted(json.dumps(a) for a in ops) == sorted(recorded)
    moved = [a for a in ops if outcome(a) != recorded[json.dumps(a)]]
    assert moved == []


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({"ops": {
        json.dumps(a): outcome(a) for a in operations()}}, indent=1) + "\n",
        encoding="utf-8")
