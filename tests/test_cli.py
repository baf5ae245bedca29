"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from conftest import deadline
from topzeta.cli import build_parser, main

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, *argv):
    """Exit code and stderr of an argv the parser rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_principalize_text(capsys):
    code, out, _ = run(capsys, "principalize", "x^4*y", "x^7 + x*y^4")
    assert code == 0
    assert "E3 (7,4)" in out
    assert "S1 (1,1)" in out
    assert "E1--E2" in out


def test_principalize_dot(capsys):
    code, out, _ = run(capsys, "principalize", "--dot", "x^4*y",
                       "x^7 + x*y^4")
    assert code == 0
    assert out.startswith("graph principalization {")
    assert '"E1" [shape=ellipse, label="E1 (5,2)"];' in out


def test_principalize_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "principalize", "x + 1")
    assert code == 2
    assert "vanish" in err


def test_power_over_degree_cap_exit_2(capsys):
    # refused before the outer power expands
    code, out, err = run(capsys, "zeta", "--", "((1+x+y)^30)^30", "y")
    assert code == 2
    assert out == ""
    assert err.startswith("error: total degree 900 exceeds cap 64")


def test_product_over_degree_cap_exit_2(capsys, monkeypatch):
    from topzeta.poly import BiPoly
    original = BiPoly.__mul__
    degrees = []

    def counted(a, b):
        degrees.append(a.total_degree() + b.total_degree())
        return original(a, b)

    monkeypatch.setattr(BiPoly, "__mul__", counted)
    # refused before the product of the two powers expands
    code, out, err = run(capsys, "zeta", "--", "(1+x+y)^64*(1+x+y)^64", "y")
    assert code == 2 and out == ""
    assert err == "error: total degree 128 exceeds cap 64\n"
    assert max(degrees, default=0) <= 64
    # a product over the cap refuses even when a later term cancels it
    for text in ("x^40*x^40 - x^80 + x", "x^40*x^40 - x^40*x^40 + x"):
        code, out, err = run(capsys, "zeta", "--", text, "y")
        assert code == 2 and out == ""
        assert err == "error: total degree 80 exceeds cap 64\n"
    code, out, err = run(capsys, "zeta", "--", "(1+x+y)^20*(1+x)^45", "y")
    assert code == 2 and out == ""
    assert err == "error: total degree 65 exceeds cap 64\n"
    # a zero factor passes the check: the product is 0
    code, _, _ = run(capsys, "zeta", "--", "x^40*0*x^40 + x", "y")
    assert code == 0


BIT_CAP_ERROR = "error: coefficient size bound of 8450 bits exceeds cap 4096\n"


@pytest.mark.parametrize("argv, code, err", [
    (("zeta", "(" * 2000 + "x" + ")" * 2000, "y"), 2,
     "error: parentheses nested deeper than 100 (at position 100)\n"),
    (("zeta", "--", "-" * 5000 + "x", "y"), 0, ""),
    (("zeta", "1" * 5000 + "*x", "y"), 2,
     "error: integer literal of 5000 digits exceeds cap 1000\n"),
    (("principalize", "--json", "(((3/4)^65)^65)^3*x + y", "x^2"), 2,
     BIT_CAP_ERROR),
    (("zeta", "((((3/4)^65)^65)^33)^45*x", "y"), 2, BIT_CAP_ERROR),
], ids=["nesting", "minus-run", "long-literal", "printed-power",
        "runaway-power"])
def test_hostile_inputs_refused_quickly(capsys, argv, code, err):
    """Inputs that used to end in a RecursionError or ValueError traceback
    (exit 1), or not at all: each exits with its documented code and
    stderr in well under a second."""
    start = time.perf_counter()
    got_code, out, got_err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (got_code, got_err) == (code, err)
    assert (out == "") == (code != 0)


def test_recorded_generators_pass_the_size_caps():
    """No generator of a recorded benchmark operation is refused by the
    literal, coefficient or nesting caps."""
    from topzeta.errors import TopZetaError
    from topzeta.poly import parse_poly
    refused_texts = []
    for key, (code, _) in RECORDED.items():
        argv = json.loads(key)
        for text in argv[argv.index("--") + 1:]:
            try:
                parse_poly(text)
            except TopZetaError as exc:
                refused_texts.append((code, str(exc)))
    assert all(code == 2 and "exceeds cap 4096" not in msg
               and "digits" not in msg and "nested" not in msg
               for code, msg in refused_texts), refused_texts


def _patch_everywhere(monkeypatch, original, replacement) -> None:
    """Replace every topzeta module's name for `original`."""
    for name, mod in list(sys.modules.items()):
        if name == "topzeta" or name.startswith("topzeta."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, replacement)


def _refusing(name: str):
    def refused(*args):
        raise AssertionError(f"{name} called")
    return refused


@pytest.mark.parametrize("argv", [
    ("zeta",), ("zeta", "--json", "--check"), ("classify", "--check"),
    ("verify",)])
def test_cli_runs_read_no_residue_contribution(capsys, monkeypatch, argv):
    import topzeta.zeta
    from topzeta.poly import parse_poly
    from topzeta.principalize import principalize
    original = topzeta.zeta.residue_contribution
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    _patch_everywhere(monkeypatch, original, counted)
    code, _, _ = run(capsys, *argv, "x^4*y", "x^7 + x*y^4")
    assert code == 0
    assert calls == []
    # the patch is live: reading the contributions does call it
    result = principalize([parse_poly("x^4*y"), parse_poly("x^7 + x*y^4")])
    topzeta.zeta.pole_report(result.diagram).contributions
    assert calls


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("view", ["principalize", "zeta", "poles", "classify"])
def test_views_build_only_the_output_they_print(capsys, monkeypatch, view,
                                                as_json):
    """Under --json no rational function or polynomial is formatted as
    text; in text mode no JSON payload is built or encoded."""
    from topzeta import diagram, poly
    from topzeta.ratfunc import RationalFunctionS
    from topzeta.zeta import ZetaReport
    if as_json:
        _patch_everywhere(monkeypatch, poly.poly_to_str,
                          _refusing("poly_to_str"))
        monkeypatch.setattr(RationalFunctionS, "__str__",
                            _refusing("RationalFunctionS.__str__"))
    else:
        for f in (diagram.diagram_payload, diagram.json_text):
            _patch_everywhere(monkeypatch, f, _refusing(f.__name__))
        monkeypatch.setattr(ZetaReport, "to_json_dict",
                            _refusing("ZetaReport.to_json_dict"))
    flags = ["--json"] if as_json else []
    for gens in (["x^4*y", "x^7 + x*y^4"], ["x^2"], ["y^2 - x^3", "x*y"]):
        code, out, err = run(capsys, view, *flags, "--", *gens)
        assert (code, err) == (0, "") and out
        assert out.startswith(("{", "[")) == as_json


def test_principalize_irrational_exit_3(capsys):
    code, _, err = run(capsys, "principalize", "x^3", "y^2 - 2*x^2")
    assert code == 3
    assert "y^2 - 2" in err


def test_zeta_golden(capsys):
    code, out, _ = run(capsys, "zeta", "x^4*y", "x^7 + x*y^4")
    assert code == 0
    assert "Z = (5*s^2 + 16*s + 8)/((2+5s)(4+7s)(1+s))" in out
    assert "candidates: -1, -4/7, -1/2, -2/5" in out


def test_zeta_deterministic(capsys):
    _, out1, _ = run(capsys, "zeta", "--check", "x^4*y", "x^7 + x*y^4")
    _, out2, _ = run(capsys, "zeta", "--check", "x^4*y", "x^7 + x*y^4")
    assert out1 == out2


def test_poles_pair(capsys):
    code, out, _ = run(capsys, "poles", "x", "y")
    assert code == 0
    assert out.splitlines() == ["-2 (order 1)"]


def test_poles_json(capsys):
    code, out, _ = run(capsys, "poles", "--json", "x^4*y", "x^7 + x*y^4")
    payload = json.loads(out)
    assert payload["zeta"]["num"] == ["8", "16", "5"]
    assert {"s": "-1", "order": 1, "leading": "-1/3"} in payload["poles"]


def test_classify_golden(capsys):
    code, out, _ = run(capsys, "classify", "x^4*y", "x^7 + x*y^4")
    assert code == 0
    lines = out.splitlines()
    assert "-1: pole via cond1[S1]" in lines
    assert "-2/5: pole via cond4[E1]" in lines
    assert "-1/2: no pole" in lines
    assert "-4/7: pole via cond3[E3]" in lines


def test_verify_golden(capsys):
    code, out, _ = run(capsys, "verify", "x^4*y", "x^7 + x*y^4")
    assert code == 0
    assert "criterion-vs-zeta: pass" in out
    assert "E1:3" in out and "E2:0" in out and "E3:1" in out
    assert "min-property: pass" in out


def test_verify_family(capsys):
    code, out, _ = run(capsys, "verify", "x^5*y", "x^9 + y^6")
    assert code == 0
    assert "FAIL" not in out


#: The lines `verify` prints for a generic member of the generators.
GENERIC_LINES = ("lambda:", "crossings with generic member:",
                 "min-property:", "numerical-data relations:")


@pytest.mark.parametrize("gens", [("x", "0"), ("0", "y^2-x^3"), ("x-x", "y")])
def test_verify_one_nonzero_generator_has_no_generic_member(capsys, gens):
    """Zero generators are dropped before the run: with one left there is
    no combination to certify, and the suites still pass."""
    code, out, err = run(capsys, "verify", "--", *gens)
    assert code == 0 and err == ""
    assert "minimality: pass" in out and "FAIL" not in out
    assert not any(line.startswith(GENERIC_LINES)
                   for line in out.splitlines())


def test_verify_zero_among_three_generators(capsys):
    code, out, _ = run(capsys, "verify", "--", "x", "0", "y")
    assert code == 0
    assert out == (
        "alpha-bounds: pass\n"
        "two-neighbor-ordering: pass\n"
        "ordered-tree: pass\n"
        "nu-bound: pass\n"
        "tree-shape: pass\n"
        "criterion-vs-zeta: pass\n"
        "minimality: pass\n"
        "lambda: (1, 1), retries 0\n"
        "crossings with generic member: E1:1\n"
        "min-property: pass\n"
        "numerical-data relations: pass\n")


def test_verify_corrupted_diagram(capsys, tmp_path):
    bad = {
        "vertices": [
            {"id": "E1", "kind": "exceptional", "N": 2, "nu": 4},
        ],
        "edges": [],
        "origin_case": None,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", "--diagram-json", str(path))
    assert code == 2
    assert "nu-bound: FAIL" in out


def test_verify_strict_branch_on_two_curves_fails(capsys, tmp_path):
    """The golden chain with S1 joined to both E1 and E3: a cycle through
    a strict branch, which passed every validator before."""
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "vertices": [
            {"id": "E1", "kind": "exceptional", "N": 5, "nu": 2},
            {"id": "E2", "kind": "exceptional", "N": 6, "nu": 3},
            {"id": "E3", "kind": "exceptional", "N": 7, "nu": 4},
            {"id": "S1", "kind": "strict-branch", "N": 1, "nu": 1},
        ],
        "edges": [["E1", "E2"], ["E2", "E3"], ["E1", "S1"], ["E3", "S1"]],
        "origin_case": None,
    }))
    code, out, _ = run(capsys, "verify", "--diagram-json", str(path))
    assert code == 2
    assert "tree-shape: FAIL strict branch S1 meets 2 curves" in out
    assert out.count("FAIL") == 1


@pytest.mark.parametrize("vertex", [
    {"id": "E1", "kind": "exceptional", "N": 0, "nu": 2},
    {"id": 5, "kind": "exceptional", "N": 2, "nu": 2},
    {"id": "E1", "kind": "bogus", "N": -3, "nu": 2},
    {"id": "E1", "kind": "exceptional", "N": 2.7, "nu": 2},
    {"id": "E1", "kind": "exceptional", "N": 2, "nu": True},
], ids=["N-zero", "id-not-string", "unknown-kind", "N-not-integer",
        "nu-bool"])
def test_verify_malformed_vertex_exit_2(capsys, tmp_path, vertex):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"vertices": [vertex], "edges": [], "origin_case": None}))
    code, out, err = run(capsys, "verify", "--diagram-json", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: vertex ") and err.count("\n") == 1
    assert "integers N, nu >= 1" in err


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "7", "4")
    assert code == 0
    assert "(5,2) - (6,3) - (7,4)" in out
    assert "-4/7 (order 1)" in out


def test_realize_command(capsys):
    code, out, _ = run(capsys, "realize", "--", "-3/5")
    assert code == 0
    assert "(a,b)=(5,3); verified pole -3/5" in out


def test_realize_negative_rational_without_separator(capsys):
    # argparse takes -3/5 for an option unless told it is a number
    for s0 in ("-3/5", "-3/2", "-1", "-0.5"):
        code, out, err = run(capsys, "realize", s0)
        assert code == 0 and err == ""
        assert (code, out, err) == run(capsys, "realize", "--", s0)


def test_realize_non_rational_without_separator(capsys):
    # a token starting "-" and a digit is the positional, so the refusal
    # names the value instead of a missing argument
    for s0 in ("-3/x", "-3/", "-.5x", "-1/0"):
        code, out, err = run(capsys, "realize", s0)
        assert code == 2 and out == ""
        assert err == f"error: not a rational number: {s0!r}\n"
        assert (code, out, err) == run(capsys, "realize", "--", s0)
    # an option-shaped token is still a usage error
    assert refused(capsys, "realize", "-x")[0] == 2


def test_realize_out_of_range(capsys):
    code, out, _ = run(capsys, "realize", "--", "-5/2")
    assert code == 2
    assert "out of range" in out


def test_realize_accepts_minus_three_halves(capsys):
    # -3/2 = -1 - 1/2 is realizable: (y, x^2 + y) has its only pole there
    code, out, _ = run(capsys, "realize", "--", "-3/2")
    assert code == 0
    assert "(a,b)=(2,0); verified pole -3/2" in out


def test_budget_exhaustion_exit_3(capsys):
    code, _, err = run(capsys, "zeta", "--max-blowups", "1", "x^4*y",
                       "x^7 + x*y^4")
    assert code == 3
    assert "blow-ups" in err


def test_no_generators_exit_2(capsys):
    code, _, err = run(capsys, "zeta")
    assert code == 2
    assert "no generators" in err


def test_gens_file_and_batch(capsys, tmp_path):
    f1 = tmp_path / "a.txt"
    f1.write_text("x^4*y\nx^7 + x*y^4\n")
    f2 = tmp_path / "b.txt"
    f2.write_text("x\ny\n")
    code, out, _ = run(capsys, "poles", "--gens-file", str(f1),
                       "--gens-file", str(f2), "--jobs", "2")
    assert code == 0
    assert f"== {f1} ==" in out and f"== {f2} ==" in out
    assert out.index(str(f1)) < out.index(str(f2))
    assert "-2 (order 1)" in out


@pytest.mark.parametrize("command", ["zeta", "principalize", "verify"])
def test_generators_refuse_a_batch(capsys, tmp_path, command):
    a = tmp_path / "a.txt"
    a.write_text("y^2-x^3\n")
    b = tmp_path / "b.txt"
    b.write_text("x^5\n")
    code, err = refused(capsys, command, "x*y", "--gens-file", str(a),
                        "--gens-file", str(b), "--jobs", "2")
    assert code == 2
    assert "generators take at most one --gens-file" in err
    # one file joins the positional generators in one ideal
    code, out, _ = run(capsys, "zeta", "x*y", "--gens-file", str(a))
    assert code == 0
    assert out == run(capsys, "zeta", "x*y", "y^2-x^3")[1]


def test_batch_bad_file_keeps_good_reports(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("x^4*y\nx^7 + x*y^4\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("x)\n")
    irrational = tmp_path / "irrational.txt"
    irrational.write_text("x^3\ny^2 - 2*x^2\n")
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "zeta", "--gens-file", str(good),
                             "--gens-file", str(bad), "--jobs", jobs)
        assert code == 2 and err == ""
        head, tail = out.split(f"== {bad} ==\n")
        assert head.startswith(f"== {good} ==\n")
        assert "Z = (5*s^2 + 16*s + 8)/((2+5s)(4+7s)(1+s))" in head
        assert tail.startswith("error: ") and tail.count("\n") == 1
    missing = tmp_path / "missing.txt"
    code, out, _ = run(capsys, "poles", "--gens-file", str(irrational),
                       "--gens-file", str(bad), "--gens-file", str(missing),
                       "--gens-file", str(good))
    assert code == 3
    assert f"== {irrational} ==\nunsupported: " in out
    assert f"== {bad} ==\nerror: " in out
    assert f"== {missing} ==\nerror: cannot read {missing}: " in out
    assert "-1 (order 1)" in out.split(f"== {good} ==")[1]


@pytest.mark.parametrize("content", [None, b"x^4*y\n\xff\n"],
                         ids=["missing", "not-utf8"])
@pytest.mark.parametrize("command, option", [
    ("zeta", "--gens-file"), ("verify", "--diagram-json")])
def test_unreadable_input_file_exit_2(capsys, tmp_path, content, command,
                                      option):
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, command, option, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("zeta", "--check"), ("poles", "--check"), ("classify", "--check"),
    ("verify",)])
def test_pole_report_built_once_per_run(capsys, monkeypatch, argv):
    import topzeta.zeta
    original = topzeta.zeta.pole_report
    calls = []

    def counted(diagram):
        calls.append(diagram)
        return original(diagram)

    _patch_everywhere(monkeypatch, original, counted)
    code, _, _ = run(capsys, *argv, "x^4*y", "x^7 + x*y^4")
    assert code == 0
    assert len(calls) == 1


def test_gens_file_skips_indented_comments(capsys, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# golden pair\n  # indented note\n\n"
                    "x^4*y\n\t#tabbed note\n  x^7 + x*y^4  \n")
    code, out, err = run(capsys, "zeta", "--gens-file", str(path))
    assert code == 0 and err == ""
    assert "Z = (5*s^2 + 16*s + 8)/((2+5s)(4+7s)(1+s))" in out


@pytest.mark.parametrize("extra", [
    ("x", "y"), ("--gens-file", "a.txt"),
    ("--gens-file", "a.txt", "--gens-file", "b.txt")],
    ids=["generators", "gens-file", "batch"])
def test_verify_diagram_json_refuses_generators(capsys, tmp_path, extra):
    diagram = tmp_path / "d.json"
    diagram.write_text(json.dumps(
        {"vertices": [], "edges": [], "origin_case": None}))
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("x\ny\n")
    extra = [str(tmp_path / t) if t.endswith(".txt") else t for t in extra]
    code, err = refused(capsys, "verify", "--diagram-json", str(diagram),
                        *extra)
    assert code == 2
    assert "--diagram-json takes no generators" in err


@pytest.mark.parametrize("flags", [
    ("--seed", "5"), ("--seed", "0"), ("--max-blowups", "3"),
    ("--max-blowups", "512"), ("--jobs", "1"),
    ("--seed", "5", "--max-blowups", "3", "--jobs", "4")])
def test_verify_diagram_json_refuses_unread_flags(capsys, tmp_path, flags):
    # refused even at their default values: a given flag is never ignored
    diagram = tmp_path / "d.json"
    diagram.write_text(json.dumps(
        {"vertices": [], "edges": [], "origin_case": None}))
    code, err = refused(capsys, "verify", "--diagram-json", str(diagram),
                        *flags)
    assert code == 2
    named = ", ".join(f for f in flags if f.startswith("--"))
    assert f"--diagram-json takes no {named}" in err
    code, out, _ = run(capsys, "verify", "--diagram-json", str(diagram))
    assert code == 0 and out


def test_flag_defaults_apply_where_read(capsys):
    # --max-blowups, --seed and --jobs left out run as 512, 0 and 1
    base = ("verify", "x^4*y", "x^7 + x*y^4")
    assert run(capsys, *base) == run(
        capsys, *base, "--max-blowups", "512", "--seed", "0", "--jobs", "1")
    assert run(capsys, "zeta", "x^2", "y", "--max-blowups", "0")[0] == 3


@pytest.mark.parametrize("argv, message", [
    (("zeta", "--max-blowups", "-1"), "--max-blowups: must be at least 0"),
    (("poles", "--jobs", "0"), "--jobs: must be at least 1"),
    (("classify", "--jobs", "-5"), "--jobs: must be at least 1"),
    (("verify", "--jobs", "two"), "--jobs: invalid int value"),
    (("principalize", "--dot", "--json"), "not allowed with argument"),
], ids=["max-blowups-negative", "jobs-zero", "jobs-negative", "jobs-not-int",
        "dot-and-json"])
def test_out_of_range_flags_exit_2(capsys, argv, message):
    code, err = refused(capsys, *argv, "x^4*y", "x^7 + x*y^4")
    assert code == 2
    assert message in err


def test_zero_blowups_is_a_budget(capsys):
    code, _, err = run(capsys, "zeta", "--max-blowups", "0", "x", "y")
    assert code == 3
    assert "within 0 blow-ups" in err
    code, out, _ = run(capsys, "poles", "--max-blowups", "0", "x")
    assert code == 0 and out == "-1 (order 1)\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--json"), ("verify", "--check"),
    ("principalize", "--seed", "1"), ("zeta", "--seed", "1"),
    ("poles", "--seed", "1"), ("classify", "--seed", "1"),
    ("zeta", "--dot"), ("verify", "--dot")], ids=" ".join)
def test_unread_flags_exit_2(capsys, argv):
    code, err = refused(capsys, *argv, "x", "y")
    assert code == 2
    assert "unrecognized arguments" in err


def test_parser_built_once():
    assert build_parser() is build_parser()


def _replayed_ops() -> dict[str, list[str]]:
    """Recorded benchmark operations by argv prefix (the flags before
    "--"): all of a prefix with fewer than 100, else every 5th in sorted
    key order."""
    groups: dict[str, list[str]] = {}
    for key in sorted(RECORDED):
        argv = json.loads(key)
        groups.setdefault(" ".join(argv[:argv.index("--")]), []).append(key)
    return {prefix: keys if len(keys) < 100 else keys[::5]
            for prefix, keys in groups.items()}


#: exit code and stdout SHA-256 of each benchmark operation (read only)
RECORDED = json.loads(EXPECTED.read_text(encoding="utf-8"))["ops"]
REPLAYED = _replayed_ops()


@pytest.mark.parametrize("prefix", sorted(REPLAYED))
def test_recorded_outputs_unchanged(capsys, prefix):
    mismatched = []
    for key in REPLAYED[prefix]:
        code, out, _ = run(capsys, *json.loads(key))
        got = [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]
        if got != RECORDED[key]:
            mismatched.append(key)
    assert mismatched == []


#: (y, x^12 + y): ids E10-E12 sort apart as strings and by id
CHAIN_12 = ("y", "x^12 + y")
GOLDEN_PAIR = ("x^4*y", "x^7 + x*y^4")


def test_zeta_text_pinned(capsys):
    chain = [f"  1 * 1/({k + 1}+{k}s)1/({k + 2}+{k + 1}s)"
             for k in range(2, 12)]
    assert run(capsys, "zeta", *CHAIN_12)[1] == "\n".join([
        "Z = (13)/((13+12s))", "terms:",
        "  1 * 1/(2+s)", "  1 * 1/(13+12s)", "  1 * 1/(2+s)1/(3+2s)",
        *chain,
        "candidates: -2, -3/2, -4/3, -5/4, -6/5, -7/6, -8/7, -9/8, -10/9, "
        "-11/10, -12/11, -13/12"]) + "\n"
    assert run(capsys, "zeta", *GOLDEN_PAIR)[1] == (
        "Z = (5*s^2 + 16*s + 8)/((2+5s)(4+7s)(1+s))\n"
        "terms:\n"
        "  1 * 1/(4+7s)\n"
        "  1 * 1/(2+5s)1/(3+6s)\n"
        "  1 * 1/(2+5s)1/(1+s)\n"
        "  1 * 1/(3+6s)1/(4+7s)\n"
        "candidates: -1, -4/7, -1/2, -2/5\n")


def test_principalize_dot_pinned(capsys):
    nodes = [f'  "E{k}" [shape=ellipse, label="E{k} ({k},{k + 1})"];'
             for k in range(1, 13)]
    edges = [f'  "E{k}" -- "E{k + 1}";' for k in range(1, 12)]
    assert run(capsys, "principalize", "--dot", *CHAIN_12)[1] == "\n".join(
        ["graph principalization {", *nodes, *edges, "}"]) + "\n"
    assert run(capsys, "principalize", "--dot", *GOLDEN_PAIR)[1] == (
        "graph principalization {\n"
        '  "E1" [shape=ellipse, label="E1 (5,2)"];\n'
        '  "E2" [shape=ellipse, label="E2 (6,3)"];\n'
        '  "E3" [shape=ellipse, label="E3 (7,4)"];\n'
        '  "S1" [shape=box, label="S1 (1,1)"];\n'
        '  "E1" -- "E2";\n'
        '  "E1" -- "S1";\n'
        '  "E2" -- "E3";\n'
        "}\n")


def test_principalize_edges_line_sorts_as_strings(capsys):
    out = run(capsys, "principalize", *CHAIN_12)[1]
    assert out.splitlines()[-1] == (
        "edges: E1--E2; E10--E11; E10--E9; E11--E12; E2--E3; E3--E4; "
        "E4--E5; E5--E6; E6--E7; E7--E8; E8--E9")
    out = run(capsys, "principalize", *GOLDEN_PAIR)[1]
    assert out.splitlines()[-1] == "edges: E1--E2; E1--S1; E2--E3"


SWELL_BRANCH = "((y^2 - x^3)^2 - 4*x^5*y - x^7)"


def test_verify_swell_pinned(capsys):
    """verify on the swell ideal (SWELL_BRANCH*(y - x^2), x^20): 65
    exceptional curves, whose orders the certificate reads in one walk of
    pullbacks kept mod x^(B + 1), B the largest N."""
    crossings = ", ".join(f"{d}:{int(d in ('E14', 'E65'))}" for d in
                          sorted(f"E{k}" for k in range(1, 66)))
    assert run(capsys, "verify", "--", f"{SWELL_BRANCH}*(y - x^2)",
               "x^20") == (0, "\n".join([
                   *(f"{name}: pass" for name in (
                       "alpha-bounds", "two-neighbor-ordering",
                       "ordered-tree", "nu-bound", "tree-shape",
                       "criterion-vs-zeta", "minimality")),
                   "lambda: (1, 1), retries 0",
                   f"crossings with generic member: {crossings}",
                   "min-property: pass",
                   "numerical-data relations: pass"]) + "\n", "")


#: Two inputs whose gcds a pseudo-remainder sequence did not finish in
#: 20 s and 60 s: a smooth germ whose curve part is split against its
#: y-derivative, and a pair whose generators are coprime.
SPARSE_GERM = ("x^20*y^12-x*y-16*x+y^15",)
COPRIME_PAIR = ("x^45-y^50", "y*5*x-x^9-y^4")


@pytest.mark.parametrize("argv, first, digest", [
    (("zeta", "--", *SPARSE_GERM), "Z = (1)/((1+s))",
     "9b3cc62505eb1aed6561640e4131559814617d96f9ff43b615702bf2825d8193"),
    (("zeta", "--", *COPRIME_PAIR), "Z = (19/450*s + 1)/((1+s)^2)",
     "942788bb89ff698ea04649fd488f8d776c1223c6131124c2f1bd3de8bd370d4a"),
    (("principalize", "--", *COPRIME_PAIR), "principalization log:",
     "7dcd06313b32fa733e1706b68af6fcbb69d621a850067d2c8c236bbb14fc8c85"),
], ids=["zeta-sparse-germ", "zeta-coprime-pair", "principalize-coprime-pair"])
def test_former_gcd_hangs_pinned(capsys, argv, first, digest):
    with deadline(1):
        code, out, err = run(capsys, *argv)
    assert (code, err, out.splitlines()[0]) == (0, "", first)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_coprime_pair_pinned(capsys):
    """verify on the coprime pair: two chains of curves, E1 to E44 and E45
    to E92, meet at E1; the generic member crosses the end of each."""
    crossings = ", ".join(f"{d}:{int(d in ('E44', 'E92'))}" for d in
                          sorted(f"E{k}" for k in range(1, 93)))
    with deadline(1):
        result = run(capsys, "verify", "--", *COPRIME_PAIR)
    assert result == (0, "\n".join([
        *(f"{name}: pass" for name in (
            "alpha-bounds", "two-neighbor-ordering", "ordered-tree",
            "nu-bound", "tree-shape", "criterion-vs-zeta", "minimality")),
        "lambda: (1, 1), retries 0",
        f"crossings with generic member: {crossings}",
        "min-property: pass",
        "numerical-data relations: pass"]) + "\n", "")


def test_classify_text_pinned(capsys):
    no_pole = [f"-{k + 1}/{k}: no pole" for k in range(2, 12)]
    assert run(capsys, "classify", *CHAIN_12)[1] == "\n".join(
        ["-2: no pole", *no_pole, "-13/12: pole via cond3[E12]"]) + "\n"
    assert run(capsys, "classify", *GOLDEN_PAIR)[1] == (
        "-1: pole via cond1[S1]\n"
        "-4/7: pole via cond3[E3]\n"
        "-1/2: no pole\n"
        "-2/5: pole via cond4[E1]\n")


# --- generators typed as products of powers ----------------------------------

def _expanded(text):
    """The generator typed out as one sum, which parses to no factors."""
    from topzeta.poly import parse_poly, poly_to_str
    return poly_to_str(parse_poly(text)) + " + 0"


@pytest.mark.parametrize("gens", [
    ("(1 + x)*(1 + y)",),
    ("0*x", "x^4*y", "x^7 + x*y^4"),
    ("(x - x)*y", "x^3", "x*y^2"),
    ("-2/3*x^2*y", "x^5 + y^3"),
    ("((x*y)^2)^3", "x^8"),
    ("x*x*(y - x^2)*(y - x^2)^2", "(y - x^2)^2*y"),
])
def test_factored_input_matches_expanded(capsys, gens):
    expanded = [_expanded(g) for g in gens]
    for cmd in (("zeta", "--json"), ("verify",)):
        assert run(capsys, *cmd, "--", *gens) == run(capsys, *cmd, "--",
                                                     *expanded)
    if gens == ("(1 + x)*(1 + y)",):
        assert run(capsys, "zeta", "--", *gens) == (
            2, "", "error: generator x*y + x + y + 1 does not vanish at the "
                   "origin\n")


def test_factored_degree_cap_matches_expanded(capsys):
    from topzeta.poly import parse_poly, poly_to_str
    big = poly_to_str(parse_poly("(1 + x + y)^20") * parse_poly("(1 + x)^45"))
    for text in ("(1 + x + y)^20*(1 + x)^45", big):
        for cmd in (("zeta", "--json"), ("verify",)):
            assert run(capsys, *cmd, "--", text, "y") == (
                2, "", "error: total degree 65 exceeds cap 64\n")


@pytest.mark.parametrize("argv, code", [
    (("zeta", "--json", "--", "x*(1 + x + y)^24"), 0),
    (("zeta", "--json", "--", "(x^3 + y^2 + x*y)^8"), 0),
    (("zeta", "--", "(1 + x + y)^20*(1 + x)^45", "y"), 2),
    (("verify", "--", "(y^2 - x^3)^12*x", "(y^2 - x^3)^12*y"), 0),
    (("verify", "--", "(y + x + x*y)^16*x", "(y + x + x*y)^16*y^2"), 0),
])
def test_curve_part_path_expands_nothing(capsys, monkeypatch, argv, code):
    """A generator typed as a product of powers is read through its
    factors: no general product and no power of a base that is a unit at
    the origin is computed (call counts, not time).  `verify` takes orders
    on the bases and forms the generic member as the shared powers times a
    combination of the cofactors."""
    from topzeta import poly
    calls, unit_powers = [], []
    product = poly._product
    monkeypatch.setattr(poly, "_product", lambda p, q: (
        calls.append("_product"), product(p, q))[1])
    power = poly.BiPoly.__pow__
    monkeypatch.setattr(poly.BiPoly, "__pow__", lambda p, k: (
        (0, 0) in p.nums and unit_powers.append((str(p), k)), power(p, k))[1])
    assert run(capsys, *argv)[0] == code
    assert (calls, unit_powers) == ([], [])
    # the patches are live: reading the numerators expands
    poly.parse_poly("x*(1 + x + y)^24").nums
    assert calls and unit_powers


def test_zeta_of_a_unit_power_at_the_degree_cap(capsys):
    """x*(1 + x + y)^63 has total degree 64, the cap."""
    assert run(capsys, "zeta", "--json", "--", "x*(1 + x + y)^63") == (
        0, json.dumps({"zeta": {"num": ["1"], "den": [[1, 1, 1]]},
                       "candidates": ["-1"],
                       "poles": [{"s": "-1", "order": 1, "leading": "1"}]},
                      indent=2) + "\n", "")


def test_bipoly_attribute_reads_take_no_hook():
    """Only the parser's typed products expand on read; a `__getattr__` or
    `__getattribute__` on BiPoly itself would slow every `nums` read."""
    from topzeta.poly import BiPoly
    assert not hasattr(BiPoly, "__getattr__")
    assert BiPoly.__getattribute__ is object.__getattribute__



_IRRATIONAL = ("unsupported: required center is not rational; locator "
               "{} (residual zero locus on E1)\n")
_BUDGET = ("--max-blowups", "3")
#: The benchmark's expected refusals, with their exit codes and stderr.
REFUSAL_TEXTS = [
    (("x^3", "y^2 - 2*x^2"), 3, _IRRATIONAL.format("y^2 - 2")),
    (("y^2 + x^2", "x^5"), 3, _IRRATIONAL.format("y^2 + 1")),
    (("2x", "y"), 2, "error: trailing input (at position 1)\n"),
    (("x^2 +", "y"), 2, "error: unexpected end of input (at position 5)\n"),
    (("x^2 + 0.5*y", "y"), 2,
     "error: decimal literals are not rational (at position 7)\n"),
    (("x*z", "y"), 2, "error: unknown variable 'z' (at position 2)\n"),
    (("1 + x", "y"), 2,
     "error: generator x + 1 does not vanish at the origin\n"),
]


@pytest.mark.parametrize("command", [
    ("zeta", "--json", "--check"), ("classify", "--json"), ("verify",)])
@pytest.mark.parametrize("flags, gens, code, err", [
    *((flags, gens, code, err) for gens, code, err in REFUSAL_TEXTS
      for flags in ((), _BUDGET)),
    (_BUDGET, ("y", "x^8 + y^9"), 3,
     "unsupported: no principalization within 3 blow-ups\n"),
    (_BUDGET, ("x^4*y", "x^7 + x*y^4"), 0, ""),
    # a locator whose monic form has a fractional coefficient
    ((), ("3*y^2 - 2*x^2", "x^3"), 3, _IRRATIONAL.format("y^2 - 2/3")),
])
def test_refusals_keep_codes_and_texts(capsys, command, flags, gens, code,
                                       err):
    got = run(capsys, *command, *flags, "--", *gens)
    assert (got[0], got[2]) == (code, err)
