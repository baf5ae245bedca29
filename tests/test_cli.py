"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

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


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "7", "4")
    assert code == 0
    assert "(5,2) - (6,3) - (7,4)" in out
    assert "-4/7 (order 1)" in out


def test_realize_command(capsys):
    code, out, _ = run(capsys, "realize", "--", "-3/5")
    assert code == 0
    assert "(a,b)=(5,3); verified pole -3/5" in out


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

    for name, mod in list(sys.modules.items()):
        if name == "topzeta" or name.startswith("topzeta."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, counted)
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
