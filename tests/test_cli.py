"""Command-line interface: outputs, exit codes, determinism."""

import json
import sys

import pytest

from topzeta.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
