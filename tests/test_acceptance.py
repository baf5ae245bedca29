"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.

Criterion 8b checks that admissible() rejects exactly the values outside the
paper's realizable pole set Q intersect ([-1, 0) union {-1 - 1/i : i >= 1}).
Its boundary case is -3/2 = -1 - 1/2: it is admissible, witnessed by the
ideal (y, x^2 + y), whose chain E1 (N=1, nu=2) - E2 (N=2, nu=3) gives by hand
Z(s) = 1/(2+s) + 1/(3+2s) + 1/((2+s)(3+2s)) = 3/(3+2s).
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from corpus import EXCLUDED
from topzeta.criterion import classify, cross_check
from topzeta.diagram import alphas, validate_all
from topzeta.errors import CenterNotRational, OutOfRange
from topzeta.family import admissible, build, realize_pole
from topzeta.generic import certify_generic
from topzeta.poly import parse_poly
from topzeta.principalize import principalize
from topzeta.ratfunc import rf_sum_of_terms
from topzeta.zeta import pole_report, zeta_terms


#: collected pass/fail lines, printed in the terminal summary (conftest)
RESULT_LINES: list[str] = []


@contextmanager
def criterion(tag: str, description: str):
    try:
        yield
    except BaseException:
        line = f"ACCEPT {tag}: FAIL - {description}"
        RESULT_LINES.append(line)
        print(line)
        raise
    line = f"ACCEPT {tag}: PASS - {description}"
    RESULT_LINES.append(line)
    print(line)


def test_criterion_1_golden_example(corpus_results):
    with criterion("1", "golden example reproduced exactly"):
        result = next(r for name, r in corpus_results if name == "golden")
        assert result.step_count == 3
        assert [(v.kind, v.N, v.nu) for v in result.diagram.vertices] == [
            ("exceptional", 5, 2), ("exceptional", 6, 3),
            ("exceptional", 7, 4), ("strict-branch", 1, 1)]
        assert result.diagram.edges == {
            frozenset(("S1", "E1")), frozenset(("E1", "E2")),
            frozenset(("E2", "E3"))}
        rf = rf_sum_of_terms(zeta_terms(result.diagram))
        assert (rf.nums, rf.scale) == ((8, 16, 5), 1)
        assert dict(rf.den) == {(4, 7): 1, (2, 5): 1, (1, 1): 1}
        assert str(rf) == "(5*s^2 + 16*s + 8)/((2+5s)(4+7s)(1+s))"
        rep = pole_report(result.diagram)
        assert {(p.location, p.order) for p in rep.poles} == {
            (Fraction(-1), 1), (Fraction(-2, 5), 1), (Fraction(-4, 7), 1)}
        assert not classify(result.diagram, Fraction(-1, 2)).is_pole


def test_criterion_2_criterion_equals_analysis(corpus_results):
    with criterion("2", f"criterion = exact poles on {len(corpus_results)} "
                        "ideals; irrational centers excluded with reason"):
        assert len(corpus_results) >= 50
        for name, result in corpus_results:
            rep = cross_check(result.diagram, pole_report(result.diagram))
            assert rep.passed, f"{name}: {rep.detail}"
        for name, texts, reason in EXCLUDED:
            with pytest.raises(CenterNotRational):
                principalize([parse_poly(t) for t in texts])
            print(f"  excluded {name}: {reason}")


def test_criterion_3_relation_suite(corpus_results):
    with criterion("3", "both numerical-data identities exact on the corpus"):
        for name, result in corpus_results:
            if len(result.gens) < 2:
                continue
            report = certify_generic(result, seed=0)
            for ident, n in report.n_table().items():
                v = result.diagram.vertex(ident)
                table = alphas(result.diagram, ident)
                assert sum(a for _, a in table) == \
                    len(table) - 2 + Fraction(v.nu * n, v.N), name
        golden = next(r for name, r in corpus_results if name == "golden")
        assert certify_generic(golden, seed=0).n_table() == {
            "E1": 3, "E2": 0, "E3": 1}


def test_criterion_4_structure_suite(corpus_results):
    with criterion("4", "alpha bounds, sign pattern, ordered tree, nu bound, "
                        "tree shape on every corpus diagram"):
        for name, result in corpus_results:
            for rep in validate_all(result.diagram):
                assert rep.passed, f"{name} {rep.name}: {rep.failures}"


def test_criterion_5_residue_oracle(corpus_results):
    with criterion("5", "contribution sums equal residues; signs; maximal "
                        "candidate always a pole"):
        for name, result in corpus_results:
            rep = pole_report(result.diagram)
            residues = {p.location: p.leading_coefficient for p in rep.poles}
            orders = {p.location: p.order for p in rep.poles}
            maximal = max(rep.candidate_poles)
            assert maximal in rep.pole_locations(), name
            for s0 in rep.candidate_poles:
                if orders.get(s0, 0) >= 2:
                    continue
                assert s0 in rep.contributions, (name, s0)
            for s0, per in rep.contributions.items():
                assert sum(per.values()) == residues.get(s0, Fraction(0)), \
                    (name, s0)
                for ident, c in per.items():
                    if c == 0:
                        continue
                    if s0 != maximal:
                        assert c < 0, (name, s0, ident)
                    else:
                        assert c > 0, (name, s0, ident)


def test_criterion_6_independence(corpus_results):
    import copy

    from topzeta.blowup import PointRecord, blow_up
    from topzeta.diagram import diagram_from_state

    with criterion("6", "one extra allowed-center blow-up leaves the "
                        "reduced zeta byte-identical (10 ideals)"):
        done = 0
        for name, result in corpus_results:
            if done >= 10:
                break
            state = copy.deepcopy(result.state)
            center = None
            for i, ch in enumerate(state.leaves):
                for d in state.divisor_order:
                    if ch.axis_of(d) == ("x", 0) and d in ch.pms:
                        center = PointRecord(i, (Fraction(0), Fraction(23)))
                        break
                if center:
                    break
            if center is None:
                continue
            blow_up(state, center)
            state.complete = True
            z0 = str(rf_sum_of_terms(zeta_terms(result.diagram)))
            z1 = str(rf_sum_of_terms(zeta_terms(diagram_from_state(state))))
            assert z0 == z1, name
            done += 1
        assert done == 10


def test_criterion_7_min_property(corpus_results):
    with criterion("7", "generic member order equals generator minimum on "
                        "every divisor, first accepted sample"):
        for name, result in corpus_results:
            if len(result.gens) < 2:
                continue
            report = certify_generic(result, seed=0)
            assert report.retries == 0 or report.lam != [1] * len(result.gens)
            for check in report.per_divisor.values():
                assert check.min_property_ok, (name, check.ident)


def _realization_sample() -> list[Fraction]:
    sample = [Fraction(-1), Fraction(-2)]
    sample += [Fraction(-1, 1) - Fraction(1, i) for i in range(2, 11)]
    sample += [
        Fraction(-1, 2), Fraction(-2, 5), Fraction(-3, 5), Fraction(-4, 7),
        Fraction(-1, 3), Fraction(-2, 3), Fraction(-5, 6), Fraction(-7, 10),
        Fraction(-11, 13), Fraction(-23, 29), Fraction(-1, 50),
        Fraction(-49, 50), Fraction(-37, 50), Fraction(-3, 50),
        Fraction(-47, 50), Fraction(-9, 11), Fraction(-13, 17),
        Fraction(-19, 25), Fraction(-31, 42),
    ]
    assert len(sample) == 30
    return sample


def test_criterion_8_pole_realization():
    with criterion("8a", "realize_pole verified against the engine on a "
                         "30-point sample"):
        for s0 in _realization_sample():
            a, b = realize_pole(s0)
            rep = pole_report(principalize(build(a, b)).diagram)
            assert s0 in rep.pole_locations(), s0


def test_criterion_8_admissible_rejections():
    with criterion("8b", "admissible() rejects 0, -5/2, -7/4, -5/3, -3, 1/2; "
                         "-3/2 admitted via (y, x^2 + y)"):
        for s0 in (Fraction(0), Fraction(-5, 2), Fraction(-7, 4),
                   Fraction(-5, 3), Fraction(-3), Fraction(1, 2)):
            assert not admissible(s0), s0
            with pytest.raises(OutOfRange):
                realize_pole(s0)
        # boundary case -3/2 = -1 - 1/2; expected zeta worked by hand from the
        # chain E1 (N=1, nu=2) - E2 (N=2, nu=3), see the module docstring
        assert admissible(Fraction(-3, 2))
        gens = [parse_poly("y"), parse_poly("x^2 + y")]
        rf = rf_sum_of_terms(zeta_terms(principalize(gens).diagram))
        assert (rf.nums, rf.scale) == ((3,), 1)
        assert dict(rf.den) == {(3, 2): 1}


def test_criterion_9_degenerate_bases():
    with criterion("9", "smooth branch, monomial ideals, coordinate pair"):
        d = principalize([parse_poly("x")]).diagram
        rf = rf_sum_of_terms(zeta_terms(d))
        assert (rf.nums, rf.scale) == ((1,), 1)
        assert dict(rf.den) == {(1, 1): 1}

        for a in range(1, 7):
            for b in range(1, 7):
                if a == b:
                    continue
                d = principalize([parse_poly(f"x^{a}*y^{b}")]).diagram
                rf = rf_sum_of_terms(zeta_terms(d))
                assert (rf.nums, rf.scale) == ((1,), 1)
                assert dict(rf.den) == {(1, a): 1, (1, b): 1}
                rep = pole_report(d)
                assert rep.pole_locations() == {
                    Fraction(-1, a), Fraction(-1, b)}

        d = principalize([parse_poly("x"), parse_poly("y")]).diagram
        rf = rf_sum_of_terms(zeta_terms(d))
        assert (rf.nums, rf.scale) == ((2,), 1)
        assert dict(rf.den) == {(2, 1): 1}
        rep = pole_report(d)
        assert [(p.location, p.order) for p in rep.poles] == [(Fraction(-2), 1)]
