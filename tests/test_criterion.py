"""Five-condition pole classification and equivalence with exact poles."""

from fractions import Fraction

import pytest

from corpus import curve_entries
from topzeta.criterion import classify, cross_check, poles_by_criterion
from topzeta.diagram import IntersectionDiagram, export_json, load_json
from topzeta.errors import NonMinimalDiagram, NotACandidate
from topzeta.family import build
from topzeta.poly import parse_poly
from topzeta.principalize import principalize
from topzeta.zeta import pole_report

GOLDEN = [parse_poly("x^4*y"), parse_poly("x^7 + x*y^4")]


@pytest.fixture(scope="module")
def golden():
    return principalize(GOLDEN).diagram


def test_classify_branch_condition(golden):
    v = classify(golden, Fraction(-1))
    assert v.is_pole
    assert [(h.condition, h.witness) for h in v.hits] == [(1, "S1")]


def test_classify_not_pole(golden):
    v = classify(golden, Fraction(-1, 2))
    assert not v.is_pole and v.hits == []


def test_classify_one_neighbor(golden):
    v = classify(golden, Fraction(-4, 7))
    assert [(h.condition, h.witness) for h in v.hits] == [(3, "E3")]


def test_classify_two_neighbors(golden):
    v = classify(golden, Fraction(-2, 5))
    assert [(h.condition, h.witness) for h in v.hits] == [(4, "E1")]


def test_classify_isolated_vertex():
    d = principalize([parse_poly("x"), parse_poly("y")]).diagram
    v = classify(d, Fraction(-2))
    assert [(h.condition, h.witness) for h in v.hits] == [(2, "E1")]


def test_classify_not_a_candidate(golden):
    with pytest.raises(NotACandidate):
        classify(golden, Fraction(-3, 4))


def test_classify_refuses_nonminimal(golden):
    loaded = load_json(export_json(golden))
    with pytest.raises(NonMinimalDiagram):
        classify(loaded, Fraction(-1))
    marked = IntersectionDiagram(loaded.vertices, loaded.edges,
                                 loaded.origin_case, minimal=True)
    assert classify(marked, Fraction(-1)).is_pole


def test_poles_by_criterion_golden(golden):
    assert poles_by_criterion(golden) == {
        Fraction(-1), Fraction(-2, 5), Fraction(-4, 7)}


def test_poles_by_criterion_family():
    d = principalize(build(7, 4)).diagram
    assert Fraction(-4, 7) in poles_by_criterion(d)


def test_poles_by_criterion_monomial():
    # principal monomial x^a y^b: the two branch conditions
    d = principalize([parse_poly("x^3*y")]).diagram
    assert poles_by_criterion(d) == {Fraction(-1, 3), Fraction(-1)}


def test_poles_by_criterion_origin_case():
    d = principalize([parse_poly("x^2")]).diagram
    assert d.origin_case == ["S1"]
    assert poles_by_criterion(d) == {Fraction(-1, 2)}


def test_cross_check_golden(golden):
    assert cross_check(golden, pole_report(golden)).passed


def test_cross_check_corpus(corpus_results):
    for name, result in corpus_results:
        rep = cross_check(result.diagram, pole_report(result.diagram))
        assert rep.passed, f"{name}: {rep.detail}"


def test_cross_check_curves_and_condition_profile():
    """Single-generator inputs: classification matches, and only the branch
    and many-neighbor conditions ever fire."""
    for name, gens in curve_entries():
        result = principalize(gens)
        rep = cross_check(result.diagram, pole_report(result.diagram))
        assert rep.passed, f"{name}: {rep.detail}"
        for s0 in rep.criterion_poles:
            v = classify(result.diagram, s0)
            for hit in v.hits:
                assert hit.condition in (1, 5), (name, s0, hit)


def test_maximal_candidate_classified_pole(corpus_results):
    from topzeta.zeta import candidate_poles
    for name, result in corpus_results:
        top = max(candidate_poles(result.diagram))
        assert classify(result.diagram, top).is_pole, name


def test_cross_check_reads_the_candidate_table_once(monkeypatch):
    """cross_check on a 40-curve chain takes the candidates from the
    diagram's table, not once per candidate (41 calls before)."""
    import sys

    import topzeta.zeta
    d = principalize(build(40, 0)).diagram
    report = pole_report(d)
    original = topzeta.zeta.candidate_poles
    calls = []

    def counted(diagram):
        calls.append(diagram)
        return original(diagram)

    for name, mod in list(sys.modules.items()):
        if name == "topzeta" or name.startswith("topzeta."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, counted)
    assert cross_check(d, report).passed
    assert len(calls) <= 1
