"""Zeta assembly, residues, and the per-component contribution oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from test_diagram_tables import drawn_diagrams
from topzeta.diagram import IntersectionDiagram, Vertex
from topzeta.errors import MalformedDiagram, OrderTwoCandidate
from topzeta.poly import parse_poly
from topzeta.principalize import principalize
from topzeta.ratfunc import rf_sum_of_terms
from topzeta.zeta import (
    pole_report,
    residue_contribution,
    zeta_terms,
)

GOLDEN = [parse_poly("x^4*y"), parse_poly("x^7 + x*y^4")]


@pytest.fixture(scope="module")
def golden():
    return principalize(GOLDEN).diagram


def test_zeta_terms_golden(golden):
    terms = zeta_terms(golden)
    assert (1, [(4, 7)]) in terms                 # chi of the last curve
    assert (1, [(2, 5), (3, 6)]) in terms         # a crossing
    assert (1, [(2, 5), (1, 1)]) in terms         # branch crossing
    assert len(terms) == 4


def test_local_zeta_golden(golden):
    rf = rf_sum_of_terms(zeta_terms(golden))
    assert (rf.nums, rf.scale) == ((8, 16, 5), 1)
    assert dict(rf.den) == {(2, 5): 1, (4, 7): 1, (1, 1): 1}


def test_local_zeta_single_vertex():
    d = principalize([parse_poly("x"), parse_poly("y")]).diagram
    rf = rf_sum_of_terms(zeta_terms(d))
    assert (rf.nums, rf.scale) == ((2,), 1) and dict(rf.den) == {(2, 1): 1}


def test_local_zeta_origin_single_branch():
    d = principalize([parse_poly("x")]).diagram
    rf = rf_sum_of_terms(zeta_terms(d))
    assert (rf.nums, rf.scale) == ((1,), 1) and dict(rf.den) == {(1, 1): 1}


def test_local_zeta_origin_two_branches():
    # reachable through the diagram API: two transversal branches at the
    # origin with no blow-up
    d = IntersectionDiagram(
        vertices=[Vertex("S1", "strict-branch", 2, 1),
                  Vertex("S2", "strict-branch", 3, 1)],
        edges={frozenset(("S1", "S2"))},
        origin_case=["S1", "S2"])
    rf = rf_sum_of_terms(zeta_terms(d))
    assert (rf.nums, rf.scale) == ((1,), 1)
    assert dict(rf.den) == {(1, 2): 1, (1, 3): 1}


def test_residue_contribution_zero_at_half(golden):
    assert residue_contribution(golden, "E2", Fraction(-1, 2)) == 0


def test_residue_contribution_e1(golden):
    assert residue_contribution(golden, "E1", Fraction(-2, 5)) == Fraction(2, 3)


def test_residue_contribution_strict_branch(golden):
    assert residue_contribution(golden, "S1", Fraction(-1)) == Fraction(-1, 3)


def test_residue_contribution_wrong_candidate(golden):
    with pytest.raises(ValueError):
        residue_contribution(golden, "E1", Fraction(-1))


def test_residue_contribution_order_two():
    d = IntersectionDiagram(
        vertices=[Vertex("E1", "exceptional", 2, 1),
                  Vertex("E2", "exceptional", 4, 2)],
        edges={frozenset(("E1", "E2"))}, minimal=True)
    with pytest.raises(OrderTwoCandidate):
        residue_contribution(d, "E1", Fraction(-1, 2))


def test_pole_report_golden(golden):
    rep = pole_report(golden)
    assert rep.candidate_poles == [Fraction(-1), Fraction(-4, 7),
                                   Fraction(-1, 2), Fraction(-2, 5)]
    assert rep.pole_locations() == {Fraction(-1), Fraction(-4, 7),
                                    Fraction(-2, 5)}
    assert all(p.order == 1 for p in rep.poles)
    assert Fraction(-1, 2) not in rep.pole_locations()


def test_pole_report_pair():
    d = principalize([parse_poly("x"), parse_poly("y")]).diagram
    rep = pole_report(d)
    assert rep.candidate_poles == [Fraction(-2)]
    (p,) = rep.poles
    assert (p.location, p.order, p.leading_coefficient) == \
        (Fraction(-2), 1, Fraction(2))


def test_pole_report_order_two_hand_diagram():
    d = IntersectionDiagram(
        vertices=[Vertex("E1", "exceptional", 2, 1),
                  Vertex("E2", "exceptional", 4, 2)],
        edges={frozenset(("E1", "E2"))})
    rep = pole_report(d)
    (p,) = rep.poles
    assert (p.location, p.order) == (Fraction(-1, 2), 2)
    assert Fraction(-1, 2) not in rep.contributions


def test_contribution_oracle_golden(golden):
    """Sum of contributions at each order-one candidate equals the residue
    of the reduced zeta there."""
    rep = pole_report(golden)
    residues = {p.location: p.leading_coefficient for p in rep.poles}
    for s0, per in rep.contributions.items():
        assert sum(per.values()) == residues.get(s0, Fraction(0))


def test_contribution_oracle_corpus(corpus_results):
    for name, result in corpus_results:
        rep = pole_report(result.diagram)
        residues = {p.location: p.leading_coefficient for p in rep.poles}
        maximal = max(rep.candidate_poles)
        for s0, per in rep.contributions.items():
            total = sum(per.values())
            assert total == residues.get(s0, Fraction(0)), (name, s0)
            if s0 != maximal:
                for ident, c in per.items():
                    assert c <= 0, (name, s0, ident)


def test_maximal_candidate_is_pole(corpus_results):
    for name, result in corpus_results:
        rep = pole_report(result.diagram)
        assert max(rep.candidate_poles) in rep.pole_locations(), name


def test_poles_subset_of_candidates(corpus_results):
    for name, result in corpus_results:
        rep = pole_report(result.diagram)
        assert rep.pole_locations() <= set(rep.candidate_poles), name


def test_order_two_only_at_maximal(corpus_results):
    for name, result in corpus_results:
        rep = pole_report(result.diagram)
        heavy = [p for p in rep.poles if p.order >= 2]
        assert all(p.order <= 2 for p in rep.poles), name
        for p in heavy:
            assert p.location == max(rep.candidate_poles), name
            # two adjacent vertices share the maximal ratio
            d = result.diagram
            shared = [
                e for e in d.edges
                if all(Fraction(-d.vertex(v).nu, d.vertex(v).N) == p.location
                       for v in e)
            ]
            assert shared, name


def test_blowup_independence(corpus_results):
    """One extra allowed-center blow-up leaves the reduced zeta identical."""
    import copy
    from topzeta.blowup import PointRecord, blow_up
    from topzeta.diagram import diagram_from_state

    def corner_center(state):
        for i, ch in enumerate(state.leaves):
            xs = [d for d in state.divisor_order if ch.axis_of(d) == ("x", 0)]
            ys = [(d, ch.axis_of(d)[1]) for d in state.divisor_order
                  if ch.axis_of(d) is not None
                  and ch.axis_of(d)[0] == "y"]
            if xs and ys:
                return PointRecord(i, (Fraction(0), ys[0][1]))
        return None

    def fresh_center(state):
        for i, ch in enumerate(state.leaves):
            for d in state.divisor_order:
                if ch.axis_of(d) == ("x", 0) and d in ch.pms:
                    return PointRecord(i, (Fraction(0), Fraction(17)))
        return None

    checked = 0
    for name, result in corpus_results:
        if checked >= 10:
            break
        z0 = str(rf_sum_of_terms(zeta_terms(result.diagram)))
        for pick in (corner_center, fresh_center):
            state = copy.deepcopy(result.state)
            center = pick(state)
            if center is None:
                continue
            blow_up(state, center)
            state.complete = True
            z1 = str(rf_sum_of_terms(zeta_terms(diagram_from_state(state))))
            assert z1 == z0, (name, pick.__name__)
        checked += 1
    assert checked == 10


def test_zeta_json_shape(golden):
    rep = pole_report(golden)
    payload = rep.to_json_dict()
    assert payload["zeta"]["num"] == ["8", "16", "5"]
    assert payload["zeta"]["den"] == [[2, 5, 1], [4, 7, 1], [1, 1, 1]]
    assert payload["candidates"] == ["-1", "-4/7", "-1/2", "-2/5"]
    assert {"s": "-2/5", "order": 1, "leading": "2/3"} in payload["poles"]


def test_pole_report_builds_terms_once(golden, monkeypatch):
    import topzeta.zeta
    original = topzeta.zeta.zeta_terms
    calls = []

    def counted(diagram):
        calls.append(diagram)
        return original(diagram)

    monkeypatch.setattr(topzeta.zeta, "zeta_terms", counted)
    rep = pole_report(golden)
    assert len(calls) == 1
    assert rep.terms == original(golden)


@pytest.mark.parametrize("fn", [zeta_terms, pole_report])
def test_empty_diagram_refused(fn):
    from topzeta.errors import MalformedDiagram
    with pytest.raises(MalformedDiagram, match="empty diagram"):
        fn(IntersectionDiagram(vertices=[], edges=set()))


# --- lazy residue contributions ----------------------------------------------

def _eager_pole_report(diagram):
    """pole_report as it was when it computed every contribution up front:
    the contributions, or the name of the error it raised."""
    from topzeta.ratfunc import poles_of, rf_sum_of_terms
    try:
        poles = poles_of(rf_sum_of_terms(zeta_terms(diagram)))
        orders = {p.location: p.order for p in poles}
        contributions = {}
        for s0, group in diagram.by_candidate.items():
            if orders.get(s0, 0) >= 2:
                continue
            per = {}
            for v in group:
                try:
                    per[v.ident] = residue_contribution(diagram, v.ident, s0)
                except OrderTwoCandidate:
                    per = {}
                    break
            if per:
                contributions[s0] = per
        return contributions
    except MalformedDiagram as exc:
        return f"{type(exc).__name__}: {exc}"


def _lazy_pole_report(diagram):
    """The same outcome from today's pole_report; an error must come from
    pole_report itself, not from the first read of the contributions."""
    try:
        rep = pole_report(diagram)
    except MalformedDiagram as exc:
        return f"{type(exc).__name__}: {exc}"
    return rep.contributions


def test_contributions_match_eager_loop_on_corpus_replay(corpus_results,
                                                          replay_states):
    from topzeta.diagram import diagram_from_state
    from topzeta.errors import InternalInvariantError
    seen = 0
    for name, result in corpus_results:
        for state in replay_states(result):
            try:
                d = diagram_from_state(state)
            except InternalInvariantError:
                continue  # a branch through a corner before the last step
            assert _lazy_pole_report(d) == _eager_pole_report(d), name
            seen += 1
    assert seen > 400


@given(drawn_diagrams())
@settings(max_examples=200, deadline=None)
def test_contributions_match_eager_loop_on_drawn_diagrams(d):
    """Cycles, forests, isolated branches and the origin case."""
    assert _lazy_pole_report(d) == _eager_pole_report(d)


def test_isolated_branch_refused_by_pole_report():
    d = IntersectionDiagram(
        vertices=[Vertex("E1", "exceptional", 2, 1),
                  Vertex("S1", "strict-branch", 1, 1)],
        edges=set())
    with pytest.raises(MalformedDiagram, match="isolated strict branch S1"):
        pole_report(d)


def test_contributions_computed_once_on_first_read(golden, monkeypatch):
    import topzeta.zeta
    original = topzeta.zeta.residue_contribution
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(topzeta.zeta, "residue_contribution", counted)
    rep = pole_report(golden)
    assert calls == []
    first = rep.contributions
    assert len(calls) == len(golden.vertices)
    assert rep.contributions is first and len(calls) == len(golden.vertices)
