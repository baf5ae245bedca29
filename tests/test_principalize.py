"""Principalization driver: bad points, termination, minimality."""

from fractions import Fraction

import pytest

from topzeta.blowup import PointRecord, blow_up, initial_state
from topzeta.errors import CenterNotRational, StepBudgetExceeded
from topzeta.family import build
from topzeta.poly import parse_poly
from topzeta.principalize import (
    PrincipalizationResult,
    _bad_values_on_occurrence,
    find_bad_points,
    principalize,
    verify_minimality,
)


def P(text):
    return parse_poly(text)


GOLDEN = [P("x^4*y"), P("x^7 + x*y^4")]


def test_find_bad_points_initial_golden():
    st = initial_state(GOLDEN)
    (pt,) = find_bad_points(st)
    assert pt.coords == (0, 0)
    assert "residual-vanishes" in pt.reasons


def test_find_bad_points_empty_after_completion():
    result = principalize(GOLDEN)
    assert result.step_count == 3
    assert find_bad_points(result.state) == []


def test_find_bad_points_smooth_principal():
    st = initial_state([P("x")])
    assert find_bad_points(st) == []


def test_principalize_golden_data():
    result = principalize(GOLDEN)
    data = [(v.kind, v.N, v.nu) for v in result.diagram.vertices]
    assert data == [
        ("exceptional", 5, 2),
        ("exceptional", 6, 3),
        ("exceptional", 7, 4),
        ("strict-branch", 1, 1),
    ]
    assert result.diagram.edges == {
        frozenset(("E1", "E2")), frozenset(("E2", "E3")),
        frozenset(("E1", "S1")),
    }


def test_principalize_pair_of_coordinates():
    result = principalize([P("x"), P("y")])
    assert result.step_count == 1
    (v,) = result.diagram.vertices
    assert (v.N, v.nu) == (1, 2)
    assert result.diagram.edges == set()


def test_principalize_family_chain():
    from topzeta.family import build, expected_chain
    result = principalize(build(7, 4))
    assert [(v.N, v.nu) for v in result.diagram.exceptional()] == \
        expected_chain(7, 4)
    assert result.diagram.strict_branches() == []


def test_step_budget():
    with pytest.raises(StepBudgetExceeded):
        principalize(GOLDEN, max_steps=2)


def test_center_not_rational():
    with pytest.raises(CenterNotRational) as exc:
        principalize([P("x^3"), P("y^2 - 2*x^2")])
    assert "y^2 - 2" in str(exc.value)


def test_center_not_rational_imaginary():
    with pytest.raises(CenterNotRational):
        principalize([P("y^2 + x^2"), P("x^5")])


def test_translated_centers_resolve():
    result = principalize([P("y^2 - x^2"), P("x^5")])
    assert result.step_count == 7
    kinds = [(v.N, v.nu) for v in result.diagram.exceptional()]
    assert kinds == [(2, 2), (3, 3), (4, 4), (5, 5), (3, 3), (4, 4), (5, 5)]


def test_minimality_of_runs(corpus_results):
    for name, result in corpus_results[:20]:
        rep = verify_minimality(result)
        assert rep.passed, f"{name}: {rep.failures}"


def test_minimality_flags_extra_step():
    result = principalize(GOLDEN)
    state = result.state
    # append a fabricated event at a good point: a fresh spot on E3
    leaf_index, chart = next(
        (i, ch) for i, ch in enumerate(state.leaves)
        if ch.axis_of("E3") == ("x", Fraction(0)))
    fake = PrincipalizationResult(
        state=state, diagram=result.diagram,
        log=list(result.log), step_count=result.step_count)
    blow_up(state, PointRecord(leaf_index, (Fraction(0), Fraction(5)), ()))
    fake.log = list(state.log)
    rep = verify_minimality(fake)
    assert not rep.passed
    assert any("step 3" in f for f in rep.failures)


def test_confluence_reverse_order(corpus_results):
    """Processing bad points in reverse order yields the same diagram."""
    from topzeta.blowup import initial_state as init
    from topzeta.diagram import diagram_from_state
    for name, result in corpus_results[:12]:
        state = init(list(result.gens))
        steps = 0
        while True:
            bad = find_bad_points(state)
            if not bad:
                break
            blow_up(state, bad[-1])
            steps += 1
            assert steps <= 512
        state.complete = True
        other = diagram_from_state(state)
        ours = result.diagram
        assert sorted((v.kind, v.N, v.nu) for v in other.vertices) == \
            sorted((v.kind, v.N, v.nu) for v in ours.vertices), name
        # same multiset of edge data
        def edge_data(d):
            return sorted(
                tuple(sorted((d.vertex(a).N, d.vertex(a).nu,
                              d.vertex(a).kind) for a in e))
                for e in d.edges)
        assert edge_data(other) == edge_data(ours), name


def test_residual_unit_everywhere_after_completion(corpus_results):
    """The weak transform is the unit ideal at every owned point of every
    final chart."""
    from topzeta.poly import UniPoly, uni_gcd
    for name, result in corpus_results[:15]:
        state = result.state
        for occ in state.occurrences():
            g = UniPoly()
            for r in occ.chart.residual:
                g = uni_gcd(g, occ.chart.restrict(r, occ.axis))
            if occ.mode == "all":
                assert g.degree() == 0, (name, occ.ident)
            else:
                assert g.eval(0) != 0, (name, occ.ident)


# --- the per-call rescan, kept as the oracle of the per-chart memo ----------

def _reference_find_bad_points(state):
    """The bad points from a full rescan of every leaf chart, as
    `find_bad_points` found them before the per-chart memo."""
    if not state.log:
        chart = state.leaves[0]
        reasons = []
        if all(r.constant_term() == 0 for r in chart.residual):
            reasons.append("residual-vanishes")
        total_mult = sum(
            m for v in chart.carriers.values()
            if (m := v.mult_at_origin()) != 0
        )
        if total_mult >= 2:
            reasons.append("curve-part-not-normal-crossings")
        if reasons:
            return [PointRecord(0, (Fraction(0), Fraction(0)), (),
                                tuple(reasons))]
        return []

    per_leaf = {}
    for occ in state.occurrences():
        for t, reason in _bad_values_on_occurrence(occ):
            coords = occ.param_point(t)
            per_leaf.setdefault(occ.leaf_index, []).append(
                (coords, reason, occ))

    records = []
    identities = []
    for leaf_index in sorted(per_leaf):
        hits = sorted(per_leaf[leaf_index],
                      key=lambda h: (h[0][0], h[0][1], h[1]))
        for coords, reason, occ in hits:
            ident = occ.chart.point_identity(coords)
            merged = False
            for i, known in enumerate(identities):
                if known & ident:
                    if not ident <= known:
                        identities[i] = known | ident
                    if reason not in records[i].reasons:
                        records[i] = PointRecord(
                            records[i].leaf_index, records[i].coords,
                            records[i].divisors,
                            records[i].reasons + (reason,))
                    merged = True
                    break
            if not merged:
                identities.append(ident)
                records.append(PointRecord(
                    leaf_index, coords,
                    tuple(occ.chart.divisors_through(coords)), (reason,)))
    return records


def _assert_memo_matches_rescan(result, replay_states, name):
    """At every step of the replayed run the memoised scan gives the
    rescan's records, and a blow-up keeps every other leaf object."""
    before = None
    for state in replay_states(result):
        if before is not None:
            k = next(i for i, ch in enumerate(before)
                     if ch.path == state.log[-1].chart_path)
            after = state.leaves
            assert len(after) == len(before) + 1, name
            assert all(a is b for a, b in zip(
                after[:k] + after[k + 2:], before[:k] + before[k + 1:])), name
            assert not any(ch is old for ch in after[k:k + 2]
                           for old in before), name
        assert find_bad_points(state) == \
            _reference_find_bad_points(state), (name, len(state.log))
        before = list(state.leaves)
    # the finished run's charts were stored on during principalize
    assert find_bad_points(result.state) == \
        _reference_find_bad_points(result.state) == [], name


def test_memoised_scan_matches_rescan_on_corpus(corpus_results,
                                                replay_states):
    for name, result in corpus_results:
        _assert_memo_matches_rescan(result, replay_states, name)


@pytest.mark.parametrize("gens", [
    build(16, 1),
    [P("((y^2-x^3)^2-4*x^5*y-x^7)*(y-x^2)"), P("x^8")],
], ids=["chain-16-1", "translated-swell"])
def test_memoised_scan_matches_rescan_on_long_runs(gens, replay_states):
    result = principalize(gens)
    assert result.step_count >= 5
    _assert_memo_matches_rescan(result, replay_states, "long run")


def test_failed_scan_is_not_stored():
    """A scan that refuses an irrational centre stores nothing and refuses
    again on the next call."""
    state = initial_state([P("x^3"), P("y^2 - 2*x^2")])
    while True:
        try:
            bad = find_bad_points(state)
        except CenterNotRational as exc:
            first = str(exc)
            break
        blow_up(state, bad[0])
    assert state.log, "the refusal comes after the first blow-up"
    assert any(ch.bad_hits is None for ch in state.leaves)
    with pytest.raises(CenterNotRational) as exc:
        find_bad_points(state)
    assert str(exc.value) == first
    assert "y^2 - 2" in first
