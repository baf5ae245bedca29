"""Principalization driver: bad points, termination, minimality."""

import importlib
from collections import Counter
from fractions import Fraction

import pytest

from corpus import (
    SWELL_BRANCH,
    corpus,
    perfbench_ideals,
    pool_entries,
    swell_entries,
)
from reference_q import (
    chart_restrict, derivative_q, eval_q, gcd_q, nums_q, poly_q, squarefree_q)
from test_blowup import _positive_multiple, _reference_point_identity
from topzeta.blowup import (
    Chart,
    ChartState,
    PointMap,
    PointRecord,
    blow_up,
    initial_state,
)
from topzeta.errors import (
    CenterNotRational,
    InternalInvariantError,
    StepBudgetExceeded,
    TopZetaError,
)
from topzeta.family import build
from topzeta.poly import BiPoly, parse_poly, poly_to_str, rational_roots
from topzeta.principalize import (
    MinimalityReport,
    PrincipalizationResult,
    _bad_values_on_occurrence,
    _chart_hits,
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
    blow_up(state, PointRecord(leaf_index, (Fraction(0), Fraction(5))))
    fake.log = list(state.log)
    rep = verify_minimality(fake)
    assert not rep.passed
    assert any("step 3" in f for f in rep.failures)


# --- the identity-matching replay, kept as the oracle of the chart replay ---

def _reference_verify_minimality(result):
    """Replay the log, rescanning every leaf at every step, and match the
    center against each bad point by point identity."""
    state = initial_state(list(result.gens))
    failures = []
    for event in result.log:
        bad = find_bad_points(state)
        leaf_index = next(
            (i for i, ch in enumerate(state.leaves)
             if ch.path == event.chart_path), None)
        if leaf_index is None:
            failures.append(f"step {event.step}: chart not found in replay")
            break
        chart = state.leaves[leaf_index]
        ident = _reference_point_identity(chart, event.center)
        is_bad = any(
            (not ident and b.leaf_index == leaf_index
             and b.coords == event.center)
            or (ident and ident & _reference_point_identity(
                state.leaves[b.leaf_index], b.coords))
            for b in bad
        )
        if not is_bad:
            failures.append(
                f"step {event.step}: center {event.center} in chart "
                f"{event.chart_path} was not a bad point")
        blow_up(state, PointRecord(leaf_index, event.center))
    return MinimalityReport(passed=not failures, failures=failures)


def _outcome(verify, result):
    try:
        return verify(result)
    except Exception as exc:  # the same refusal counts as agreement
        return type(exc), str(exc)


def _moved_logs(result, count=6):
    """The log with one of its first `count` centers moved by +1 in y."""
    for i, ev in enumerate(result.log[:count]):
        log = list(result.log)
        log[i] = ev._replace(center=(ev.center[0], ev.center[1] + 1))
        yield PrincipalizationResult(result.state, result.diagram, log,
                                     result.step_count)


def _benchmark_results(*workloads):
    """Principalizations of every ideal the named benchmark workloads can
    draw."""
    ideals = perfbench_ideals()
    return [(f"{w}-{i}", principalize([P(t) for t in texts]))
            for w in workloads for i, texts in enumerate(ideals[w])]


def test_chart_replay_matches_identity_replay(corpus_results):
    """The replay that checks each center only in its logged chart gives
    the same report, or the same refusal, as the identity-matching one: on
    every corpus, chain and swell log and on each log with one early center
    moved."""
    kinds = Counter()
    for name, result in (corpus_results
                         + _benchmark_results("chain", "swell")):
        for res in (result, *_moved_logs(result)):
            want = _outcome(_reference_verify_minimality, res)
            assert _outcome(verify_minimality, res) == want, name
            kinds[want.passed if isinstance(want, MinimalityReport)
                  else want[0]] += 1
    # passing, failing and refused replays all occur
    assert kinds[True] and kinds[False] and len(kinds) > 2, kinds


def test_chart_replay_scans_only_the_logged_charts(monkeypatch):
    """After the root, the replay scans one chart per step and never calls
    find_bad_points."""
    principalize_mod = importlib.import_module("topzeta.principalize")
    result = principalize(build(12, 1))
    scanned = []
    real = principalize_mod._chart_hits
    monkeypatch.setattr(principalize_mod, "_chart_hits",
                        lambda ch, i: scanned.append(ch.path) or real(ch, i))
    calls = []
    real_find = principalize_mod.find_bad_points
    monkeypatch.setattr(principalize_mod, "find_bad_points",
                        lambda st: calls.append(1) or real_find(st))
    assert verify_minimality(result).passed
    assert len(calls) == 1
    assert scanned == [ev.chart_path for ev in result.log[1:]]


def _count_replay_work(monkeypatch):
    """Counts of the calls that transform or scan a chart, or build a
    root state."""
    blowup_mod = importlib.import_module("topzeta.blowup")
    principalize_mod = importlib.import_module("topzeta.principalize")
    counts = Counter()

    def counting(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted

    for mod, name in ((blowup_mod, "_child"), (blowup_mod, "_translated"),
                      (principalize_mod, "initial_state"),
                      (principalize_mod, "_bad_values_on_occurrence")):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return counts


def test_genuine_replay_transforms_and_scans_nothing(monkeypatch,
                                                     corpus_results):
    """A genuine log replays from the run's own charts: no root state, no
    chart transform and no scan, on the corpus, the chains build(a, b) for
    a <= 12 and the swell ideals for K <= 6."""
    results = corpus_results + [
        (f"build-{a}-{b}", principalize(build(a, b)))
        for a in range(1, 13) for b in range(a)] + [
        (name, principalize(gens)) for name, gens in swell_entries(6)]
    counts = _count_replay_work(monkeypatch)
    for name, result in results:
        assert verify_minimality(result).passed, name
        assert not counts, (name, counts)


def _chart_tree(chart):
    """Every chart reachable from `chart` through stored blow-ups."""
    yield chart
    if chart.blown_up is not None:
        for child in chart.blown_up[4:]:
            yield from _chart_tree(child)


def test_moved_replay_leaves_the_memos_unchanged(monkeypatch):
    """Replaying logs with a moved center computes new charts but leaves
    every stored blow-up of the run as it was, so a genuine replay after
    them still transforms nothing."""
    for gens in ([P("y^2 - x^2"), P("x^5")], swell_entries(6)[4][1],
                 build(9, 2)):
        result = principalize(gens)
        memos = [(ch, ch.blown_up) for ch in _chart_tree(result.state.root)]
        assert sum(m is not None for _, m in memos) == result.step_count
        reports = [_outcome(verify_minimality, res)
                   for res in _moved_logs(result)]
        assert any(isinstance(r, MinimalityReport) and not r.passed
                   for r in reports)
        assert all(ch.blown_up is memo for ch, memo in memos)
        counts = _count_replay_work(monkeypatch)
        assert verify_minimality(result).passed
        assert not counts, counts
        monkeypatch.undo()


def test_blow_up_recomputes_a_memo_for_another_divisor(monkeypatch):
    """A chart's stored blow-up is reused only for the same divisor name:
    under another name the children are transformed again, carry that name,
    and the stored blow-up stays as it was."""
    first = initial_state(GOLDEN)
    root = first.root
    blow_up(first, PointRecord(0, (Fraction(0), Fraction(0))))
    memo = root.blown_up
    assert memo[0] == (0, "E1") and first.leaves == list(memo[4:])

    counts = _count_replay_work(monkeypatch)
    again = ChartState(first.gens, first.carriers, root)
    blow_up(again, PointRecord(0, (Fraction(0), Fraction(0))))
    assert not counts and again.leaves == first.leaves

    other = ChartState(first.gens, first.carriers, root)
    other.divisor_order.append("E0")  # the next divisor is E2
    blow_up(other, PointRecord(0, (Fraction(0), Fraction(0))))
    assert counts["_child"] == 2
    assert root.blown_up is memo
    assert other.divisors["E2"] == first.divisors["E1"]._replace(ident="E2")
    for mine, theirs in zip(other.leaves, first.leaves):
        assert mine is not theirs
        assert list(mine.exc) == ["E2"] and list(theirs.exc) == ["E1"]
        assert mine.exc["E2"] == theirs.exc["E1"]
        assert mine.residual == theirs.residual


def test_chart_axes_are_the_analyzable_divisors():
    """`Chart.axes`, set when the chart is built, holds the axis of every
    divisor with a point map, in birth order, on every chart of the swell
    runs."""
    charts = 0
    for _, gens in swell_entries(11):
        for chart in _chart_tree(principalize(gens).state.root):
            assert list(chart.axes.items()) == [
                (d, chart.axis_of(d)) for d in chart.exc if d in chart.pms]
            charts += 1
    assert charts > 500


@pytest.mark.parametrize("k", [16, 20])
def test_heavy_swell_principalizes_and_replays(k):
    """The swell ideal (branch*(y - x^2), x^K) far past the benchmark's
    K <= 11: a minimal principalization, certified by its replay."""
    result = principalize([P(f"{SWELL_BRANCH}*(y - x^2)"), P(f"x^{k}")])
    assert result.step_count > k
    assert verify_minimality(result) == MinimalityReport(True, [])


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
    for name, result in corpus_results[:15]:
        state = result.state
        for occ in state.occurrences():
            g = poly_q()
            for r in occ.chart.residual:
                g = gcd_q(g, chart_restrict(r, occ.axis))
            if occ.mode == "all":
                assert len(g) == 1, (name, occ.ident)
            else:
                assert eval_q(g, Fraction(0)) != 0, (name, occ.ident)


# --- the per-call rescan, kept as the oracle of the per-chart memo ----------

def _reference_find_bad_points(state):
    """The bad points from a full rescan of every leaf chart, as
    `find_bad_points` found them before the per-chart memo."""
    if not state.log:
        chart = state.leaves[0]
        reasons = []
        if all((0, 0) not in r.nums for r in chart.residual):
            reasons.append("residual-vanishes")
        total_mult = sum(
            m for v in chart.carriers.values()
            if (m := v.mult_at_origin()) != 0
        )
        if total_mult >= 2:
            reasons.append("curve-part-not-normal-crossings")
        if reasons:
            return [PointRecord(0, (Fraction(0), Fraction(0)),
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
            ident = _reference_point_identity(occ.chart, coords)
            merged = False
            for i, known in enumerate(identities):
                if known & ident:
                    if not ident <= known:
                        identities[i] = known | ident
                    if reason not in records[i].reasons:
                        records[i] = PointRecord(
                            records[i].leaf_index, records[i].coords,
                            records[i].reasons + (reason,))
                    merged = True
                    break
            if not merged:
                identities.append(ident)
                records.append(PointRecord(leaf_index, coords, (reason,)))
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


# --- the gcd for every mode, kept as the oracle of the ownership split ------

def _reference_owned_params(occ, locator, context):
    if occ.mode == "point":
        return [Fraction(0)] if eval_q(locator, Fraction(0)) == 0 else []
    if len(locator) <= 1:
        return []
    roots, cofactor = rational_roots(nums_q(locator))
    if len(cofactor) > 1:
        monic = squarefree_q(poly_q(cofactor))
        text = poly_to_str(BiPoly({(0, j): c for j, c in enumerate(monic)}))
        raise CenterNotRational(f"{text} ({context} on {occ.ident})")
    return [r for r, _ in roots]


def _reference_carrier_restrictions(occ):
    """Every carrier's restriction as Fraction coefficients, in carrier
    order, as the scan built them before it read integer rows."""
    out = []
    for c, eq in occ.chart.carriers.items():
        sigma = chart_restrict(eq, occ.axis)
        if not sigma:
            raise InternalInvariantError(
                f"carrier {c} contains divisor {occ.ident}")
        out.append((c, sigma))
    return out


def _reference_bad_values_on_occurrence(occ):
    """The bad values as found before ownership decided the work: a full
    gcd of the polynomials for every mode, then its zeros on the owned
    locus."""
    chart = occ.chart
    found = []

    def emit(locator, context, reason):
        for t in _reference_owned_params(occ, locator, context):
            found.append((t, reason))

    locator = poly_q()
    for r in chart.residual:
        locator = gcd_q(locator, chart_restrict(r, occ.axis))
    if not locator:
        raise InternalInvariantError(
            f"residual ideal vanishes along divisor {occ.ident}")
    emit(locator, "residual zero locus", "residual-vanishes")
    carrier_restrictions = _reference_carrier_restrictions(occ)
    for ident, sigma in carrier_restrictions:
        if len(sigma) <= 1:
            continue
        emit(gcd_q(sigma, derivative_q(sigma)),
             f"tangency of {ident}", f"branch-tangent:{ident}")
    for i in range(len(carrier_restrictions)):
        for j in range(i + 1, len(carrier_restrictions)):
            ki, si = carrier_restrictions[i]
            kj, sj = carrier_restrictions[j]
            emit(gcd_q(si, sj), f"crossing {ki}/{kj}",
                 f"branches-meet:{ki}:{kj}")
    for t_corner, other in occ.corners:
        for ident, sigma in carrier_restrictions:
            if eval_q(sigma, t_corner) == 0:
                found.append((t_corner, f"branch-at-corner:{ident}:{other}"))
    return found


def _scan_outcome(scan, occ):
    try:
        return scan(occ)
    except (CenterNotRational, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc)


def _assert_scans_match(states, name, features=None):
    """Both scans agree on every occurrence of every state; returns the
    number of occurrences compared, and counts in `features` the kinds of
    occurrence and outcome compared."""
    seen = 0
    for state in states:
        for occ in state.occurrences():
            outcome = _scan_outcome(_bad_values_on_occurrence, occ)
            assert outcome == \
                _scan_outcome(_reference_bad_values_on_occurrence, occ), \
                (name, len(state.log), occ.leaf_index, occ.ident)
            seen += 1
            if features is not None:
                features.update(_scan_features(occ, outcome))
    return seen


def _scan_features(occ, outcome):
    if occ.mode == "point" and occ.axis[1] != 0:
        yield "point-owned, nonzero axis constant"
    if len(occ.chart.carriers) >= 2:
        yield "two or more carriers"
    if isinstance(outcome, tuple):
        yield outcome[0]
    elif any(reason.startswith("branch-at-corner") for _, reason in outcome):
        yield "corner hit"


def _states_up_to_refusal(gens):
    """The states of a run that blows up the first bad point until the
    scan refuses an irrational centre, the refusing state last."""
    state = initial_state(gens)
    while True:
        yield state
        try:
            bad = find_bad_points(state)
        except CenterNotRational:
            return
        blow_up(state, bad[0])


def test_scan_matches_full_gcd_on_corpus_replay(corpus_results,
                                                replay_states):
    seen = sum(_assert_scans_match(replay_states(result), name)
               for name, result in corpus_results)
    assert seen > 1000


def test_scan_oracle_covers_every_fast_path(corpus_results, replay_states):
    """The compared occurrences include every case the integer scan
    treats apart, so no fast path goes unchecked against the oracle."""
    features = Counter()
    # no corpus chart shows two carriers: a curve part of two exponents
    h = "(y^2 - x^3)^2*(y - x^2)"
    two_carriers = principalize([P(f"{h}*x"), P(f"{h}*y^2")])
    for name, result in corpus_results + [("two-carriers", two_carriers)]:
        _assert_scans_match(replay_states(result), name, features)
    _assert_scans_match(_states_up_to_refusal([P("x^3"), P("y^2 - 2*x^2")]),
                        "refusal", features)
    assert set(features) == {
        "point-owned, nonzero axis constant", "two or more carriers",
        "corner hit", "CenterNotRational"}, features


@pytest.mark.parametrize("gens", [
    build(40, 0),
    [P("((y^2-x^3)^2-4*x^5*y-x^7)*(y-x^2)"), P("x^8")],
    [P("(y^2-x^3)*(y^2+x^3)*(y-x^2)")],
], ids=["chain-40-0", "translated-swell", "three-branches"])
def test_scan_matches_full_gcd_on_long_runs(gens, replay_states):
    result = principalize(gens)
    assert _assert_scans_match(replay_states(result), "long run") >= 10


@pytest.mark.parametrize("gens", [
    [P("x^3"), P("y^2 - 2*x^2")],
    [P("y^2 + x^2"), P("x^5")],
], ids=["real-irrational", "imaginary"])
def test_scan_matches_full_gcd_up_to_refusal(gens):
    features = Counter()
    states = _states_up_to_refusal(gens)
    assert _assert_scans_match(states, "refusal", features) >= 2
    assert features["CenterNotRational"] >= 1


def _crafted_occurrence(axis_eq, residual, carriers, others=()):
    """The occurrence of E1 in a chart where E1 is {axis_eq = 0} and E2,
    E3, ... are {others[i] = 0}."""
    exc = {f"E{i + 1}": P(eq) for i, eq in enumerate((axis_eq, *others))}
    chart = Chart((), exc=exc,
                  pms={d: PointMap("A", Fraction(0)) for d in exc},
                  carriers={f"C{i + 1}": P(c) for i, c in enumerate(carriers)},
                  residual_parts=[(P(r), {}) for r in residual])
    return next(occ for occ in chart.occurrences(0) if occ.ident == "E1")


RESIDUAL_E1 = "residual ideal vanishes along divisor E1"


@pytest.mark.parametrize("axis_eq, residual, carriers, message", [
    # fully owned: E1 is x = 0
    ("x", ["x*y", "x^2"], ["x*(y + 1)"], RESIDUAL_E1),
    ("x", ["y", "x"], ["y + 1", "x*y", "x"], "carrier C2 contains divisor E1"),
    # point-owned: E1 is y = 2, or y = 0
    ("y - 2", ["(y - 2)*x", "x^2*(y - 2)^2"], ["(y - 2)*x"], RESIDUAL_E1),
    ("y - 2", ["x*y - 2*x", "x + y - 2"],
     ["x + y - 1", "(y - 2)*(x + 1)", "y - 2"], "carrier C2 contains divisor E1"),
    ("y", ["x*y", "y^2"], ["x*y"], RESIDUAL_E1),
    ("y", ["x", "x*y + x"], ["x + y", "y*(1 + x)"],
     "carrier C2 contains divisor E1"),
])
def test_scan_invariant_errors(axis_eq, residual, carriers, message):
    """A restriction that vanishes along the divisor is refused, the
    residual ideal first and then the carriers in carrier order, with the
    oracle's text."""
    occ = _crafted_occurrence(axis_eq, residual, carriers)
    assert occ.mode == ("all" if axis_eq == "x" else "point")
    with pytest.raises(InternalInvariantError) as exc:
        _bad_values_on_occurrence(occ)
    assert str(exc.value) == message
    assert _scan_outcome(_reference_bad_values_on_occurrence, occ) == \
        ("InternalInvariantError", message)


@pytest.mark.parametrize("axis_eq", ["y - 2", "y"])
def test_scan_zero_constant_terms_are_not_vanishing(axis_eq):
    """Point-owned restrictions whose t^0 coefficients all vanish, none
    of them identically: a bad point at t = 0, no invariant error."""
    c = f"({axis_eq})"
    occ = _crafted_occurrence(
        axis_eq, [f"x*{c} + x^2", "x^2"], [f"x + {c}", f"x^2 + {c}"])
    found = _bad_values_on_occurrence(occ)
    assert found == _reference_bad_values_on_occurrence(occ)
    assert {reason for _, reason in found} == {
        "residual-vanishes", "branch-tangent:C2", "branches-meet:C1:C2"}


@pytest.mark.parametrize("gens, steps, point_reads", [
    (build(40, 0), 40, 0),
    ([P("((y^2-x^3)^2-4*x^5*y-x^7)*(y-x^2)"), P("x^8")], 5, 20),
], ids=["chain-40-0", "swell"])
def test_principalize_builds_no_restriction(monkeypatch, gens, steps,
                                            point_reads):
    """The scan and the diagram read integer rows.  A polynomial on a line
    y = beta is read whole: every `y_coeffs` row is all of p(t, beta), up
    to a positive factor, without a trailing zero.  Every point-owned
    occurrence of the chain lies on a chart with a unit residual, which is
    not scanned, so the chain reads rows of fully owned divisors only."""
    reads, x0_reads = [], []
    y_coeffs, x0_row = BiPoly.y_coeffs, BiPoly.x0_row

    def counted(p, beta):
        row = y_coeffs(p, beta)
        reads.append((row, chart_restrict(p, ("y", beta))))
        return row

    def counted_x0(p):
        x0_reads.append(p)
        return x0_row(p)

    monkeypatch.setattr(BiPoly, "y_coeffs", counted)
    monkeypatch.setattr(BiPoly, "x0_row", counted_x0)
    result = principalize(gens)
    assert result.step_count == steps
    assert len(reads) == point_reads
    assert all(len(row) == len(want) and _positive_multiple(row, want)
               for row, want in reads)
    assert x0_reads


def test_scan_corner_at_nonzero_parameter():
    """A branch through the crossing of E1 = {x = 0} with E2 = {y = -2}
    is found at t = -2; no replayed run has one, so it is crafted."""
    occ = _crafted_occurrence("x", ["1"], ["y + 2 + x", "y - 1 + x^2"],
                              others=["y + 2"])
    assert occ.corners == [(Fraction(-2), "E2")]
    found = _bad_values_on_occurrence(occ)
    assert found == _reference_bad_values_on_occurrence(occ) == [
        (Fraction(-2), "branch-at-corner:C1:E2")]


@pytest.mark.parametrize("gens", [
    build(16, 1),
    [P("(y^2-x^3)*(y^2+x^3)*(y-x^2)")],
], ids=["chain-16-1", "three-branches"])
def test_point_owned_scans_take_no_gcd(monkeypatch, replay_states, gens):
    """A point-owned occurrence reads constant coefficients only: no
    integer gcd and no root search, in any topzeta namespace."""
    import sys

    import topzeta.poly
    calls = []

    def counting(original):
        def counted(*args):
            calls.append(original.__name__)
            return original(*args)
        return counted

    for original in (topzeta.poly._gcd, topzeta.poly.rational_roots):
        wrapper = counting(original)
        for name, mod in list(sys.modules.items()):
            if name == "topzeta" or name.startswith("topzeta."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    result = principalize(gens)
    scanned = {"all": 0, "point": 0}
    for state in replay_states(result):
        for occ in state.occurrences():
            before = len(calls)
            _bad_values_on_occurrence(occ)
            if occ.mode == "point":
                assert len(calls) == before, (occ.ident, calls[before:])
            scanned[occ.mode] += len(calls) - before if occ.mode == "all" \
                else 1
    # the guard is not vacuous: point scans ran, full scans took gcds
    assert scanned["point"] >= 5 and scanned["all"] >= 5


# --- the next centre without relisting every leaf ------------------------------

def _listing_outcome(gens, max_steps):
    """The centres of the loop that blows up `find_bad_points(state)[0]`
    until none remain, or its refusal."""
    state = initial_state(list(gens))
    centres = []
    try:
        while bad := find_bad_points(state):
            if len(centres) >= max_steps:
                raise StepBudgetExceeded(
                    f"no principalization within {max_steps} blow-ups")
            centres.append(bad[0])
            blow_up(state, bad[0])
    except (CenterNotRational, StepBudgetExceeded) as exc:
        return centres, (type(exc), str(exc))
    return centres, None


def _picking_entries():
    entries = corpus() + pool_entries()
    entries += [(f"build-{a}-{b}", build(a, b))
                for a, b in ((40, 0), (34, 3), (28, 2), (23, 0), (19, 3))]
    entries += [(f"swell-{i}", [P(t) for t in texts])
                for i, texts in enumerate(perfbench_ideals()["swell"])]
    return entries


def test_principalize_picks_the_first_listed_bad_point(monkeypatch):
    """At every step the centre is `find_bad_points(state)[0]`, and the
    run ends as the listing loop does, refusals and budgets included."""
    principalize_mod = importlib.import_module("topzeta.principalize")
    picked = []

    def checked(state, pr):
        assert pr == find_bad_points(state)[0]
        picked.append(pr)
        return blow_up(state, pr)

    monkeypatch.setattr(principalize_mod, "blow_up", checked)
    ends = Counter()
    for name, gens in _picking_entries():
        for max_steps in (3, 512):
            picked.clear()
            try:
                principalize(gens, max_steps=max_steps)
                end = None
            except (CenterNotRational, StepBudgetExceeded) as exc:
                end = (type(exc), str(exc))
            assert (picked, end) == _listing_outcome(gens, max_steps), name
            ends[end and end[0]] += 1
    assert ends[None] and ends[CenterNotRational] and ends[StepBudgetExceeded]


@pytest.mark.parametrize("a", [20, 40, 80])
def test_principalize_reads_few_charts_per_blow_up(monkeypatch, a):
    """A chain of length a reads a bounded number of charts per blow-up;
    relisting every leaf after each blow-up reads about a^2 / 2."""
    principalize_mod = importlib.import_module("topzeta.principalize")
    real = principalize_mod._chart_hits
    calls = []
    monkeypatch.setattr(principalize_mod, "_chart_hits",
                        lambda ch, i: calls.append(i) or real(ch, i))
    result = principalize(build(a, 0))
    assert result.step_count == a
    assert len(calls) <= 4 * a


def test_principalize_scans_both_new_charts_first(monkeypatch):
    """A refusal from the second new chart ends the run, under any budget,
    though the first new chart has a bad point: the listing scans both."""
    principalize_mod = importlib.import_module("topzeta.principalize")
    real = principalize_mod._chart_hits

    def refusing(chart, leaf_index):
        if chart.path == (("B",),):
            raise CenterNotRational("crafted")
        return real(chart, leaf_index)

    monkeypatch.setattr(principalize_mod, "_chart_hits", refusing)
    for max_steps in (1, 512):
        with pytest.raises(CenterNotRational, match="crafted"):
            principalize(GOLDEN, max_steps=max_steps)
        assert _listing_outcome(GOLDEN, max_steps)[1][0] is CenterNotRational


# --- the unit-residual rule, against the full scan -----------------------------

def _reference_chart_hits(chart, leaf_index):
    """The hits of a full scan of the chart, as `_chart_hits` stored them
    before a chart with a unit residual went unscanned; stores nothing."""
    found = {}
    for coords, reason in sorted({
            (occ.param_point(t), reason)
            for occ in chart.occurrences(leaf_index)
            for t, reason in _bad_values_on_occurrence(occ)}):
        found[coords] = found.get(coords, ()) + (reason,)
    return tuple(found.items())


def _chart_outcome(scan, chart, leaf_index):
    try:
        return scan(chart, leaf_index)
    except (CenterNotRational, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc)


def _has_unit_residual(chart):
    return not chart.carriers and any(
        not k and not s.is_zero() and s.is_constant()
        for s, k in chart.residual_parts)


def _scan_entries():
    """The corpus, the benchmark's pool and every ideal a benchmark
    workload can draw that parses."""
    entries = corpus() + pool_entries()
    for workload, ideals in perfbench_ideals().items():
        for i, texts in enumerate(ideals):
            try:
                entries.append((f"{workload}-{i}", [P(t) for t in texts]))
            except TopZetaError:
                continue  # refused by the parser, never scanned
    return entries


def test_unit_residual_rule_matches_full_scan(monkeypatch):
    """Every chart a run scans gets the full scan's hits, or its refusal;
    the charts with a unit residual and no carrier, which the rule passes
    over, have none."""
    principalize_mod = importlib.import_module("topzeta.principalize")
    real = principalize_mod._chart_hits
    scanned = []

    def recording(chart, leaf_index):
        if chart.bad_hits is None:
            scanned.append((chart, leaf_index,
                            _chart_outcome(real, chart, leaf_index)))
        return real(chart, leaf_index)

    monkeypatch.setattr(principalize_mod, "_chart_hits", recording)
    counts = Counter()
    for name, gens in _scan_entries():
        scanned.clear()
        try:
            principalize(gens)
        except TopZetaError as exc:
            counts[type(exc).__name__] += 1
        for chart, leaf_index, outcome in scanned:
            assert outcome == _chart_outcome(
                _reference_chart_hits, chart, leaf_index), \
                (name, chart.path)
            unit = _has_unit_residual(chart)
            counts["unit" if unit else "scanned"] += 1
            if unit:
                assert outcome == (), (name, chart.path)
    assert counts["unit"] > 500 and counts["scanned"] > 1000, counts
    assert counts["CenterNotRational"], counts


def test_unit_residual_with_a_carrier_is_scanned():
    """A unit residual rules out only residual zeros: a carrier tangent to
    the divisor still gives a bad point, and a constant times a divisor
    power is no unit."""
    occ = _crafted_occurrence("x", ["1"], ["y^2 - x"])
    assert _chart_hits(occ.chart, 0) == _reference_chart_hits(occ.chart, 0) \
        == (((Fraction(0), Fraction(0)), ("branch-tangent:C1",)),)
    bare = _crafted_occurrence("x", ["1", "y"], []).chart
    assert _chart_hits(bare, 0) == _reference_chart_hits(bare, 0) == ()
    powered = Chart((), exc={"E1": P("x")}, pms={"E1": PointMap("A", Fraction(0))},
                    residual_parts=[(P("1"), {"E1": 1}), (P("y"), {})])
    assert _chart_hits(powered, 0) == _reference_chart_hits(powered, 0) == (
        ((Fraction(0), Fraction(0)), ("residual-vanishes",)),)
