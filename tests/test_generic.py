"""Generic-member machinery: sampling, the order minimum, crossing counts,
and the numerical-data identities."""

from fractions import Fraction

import pytest

from topzeta.blowup import PointRecord, blow_up, divisor_order_of
from topzeta.diagram import alphas
from topzeta.errors import DegenerateLambda, InternalInvariantError
from topzeta import generic
from topzeta.family import build
from topzeta.generic import (
    _branch_points,
    _count_n,
    _min_orders,
    _verify_min_property,
    _verify_relations,
    certify_generic,
    sample_lambda,
)
from topzeta.poly import parse_poly
from topzeta.principalize import principalize

GOLDEN = [parse_poly("x^4*y"), parse_poly("x^7 + x*y^4")]


@pytest.fixture(scope="module")
def golden():
    return principalize(GOLDEN)


def test_sample_lambda_first_is_ones():
    assert sample_lambda(2, 0, 0) == [1, 1]
    assert sample_lambda(3, 9, 0) == [1, 1, 1]


def test_sample_lambda_retry_changes():
    first = sample_lambda(2, 0, 0)
    second = sample_lambda(2, 0, 1)
    assert second != first
    assert all(c != 0 for c in second)


def test_sample_lambda_deterministic():
    assert sample_lambda(3, 5, 4) == sample_lambda(3, 5, 4)


def test_min_property_golden(golden):
    checks = _verify_min_property(golden, [Fraction(1), Fraction(1)],
                                  _min_orders(golden))
    assert checks["E1"].N_from_generic == checks["E1"].N_min == 5
    assert checks["E3"].N_from_generic == checks["E3"].N_min == 7
    assert all(c.min_property_ok for c in checks.values())


def test_min_property_detects_degenerate_combination():
    # (x + y, x): the combination 1*(x+y) + (-1)*x = y has order 0 along
    # the exceptional curve's branch x... use orders along the divisor
    result = principalize([parse_poly("x"), parse_poly("y")])
    member = parse_poly("x - y")
    assert divisor_order_of(result.state, member, "E1") == 1


def test_count_n_golden(golden):
    lam, branches = [Fraction(1), Fraction(1)], _branch_points(golden.state)
    assert _count_n(golden.state, lam, "E1", branches) == 3
    assert _count_n(golden.state, lam, "E2", branches) == 0
    assert _count_n(golden.state, lam, "E3", branches) == 1


def test_count_n_family():
    result = principalize(
        [parse_poly("x^4*y"), parse_poly("x^7 + y^5")])
    lam, branches = [Fraction(1), Fraction(1)], _branch_points(result.state)
    assert _count_n(result.state, lam, "E1", branches) == 4
    assert _count_n(result.state, lam, "E2", branches) == 0
    assert _count_n(result.state, lam, "E3", branches) == 1


def test_relations_golden(golden):
    report = _verify_relations(golden, [Fraction(1), Fraction(1)],
                               _branch_points(golden.state),
                               _min_orders(golden))
    assert report.n_table() == {"E1": 3, "E2": 0, "E3": 1}
    sums = {d: sum(a for _, a in alphas(golden.diagram, d))
            for d in report.n_table()}
    assert (sums["E3"], sums["E1"]) == (Fraction(-3, 7), Fraction(6, 5))
    for d, n in report.n_table().items():
        v = golden.diagram.vertex(d)
        m = len(alphas(golden.diagram, d))
        assert sums[d] == m - 2 + Fraction(v.nu * n, v.N), d


def test_relations_refuse_a_wrong_alpha_sum(golden, monkeypatch):
    """The one comparison that checks both identities reports a table whose
    sum is off, with the divisor's data."""
    real = generic.alpha_nums

    def off_by_one(diagram, ident):
        table = real(diagram, ident)
        if ident != "E3":
            return table
        (d, a), *rest = table
        return [(d, a + 1), *rest]

    monkeypatch.setattr(generic, "alpha_nums", off_by_one)
    with pytest.raises(InternalInvariantError) as exc:
        _verify_relations(golden, [Fraction(1), Fraction(1)],
                          _branch_points(golden.state), _min_orders(golden))
    assert str(exc.value) == ("numerical-data relation fails at E3: "
                              "sum(alpha) = -2/7, m = 1, n = 1, ratio = 4/7")


def test_relations_family_chain():
    from topzeta.family import build
    result = principalize(build(7, 4))
    report = _verify_relations(result, [Fraction(1), Fraction(1)],
                               _branch_points(result.state),
                               _min_orders(result))
    assert set(report.n_table()) == {"E1", "E2", "E3"}


def test_certify_generic_corpus(corpus_results):
    """Identities hold exactly for every exceptional divisor of every
    corpus ideal, first accepted sample."""
    for name, result in corpus_results:
        if len(result.gens) < 2:
            continue
        report = certify_generic(result, seed=0)
        diagram = result.diagram
        for v in diagram.exceptional():
            check = report.per_divisor[v.ident]
            assert check.min_property_ok, (name, v.ident)
            m = len(alphas(diagram, v.ident))
            total = sum((a for _, a in alphas(diagram, v.ident)), Fraction(0))
            assert total == m - 2 + diagram.ratio(v.ident) * check.n, \
                (name, v.ident)


def test_count_n_lambda_independent(golden):
    lam_a = [Fraction(1), Fraction(1)]
    lam_b = [Fraction(2), Fraction(5)]
    branches = _branch_points(golden.state)
    for ident in ("E1", "E2", "E3"):
        assert _count_n(golden.state, lam_a, ident, branches) == \
            _count_n(golden.state, lam_b, ident, branches)


def test_total_crossings_positive_when_residual_vanishes(corpus_results):
    """When the finitely supported part genuinely vanishes at the origin,
    the generic member's strict transform meets the exceptional locus."""
    for name, result in corpus_results:
        if len(result.gens) < 2 or not result.diagram.exceptional():
            continue
        from topzeta.blowup import initial_state
        root = initial_state(list(result.gens)).leaves[0]
        if any((0, 0) in r.nums for r in root.residual):
            continue
        report = certify_generic(result, seed=0)
        assert sum(report.n_table().values()) >= 1, name


def test_resample_on_non_squarefree_restriction():
    """(x^2 + 2xy, y^2): the all-ones member is the square (x + y)^2, so the
    first sample is rejected and a later one accepted."""
    result = principalize([parse_poly("x^2 + 2*x*y"), parse_poly("y^2")])
    with pytest.raises(DegenerateLambda):
        _count_n(result.state, [Fraction(1), Fraction(1)], "E1",
                 _branch_points(result.state))
    report = certify_generic(result, seed=0)
    assert report.retries >= 1
    assert all(c.min_property_ok for c in report.per_divisor.values())


def test_degenerate_all_zero_rejected(golden):
    with pytest.raises(DegenerateLambda):
        _count_n(golden.state, [Fraction(0), Fraction(0)], "E1",
                 _branch_points(golden.state))



@pytest.mark.parametrize("gens, retries", [
    (GOLDEN, 0),
    (build(8, 0), 0),
    ([parse_poly("x^2 + 2*x*y"), parse_poly("y^2")], 1),
], ids=["golden", "build(8,0)", "resampled"])
def test_certify_generic_reads_diagram_points_once(monkeypatch, gens,
                                                   retries):
    """Carrier zero data is read from the atlas once per run, however many
    divisors and retries there are: the certificate reuses what the
    diagram read of the completed state.  It reads no corner registry:
    each divisor's corners come from its own occurrences, and only when
    the member crosses it."""
    import sys

    from topzeta.blowup import ChartState, carrier_intersections

    calls = []
    registry = ChartState.corner_registry

    def counted_registry(state):
        calls.append("corner_registry")
        return registry(state)

    def counted_hits(state):
        calls.append("carrier_intersections")
        return carrier_intersections(state)

    monkeypatch.setattr(ChartState, "corner_registry", counted_registry)
    for name, mod in list(sys.modules.items()):
        if name == "topzeta" or name.startswith("topzeta."):
            for attr, val in list(vars(mod).items()):
                if val is carrier_intersections:
                    monkeypatch.setattr(mod, attr, counted_hits)
    result = principalize(gens)
    read = list(calls)
    report = certify_generic(result, seed=0)
    assert report.retries >= retries
    assert read.count("carrier_intersections") == 1 and calls == read
    # a blow-up drops the kept reads: the state has changed
    state = result.state
    assert state.kept(ChartState.corner_registry) is \
        state.kept(ChartState.corner_registry)
    blow_up(state, PointRecord(0, (Fraction(0), Fraction(0))))
    assert state._kept == {}


def test_certificate_reads_the_rows_the_scan_kept(monkeypatch):
    """The bad-point scan keeps each occurrence's residual rows on its
    chart (`Chart.rows`), and the certificate reads them there: the kept
    rows are the ones it uses, and a second certificate restricts no
    polynomial again."""
    from topzeta.blowup import Occurrence

    result = principalize([parse_poly("(y^2 - x^3)*x^3*y"),
                           parse_poly("(y^2 - x^3)*(x^5 + y^4)")])
    state = result.state
    kept = {(id(chart), d): rows for chart in state.leaves
            for d, rows in chart.rows.items()}
    assert len(kept) >= 3
    certify_generic(result, seed=0)
    assert all(chart.rows[d] is kept[(id(chart), d)]
               for chart in state.leaves for d in chart.rows
               if (id(chart), d) in kept)
    reads = []
    restriction = Occurrence.restriction

    def counted(occ, p):
        reads.append(p)
        return restriction(occ, p)

    monkeypatch.setattr(Occurrence, "restriction", counted)
    report = certify_generic(result, seed=0)
    assert report.n_table() and reads == []


def test_certify_generic_takes_generator_orders_once(monkeypatch):
    """N_min depends only on the generators: each generator is walked
    through the chart tree once per call, for all divisors at once, however
    many samples are tried, and its orders are not read again one divisor
    at a time."""
    import topzeta.generic as generic

    result = principalize([parse_poly("x^2 + 2*x*y"), parse_poly("y^2")])
    gens = {id(g) for g in result.gens}
    walks, single = [], []
    walk, single_read = generic.divisor_orders, generic.divisor_order_of

    def counted_walk(state, g, *args):
        if id(g) in gens:
            walks.append(id(g))
        return walk(state, g, *args)

    def counted_single(state, g, ident):
        if id(g) in gens:
            single.append(ident)
        return single_read(state, g, ident)

    monkeypatch.setattr(generic, "divisor_orders", counted_walk)
    monkeypatch.setattr(generic, "divisor_order_of", counted_single)
    report = certify_generic(result, seed=0)
    assert report.retries >= 1
    assert sorted(walks) == sorted(gens) and single == []


def test_certify_generic_falls_back_to_one_walk_per_polynomial(
        monkeypatch):
    """When a bounded walk misses an order (here every walk is bounded by
    0, too small for every order), each generator and each sampled member
    is walked once more with no bound, for all divisors at once; only
    carriers are read one at a time, and the report is the one the true
    bounds give."""
    import topzeta.generic as generic

    result = principalize([parse_poly("(y^2 - x^3)*x^3*y"),
                           parse_poly("(y^2 - x^3)*(x^5 + y^4)")])
    want = certify_generic(result, seed=0)
    unbounded, single = [], []
    walk, single_read = generic.divisor_orders, generic.divisor_order_of

    def too_small(state, g, bound=None):
        if bound is None:
            unbounded.append(g)
            return walk(state, g)
        return walk(state, g, 0)

    def counted_single(state, g, ident):
        single.append(ident)
        return single_read(state, g, ident)

    monkeypatch.setattr(generic, "divisor_orders", too_small)
    monkeypatch.setattr(generic, "divisor_order_of", counted_single)
    got = certify_generic(result, seed=0)
    assert (got.lam, got.retries) == (want.lam, want.retries)
    assert {d: (c.N_from_generic, c.N_min, c.n)
            for d, c in got.per_divisor.items()} == {
        d: (c.N_from_generic, c.N_min, c.n)
        for d, c in want.per_divisor.items()}
    assert all(sum(p is g for p in unbounded) == 1 for g in result.gens)
    assert len({id(p) for p in unbounded}) == len(unbounded) == \
        len(result.gens) + got.retries + 1
    assert single and set(single) <= {c.ident for c in result.state.carriers}


def test_certify_generic_pulls_each_polynomial_back_once(monkeypatch):
    """Each generator and each sampled member is pulled back along every
    chart path prefix at most once: on the a = 40 chain the steps stay
    within (polynomials) x (charts), where a pullback per divisor through
    the whole path takes 2,577."""
    import topzeta.blowup as blowup

    result = principalize(build(40, 0))
    steps = []

    def counted(p, step, bound=None):
        steps.append(step)
        return apply_step(p, step, bound)

    apply_step = blowup.apply_step
    monkeypatch.setattr(blowup, "apply_step", counted)
    report = certify_generic(result, seed=0)
    charts = {leaf.path[:i] for leaf in result.state.leaves
              for i in range(1, len(leaf.path) + 1)}
    polys = len(result.gens) + report.retries + 1
    assert len(charts) == 80 and len(report.per_divisor) == 40
    assert 0 < len(steps) <= polys * len(charts)
