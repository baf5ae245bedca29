"""Blow-up engine: chart bookkeeping, numerical data, transforms."""

from fractions import Fraction

import pytest

from topzeta.blowup import (
    PointRecord,
    blow_up,
    carrier_intersections,
    divisor_order_of,
    initial_state,
    point_zero_data,
    restrict_residual_to,
    union_zero_data,
    zero_count,
    zeros_in_birth,
)
from topzeta.errors import (
    AllZero,
    CenterNotOverOrigin,
    ResidualNotUnit,
    SupportMissesOrigin,
)
from topzeta.poly import BiPoly, UniPoly, parse_poly
from topzeta.principalize import principalize


def P(text):
    return parse_poly(text)


GOLDEN = [P("x^4*y"), P("x^7 + x*y^4")]


# --- initial state -------------------------------------------------------------

def test_initial_state_golden():
    st = initial_state(GOLDEN)
    assert len(st.strict_records) == 1
    rec = st.strict_records[0]
    assert (rec.kind, rec.N, rec.nu) == ("strict-branch", 1, 1)
    assert st.carriers[0].root_eq == P("x")
    assert st.leaves[0].residual == [P("x^3*y"), P("x^6 + y^4")]


def test_initial_state_coprime():
    st = initial_state([P("x"), P("y")])
    assert st.carriers == []
    assert st.strict_records == []


def test_initial_state_principal_square():
    st = initial_state([P("x^2")])
    (rec,) = st.strict_records
    assert (rec.N, rec.nu) == (2, 1)
    assert st.leaves[0].residual == [BiPoly.const(1)]


def test_initial_state_errors():
    with pytest.raises(SupportMissesOrigin):
        initial_state([P("x + 1")])
    with pytest.raises(AllZero):
        initial_state([BiPoly.zero()])


def test_initial_state_drops_zero_generators():
    st = initial_state([BiPoly.zero(), P("x")])
    assert len(st.gens) == 1


# --- the golden chain of blow-ups, against the worked chart table ---------------

def test_blow_up_chain_matches_worked_example():
    st = initial_state(GOLDEN)
    blow_up(st, PointRecord(0, (Fraction(0), Fraction(0)), ()))
    e1 = st.divisors["E1"]
    assert (e1.N, e1.nu) == (5, 2)
    chart1, chart2 = st.leaves
    assert chart1.residual == [P("y"), P("x^2 + y^4")]
    assert chart2.residual == [P("x^3"), P("x^6*y^2 + 1")]
    assert chart2.carriers["C1"] == P("x")
    assert "C1" not in chart1.carriers

    blow_up(st, PointRecord(0, (Fraction(0), Fraction(0)), ("E1",)))
    e2 = st.divisors["E2"]
    assert (e2.N, e2.nu) == (6, 3)
    chart11, chart12 = st.leaves[0], st.leaves[1]
    assert chart11.residual == [P("y"), P("x + x^3*y^4")]
    assert chart12.residual == [BiPoly.const(1), P("x^2*y + y^3")]

    blow_up(st, PointRecord(0, (Fraction(0), Fraction(0)), ("E2",)))
    e3 = st.divisors["E3"]
    assert (e3.N, e3.nu) == (7, 4)
    chart111, chart112 = st.leaves[0], st.leaves[1]
    assert chart111.residual == [P("y"), P("1 + x^6*y^4")]
    assert chart112.residual == [BiPoly.const(1), P("x + x^3*y^6")]

    assert st.adjacency == {frozenset(("E1", "E2")), frozenset(("E2", "E3"))}


def test_blow_up_rejects_bad_centers():
    st = initial_state(GOLDEN)
    with pytest.raises(CenterNotOverOrigin):
        blow_up(st, PointRecord(0, (Fraction(1), Fraction(0)), ()))
    blow_up(st, PointRecord(0, (Fraction(0), Fraction(0)), ()))
    with pytest.raises(CenterNotOverOrigin):
        # not on the fiber over the origin
        blow_up(st, PointRecord(0, (Fraction(5), Fraction(3)), ()))
    with pytest.raises(CenterNotOverOrigin):
        # on a divisor, but given outside the owning chart's x-axis locus
        blow_up(st, PointRecord(1, (Fraction(2), Fraction(0)), ()))


# --- divisor orders --------------------------------------------------------------

def test_divisor_order_of_member_along_e1():
    result = principalize(GOLDEN)
    member = P("x^4*y + x^7 + x*y^4")
    assert divisor_order_of(result.state, member, "E1") == 5


def test_divisor_order_of_carrier():
    result = principalize(GOLDEN)
    assert divisor_order_of(result.state, P("x"), "E1") == 1


def test_divisor_order_of_e3():
    result = principalize(GOLDEN)
    assert divisor_order_of(result.state, P("x^4*y"), "E3") == 7


def test_divisor_order_cross_chart_agreement():
    result = principalize(GOLDEN)
    state = result.state
    for g in [P("x^4*y"), P("x^7 + x*y^4"), P("x")]:
        for ident in state.divisor_order:
            orders = set()
            for chart in state.leaves:
                eq = chart.exc.get(ident)
                if eq is None:
                    continue
                p = chart.pullback(g)
                k = 0
                while True:
                    try:
                        p = p.divexact(eq)
                        k += 1
                    except ValueError:
                        break
                orders.add(k)
            assert len(orders) == 1


# --- structural invariants over a few runs ---------------------------------------

CASES = [
    GOLDEN,
    [P("x"), P("y")],
    [P("x^2*y"), P("x*y^3")],
    [P("y^2 - x^2"), P("x^5")],
    [P("(y^2 - x^3)*x"), P("(y^2 - x^3)*y")],
]


@pytest.mark.parametrize("gens", CASES, ids=lambda g: str(g[0]))
def test_factorization_invariant(gens):
    """Every pullback factors exactly as divisor powers times carrier powers
    times the residual."""
    result = principalize(gens)
    state = result.state
    for chart in state.leaves:
        for g, r in zip(state.gens, chart.residual):
            product = r
            for d, eq in chart.exc.items():
                product = product * eq ** state.divisors[d].N
            for c in state.carriers:
                eq = chart.carriers.get(c.ident)
                if eq is not None:
                    product = product * eq ** c.exponent
            assert chart.pullback(g) == product


@pytest.mark.parametrize("gens", CASES, ids=lambda g: str(g[0]))
def test_nu_recursion_consistency(gens):
    """nu_new = 2 + sum(nu - 1) over divisors through the center equals the
    two-case recursion."""
    result = principalize(gens)
    recs = result.state.divisors
    for ev in result.log:
        nus = [recs[d].nu for d in ev.divisors_through]
        if len(nus) == 0:
            assert ev.nu == 2
        elif len(nus) == 1:
            assert ev.nu == nus[0] + 1
        else:
            assert ev.nu == sum(nus)


@pytest.mark.parametrize("gens", CASES, ids=lambda g: str(g[0]))
def test_pairwise_single_intersection(gens):
    """Two exceptional divisors meet at most once in the final atlas."""
    result = principalize(gens)
    state = result.state
    seen: dict[frozenset, set] = {}
    for chart in state.leaves:
        axes = [(d, chart.axis_of(d)) for d in state.divisor_order]
        axes = [(d, a) for d, a in axes if a is not None and d in chart.pms]
        xs = [(d, a) for d, a in axes if a == ("x", 0)]
        ys = [(d, a) for d, a in axes if a[0] == "y"]
        for dx, (_, alpha) in xs:
            for dy, (_, beta) in ys:
                pair = frozenset((dx, dy))
                pt = (chart.pms[dx].to_birth(beta), chart.pms[dy].to_birth(alpha))
                seen.setdefault(pair, set()).add(pt)
    for pair, pts in seen.items():
        assert len(pts) == 1, f"{sorted(pair)} meet at {pts}"
        assert pair in state.adjacency


def test_n_additivity_golden_values():
    result = principalize(GOLDEN)
    assert [ev.N for ev in result.log] == [5, 6, 7]


@pytest.mark.parametrize("gens", CASES, ids=lambda g: str(g[0]))
def test_n_matches_min_multiplicity_of_pullbacks(gens):
    """Replay the run; at each step N equals the minimum multiplicity of the
    full generator pullbacks at the center, computed directly."""
    result = principalize(gens)
    state = initial_state(list(result.gens))
    for ev in result.log:
        chart = next(ch for ch in state.leaves if ch.path == ev.chart_path)
        direct = min(
            chart.pullback(g).mult_at_point(ev.center) for g in state.gens)
        assert direct == ev.N, ev
        leaf_index = state.leaves.index(chart)
        blow_up(state, PointRecord(leaf_index, ev.center, ()))


# --- restrictions ----------------------------------------------------------------

def test_restrict_residual_golden_e1():
    result = principalize(GOLDEN)
    pieces = restrict_residual_to(result.state, "E1", [Fraction(1), Fraction(1)])
    full = [p for occ, p in pieces if occ.axis == ("x", Fraction(0))]
    assert any(p == UniPoly([1, 0, 0, 1]) for p in full)  # 1 + t^3


def test_restrict_residual_golden_e3():
    result = principalize(GOLDEN)
    pieces = restrict_residual_to(result.state, "E3", [Fraction(1), Fraction(1)])
    full = [p for occ, p in pieces if occ.axis == ("x", Fraction(0))]
    assert any(p == UniPoly([1, 1]) for p in full)  # y + 1


def test_restrict_residual_requires_completion():
    st = initial_state(GOLDEN)
    blow_up(st, PointRecord(0, (Fraction(0), Fraction(0)), ()))
    with pytest.raises(ResidualNotUnit):
        restrict_residual_to(st, "E1", [Fraction(1), Fraction(1)])


def test_restrict_residual_zero_coeffs_flagged():
    from topzeta.errors import DegenerateLambda
    result = principalize(GOLDEN)
    with pytest.raises(DegenerateLambda):
        restrict_residual_to(result.state, "E1", [Fraction(0), Fraction(0)])


# --- the ownership walk against a per-divisor reference --------------------------

def _reference_occurrences(state):
    """(leaf, divisor, axis, point map) of every owning appearance, derived
    per divisor in birth order from its local equation."""
    out = []
    for idx, chart in enumerate(state.leaves):
        for ident in state.divisor_order:
            axis = chart.axis_of(ident)
            if axis is None or ident not in chart.pms:
                continue
            if axis[0] == "x" and axis[1] != 0:
                continue
            out.append((idx, ident, axis, chart.pms[ident]))
    return out


def _reference_corner_values(chart, divisor_order, ident, axis):
    """Partners on the opposite axis, read with axis_of and no point-map
    filter; a point-owned appearance keeps only t = 0."""
    opposite = "y" if axis[0] == "x" else "x"
    values = []
    for other in divisor_order:
        ax = chart.axis_of(other)
        if other != ident and ax is not None and ax[0] == opposite:
            values.append((ax[1], other))
    if axis[0] == "y":
        values = [(t, o) for t, o in values if t == 0]
    return values


def _reference_corner_registry(state):
    reg = {d: {} for d in state.divisor_order}
    for chart in state.leaves:
        axes = [(d, chart.axis_of(d)) for d in state.divisor_order]
        axes = [(d, a) for d, a in axes if a is not None and d in chart.pms]
        xs = [(d, a) for d, a in axes if a == ("x", 0)]
        ys = [(d, a) for d, a in axes if a[0] == "y"]
        for dx_id, (_, alpha) in xs:
            for dy_id, (_, beta) in ys:
                reg[dx_id][chart.pms[dx_id].to_birth(beta)] = dy_id
                reg[dy_id][chart.pms[dy_id].to_birth(alpha)] = dx_id
    return reg


def _reference_carrier_data(state):
    out = {}
    for idx, ident, axis, pm in _reference_occurrences(state):
        chart = state.leaves[idx]
        for c in state.carriers:
            eq = chart.carriers.get(c.ident)
            if eq is None:
                continue
            sigma = chart.restrict(eq, axis)
            if axis[0] == "x":
                data = zeros_in_birth(pm, sigma)
            elif sigma.eval(0) == 0:
                data = point_zero_data(pm)
            else:
                continue
            if zero_count(data) == 0:
                continue
            key = (c.ident, ident)
            out[key] = union_zero_data(out.get(key), data)
    return out


def _reference_point_identity(chart, coords):
    pairs = []
    for d in chart.divisors_through(coords):
        axis = chart.axis_of(d)
        pm = chart.pms.get(d)
        if axis is None or pm is None:
            continue
        pairs.append((d, pm.to_birth(coords[1] if axis[0] == "x"
                                     else coords[0])))
    return frozenset(pairs)


def test_ownership_walk_matches_reference(corpus_results, replay_states):
    """Occurrences, their corners and point identities, the corner registry
    and the carrier zero data equal the per-divisor reference walk at every
    step of every corpus run."""
    for name, result in corpus_results:
        for state in replay_states(result):
            occs = list(state.occurrences())
            assert [(o.leaf_index, o.ident, o.axis, o.pm) for o in occs] \
                == _reference_occurrences(state), name
            for o in occs:
                assert o.chart is state.leaves[o.leaf_index]
                assert o.corners == _reference_corner_values(
                    o.chart, state.divisor_order, o.ident, o.axis), name
                for t in [Fraction(0)] + [t for t, _ in o.corners]:
                    pt = o.param_point(t)
                    assert o.chart.point_identity(pt) == \
                        _reference_point_identity(o.chart, pt), name
            assert state.corner_registry() == \
                _reference_corner_registry(state), name
            assert carrier_intersections(state) == \
                _reference_carrier_data(state), name


def _reference_order(state, g, ident):
    """Order along a divisor by repeated exact division of the pullback,
    whatever its chart equation."""
    for chart in state.leaves:
        eq = chart.exc.get(ident, chart.carriers.get(ident))
        if eq is None:
            continue
        p, order = chart.pullback(g), 0
        while eq.divides(p):
            p, order = p.divexact(eq), order + 1
        return order
    raise KeyError(ident)


def test_divisor_order_matches_division_reference(corpus_results):
    """The x_order / y_order shortcut for coordinate equations gives the
    order repeated division gives, on every divisor of every corpus run."""
    for name, result in corpus_results:
        state = result.state
        idents = list(state.divisor_order) + [
            c.ident for c in state.carriers if c.through_origin]
        member = BiPoly.zero()
        for g in result.gens:
            member = member + g
        for g in list(result.gens) + [member]:
            if g.is_zero():
                continue
            for ident in idents:
                assert divisor_order_of(state, g, ident) == \
                    _reference_order(state, g, ident), (name, ident)
