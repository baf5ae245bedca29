"""Blow-up engine: chart bookkeeping, numerical data, transforms."""

from fractions import Fraction

import pytest

from reference_q import (
    chart_restrict,
    combination_q,
    compose_affine,
    const_q,
    divides,
    eval_q,
    lcm_q,
    poly_q,
    reversed_q,
    row_q,
    squarefree_q,
)
from corpus import pool_entries, swell_entries
from topzeta.blowup import (
    STEP_A,
    STEP_B,
    Chart,
    PointMap,
    PointRecord,
    apply_step,
    blow_up,
    carrier_intersections,
    divisor_order_of,
    initial_state,
    restrict_residual_to,
    step_translate,
)
from topzeta.errors import (
    AllZero,
    CenterNotOverOrigin,
    CenterNotRational,
    ResidualNotUnit,
    SupportMissesOrigin,
)
from topzeta.poly import BiPoly, parse_poly
from topzeta.family import build
from topzeta.generic import sample_lambda
from topzeta.principalize import principalize


def P(text):
    return parse_poly(text)


def _pullback(chart, p):
    """p pulled from the base through every step of the chart's path."""
    for step in chart.path:
        p = apply_step(p, step)
    return p


def _mult_at_point(p, pt):
    """Lowest total degree of the Taylor expansion of p at pt."""
    return p.translate(pt[0], pt[1]).mult_at_origin()


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


@pytest.mark.parametrize("gens", [
    ["-3/2*x^2"], ["x*(1 + x + y)^6"], ["2/3*x*(y^2 - x^3)^3"],
    ["0", "x^2*y*(1 - x + y)^4*7/5"]])
def test_initial_state_one_generator_residual(gens):
    """With one generator the curve part is the generator made monic, and
    the residual the quotient: the generator's leading coefficient."""
    gs = [P(g) for g in gens]
    st = initial_state(gs)
    (g,) = st.gens
    assert st.leaves[0].residual == [g.divexact(g.monic_grlex())]


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
    blow_up(st, PointRecord(0, (Fraction(0), Fraction(0))))
    e1 = st.divisors["E1"]
    assert (e1.N, e1.nu) == (5, 2)
    chart1, chart2 = st.leaves
    assert chart1.residual == [P("y"), P("x^2 + y^4")]
    assert chart2.residual == [P("x^3"), P("x^6*y^2 + 1")]
    assert chart2.carriers["C1"] == P("x")
    assert "C1" not in chart1.carriers

    blow_up(st, PointRecord(0, (Fraction(0), Fraction(0))))
    e2 = st.divisors["E2"]
    assert (e2.N, e2.nu) == (6, 3)
    chart11, chart12 = st.leaves[0], st.leaves[1]
    assert chart11.residual == [P("y"), P("x + x^3*y^4")]
    assert chart12.residual == [BiPoly.const(1), P("x^2*y + y^3")]

    blow_up(st, PointRecord(0, (Fraction(0), Fraction(0))))
    e3 = st.divisors["E3"]
    assert (e3.N, e3.nu) == (7, 4)
    chart111, chart112 = st.leaves[0], st.leaves[1]
    assert chart111.residual == [P("y"), P("1 + x^6*y^4")]
    assert chart112.residual == [BiPoly.const(1), P("x + x^3*y^6")]

    assert st.adjacency == {frozenset(("E1", "E2")), frozenset(("E2", "E3"))}


def test_blow_up_rejects_bad_centers():
    st = initial_state(GOLDEN)
    with pytest.raises(CenterNotOverOrigin):
        blow_up(st, PointRecord(0, (Fraction(1), Fraction(0))))
    blow_up(st, PointRecord(0, (Fraction(0), Fraction(0))))
    with pytest.raises(CenterNotOverOrigin):
        # not on the fiber over the origin
        blow_up(st, PointRecord(0, (Fraction(5), Fraction(3))))
    with pytest.raises(CenterNotOverOrigin):
        # on a divisor, but given outside the owning chart's x-axis locus
        blow_up(st, PointRecord(1, (Fraction(2), Fraction(0))))


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
                p = _pullback(chart, g)
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
            assert _pullback(chart, g) == product


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
            _mult_at_point(_pullback(chart, g), ev.center) for g in state.gens)
        assert direct == ev.N, ev
        leaf_index = state.leaves.index(chart)
        blow_up(state, PointRecord(leaf_index, ev.center))


# --- restrictions ----------------------------------------------------------------

def test_restrict_residual_golden_e1():
    result = principalize(GOLDEN)
    pieces = restrict_residual_to(result.state, "E1", [Fraction(1), Fraction(1)])
    full = [row for occ, row in pieces if occ.axis == ("x", Fraction(0))]
    assert [1, 0, 0, 1] in full  # 1 + t^3


def test_restrict_residual_golden_e3():
    result = principalize(GOLDEN)
    pieces = restrict_residual_to(result.state, "E3", [Fraction(1), Fraction(1)])
    full = [row for occ, row in pieces if occ.axis == ("x", Fraction(0))]
    assert [1, 1] in full  # y + 1


def test_restrict_residual_requires_completion():
    st = initial_state(GOLDEN)
    blow_up(st, PointRecord(0, (Fraction(0), Fraction(0))))
    with pytest.raises(ResidualNotUnit):
        restrict_residual_to(st, "E1", [Fraction(1), Fraction(1)])


def test_restrict_residual_zero_coeffs_flagged():
    from topzeta.errors import DegenerateLambda
    result = principalize(GOLDEN)
    with pytest.raises(DegenerateLambda):
        restrict_residual_to(result.state, "E1", [Fraction(0), Fraction(0)])


def _reference_restrict_residual_to(state, ident, coeffs, residuals=None):
    """The pieces as built before: every occurrence of every leaf visited,
    the combination formed in Q[x, y] and then restricted in Fraction.
    The expanded residuals are read from `residuals` by chart path when
    given, else from `Chart.residual`."""
    pieces = []
    for occ in state.occurrences():
        if occ.ident != ident:
            continue
        combo = combination_q(coeffs, occ.chart.residual if residuals is None
                              else residuals[occ.chart.path])
        pieces.append((occ, chart_restrict(combo, occ.axis)))
    return pieces


def _positive_multiple(row, poly):
    """Whether the integer row is poly's coefficients times one positive
    rational, zeros kept."""
    cs = poly + (Fraction(0),) * (len(row) - len(poly))
    ratios = {Fraction(n) / c for n, c in zip(row, cs) if c}
    return (len(cs) == len(row) and len(ratios) <= 1
            and all(r > 0 for r in ratios)
            and all(bool(n) == bool(c) for n, c in zip(row, cs)))


def _assert_pieces_match(pieces, reference, context, kinds):
    """Same occurrences; each row all of the restriction up to a positive
    factor, without a trailing zero, on fully and point-owned divisors
    alike, so [] exactly when it vanishes.  Adds to `kinds` (mode,
    vanishing or zero at t = 0 or neither) of each piece."""
    assert [occ for occ, _ in pieces] == [occ for occ, _ in reference], \
        context
    for (occ, row), (_, want) in zip(pieces, reference):
        kinds.add((occ.mode, "vanishes" if not row else
                   "zero at 0" if not row[0] else "nonzero at 0"))
        assert len(row) == len(want) and _positive_multiple(row, want), \
            context


def test_restrict_residual_matches_reference(corpus_results):
    from topzeta.family import build
    from topzeta.generic import sample_lambda
    runs = corpus_results + [("chain-40-0", principalize(build(40, 0)))]
    checked, kinds = 0, set()
    for name, result in runs:
        state = result.state
        count = len(state.gens)
        lams = [[Fraction(1)] * count] + (
            [sample_lambda(count, 0, 3), [Fraction(0)] + [Fraction(-2, 3)]
             * (count - 1)] if count > 1 else [])
        for ident in state.divisor_order:
            for lam in lams:
                _assert_pieces_match(
                    restrict_residual_to(state, ident, lam),
                    _reference_restrict_residual_to(state, ident, lam),
                    (name, ident, lam), kinds)
                checked += 1
        assert _monic_data(carrier_intersections(state)) == \
            _reference_carrier_data(state), name
    assert checked > 500 and len(kinds) == 6, kinds


# --- factored residuals against the expanded transform -------------------------

def _reference_residuals(result):
    """Expanded residual generators of every chart of a run, by path, as
    the transform kept them before they were factored: each blow-up
    translates the residual to its centre, then substitutes and divides
    out x^m (chart A) or y^m (chart B), m the least multiplicity at the
    centre."""
    residuals = {(): initial_state(list(result.gens)).leaves[0].residual}
    for ev in result.log:
        rs, path = residuals[ev.chart_path], ev.chart_path
        if ev.center[1]:
            step = step_translate(Fraction(0), ev.center[1])
            rs, path = [apply_step(r, step) for r in rs], path + (step,)
        m = min(r.mult_at_origin() for r in rs)
        residuals[path + (STEP_A,)] = [r.subst_chart_a(m) for r in rs]
        residuals[path + (STEP_B,)] = [r.subst_chart_b(m) for r in rs]
    return residuals


def _oracle_runs(corpus_results):
    """The corpus, the benchmark's pool (irrational refusals left out),
    build(a, b) for a <= 12, and swell for K <= 8, also with centres at
    fractions, where restriction rows of one chart carry different
    scales."""
    runs = list(corpus_results)
    for name, gens in pool_entries():
        try:
            runs.append((name, principalize(gens)))
        except CenterNotRational:
            pass
    runs += [(f"chain-{a}-{b}", principalize(build(a, b)))
             for a in range(1, 13) for b in range(a)]
    runs += [(name, principalize(gens)) for name, gens in
             swell_entries(8) + swell_entries(6, ("1/2", "-2/3"))]
    return runs


def test_factored_residuals_match_expanded_transform(corpus_results):
    """Every leaf chart's expanded residual equals the expanded transform
    exactly (numerators and denominator), and the restrictions built from
    the factor rows match the reference restriction of the oracle's
    residuals, for combinations with zero, negative and fractional
    coefficients."""
    runs = _oracle_runs(corpus_results)
    assert len(runs) > 400
    powers = curved = 0
    kinds = set()
    for name, result in runs:
        state, oracle = result.state, _reference_residuals(result)
        for chart in state.leaves:
            assert [(p.nums, p.den) for p in chart.residual] == \
                [(p.nums, p.den) for p in oracle[chart.path]], name
            for _, k in chart.residual_parts:
                powers += bool(k)
                curved += any(d not in chart.axes for d in k)
        count = len(state.gens)
        lams = [[Fraction(1)] * count] + ([
            sample_lambda(count, 0, 3),
            [Fraction(0)] + [Fraction(-2, 3)] * (count - 1),
            [Fraction(3, 4)] + [Fraction(-5, 6)] * (count - 1)]
            if count > 1 else [])
        for ident in state.divisor_order:
            for lam in lams:
                _assert_pieces_match(
                    restrict_residual_to(state, ident, lam),
                    _reference_restrict_residual_to(state, ident, lam,
                                                    oracle),
                    (name, ident, lam), kinds)
    # divisor powers, some of equations that are not coordinate lines
    assert powers > 500 and curved >= 10 and len(kinds) == 6, \
        (powers, curved, kinds)


def _assert_exact_rows(occ, residuals, context):
    """Each residual row is exactly its scale times all of the restriction
    of the expanded generator, without a trailing zero, on fully and
    point-owned divisors alike.  Returns how many point rows reach degree
    2 or more."""
    curved = 0
    for r, row, scale in zip(residuals, occ.residual_rows(),
                             occ.residual_scales()):
        assert [Fraction(n, scale) for n in row] == list(
            chart_restrict(r, occ.axis)), (context, occ.ident)
        curved += occ.mode == "point" and len(row) > 2
    return curved


def test_residual_rows_are_exact_multiples(replay_states):
    """The exact rows at every step of swell runs, also with centres at
    fractions, and of chains."""
    runs = swell_entries(7) + swell_entries(5, ("1/2", "-2/3")) + [
        (f"chain-{a}-{b}", build(a, b)) for a in range(1, 9) for b in range(a)]
    curved = 0
    for name, gens in runs:
        result = principalize(gens)
        oracle = _reference_residuals(result)
        for state in replay_states(result):
            for occ in state.occurrences():
                curved += _assert_exact_rows(occ, oracle[occ.chart.path], name)
    assert curved, "no point row past degree 1"


def test_residual_rows_on_a_crafted_chart():
    """Rational strict parts times powers of a curved divisor equation, a
    point-owned line y = -2/3 and the fully owned axis x = 0."""
    exc = {"E1": P("y + 2/3"), "E2": P("x*y - 3/5"), "E3": P("x"),
           "E4": P("y")}
    parts = [(P("1/2 + 1/3*x - y^2"), {"E2": 3, "E4": 2}),
             (P("3/7*x*y - 2*y + 5/4"), {"E2": 2, "E1": 1}),
             (P("x^2 + 4/9*y^3 - 1"), {}),
             (P("2*y - 1"), {"E3": 2, "E2": 1})]
    chart = Chart((), exc=exc, pms={d: PointMap("A", Fraction(0))
                                    for d in ("E1", "E3", "E4")},
                  residual_parts=parts)
    occs = list(chart.occurrences(0))
    assert {(o.ident, o.mode) for o in occs} == {
        ("E1", "point"), ("E3", "all"), ("E4", "point")}
    assert sum(_assert_exact_rows(o, chart.residual, "crafted")
               for o in occs) >= 1


def test_swell_transforms_stay_small(monkeypatch):
    """Swell at K = 16 translates and substitutes only strict parts and
    divisor equations: no transformed polynomial has more than 200 terms
    (the expanded residuals reach 9,489)."""
    sizes = []
    for name in ("translate", "subst_chart_a", "subst_chart_b"):
        def record(p, *args, _orig=getattr(BiPoly, name)):
            sizes.append(len(p.nums))
            return _orig(p, *args)
        monkeypatch.setattr(BiPoly, name, record)
    (_, gens), = [e for e in swell_entries(16) if e[0] == "swell-1-16"]
    result = principalize(gens)
    monkeypatch.undo()
    assert len(result.log) > 20 and len(sizes) > 500
    assert max(sizes) <= 200, max(sizes)
    # the lineage of x^16 is kept as divisor powers
    assert max(sum(k.values()) for chart in result.state.leaves
               for _, k in chart.residual_parts) >= 16


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


def _reference_zero_data(pm, sigma):
    """Monic squarefree polynomial in the birth coordinate and infinity
    flag of a restriction's zeros, through the Fraction compose_affine."""
    tau = compose_affine(sigma, Fraction(1), -pm.offset)
    if pm.side == "A":
        return squarefree_q(tau), False
    return squarefree_q(reversed_q(tau)), tau[0] == 0


def _reference_carrier_data(state):
    """The carrier zero data as built before it was read on integer rows:
    Fraction restrictions, compose_affine and lcms in Q[t], monic."""
    out = {}
    for idx, ident, axis, pm in _reference_occurrences(state):
        chart = state.leaves[idx]
        for c in state.carriers:
            eq = chart.carriers.get(c.ident)
            if eq is None:
                continue
            sigma = chart_restrict(eq, axis)
            if axis[0] == "x":
                data = _reference_zero_data(pm, sigma)
            elif eval_q(sigma, Fraction(0)) == 0:
                birth = pm.to_birth(Fraction(0))
                data = (const_q(1), True) if birth is None else (
                    poly_q([-birth, 1]), False)
            else:
                continue
            if len(data[0]) == 1 and not data[1]:
                continue
            key = (c.ident, ident)
            if key in out:
                data = (lcm_q(out[key][0], data[0]), out[key][1] or data[1])
            out[key] = data
    return out


def _monic_data(zero_data):
    """Zero data with each row read as its monic polynomial."""
    return {k: (row_q(row), inf) for k, (row, inf) in zero_data.items()}


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
    """Occurrences and their corners, the corner registry and the carrier
    zero data equal the per-divisor reference walk at every step of every
    corpus run; and the owned points (t = 0 and the corners) of different
    charts, or of one chart at different coordinates, share no
    (divisor, birth coordinate) pair: the owned loci partition."""
    for name, result in corpus_results:
        for state in replay_states(result):
            occs = list(state.occurrences())
            assert [(o.leaf_index, o.ident, o.axis, o.pm) for o in occs] \
                == _reference_occurrences(state), name
            owner = {}
            for o in occs:
                assert o.chart is state.leaves[o.leaf_index]
                assert o.corners == _reference_corner_values(
                    o.chart, state.divisor_order, o.ident, o.axis), name
                for t in [Fraction(0)] + [t for t, _ in o.corners]:
                    pt = o.param_point(t)
                    for pair in _reference_point_identity(o.chart, pt):
                        assert owner.setdefault(pair, (o.leaf_index, pt)) \
                            == (o.leaf_index, pt), (name, pair)
            assert state.corner_registry() == \
                _reference_corner_registry(state), name
            assert _monic_data(carrier_intersections(state)) == \
                _reference_carrier_data(state), name


def test_carrier_intersections_without_carriers_read_nothing(monkeypatch):
    """A state with no carrier has no intersections, and none is looked
    for: no occurrence is read.  With a carrier, they are."""
    import topzeta.blowup as blowup_mod
    reads = []
    real = blowup_mod.ChartState.occurrences
    monkeypatch.setattr(blowup_mod.ChartState, "occurrences",
                        lambda st: reads.append(1) or real(st))
    for gens in (build(12, 1), swell_entries(6)[4][1]):
        state = principalize(gens).state
        assert not state.carriers and state.log
        assert carrier_intersections(state) == {} and reads == []
    state = principalize([P(t) for t in MOVED]).state
    reads.clear()
    assert carrier_intersections(state) and reads == [1]


#: Branches meeting E1 at distinct points, one of them after a translation:
#: a fully owned divisor whose point map has a nonzero offset then carries
#: branch zeros, which no corpus run has.
MOVED = ["(y - 2*x)*((y - x)^2 - x^3)*(y^3 - x^2)*x",
         "(y - 2*x)*((y - x)^2 - x^3)*(y^3 - x^2)*y"]


def test_zero_data_on_moved_point_maps_matches_reference(replay_states):
    """Carrier zero data and generic-member restrictions where the birth
    coordinate is a shifted chart parameter."""
    result = principalize([P(t) for t in MOVED])
    moved = 0
    for state in replay_states(result):
        assert _monic_data(carrier_intersections(state)) == \
            _reference_carrier_data(state)
        moved += sum(len(row) > 1 for occ in state.occurrences()
                     if occ.mode == "all" and occ.pm.offset
                     for _, row in occ.carrier_restrictions())
    assert moved >= 4
    state = result.state
    for ident in state.divisor_order:
        for lam in ([Fraction(1), Fraction(1)], [Fraction(2), Fraction(-3)]):
            _assert_pieces_match(
                restrict_residual_to(state, ident, lam),
                _reference_restrict_residual_to(state, ident, lam),
                (ident, lam), set())


def _prefix_pullback(g, path, pulled):
    """g pulled back along a chart path, each prefix once per `pulled`."""
    if path not in pulled:
        pulled[path] = g if not path else apply_step(
            _prefix_pullback(g, path[:-1], pulled), path[-1])
    return pulled[path]


def _reference_order(state, g, ident, pulled=None):
    """Order along a divisor or carrier in the first leaf showing it, read
    off g's expanded pullback: for the equation x or y the least exponent
    of it over the terms, otherwise the largest k with eq^k dividing the
    pullback, found by doubling k, then bisecting.  `pulled` keeps g's
    pullbacks across calls."""
    for chart in state.leaves:
        eq = chart.exc.get(ident, chart.carriers.get(ident))
        if eq is None:
            continue
        p = _prefix_pullback(g, chart.path, {} if pulled is None else pulled)
        for i, axis in enumerate((BiPoly.x(), BiPoly.y())):
            if eq == axis:
                return min(m[i] for m in p.nums)
        lo, hi = 0, 1
        while divides(eq ** hi, p):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if divides(eq ** mid, p) else (lo, mid)
        return lo
    raise KeyError(ident)


def test_divisor_order_matches_division_reference(corpus_results):
    """The walk's orders (and the carriers' root reads) equal the orders
    read off the expanded pullback, on every divisor of every corpus run."""
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
