"""The public records keep their constructors, fields, defaults, properties
and methods: each builds by keyword and reads its fields back."""

from fractions import Fraction

import pytest

from topzeta.blowup import (
    BlowUpEvent,
    CarrierDef,
    Chart,
    Occurrence,
    PointMap,
    PointRecord,
)
from topzeta.criterion import ConditionHit, CrossCheckReport, Verdict
from topzeta.diagram import IntersectionDiagram, Report, Vertex
from topzeta.generic import DivisorCheck, GenericCheckReport
from topzeta.poly import BiPoly, parse_poly
from topzeta.principalize import (
    MinimalityReport,
    PrincipalizationResult,
    principalize,
)
from topzeta.ratfunc import Pole
from topzeta.zeta import pole_report

F = Fraction
GOLDEN = [parse_poly("x^4*y"), parse_poly("x^7 + x*y^4")]

#: (record, its fields given by keyword, the defaults of the rest)
RECORDS = [
    (PointMap, dict(side="A", offset=F(1, 3)), {}),
    (BlowUpEvent, dict(step=0, chart_path=(), center=(F(0), F(0)),
                       divisors_through=(), new_divisor="E1", N=1, nu=2,
                       reasons=("residual-vanishes",)), {}),
    (PointRecord, dict(leaf_index=0, coords=(F(0), F(0))), {"reasons": ()}),
    (CarrierDef, dict(ident="C1", root_eq=BiPoly.y(), exponent=1,
                      through_origin=True), {}),
    (ConditionHit, dict(condition=2, witness="E1"), {}),
    (Verdict, dict(s0=F(-1), is_pole=False), {"hits": ()}),
    (CrossCheckReport, dict(passed=True, criterion_poles={F(-1)},
                            exact_poles={F(-1)}), {"detail": ""}),
    (Vertex, dict(ident="E1", kind="exceptional", N=5, nu=2), {}),
    (Report, dict(name="nu-bound", passed=True), {"failures": ()}),
    (MinimalityReport, dict(passed=True, failures=[]), {}),
    (Pole, dict(location=F(-1), order=1, leading_coefficient=F(2)), {}),
    (Chart, dict(path=()),
     {"exc": {}, "pms": {}, "carriers": {}, "residual_parts": [],
      "residual": [], "bad_hits": None, "blown_up": None, "rows": {}}),
    (IntersectionDiagram, dict(vertices=[], edges=set()),
     {"origin_case": None, "minimal": False}),
    (DivisorCheck, dict(ident="E1", N_from_generic=2, N_min=2),
     {"n": None}),
    (GenericCheckReport, dict(lam=[F(1), F(1)], retries=0),
     {"per_divisor": {}}),
]


@pytest.mark.parametrize("cls, given, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_builds_by_keyword(cls, given, defaults):
    rec = cls(**given)
    for name, value in given.items():
        assert getattr(rec, name) == value, name
    for name, value in defaults.items():
        assert getattr(rec, name) == value, name
        if isinstance(value, (dict, list)):  # a fresh one per record
            assert getattr(cls(**given), name) is not getattr(rec, name)


def test_named_tuple_records_take_replace():
    pr = PointRecord(leaf_index=0, coords=(F(0), F(0)))
    assert pr._replace(reasons=("x",)) == (0, (F(0), F(0)), ("x",))
    pm = PointMap("B", F(0))
    assert pm._replace(offset=F(2)) == PointMap(side="B", offset=F(2))
    assert pm.shift(F(1)).to_birth(F(0)) == F(1)
    assert pm.shift(F(2)).to_birth(F(1, 2)) == F(2, 5)
    assert not Report(name="r", passed=False)
    assert Report(name="r", passed=True)


def test_chart_memos_and_occurrence_properties():
    result = principalize(GOLDEN)
    for leaf_index, chart in enumerate(result.state.leaves):
        assert chart.axes is chart.axes
        for occ in chart.occurrences(leaf_index):
            assert isinstance(occ, Occurrence)
            assert occ.chart is chart
            assert occ.mode == ("all" if occ.axis[0] == "x" else "point")
            assert all(d in chart.axes and d != occ.ident
                       for _, d in occ.corners)
    assert all(ch.bad_hits == () for ch in result.state.leaves)


def test_result_and_report_methods():
    result = principalize(GOLDEN)
    assert isinstance(result, PrincipalizationResult)
    assert result.gens is result.state.gens
    assert result.step_count == len(result.log) == 3
    rep = pole_report(result.diagram)
    assert rep.pole_locations() == {F(-1), F(-4, 7), F(-2, 5)}
    assert rep.to_json_dict()["candidates"] == ["-1", "-4/7", "-1/2", "-2/5"]
    check = DivisorCheck(ident="E1", N_from_generic=2, N_min=3, n=1)
    assert not check.min_property_ok
    report = GenericCheckReport(lam=[F(1)], retries=0, per_divisor={
        "E1": check, "S1": DivisorCheck("S1", 1, 1)})
    assert report.n_table() == {"E1": 1}


def test_divisor_records_are_the_diagram_vertices():
    """A component's numerical data is one record: the state's divisors
    and strict records are `Vertex`es, the one `topzeta`, `topzeta.diagram`
    and `topzeta.blowup` export, and the diagram holds the state's own."""
    import topzeta
    import topzeta.blowup

    assert topzeta.Vertex is Vertex is topzeta.blowup.Vertex
    assert not hasattr(topzeta, "DivisorRecord")
    assert not hasattr(topzeta.blowup, "DivisorRecord")
    result = principalize(GOLDEN)
    state = result.state
    assert all(type(v) is Vertex for v in state.divisors.values())
    assert all(result.diagram.vertex(d) is state.divisors[d]
               for d in state.divisor_order)
    (rec,) = principalize([parse_poly("(y - x^2)^2*x"),
                           parse_poly("(y - x^2)^2*y")]).state.strict_records
    assert type(rec) is Vertex and rec == ("C1", "strict-branch", 2, 1)
