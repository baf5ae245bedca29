"""Minimal principalization driver: bad-point detection and the blow-up loop.

A point over the origin is bad when the total transform fails to be a
normal-crossings monomial there: the residual (weak-transform) ideal still
vanishes, a strict branch of the curve part is singular or tangent to the
exceptional locus, a branch passes through a crossing of two exceptional
curves, or two branches meet.  Blowing up bad points until none remain is
the minimal principalization in dimension two; bad points are processed in
a fixed order so runs are reproducible.  Each chart is scanned once, on the
integer rows `Occurrence` reads its polynomials as on each divisor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple

from .blowup import (
    BlowUpEvent,
    Chart,
    ChartState,
    Occurrence,
    PointRecord,
    blow_up,
    initial_state,
)
from .diagram import IntersectionDiagram, diagram_from_state
from .errors import StepBudgetExceeded
from .poly import BiPoly, _zhorner

DEFAULT_MAX_STEPS = 512


def _bad_values_on_occurrence(occ: Occurrence) -> list[tuple[Fraction, str]]:
    """(parameter value, reason) pairs for bad points on the owned part of
    one divisor appearance, read from the integer restrictions."""
    found: list[tuple[Fraction, str]] = []

    def emit(rows: list[list[int]], context: str, reason: str):
        found.extend((t, reason) for t in occ.owned_params(rows, context))

    # (a) residual ideal vanishes: common zeros of the restrictions
    emit(occ.residual_restrictions(), "residual zero locus",
         "residual-vanishes")

    carrier_restrictions = occ.carrier_restrictions()

    # (b)/(c) singular or tangential branch: multiple zeros of a restriction
    for ident, sigma in carrier_restrictions:
        if len(sigma) <= 1:
            continue
        emit([sigma, [i * v for i, v in enumerate(sigma)][1:]],
             f"tangency of {ident}", f"branch-tangent:{ident}")

    # (d) two branches meet on the divisor
    for (ki, si), (kj, sj) in combinations(carrier_restrictions, 2):
        emit([si, sj], f"crossing {ki}/{kj}", f"branches-meet:{ki}:{kj}")

    # (c) branch through a crossing of two exceptional divisors
    for t_corner, other in occ.corners:
        u, v = t_corner.numerator, t_corner.denominator
        for ident, sigma in carrier_restrictions:
            if _zhorner(sigma, u, v) == 0:
                found.append((t_corner, f"branch-at-corner:{ident}:{other}"))
    return found


def _chart_hits(chart: Chart, leaf_index: int) -> tuple:
    """(coords, reasons) of every bad point the chart owns, sorted by
    coordinates, reasons sorted.

    Scanned once and stored on the chart, which never changes; a scan that
    raises stores nothing.  A chart with no carrier and a nonzero constant
    residual generator has none: that generator's row makes every residual
    gcd 1, and every other reason reads a carrier.
    """
    if chart.bad_hits is None and not chart.carriers and any(
            not k and s.nums and s.is_constant()
            for s, k in chart.residual_parts):
        chart.bad_hits = ()
    if chart.bad_hits is None:
        # sorted pairs, duplicates adjacent: grouped with no Fraction hash
        found: list[tuple[tuple[Fraction, Fraction], list[str]]] = []
        for coords, reason in sorted(
                (occ.param_point(t), reason)
                for occ in chart.occurrences(leaf_index)
                for t, reason in _bad_values_on_occurrence(occ)):
            if not found or found[-1][0] != coords:
                found.append((coords, [reason]))
            elif found[-1][1][-1] != reason:
                found[-1][1].append(reason)
        chart.bad_hits = tuple((coords, tuple(reasons))
                               for coords, reasons in found)
    return chart.bad_hits


def find_bad_points(state: ChartState) -> list[PointRecord]:
    """All points over the origin violating the normal-crossings-monomial
    condition, ordered by chart path then coordinate.  The owned loci
    partition the surface (`Occurrence`), so each point comes from one
    chart only.

    Each leaf chart is scanned once (`_chart_hits`); a call after a blow-up
    scans only its two new charts and reads the stored hits of the rest.
    Raises CenterNotRational when a bad point is algebraic of degree > 1.
    """
    if not state.log:
        chart = state.leaves[0]
        reasons = []
        if all((0, 0) not in s.nums for s, _ in chart.residual_parts):
            reasons.append("residual-vanishes")
        if sum(v.mult_at_origin() for v in chart.carriers.values()) >= 2:
            reasons.append("curve-part-not-normal-crossings")
        return [PointRecord(0, (Fraction(0), Fraction(0)),
                            tuple(reasons))] if reasons else []
    return [PointRecord(leaf_index, coords, reasons)
            for leaf_index, chart in enumerate(state.leaves)
            for coords, reasons in _chart_hits(chart, leaf_index)]


def _first_bad_point(state: ChartState, start: int) -> PointRecord | None:
    """`find_bad_points(state)[0]` right after blowing up a centre on leaf
    `start`: the leaves before it had no bad point and are unchanged.

    The two new charts are scanned first, as `find_bad_points` would, so a
    refusal from either is raised in the same order.
    """
    leaves = state.leaves
    _chart_hits(leaves[start], start)
    _chart_hits(leaves[start + 1], start + 1)
    for leaf_index in range(start, len(leaves)):
        if hits := _chart_hits(leaves[leaf_index], leaf_index):
            return PointRecord(leaf_index, *hits[0])
    return None


class PrincipalizationResult:
    def __init__(self, state: ChartState, diagram: IntersectionDiagram,
                 log: list[BlowUpEvent], step_count: int):
        self.state, self.diagram = state, diagram
        self.log, self.step_count = log, step_count

    @property
    def gens(self) -> list[BiPoly]:
        return self.state.gens


def principalize(gens: Iterable[BiPoly],
                 max_steps: int = DEFAULT_MAX_STEPS) -> PrincipalizationResult:
    """Blow up the first bad point until none remain.

    Every performed blow-up had a bad center; the reasons are recorded in
    the log as the minimality witness, and each event names the chart that
    owns its center, where `verify_minimality` checks it.
    """
    state = initial_state(list(gens))
    steps = 0
    bad = next(iter(find_bad_points(state)), None)
    while bad is not None:
        if steps >= max_steps:
            raise StepBudgetExceeded(
                f"no principalization within {max_steps} blow-ups")
        blow_up(state, bad)
        steps += 1
        bad = _first_bad_point(state, bad.leaf_index)
    state.complete = True
    diagram = diagram_from_state(state)
    return PrincipalizationResult(state, diagram, list(state.log), steps)


class MinimalityReport(NamedTuple):
    passed: bool
    failures: list[str]


def verify_minimality(result: PrincipalizationResult) -> MinimalityReport:
    """Replay the log and confirm each center was bad when it was chosen.

    The root center is checked by `find_bad_points`' origin case, and every
    later one only against the stored hits of the chart the log names
    (`_chart_hits`): `blow_up` accepts a center only on that chart's
    {x = 0} locus, which the chart owns, so no other chart can report it.

    The replay starts from the run's own root chart, and each `blow_up`
    reuses the children that chart stored (`Chart.blown_up`), with their
    stored hits.  So a genuine log replays with no transform and no scan;
    from a center the log moved on, the charts are new and computed.
    """
    src = result.state
    state = ChartState(src.gens, src.carriers, src.root)
    failures: list[str] = []
    for event in result.log:
        leaf_index = next(
            (i for i, ch in enumerate(state.leaves)
             if ch.path == event.chart_path), None)
        if leaf_index is None:
            failures.append(f"step {event.step}: chart not found in replay")
            break
        if state.log:
            is_bad = any(coords == event.center for coords, _ in
                         _chart_hits(state.leaves[leaf_index], leaf_index))
        else:
            is_bad = any(b.coords == event.center
                         for b in find_bad_points(state))
        if not is_bad:
            failures.append(
                f"step {event.step}: center {event.center} in chart "
                f"{event.chart_path} was not a bad point")
        blow_up(state, PointRecord(leaf_index, event.center))
    return MinimalityReport(passed=not failures, failures=failures)
