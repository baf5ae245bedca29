"""Minimal principalization driver: bad-point detection and the blow-up loop.

A point over the origin is bad when the total transform fails to be a
normal-crossings monomial there: the residual (weak-transform) ideal still
vanishes, a strict branch of the curve part is singular or tangent to the
exceptional locus, a branch passes through a crossing of two exceptional
curves, or two branches meet.  Blowing up bad points until none remain is
the minimal principalization in dimension two; bad points are processed in
a fixed order so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

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
from .errors import InternalInvariantError, StepBudgetExceeded
from .poly import BiPoly, UniPoly, uni_gcd

DEFAULT_MAX_STEPS = 512


def _bad_values_on_occurrence(occ: Occurrence) -> list[tuple[Fraction, str]]:
    """(parameter value, reason) pairs for bad points on the owned part of
    one divisor appearance."""
    chart = occ.chart
    found: list[tuple[Fraction, str]] = []

    def emit(locator: UniPoly, context: str, reason: str):
        for t in occ.owned_params(locator, context):
            found.append((t, reason))

    # (a) residual ideal vanishes: common zeros of the restrictions
    restrictions = [chart.restrict(r, occ.axis) for r in chart.residual]
    locator = UniPoly()
    for rho in restrictions:
        locator = uni_gcd(locator, rho)
    if locator.is_zero():
        raise InternalInvariantError(
            f"residual ideal vanishes along divisor {occ.ident}")
    emit(locator, "residual zero locus", "residual-vanishes")

    carrier_restrictions = occ.carrier_restrictions()

    # (b)/(c) singular or tangential branch: multiple zeros of a restriction
    for ident, sigma in carrier_restrictions:
        if sigma.degree() <= 0:
            continue
        emit(uni_gcd(sigma, sigma.derivative()),
             f"tangency of {ident}", f"branch-tangent:{ident}")

    # (d) two branches meet on the divisor
    for i in range(len(carrier_restrictions)):
        for j in range(i + 1, len(carrier_restrictions)):
            ki, si = carrier_restrictions[i]
            kj, sj = carrier_restrictions[j]
            emit(uni_gcd(si, sj), f"crossing {ki}/{kj}",
                 f"branches-meet:{ki}:{kj}")

    # (c) branch through a crossing of two exceptional divisors
    for t_corner, other in occ.corners:
        for ident, sigma in carrier_restrictions:
            if sigma.eval(t_corner) == 0:
                found.append((t_corner, f"branch-at-corner:{ident}:{other}"))
    return found


def _chart_hits(chart: Chart, leaf_index: int) -> tuple:
    """(coords, reason, point identity, divisors through) of every bad
    point the chart owns, sorted by coordinates then reason.

    Scanned once and stored on the chart, which never changes; a scan that
    raises stores nothing.
    """
    if chart.bad_hits is None:
        hits = sorted({(occ.param_point(t), reason)
                       for occ in chart.occurrences(leaf_index)
                       for t, reason in _bad_values_on_occurrence(occ)})
        chart.bad_hits = tuple(
            (coords, reason, chart.point_identity(coords),
             tuple(chart.divisors_through(coords)))
            for coords, reason in hits)
    return chart.bad_hits


def find_bad_points(state: ChartState) -> list[PointRecord]:
    """All points over the origin violating the normal-crossings-monomial
    condition, ordered by chart path then coordinate, deduplicated.

    Each leaf chart is scanned once (`_chart_hits`); a call after a blow-up
    scans only its two new charts and merges the stored hits of the rest.
    Raises CenterNotRational when a bad point is algebraic of degree > 1.
    """
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

    records: list[PointRecord] = []
    identities: list[frozenset] = []
    for leaf_index, chart in enumerate(state.leaves):
        for coords, reason, ident, divisors in _chart_hits(chart, leaf_index):
            for i, known in enumerate(identities):
                if known & ident:
                    if not ident <= known:
                        identities[i] = known | ident
                    if reason not in records[i].reasons:
                        records[i] = replace(
                            records[i], reasons=records[i].reasons + (reason,))
                    break
            else:
                identities.append(ident)
                records.append(
                    PointRecord(leaf_index, coords, divisors, (reason,)))
    return records


@dataclass
class PrincipalizationResult:
    state: ChartState
    diagram: IntersectionDiagram
    log: list[BlowUpEvent]
    step_count: int

    @property
    def gens(self) -> list[BiPoly]:
        return self.state.gens


def principalize(gens: Iterable[BiPoly],
                 max_steps: int = DEFAULT_MAX_STEPS) -> PrincipalizationResult:
    """Blow up the first bad point until none remain.

    Every performed blow-up had a bad center; the reasons are recorded in
    the log as the minimality witness.
    """
    state = initial_state(list(gens))
    steps = 0
    while True:
        bad = find_bad_points(state)
        if not bad:
            break
        if steps >= max_steps:
            raise StepBudgetExceeded(
                f"no principalization within {max_steps} blow-ups")
        blow_up(state, bad[0])
        steps += 1
    state.complete = True
    diagram = diagram_from_state(state)
    return PrincipalizationResult(state, diagram, list(state.log), steps)


@dataclass
class MinimalityReport:
    passed: bool
    failures: list[str]


def verify_minimality(result: PrincipalizationResult) -> MinimalityReport:
    """Replay the log and confirm each center was bad when it was chosen."""
    state = initial_state(list(result.gens))
    failures: list[str] = []
    for event in result.log:
        bad = find_bad_points(state)
        leaf_index = next(
            (i for i, ch in enumerate(state.leaves)
             if ch.path == event.chart_path), None)
        if leaf_index is None:
            failures.append(f"step {event.step}: chart not found in replay")
            break
        chart = state.leaves[leaf_index]
        ident = chart.point_identity(event.center)
        is_bad = any(
            (not ident and b.leaf_index == leaf_index
             and b.coords == event.center)
            or (ident and ident & state.leaves[b.leaf_index].point_identity(
                b.coords))
            for b in bad
        )
        if not is_bad:
            failures.append(
                f"step {event.step}: center {event.center} in chart "
                f"{event.chart_path} was not a bad point")
        blow_up(state, PointRecord(leaf_index, event.center, (), ()))
    return MinimalityReport(passed=not failures, failures=failures)
