"""Diagram-only pole classification and its cross-check against the exact
pole set.

A candidate -nu/N of a minimal principalization is a pole exactly when some
component witnesses one of five local shapes: a weak-transform component
with s0 = -1/N; an exceptional curve with no neighbor; one neighbor with
alpha != -1; two neighbors with alpha_1 + alpha_2 != 0; or at least three
neighbors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .diagram import IntersectionDiagram, alpha_nums
from .errors import NonMinimalDiagram, NotACandidate
from .poly import frac_str
from .zeta import ZetaReport


class ConditionHit(NamedTuple):
    condition: int
    witness: str


class Verdict(NamedTuple):
    s0: Fraction
    is_pole: bool
    hits: Sequence[ConditionHit] = ()


def classify(diagram: IntersectionDiagram, s0: Fraction) -> Verdict:
    """Apply the five-condition test to one candidate value.

    Aggregates over every component attaining -nu/N = s0; a value is a pole
    as soon as one component witnesses a condition.
    """
    if not diagram.minimal:
        raise NonMinimalDiagram(
            "pole classification requires a minimal principalization")
    if not isinstance(s0, Fraction):
        s0 = Fraction(s0)
    group = diagram.by_candidate.get(s0)
    if group is None:
        raise NotACandidate(f"{frac_str(s0)} is not a candidate pole")
    hits: list[ConditionHit] = []
    for v in group:
        if v.kind == "strict-branch":
            hits.append(ConditionHit(1, v.ident))
            continue
        table = alpha_nums(diagram, v.ident)
        m = len(table)
        if m == 0:
            hits.append(ConditionHit(2, v.ident))
        elif m == 1 and table[0][1] != -v.N:
            hits.append(ConditionHit(3, v.ident))
        elif m == 2 and table[0][1] + table[1][1] != 0:
            hits.append(ConditionHit(4, v.ident))
        elif m >= 3:
            hits.append(ConditionHit(5, v.ident))
    return Verdict(s0=s0, is_pole=bool(hits), hits=hits)


def poles_by_criterion(diagram: IntersectionDiagram) -> set[Fraction]:
    """The classification applied to every candidate."""
    return {
        s0 for s0 in diagram.by_candidate
        if classify(diagram, s0).is_pole
    }


class CrossCheckReport(NamedTuple):
    passed: bool
    criterion_poles: set[Fraction]
    exact_poles: set[Fraction]
    detail: str = ""


def cross_check(diagram: IntersectionDiagram,
                report: ZetaReport) -> CrossCheckReport:
    """Assert that the classification agrees with the poles of the diagram's
    zeta report."""
    by_criterion = poles_by_criterion(diagram)
    exact = report.pole_locations()
    if by_criterion == exact:
        return CrossCheckReport(True, by_criterion, exact)
    detail = (
        f"criterion {{{', '.join(frac_str(p) for p in sorted(by_criterion))}}}"
        f" != exact {{{', '.join(frac_str(p) for p in sorted(exact))}}};"
        f" zeta = {report.zeta}"
    )
    return CrossCheckReport(False, by_criterion, exact, detail)
