"""Local topological zeta function of an intersection diagram.

The Euler-characteristic bookkeeping is purely combinatorial in dimension
two: an exceptional curve is a projective line, so removing its crossing
points leaves characteristic 2 - degree; each crossing point contributes a
two-factor term; a strict branch meets the fiber over the origin only at
its crossing (except in the degenerate no-blow-up case, where the origin
itself lies on the branch).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .diagram import IntersectionDiagram, Vertex
from .errors import MalformedDiagram, OrderTwoCandidate
from .poly import frac_str
from .ratfunc import Pole, RationalFunctionS, poles_of, rf_sum_of_terms

#: One summand chi * prod 1/(nu + N s): (chi, [(nu, N), ...]).
ZetaTerm = tuple[int, list[tuple[int, int]]]


def _chi(diagram: IntersectionDiagram, v: Vertex) -> int:
    """Euler characteristic of a component minus its crossings.  A branch
    meets the fiber away from its crossings only when no blow-up happened
    at all."""
    deg = diagram.degree(v.ident)
    if v.kind == "exceptional":
        return 2 - deg
    return 1 if (diagram.origin_case is not None and deg == 0) else 0


def zeta_terms(diagram: IntersectionDiagram) -> list[ZetaTerm]:
    """The defining sum, one term per stratum with nonzero characteristic."""
    if not diagram.vertices:
        raise MalformedDiagram("empty diagram has no zeta function")
    terms: list[ZetaTerm] = [(chi, [(v.nu, v.N)]) for v in diagram.vertices
                             if (chi := _chi(diagram, v))]
    for a, b in diagram.edge_pairs:
        va, vb = diagram.vertex(a), diagram.vertex(b)
        terms.append((1, [(va.nu, va.N), (vb.nu, vb.N)]))
    return terms


def residue_contribution(diagram: IntersectionDiagram, ident: str,
                         s0: Fraction) -> Fraction:
    """Contribution of one component to the residue at an order-one
    candidate s0 = -nu/N: (1/N)(chi + sum 1/alpha_i) over its neighbors,
    with alpha_i = nu_i - (nu/N) N_i = nu_i + s0 N_i.

    Exceptional curve: chi = 2 - m.  Strict branch with a neighbor: chi = 0.
    Isolated branch in the degenerate case: chi = 1.
    """
    v = diagram.vertex(ident)
    s0 = Fraction(s0)
    if Fraction(-v.nu, v.N) != s0:
        raise ValueError(f"{ident} does not attain the candidate {s0}")
    neighbors = diagram.neighbors(ident)
    total = Fraction(_chi(diagram, v))
    if not (neighbors or total):  # a strict branch outside the origin case
        raise MalformedDiagram(f"isolated strict branch {ident}")
    for n in neighbors:
        w = diagram.vertex(n)
        a = w.nu + s0 * w.N
        if a == 0:
            raise OrderTwoCandidate(
                f"alpha toward {n} vanishes at {frac_str(s0)}")
        total += 1 / a
    return total / v.N


class ZetaReport:
    """Zeta function with candidates and poles; the residue contributions
    are computed from the diagram on first read."""

    def __init__(self, zeta: RationalFunctionS, terms: list[ZetaTerm],
                 candidate_poles: list[Fraction],  # sorted ascending
                 poles: list[Pole],  # sorted ascending by location
                 diagram: IntersectionDiagram):
        self.zeta, self.terms, self.poles = zeta, terms, poles
        self.candidate_poles, self._diagram = candidate_poles, diagram

    @cached_property
    def contributions(self) -> dict[Fraction, dict[str, Fraction]]:
        diagram = self._diagram
        orders = {p.location: p.order for p in self.poles}
        out: dict[Fraction, dict[str, Fraction]] = {}
        for s0, group in diagram.by_candidate.items():
            if orders.get(s0, 0) >= 2:
                continue
            per: dict[str, Fraction] = {}
            for v in group:
                try:
                    per[v.ident] = residue_contribution(diagram, v.ident, s0)
                except OrderTwoCandidate:
                    per = {}
                    break
            if per:
                out[s0] = per
        return out

    def pole_locations(self) -> set[Fraction]:
        return {p.location for p in self.poles}

    def to_json_dict(self) -> dict:
        return {
            "zeta": self.zeta.to_json_dict(),
            "candidates": [frac_str(c) for c in self.candidate_poles],
            "poles": [
                {"s": frac_str(p.location), "order": p.order,
                 "leading": frac_str(p.leading_coefficient)}
                for p in self.poles
            ],
        }


def candidate_poles(diagram: IntersectionDiagram) -> list[Fraction]:
    return list(diagram.by_candidate)


def pole_report(diagram: IntersectionDiagram) -> ZetaReport:
    """Zeta function with candidates, poles, orders and residues.  The
    residue contributions follow on first read; an isolated strict branch
    outside the origin case, which has none, refuses the diagram here."""
    terms = zeta_terms(diagram)
    rf = rf_sum_of_terms(terms)
    poles = poles_of(rf)
    orders = {p.location: p.order for p in poles}
    isolated = [v.ident for s0, group in diagram.by_candidate.items()
                if orders.get(s0, 0) < 2 for v in group
                if not (diagram.degree(v.ident) or _chi(diagram, v))]
    if isolated:
        raise MalformedDiagram(f"isolated strict branch {isolated[0]}")
    return ZetaReport(zeta=rf, terms=terms,
                      candidate_poles=candidate_poles(diagram), poles=poles,
                      diagram=diagram)
