"""Local topological zeta function of an intersection diagram.

The Euler-characteristic bookkeeping is purely combinatorial in dimension
two: an exceptional curve is a projective line, so removing its crossing
points leaves characteristic 2 - degree; each crossing point contributes a
two-factor term; a strict branch meets the fiber over the origin only at
its crossing (except in the degenerate no-blow-up case, where the origin
itself lies on the branch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .diagram import IntersectionDiagram, _id_key, alphas
from .errors import MalformedDiagram, OrderTwoCandidate
from .poly import frac_str
from .ratfunc import Pole, RationalFunctionS, poles_of, rf_sum_of_terms

#: One summand chi * prod 1/(nu + N s): (chi, [(nu, N), ...]).
ZetaTerm = tuple[int, list[tuple[int, int]]]


def zeta_terms(diagram: IntersectionDiagram) -> list[ZetaTerm]:
    """The defining sum, one term per stratum with nonzero characteristic."""
    terms: list[ZetaTerm] = []
    for v in diagram.vertices:
        deg = diagram.degree(v.ident)
        if v.kind == "exceptional":
            chi = 2 - deg
        else:
            # the branch meets the fiber away from its crossings only when
            # no blow-up happened at all
            chi = 1 if (diagram.origin_case is not None and deg == 0) else 0
        if chi:
            terms.append((chi, [(v.nu, v.N)]))
    for e in sorted(diagram.edges, key=lambda e: sorted(map(_id_key, e))):
        a, b = sorted(e, key=_id_key)
        va, vb = diagram.vertex(a), diagram.vertex(b)
        terms.append((1, [(va.nu, va.N), (vb.nu, vb.N)]))
    return terms


def local_zeta(diagram: IntersectionDiagram) -> RationalFunctionS:
    """The reduced local topological zeta function."""
    if not diagram.vertices:
        raise MalformedDiagram("empty diagram has no zeta function")
    return rf_sum_of_terms(zeta_terms(diagram))


def residue_contribution(diagram: IntersectionDiagram, ident: str,
                         s0: Fraction) -> Fraction:
    """Contribution of one component to the residue at an order-one
    candidate s0 = -nu/N.

    Exceptional curve: (1/N)(2 - m + sum 1/alpha_i).  Strict branch with a
    neighbor: 1/(N alpha).  Isolated branch in the degenerate case: 1/N.
    """
    v = diagram.vertex(ident)
    s0 = Fraction(s0)
    if Fraction(-v.nu, v.N) != s0:
        raise ValueError(f"{ident} does not attain the candidate {s0}")
    if v.kind == "exceptional":
        table = alphas(diagram, ident)
        m = len(table)
        total = Fraction(2 - m)
        for n, a in table:
            if a == 0:
                raise OrderTwoCandidate(
                    f"alpha toward {n} vanishes at {frac_str(s0)}")
            total += Fraction(1) / a
        return total / v.N
    neighbors = diagram.neighbors(ident)
    if not neighbors:
        if diagram.origin_case is None:
            raise MalformedDiagram(f"isolated strict branch {ident}")
        return Fraction(1, v.N)
    (n,) = neighbors
    w = diagram.vertex(n)
    a = Fraction(w.nu) - Fraction(v.nu, v.N) * w.N
    if a == 0:
        raise OrderTwoCandidate(
            f"alpha toward {n} vanishes at {frac_str(s0)}")
    return Fraction(1, v.N) / a


@dataclass
class ZetaReport:
    zeta: RationalFunctionS
    terms: list[ZetaTerm]
    candidate_poles: list[Fraction]        # sorted ascending
    poles: list[Pole]                      # sorted ascending by location
    contributions: dict[Fraction, dict[str, Fraction]] = field(
        default_factory=dict)

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
    return sorted({Fraction(-v.nu, v.N) for v in diagram.vertices})


def pole_report(diagram: IntersectionDiagram) -> ZetaReport:
    """Zeta function with candidates, poles, orders, residues, and the
    per-component residue contributions at each order-one candidate."""
    rf = local_zeta(diagram)
    cands = candidate_poles(diagram)
    poles = poles_of(rf)
    orders = {p.location: p.order for p in poles}
    contributions: dict[Fraction, dict[str, Fraction]] = {}
    for s0 in cands:
        if orders.get(s0, 0) >= 2:
            continue
        per: dict[str, Fraction] = {}
        for v in diagram.vertices:
            if Fraction(-v.nu, v.N) != s0:
                continue
            try:
                per[v.ident] = residue_contribution(diagram, v.ident, s0)
            except OrderTwoCandidate:
                per = {}
                break
        if per:
            contributions[s0] = per
    return ZetaReport(zeta=rf, terms=zeta_terms(diagram),
                      candidate_poles=cands, poles=poles,
                      contributions=contributions)
