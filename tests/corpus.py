"""Deterministic ideal corpus used by the relation, structure, and
criterion suites.

Entries principalize over Q; inputs that need an irrational center are kept
in a separate list with the reason they are excluded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from topzeta import parse_poly
from topzeta.family import build
from topzeta.poly import BiPoly


def family_entries() -> list[tuple[str, list[BiPoly]]]:
    out = []
    for b in range(0, 10):
        for a in range(b + 1, 11):
            out.append((f"family-{a}-{b}", build(a, b)))
    return out


def monomial_entries() -> list[tuple[str, list[BiPoly]]]:
    """Pairs (x^a y^b, x^c y^d); small complete block plus larger spot
    checks with exponents up to 6."""
    quads = [
        (a, b, c, d)
        for a in range(3) for b in range(3)
        for c in range(3) for d in range(3)
        if a + b >= 1 and c + d >= 1 and (a, b) < (c, d)
    ]
    quads += [
        (6, 1, 0, 5), (5, 0, 2, 3), (6, 6, 1, 1), (4, 2, 2, 4),
        (0, 6, 6, 0), (6, 0, 0, 6), (3, 6, 6, 3), (1, 4, 6, 2),
    ]
    out = []
    for a, b, c, d in quads:
        gens = [BiPoly.monomial(a, b), BiPoly.monomial(c, d)]
        out.append((f"monomial-{a}{b}{c}{d}", gens))
    return out


MIXED_TEXTS = [
    ("golden", ["x^4*y", "x^7 + x*y^4"]),
    ("two-lines-deep", ["y^2 - x^2", "x^5"]),
    ("two-lines-deep-y", ["y^2 - x^2", "y^5"]),
    ("cusp-axis", ["y^2 - x^3", "x*y"]),
    ("cusp-pair", ["y^2 - x^3", "y^3 - x^4"]),
    ("node-and-line", ["x*y", "y^2 - x^3 - x^2"]),
    ("triple-line", ["y^3", "x^4 + x*y^2"]),
    ("double-tangent", ["x^2*y + y^4", "x^3"]),
    ("square-line", ["(x + y)^2*y", "x^3"]),
    ("quartic-split", ["y^2 - x^4", "x^6"]),
    ("cube-diff", ["x^3 - y^3", "x*y^2"]),
    ("quartic-diff", ["x^4 - y^4", "x*y^3"]),
    ("shared-cusp", ["(y^2 - x^3)*x", "(y^2 - x^3)*y"]),
    ("shared-conic", ["(x^2 + y^2)*x^2", "(x^2 + y^2)*y^2"]),
    ("three-lines", ["y*(y - x)*(y + x)", "x^4"]),
    ("wide-angle", ["x*y^2", "(x + y)^3"]),
    ("deep-monomialish", ["x^2*y^2", "x^5 + y^5"]),
    ("square-member", ["x^2 + 2*x*y", "y^2"]),
    ("three-gens", ["x^3", "x*y^2", "y^4"]),
    ("three-gens-mixed", ["x^2*y", "x*y^2", "x^4 + y^4"]),
]


def mixed_entries() -> list[tuple[str, list[BiPoly]]]:
    return [(name, [parse_poly(t) for t in texts])
            for name, texts in MIXED_TEXTS]


#: Inputs excluded from the corpus: the minimal principalization needs a
#: center that is not Q-rational, which the engine refuses by contract.
EXCLUDED = [
    ("irrational-sqrt2", ["x^3", "y^2 - 2*x^2"],
     "residual zeros on the first exceptional curve sit at y^2 = 2"),
    ("imaginary-pair", ["y^2 + x^2", "x^5"],
     "residual zeros on the first exceptional curve sit at y^2 = -1"),
]


def corpus() -> list[tuple[str, list[BiPoly]]]:
    entries = mixed_entries() + family_entries() + monomial_entries()
    assert len(entries) >= 50
    return entries


#: Principal (single-generator) inputs: embedded curve resolutions.
CURVE_TEXTS = [
    ("smooth-line", ["x"]),
    ("double-line", ["x^2"]),
    ("monomial-23", ["x^2*y^3"]),
    ("cusp", ["y^2 - x^3"]),
    ("node", ["y^2 - x^2 - x^3"]),
    ("conj-node", ["x^2 + y^2"]),
    ("tacnode", ["(y - x^2)*(y + x^2)"]),
    ("e8", ["y^3 - x^5"]),
    ("three-lines", ["x*y*(x - y)"]),
]


def curve_entries() -> list[tuple[str, list[BiPoly]]]:
    return [(name, [parse_poly(t) for t in texts])
            for name, texts in CURVE_TEXTS]


#: The curve part of the swell ideals (SWELL_BRANCH * (y - c*x^2), x^K):
#: later centres are nonzero, so charts are translated, and the pullback of
#: x^K is a high power of divisor equations.
SWELL_BRANCH = "((y^2 - x^3)^2 - 4*x^5*y - x^7)"


def swell_entries(max_k: int, cs=("1", "-1", "2", "3")
                  ) -> list[tuple[str, list[BiPoly]]]:
    return [(f"swell-{c}-{k}", [parse_poly(f"{SWELL_BRANCH}*(y - ({c})*x^2)"),
                                parse_poly(f"x^{k}")])
            for c in cs for k in range(2, max_k + 1)]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _recorded_pool() -> list[list[str]]:
    path = PERFBENCH / "expected.json"
    return json.loads(path.read_text(encoding="utf-8"))["corpus_pool"]


def pool_entries() -> list[tuple[str, list[BiPoly]]]:
    """The benchmark's recorded corpus pool: random two- and
    three-generator ideals, some of which need an irrational centre."""
    pool = _recorded_pool()
    return [(f"pool-{i}", [parse_poly(t) for t in texts])
            for i, texts in enumerate(pool)]


def perfbench_ideals() -> dict[str, list[tuple[str, ...]]]:
    """Generator texts of every ideal each benchmark workload can draw, by
    workload name, in the order the workload lists them."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import workloads
    pool = [tuple(g) for g in _recorded_pool()]
    return {name: [ideal.gens for stratum in w.strata for ideal in stratum]
            for name, w in workloads.workloads(pool).items()}
