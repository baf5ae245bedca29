"""Metamorphic invariance of Z(s): the topological zeta function of an ideal
does not depend on its generators or on the coordinates, so each of these
changes must give the same zeta function and the same poles by the
five-condition criterion, or the same refusal of an irrational centre:

  * the generators in reverse order;
  * x and y swapped;
  * f2 -> f2 + x*f1 and f2 -> f2 + y*f1;
  * the redundant generator f1 + f2 added;
  * the shear x -> x + c*y, for c in {1, -2};
  * the rational shear y -> y + x/2;
  * the scaling x -> 2x.

A generator typed as a product of powers and the same generator typed out
as a sum also give byte-identical reports and the same exit codes.

The ideals are drawn like the benchmark's corpus pool: two or three
generators of one to three terms, monomials of total degree 1 to 6, and
coefficients in {1, -1, 2, -2, 3}.  The swell ideals (K <= 5) and the
chains build(a, b) (a <= 8), whose charts are translated or long, take
every change too.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import perfbench_ideals, swell_entries
from topzeta.cli import main
from topzeta.criterion import poles_by_criterion
from topzeta.errors import CenterNotRational, TopZetaError
from topzeta.family import build
from topzeta.poly import BiPoly, _Product, parse_poly, poly_to_str
from topzeta.principalize import principalize
from topzeta.zeta import pole_report

MONOMIALS = [(i, j) for i in range(7) for j in range(7) if 1 <= i + j <= 6]


@st.composite
def pool_ideals(draw):
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        exps = draw(st.lists(st.sampled_from(MONOMIALS), min_size=1,
                             max_size=3, unique=True))
        gens.append(BiPoly.from_ints(
            {e: draw(st.sampled_from((1, -1, 2, -2, 3))) for e in exps}))
    return gens


def _swap(p: BiPoly) -> BiPoly:
    return BiPoly.from_ints({(b, a): n for (a, b), n in p.nums.items()},
                            p.den)


def _substitute(p: BiPoly, x_new: BiPoly, y_new: BiPoly) -> BiPoly:
    """p(x_new, y_new)."""
    out = BiPoly.zero()
    for (a, b), n in p.nums.items():
        out = out + x_new ** a * y_new ** b * BiPoly.const(n)
    return BiPoly.from_ints(out.nums, out.den * p.den)


def changes(gens):
    f1, f2 = gens[0], gens[1]
    x, y = BiPoly.x(), BiPoly.y()
    yield "reversed", gens[::-1]
    yield "x<->y", [_swap(g) for g in gens]
    yield "f2+x*f1", [f1, f2 + x * f1, *gens[2:]]
    yield "f2+y*f1", [f1, f2 + y * f1, *gens[2:]]
    yield "f1+f2 added", [*gens, f1 + f2]
    for c in (1, -2):
        x_new = x + BiPoly.monomial(0, 1, c)
        yield f"x->x+{c}y", [_substitute(g, x_new, y) for g in gens]
    y_new = y + BiPoly.monomial(1, 0, Fraction(1, 2))
    yield "y->y+x/2", [_substitute(g, x, y_new) for g in gens]
    yield "x->2x", [_substitute(g, BiPoly.monomial(1, 0, 2), y)
                    for g in gens]


def zeta_or_refusal(gens):
    """Z as text and the criterion's poles, or the refusal."""
    try:
        diagram = principalize(gens).diagram
    except CenterNotRational:
        return "CenterNotRational"
    return (str(pole_report(diagram).zeta),
            sorted(poles_by_criterion(diagram)))


@given(pool_ideals())
@settings(max_examples=150, deadline=None)
def test_zeta_is_invariant_under_generator_and_coordinate_changes(gens):
    want = zeta_or_refusal(gens)
    for name, other in changes(gens):
        assert zeta_or_refusal(other) == want, (name, [str(g) for g in gens])


FAMILIES = {
    "swell": swell_entries(5),
    "chain": [(f"chain-{a}-{b}", build(a, b))
              for a in range(1, 9) for b in range(a)],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_zeta_is_invariant_on_swell_and_chains(family):
    for label, gens in FAMILIES[family]:
        want = zeta_or_refusal(gens)
        for name, other in changes(gens):
            assert zeta_or_refusal(other) == want, (name, label)


def test_shear_and_swap_on_a_known_polynomial():
    p = BiPoly.from_ints({(2, 0): 3, (0, 1): -1}, 2)  # (3x^2 - y)/2
    x, y, half = BiPoly.x(), BiPoly.y(), BiPoly.const(Fraction(1, 2))
    q = x + BiPoly.monomial(0, 1, -2)
    assert _substitute(p, q, y) == (BiPoly.const(3) * q * q - y) * half
    assert _substitute(p, x, y + x * half) == \
        (BiPoly.const(3) * x * x - y - x * half) * half
    assert _substitute(p, x + x, y) == (BiPoly.const(12) * x * x - y) * half
    assert _swap(p) == (BiPoly.const(3) * y * y - x) * half
    assert _swap(_swap(p)) == p


# --- typed products against their expansions -------------------------------

TYPED_COMMANDS = [("zeta", "--json"), ("poles", "--json"),
                  ("classify", "--json"), ("principalize", "--json", "--check"),
                  ("verify",)]
UNITS = ("(1 + x + y)", "(1 - x + y)", "(1 + x - y)", "(1 - x - y)")
UNIT_FAMILY = [(f"x^{m}*y^{n}*{unit}^{k}",) for unit in UNITS
               for m, n, k in ((1, 0, 6), (2, 1, 3), (1, 2, 4), (3, 3, 2),
                               (0, 2, 5), (1, 1, 1))]


def _typed(text: str) -> bool:
    try:
        return isinstance(parse_poly(text), _Product)
    except TopZetaError:
        return False


def _expanded(text: str) -> str:
    """The expansion of text, printed: a sum or a monomial, so untyped."""
    return poly_to_str(parse_poly(text))


def _zp(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


TYPED_IDEALS = {
    "unit-family": UNIT_FAMILY,
    **{name: [g for g in ideals if any(map(_typed, g))]
       for name, ideals in perfbench_ideals().items()
       if name in ("corpus", "curvepart")},
}


@pytest.mark.parametrize("source", sorted(TYPED_IDEALS))
def test_typed_products_report_as_their_expansions(source):
    assert TYPED_IDEALS[source]
    for gens in TYPED_IDEALS[source]:
        expanded = [_expanded(t) if _typed(t) else t for t in gens]
        assert not any(map(_typed, expanded))
        for cmd in TYPED_COMMANDS:
            assert _zp(*cmd, "--", *gens) == _zp(*cmd, "--", *expanded), (
                cmd, gens)
