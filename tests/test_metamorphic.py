"""Metamorphic invariance of Z(s): the topological zeta function of an ideal
does not depend on its generators or on the coordinates, so each of these
changes must give the same zeta function, or the same refusal of an
irrational centre:

  * the generators in reverse order;
  * x and y swapped;
  * f2 -> f2 + x*f1;
  * the redundant generator f1 + f2 added;
  * the shear x -> x + c*y, for c in {1, -2}.

The ideals are drawn like the benchmark's corpus pool: two or three
generators of one to three terms, monomials of total degree 1 to 6, and
coefficients in {1, -1, 2, -2, 3}.  The swell ideals (K <= 5) and the
chains build(a, b) (a <= 8), whose charts are translated or long, take the
first three changes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import swell_entries
from topzeta.errors import CenterNotRational
from topzeta.family import build
from topzeta.poly import BiPoly
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


def _shear(p: BiPoly, c: int) -> BiPoly:
    """p(x + c*y, y)."""
    x_new = BiPoly.x() + BiPoly.monomial(0, 1, c)
    out = BiPoly.zero()
    for (a, b), n in p.nums.items():
        out = out + x_new ** a * BiPoly.monomial(0, b, n)
    return BiPoly.from_ints(out.nums, out.den * p.den)


def changes(gens):
    f1, f2 = gens[0], gens[1]
    yield "reversed", gens[::-1]
    yield "x<->y", [_swap(g) for g in gens]
    yield "f2+x*f1", [f1, f2 + BiPoly.x() * f1, *gens[2:]]
    yield "f1+f2 added", [*gens, f1 + f2]
    for c in (1, -2):
        yield f"x->x+{c}y", [_shear(g, c) for g in gens]


def zeta_or_refusal(gens):
    try:
        return str(pole_report(principalize(gens).diagram).zeta)
    except CenterNotRational:
        return "CenterNotRational"


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
            if name in ("reversed", "x<->y", "f2+x*f1"):
                assert zeta_or_refusal(other) == want, (name, label)


def test_shear_and_swap_on_a_known_polynomial():
    p = BiPoly.from_ints({(2, 0): 3, (0, 1): -1}, 2)  # (3x^2 - y)/2
    x, y, half = BiPoly.x(), BiPoly.y(), BiPoly.const(Fraction(1, 2))
    q = x + BiPoly.monomial(0, 1, -2)
    assert _shear(p, -2) == (BiPoly.const(3) * q * q - y) * half
    assert _swap(p) == (BiPoly.const(3) * y * y - x) * half
    assert _swap(_swap(p)) == p
