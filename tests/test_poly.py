"""Exact arithmetic: parser, gcd, multiplicities, root counting."""

import json
import math
import random
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import deadline
from topzeta.blowup import curve_part, initial_state
from topzeta.errors import (
    DegreeCapExceeded,
    NonRationalLiteralError,
    ParseError,
    SupportMissesOrigin,
    UnknownVariableError,
)
from corpus import PERFBENCH, corpus, perfbench_ideals, pool_entries
from reference_q import (
    compose_affine,
    const_q,
    den_q,
    derivative_q,
    divexact_q,
    divides,
    divmod_q,
    eval_bi,
    eval_q,
    from_ints_q,
    gcd_q,
    lcm_q,
    monic_q,
    mul_q,
    nums_q,
    poly_q,
    restrict,
    reversed_q,
    row_q,
    squarefree_q,
    sub_q,
    var_q,
)
from topzeta import blowup, poly
from topzeta.blowup import PointMap, union_zero_data, zeros_in_birth
from topzeta.ratfunc import RationalFunctionS
from topzeta.poly import (
    INFINITE_MULT,
    BiPoly,
    _product,
    _shift_rows,
    _zhorner,
    _zmul,
    frac_str,
    gcd_bi,
    parse_poly,
    poly_to_str,
    rational_roots,
    row_gcd,
    squarefree_decomposition,
    squarefree_part,
)


def P(text):
    return parse_poly(text)


# --- parsing ------------------------------------------------------------------

def test_parse_single_monomial():
    assert P("x^4*y") == BiPoly.monomial(4, 1)


def test_parse_two_terms():
    assert P("x^7 + x*y^4") == BiPoly.monomial(7, 0) + BiPoly.monomial(1, 4)


def test_parse_zero():
    assert P("0").is_zero()


def test_parse_rational_literal():
    assert P("3/4*x") == BiPoly.monomial(1, 0, Fraction(3, 4))


def test_parse_parentheses_and_minus():
    assert P("(x - y)^2") == P("x^2 - 2*x*y + y^2")
    assert P("-x + y") == P("y - x")


def test_parse_errors():
    with pytest.raises(ParseError):
        P("x +")
    with pytest.raises(UnknownVariableError):
        P("x + z")
    with pytest.raises(NonRationalLiteralError):
        P("1.5*x")
    with pytest.raises(ParseError):
        P("x/2")
    with pytest.raises(ParseError):
        P("x y")
    with pytest.raises(DegreeCapExceeded):
        P("x^65")


def test_parse_error_position():
    try:
        P("x + z")
    except ParseError as exc:
        assert exc.position == 4


@pytest.mark.parametrize("text, cls, message", [
    ("x + y )", ParseError, "trailing input (at position 6)"),
    ("x*y  z", ParseError, "trailing input (at position 5)"),
    ("1 /  x", ParseError, "'/' outside a rational literal (at position 2)"),
    ("2/x", ParseError, "'/' outside a rational literal (at position 1)"),
    ("1.5*x", NonRationalLiteralError,
     "decimal literals are not rational (at position 1)"),
    ("x^2.5", NonRationalLiteralError,
     "decimal literals are not rational (at position 3)"),
    ("3/0 ", NonRationalLiteralError,
     "zero denominator in rational literal (at position 3)"),
    ("x + z", UnknownVariableError, "unknown variable 'z' (at position 4)"),
    ("  w*x", UnknownVariableError, "unknown variable 'w' (at position 2)"),
    ("x * (y + ", ParseError, "unexpected end of input (at position 9)"),
    ("", ParseError, "unexpected end of input (at position 0)"),
    ("   ", ParseError, "unexpected end of input (at position 3)"),
    ("(x - y", ParseError, "expected ')' (at position 6)"),
    ("x^", ParseError, "expected an integer (at position 2)"),
    ("x^ -2", ParseError,
     "exponent must be a nonnegative integer (at position 3)"),
    ("x + * y", ParseError, "unexpected character '*' (at position 4)"),
])
def test_parse_error_table(text, cls, message):
    """Each malformed input's refusal: its class, message and position,
    with whitespace before and after the offending token."""
    with pytest.raises(ParseError) as exc:
        P(text)
    assert type(exc.value) is cls
    assert str(exc.value) == message
    assert f"(at position {exc.value.position})" in message


def test_degree_cap_on_expansion():
    with pytest.raises(DegreeCapExceeded):
        P("(x^2)^40")


def test_degree_cap_before_power():
    # refused before the outer power expands: degree 30 * 30
    with pytest.raises(DegreeCapExceeded, match="total degree 900 exceeds"):
        P("((1+x+y)^30)^30")
    # a power over the cap refuses even when a later term cancels it
    with pytest.raises(DegreeCapExceeded, match="total degree 70 exceeds"):
        P("(x+y)^70 - (x+y)^70 + x")


def test_degree_cap_after_product():
    # each power is under the cap, the product is not: refused before expanding
    with pytest.raises(DegreeCapExceeded, match="total degree 65 exceeds"):
        P("(1+x+y)^20*(1+x)^45")
    assert P("(1+x)^64").total_degree() == 64


def test_literal_digit_cap():
    """A literal of over 1000 digits is refused before int() reads it;
    Python's own limit is 4300 digits."""
    assert P("9" * 1000 + "*x") == BiPoly.monomial(1, 0, 10 ** 1000 - 1)
    for text, digits in (("1" * 1001 + "*x", 1001),
                         ("x + 1/" + "7" * 1001, 1001),
                         ("1" * 5000 + "*x", 5000)):
        with pytest.raises(DegreeCapExceeded) as exc:
            P(text)
        assert str(exc.value) == \
            f"integer literal of {digits} digits exceeds cap 1000"


def test_coefficient_bit_cap_before_expanding(monkeypatch):
    """Products and powers whose coefficient bound passes 4096 bits are
    refused before they expand; 3/4 counts 2 bits (ceil log2 4)."""
    assert P("((3/4)^256)^8*x").terms == {(1, 0): Fraction(3, 4) ** 2048}
    assert P("(3/4)^256*(3/4)^256*(1+x)^64").total_degree() == 64
    expanded = []
    original = BiPoly.__pow__
    monkeypatch.setattr(BiPoly, "__pow__", lambda p, k: expanded.append(
        poly._bits(p) * k) or original(p, k))
    for text, bits in (("((3/4)^256)^9*x", 4608),
                       ("(((3/4)^65)^65)^3*x + y", 8450),
                       ("((((3/4)^65)^65)^33)^45*x", 8450),
                       ("(2^256)^16*(2^256)^16", 8192),
                       ("((2/3)^200 + (5/7)^200)^6", 5274)):
        expanded.clear()
        with pytest.raises(DegreeCapExceeded) as exc:
            P(text)
        assert str(exc.value) == \
            f"coefficient size bound of {bits} bits exceeds cap 4096"
        assert max(expanded, default=0) <= 4096


def test_parenthesis_depth_cap():
    assert P("(" * 100 + "x" + ")" * 100) == P("x")
    for depth in (101, 2000):
        with pytest.raises(ParseError) as exc:
            P("(" * depth + "x" + ")" * depth)
        assert str(exc.value) == \
            "parentheses nested deeper than 100 (at position 100)"
    with pytest.raises(ParseError, match="at position 201"):
        P("-(" * 100 + " (" + "x" + ")" * 101)


def test_unary_minus_runs():
    """A run of minus signs is read in a loop, however long; a minus in an
    atom binds tighter than ^, as before."""
    assert P("-" * 5000 + "x") == P("x")
    assert P("-" * 4999 + "x") == P("-x")
    assert P("--x^2") == P("- - -x^2") == P("-x^2")
    assert P("x*--y") == P("x*y")
    with pytest.raises(ParseError) as exc:
        P("-" * 3000)
    assert str(exc.value) == "unexpected end of input (at position 3000)"


def test_parse_keeps_products_of_powers():
    def factors_of(text):
        return [(poly_to_str(b), e) for b, e in P(text).factors]

    assert factors_of("x*x*(y - x^2)*(y - x^2)^2") == [
        ("x", 1), ("x", 1), ("-x^2 + y", 1), ("-x^2 + y", 2)]
    assert factors_of("-(2*(x + y))^2*3") == [("x + y", 2)]
    assert factors_of("x*(1 + x)^0*(x^2 - y)") == [("x", 1), ("x^2 - y", 1)]
    # one base to the first power, a sum or a monomial: the polynomial is
    # plain, its own only factor
    for text in ("x", "-3*x", "((x + y))", "x^2 - y", "x*y + x",
                 "(x - x)*y", "x*(1 + x)^0", "0*x*y", "(0*x)^2",
                 "-2/3*x^2*y", "((x*y)^2)^3"):
        assert not hasattr(P(text), "factors")
    assert P("-2/3*x^2*y") == BiPoly.monomial(2, 1, Fraction(-2, 3))
    assert P("((x*y)^2)^3") == BiPoly.monomial(6, 6)


@st.composite
def bipolys(draw, coefficients=None, terms=6, degree=5):
    """Up to `terms` terms of degree at most `degree` in each variable;
    coefficients a/b with |a|, b < 10 unless a coefficient strategy is
    given."""
    n = draw(st.integers(1, terms))
    out = {}
    for _ in range(n):
        e = (draw(st.integers(0, degree)), draw(st.integers(0, degree)))
        c = (Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
             if coefficients is None else draw(coefficients))
        out[e] = out.get(e, 0) + c
    return BiPoly(out)


@given(bipolys())
@settings(max_examples=150)
def test_print_parse_roundtrip(p):
    assert parse_poly(poly_to_str(p)) == p


@given(st.lists(st.tuples(bipolys(terms=4, degree=3), st.integers(0, 3)),
                min_size=1, max_size=3), st.sampled_from(["*", " + ", " - "]))
@settings(max_examples=150, deadline=None)
def test_carried_bit_bound_covers_the_result(parts, op):
    """The bound the parser carries is at least the bit size `_bits` reads
    off the polynomial it built: products add, powers multiply."""
    text = op.join(f"({poly_to_str(p)})^{k}" for p, k in parts)
    parser = poly._Parser(text, ("x", "y"))
    c, bases, _, bits = parser.parse_expr()
    result = poly._expand(c, bases)
    assert result == P(text)
    assert poly._bits(result) <= bits


# A product tree: ("c", q), ("x",), ("y",), ("sum", text) for a sum of two
# or more terms, ("mul", children), ("pow", child, k) or ("neg", child).
_SUM_TEXTS = ["1 + x", "1 - x - y", "x + y", "y^2 - x^3", "x*y + 2/3",
              "1/2 + x^2*y", "-3*x + 5/4*y^2"]


def _render(tree, top=True) -> str:
    kind = tree[0]
    if kind == "c":
        return frac_str(tree[1])
    if kind in ("x", "y"):
        return kind
    if kind == "sum":
        return f"({tree[1]})"
    if kind == "mul":
        return "*".join(_render(t, False) for t in tree[1])
    if kind == "pow":
        inner = _render(tree[1], False)
        return (inner if tree[1][0] in ("x", "y") else f"({inner})") + \
            f"^{tree[2]}"
    # only a leading minus negates a whole term; in an atom it binds
    # tighter than ^
    inner = _render(tree[1], False)
    return f"-{inner}" if top else f"(-{inner})"


def _eager(tree) -> BiPoly:
    """The tree's value by BiPoly arithmetic, expanding every step."""
    kind = tree[0]
    if kind == "c":
        return BiPoly.const(tree[1])
    if kind in ("x", "y"):
        return BiPoly.x() if kind == "x" else BiPoly.y()
    if kind == "sum":
        p = P(tree[1])
        assert not hasattr(p, "factors")
        return p
    if kind == "mul":
        return reduce(BiPoly.__mul__, map(_eager, tree[1]))
    if kind == "pow":
        return _eager(tree[1]) ** tree[2]
    return -_eager(tree[1])


def _typed(tree) -> tuple[Fraction, list]:
    """The product of powers a tree is typed as: constants folded, powers
    and parenthesized products flattened, nothing for zero."""
    kind = tree[0]
    if kind == "c":
        return Fraction(tree[1]), []
    if kind in ("x", "y", "sum"):
        return Fraction(1), [(_eager(tree), 1)]
    if kind == "mul":
        c, bases = Fraction(1), []
        for t in tree[1]:
            k, more = _typed(t)
            c, bases = c * k, bases + more
        return c, bases if c else []
    if kind == "pow":
        c, bases = _typed(tree[1])
        return c ** tree[2], [(b, e * tree[2]) for b, e in bases if tree[2]]
    c, bases = _typed(tree[1])
    return -c, bases


_leaves = st.one_of(
    st.just(("x",)), st.just(("y",)),
    st.fractions(0, 3, max_denominator=3).map(lambda q: ("c", q)),
    st.sampled_from(_SUM_TEXTS).map(lambda t: ("sum", t)))
product_trees = st.recursive(_leaves, lambda children: st.one_of(
    st.lists(children, min_size=2, max_size=3).map(
        lambda ts: ("mul", tuple(ts))),
    st.tuples(st.just("pow"), children, st.integers(0, 3)),
    st.tuples(st.just("neg"), children)), max_leaves=6)


@given(product_trees)
@example(("pow", ("mul", (("c", Fraction(1, 2)), ("y",))), 1))
@example(("neg", ("pow", ("mul", (("x",), ("y",))), 2)))
@example(("pow", ("mul", (("c", 2), ("x",), ("sum", "1 + y"))), 3))
@example(("mul", (("c", 0), ("pow", ("x",), 2), ("sum", "1 + x"))))
@example(("pow", ("mul", (("x",), ("y",))), 0))
@settings(max_examples=200, deadline=None)
def test_parsed_product_matches_its_eager_expansion(tree):
    """A product of powers stays typed until its numerators are read, and
    then agrees with the expansion in every view.  The zero test that
    `initial_state` reads comes from the factors, before anything expands,
    and so does its check that the generator vanishes at the origin."""
    text = _render(tree)
    try:
        p = P(text)
    except DegreeCapExceeded:
        return
    want = _eager(tree)
    c, bases = _typed(tree)
    typed = len(bases) > 1 or bool(bases) and bases[0][1] > 1
    lazy = typed and any(len(b.nums) > 1 for b, _ in bases)  # else a monomial
    assert hasattr(p, "factors") == lazy
    assert isinstance(p, poly._Product) == lazy
    assert p.is_zero() == want.is_zero()
    if lazy:
        assert [(poly_to_str(b), e) for b, e in p.factors] == \
            [(poly_to_str(b), e) for b, e in bases]
        assert p.const == c
        with pytest.raises(AttributeError):  # the numerators are unread
            BiPoly.nums.__get__(p, type(p))
    if not want.is_zero():
        try:
            state = initial_state([p])
        except SupportMissesOrigin:
            assert (0, 0) in want.nums
        else:
            assert (0, 0) not in want.nums
            # the charts transform plain polynomials only
            assert {type(s) for s, _ in state.root.residual_parts} == {BiPoly}
        assert p.lead_grlex() == want.lead_grlex()
    assert p == want and want == p and hash(p) == hash(want)
    assert (p.nums, p.den) == (want.nums, want.den)
    assert poly_to_str(p) == poly_to_str(want)
    assert poly._bits(p) == poly._bits(want)


# --- chart kernel against the per-term reference loops -------------------------

def _reference_translate(p, dx, dy):
    """p(x + dx, y + dy) by binomial expansion of every term in Fraction."""
    dx, dy = Fraction(dx), Fraction(dy)
    out = {}
    for (a, b), c in p.terms.items():
        for i in range(a + 1):
            ci = c * math.comb(a, i) * dx ** (a - i)
            if ci == 0:
                continue
            for j in range(b + 1):
                cij = ci * math.comb(b, j) * dy ** (b - j)
                if cij == 0:
                    continue
                out[(i, j)] = out.get((i, j), Fraction(0)) + cij
    return BiPoly(out)


def _reference_restrict_x(p, alpha):
    alpha = Fraction(alpha)
    out = {}
    for (a, b), c in p.terms.items():
        v = c * alpha ** a
        if v:
            out[b] = out.get(b, Fraction(0)) + v
    deg = max(out) if out else -1
    return poly_q([out.get(i, Fraction(0)) for i in range(deg + 1)])


def _reference_restrict_y(p, beta):
    beta = Fraction(beta)
    out = {}
    for (a, b), c in p.terms.items():
        v = c * beta ** b
        if v:
            out[a] = out.get(a, Fraction(0)) + v
    deg = max(out) if out else -1
    return poly_q([out.get(i, Fraction(0)) for i in range(deg + 1)])


def _assert_normal(p):
    """The BiPoly invariant: int exponents, nonzero Fraction coefficients."""
    for (a, b), c in p.terms.items():
        assert type(a) is int and type(b) is int
        assert type(c) is Fraction and c != 0


#: Shifts: zero, small, negative, and with large denominators.
shifts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-10**6, 10**6),
              st.integers(1, 10**12)),
)


@given(bipolys(), shifts, shifts)
@settings(max_examples=300, deadline=None)
def test_translate_matches_reference(p, dx, dy):
    q = p.translate(dx, dy)
    assert q.terms == _reference_translate(p, dx, dy).terms
    _assert_normal(q)


@given(bipolys(), shifts)
@settings(max_examples=200, deadline=None)
def test_translate_along_y_matches_reference(p, dy):
    # the only shift the blow-up kernel makes: dx = 0
    q = p.translate(0, dy)
    assert q.terms == _reference_translate(p, 0, dy).terms
    _assert_normal(q)
    assert q.translate(0, -dy) == p


@given(bipolys(), shifts)
@settings(max_examples=200, deadline=None)
def test_restrict_matches_reference(p, value):
    """The Fraction restriction the row tests compare against, against the
    per-term loops."""
    for v in (value, Fraction(0)):
        assert restrict(p, v, 0) == _reference_restrict_x(p, v)
        assert restrict(p, v, 1) == _reference_restrict_y(p, v)


def _positive_multiple(ints, coeffs):
    """Whether ints equals coeffs times one positive rational."""
    ratios = {Fraction(n) / c for n, c in zip(ints, coeffs) if c}
    return (len(ints) == len(coeffs)
            and all(bool(n) == bool(c) for n, c in zip(ints, coeffs))
            and len(ratios) <= 1 and all(r > 0 for r in ratios))


@given(bipolys(), st.sampled_from([0, Fraction(0), 1, -1, 2, -2,
                                   Fraction(3, 2), Fraction(-3, 2),
                                   Fraction(-5, 7)]))
@settings(max_examples=300, deadline=None)
def test_integer_restrictions_match_restrict(p, c):
    """The rows the bad-point scan reads, p(t, c) and p(0, t), each without
    a trailing zero and equal up to one positive factor, den v^D for
    c = u/v and D the y-degree, to the coefficients of the Fraction
    restrictions."""
    deg_y = max((b for _, b in p.nums), default=0)
    row = p.y_coeffs(c)
    assert not row or row[-1]
    assert _positive_multiple(row, restrict(p, c, 1))
    assert from_ints_q(row, p.den * Fraction(c).denominator ** deg_y) == \
        restrict(p, c, 1)
    row = p.x0_row()
    assert not row or row[-1]
    assert _positive_multiple(row, restrict(p, 0, 0))
    assert from_ints_q(row, p.den) == restrict(p, 0, 0)


@given(bipolys())
@settings(max_examples=100, deadline=None)
def test_chart_maps_keep_normal_form(p):
    for q in (p.subst_chart_a(), p.subst_chart_b(),
              p.subst_chart_a().divide_x_power(p.subst_chart_a().x_order()),
              p.subst_chart_b().divide_y_power(p.subst_chart_b().y_order())):
        _assert_normal(q)


@given(st.one_of(bipolys(), bipolys(terms=12, degree=8)))
@settings(max_examples=150, deadline=None)
def test_one_pass_chart_maps_divide_out_the_multiplicity(p):
    """subst_chart_a(k) is the pullback divided by x^k in one pass, and
    subst_chart_b(k) the pullback divided by y^k, for k = 0 and for the
    multiplicity at the origin, which is the power the pullback carries."""
    for k in {0, p.mult_at_origin()} - {INFINITE_MULT}:
        qa, qb = p.subst_chart_a(k), p.subst_chart_b(k)
        assert qa == p.subst_chart_a().divide_x_power(k)
        assert qb == p.subst_chart_b().divide_y_power(k)
        _assert_normal(qa)
        _assert_normal(qb)
    if not p.is_zero():
        m = p.mult_at_origin()
        assert p.subst_chart_a(m).x_order() == p.subst_chart_b(m).y_order() == 0


def test_kernel_on_zero_polynomial():
    z = BiPoly.zero()
    for dx, dy in ((0, 0), (0, Fraction(-3, 7)), (Fraction(2), Fraction(5))):
        assert z.translate(dx, dy).is_zero()
    assert z.x0_row() == []
    assert z.y_coeffs(0) == z.y_coeffs(Fraction(9)) == []


def test_translate_dense_row():
    # a full row of degree 40 at a shift with a large denominator
    p = P("(1 + 2/3*y)^40*x^3 - 1/5*y^17")
    dy = Fraction(-123456789, 10**9 + 7)
    assert p.translate(0, dy) == _reference_translate(p, 0, dy)
    assert p.translate(dy, 0) == _reference_translate(p, dy, 0)


# --- multiplicity --------------------------------------------------------------

def mult_at_point(p, pt):
    """Lowest total degree of the Taylor expansion of p at pt."""
    return p.translate(Fraction(pt[0]), Fraction(pt[1])).mult_at_origin()


def test_mult_monomial():
    assert mult_at_point(P("x^4*y"), (0, 0)) == 5


def test_mult_two_term():
    assert mult_at_point(P("x^7 + x*y^4"), (0, 0)) == 5


def test_mult_strict_part():
    assert mult_at_point(P("y + x^2 + y^4"), (0, 0)) == 1


def test_mult_zero_poly_infinite():
    assert mult_at_point(BiPoly.zero(), (0, 0)) == INFINITE_MULT


def test_mult_off_origin():
    assert mult_at_point(P("y^2 - x^2 - x^3"), (Fraction(-1), Fraction(0))) == 1


# --- gcd -----------------------------------------------------------------------

def test_gcd_golden_pair():
    assert gcd_bi(P("x^4*y"), P("x^7 + x*y^4")) == P("x")


def test_gcd_with_zero():
    assert gcd_bi(P("2*x + 2*y"), BiPoly.zero()) == P("x + y")


def test_gcd_coprime_by_trial_division():
    p, q = P("x^2*y"), P("x^3 + y^3")
    g = gcd_bi(p, q)
    assert g.is_constant()
    # independent oracle: no small nonunit common divisor exists
    for cand in ["x", "y", "x + y", "x - y", "x^2 + y^2"]:
        c = P(cand)
        assert not (divides(c, p) and divides(c, q))


@given(bipolys(), bipolys(), bipolys())
@settings(max_examples=60, deadline=None)
def test_gcd_divides_and_coprime_quotients(a, b, m):
    if a.is_zero() or b.is_zero():
        return
    p, q = a * m, b * m
    if p.is_zero() and q.is_zero():
        return
    g = gcd_bi(p, q)
    assert divides(g, p) and divides(g, q)
    if not m.is_zero():
        assert divides(m.monic_grlex(), g)
    if not (p.is_zero() or q.is_zero()):
        assert gcd_bi(p.divexact(g), q.divexact(g)).is_constant()


def test_squarefree_decomposition():
    h = P("x^2*y") * P("x + y") * P("x + y") * P("x + y")
    parts = dict()
    for f, e in squarefree_decomposition(h):
        parts[e] = f
    assert parts[1] == P("y")
    assert parts[2] == P("x")
    assert parts[3] == P("x + y")


def test_squarefree_decomposition_reconstructs():
    h = P("x^3*y^2") * P("x + y^2")
    prod = BiPoly.const(1)
    for f, e in squarefree_decomposition(h):
        prod = prod * f ** e
    # equal up to a rational unit
    assert prod.monic_grlex() == h.monic_grlex()


# --- curve-part kernel against the Fraction reference loops -------------------

def _reference_uni_mul(p, q):
    """p*q by the per-coefficient Fraction loop."""
    if not (p and q):
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_q(out)


def _reference_bi_mul(p, q):
    """p*q by the per-term Fraction loop."""
    out = {}
    for (a1, b1), c1 in p.terms.items():
        for (a2, b2), c2 in q.terms.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return BiPoly(out)


def _y_coefficients(p):
    """Coefficients of p as a polynomial in y over Q[x]."""
    rows = [{} for _ in range(max((b for _, b in p.terms), default=-1) + 1)]
    for (a, b), c in p.terms.items():
        rows[b][a] = c
    return [poly_q([row.get(i, 0) for i in range(max(row, default=-1) + 1)])
            for row in rows]


def _from_y_coefficients(coeffs):
    return BiPoly({(a, b): c for b, up in enumerate(coeffs)
                   for a, c in enumerate(up)})


def _reference_content(coeffs):
    """Monic content in Q[x] and the primitive coefficient list."""
    cont = ()
    for c in coeffs:
        if c:
            cont = gcd_q(cont, c)
    return cont, [divexact_q(c, cont) if c else c for c in coeffs]


def _reference_pseudo_rem(a, b):
    """Pseudo-remainder of a by b in (Q[x])[y], as coefficient lists."""
    a, db, lb = list(a), len(b) - 1, b[-1]
    while a and len(a) - 1 >= db:
        da, la = len(a) - 1, a[-1]
        a = [_reference_uni_mul(c, lb) for c in a]
        for i in range(db + 1):
            a[da - db + i] = sub_q(a[da - db + i], _reference_uni_mul(la, b[i]))
        while a and not a[-1]:
            a.pop()
    return a


def _reference_gcd_bi(p, q):
    """gcd in Q[x, y] by the primitive PRS over Q[x] coefficient lists."""
    if p.is_zero():
        return q.monic_grlex()
    if q.is_zero():
        return p.monic_grlex()
    cp, ap = _reference_content(_y_coefficients(p))
    cq, aq = _reference_content(_y_coefficients(q))
    if len(ap) < len(aq):
        ap, aq = aq, ap
    while aq:
        r = _reference_pseudo_rem(ap, aq)
        ap, aq = aq, _reference_content(r)[1] if r else []
    prim = _from_y_coefficients(_reference_content(ap)[1])
    cont = _from_y_coefficients([gcd_q(cp, cq)])
    return _reference_bi_mul(prim, cont).monic_grlex()


def _reference_squarefree(h):
    """Musser's loop: gcd(h, h_x, h_y) collects each factor to exponent one
    less."""
    if h.is_zero() or h.is_constant():
        return []
    hx = BiPoly({(a - 1, b): a * c for (a, b), c in h.terms.items() if a})
    hy = BiPoly({(a, b - 1): b * c for (a, b), c in h.terms.items() if b})
    g = _reference_gcd_bi(_reference_gcd_bi(hx, hy), h)
    c = h.divexact(g).monic_grlex()
    out, i = [], 1
    while not c.is_constant():
        y = _reference_gcd_bi(g, c) if not g.is_constant() else BiPoly.const(1)
        f = c.divexact(y).monic_grlex()
        if not f.is_constant():
            out.append((f, i))
        c = y.monic_grlex()
        g = g.divexact(y)
        i += 1
    return out


#: Coefficients with small and with large (up to 10^12) denominators.
small_coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)
large_coefficients = st.builds(Fraction, st.integers(-10**6, 10**6),
                               st.integers(1, 10**12))
coefficients = st.one_of(small_coefficients, large_coefficients)


@st.composite
def factors(draw, coefficients=small_coefficients, degree=2):
    """A nonconstant polynomial of at most the given degree in x only, y
    only, or both; its constant term may be nonzero."""
    kind = draw(st.sampled_from(("x", "y", "xy")))
    exps = [(a, b) for a in range(degree + 1) for b in range(degree + 1)
            if a + b <= degree
            and (kind != "x" or b == 0) and (kind != "y" or a == 0)]
    terms = {e: draw(coefficients) for e in draw(
        st.lists(st.sampled_from(exps), min_size=1, max_size=4, unique=True))}
    p = BiPoly(terms)
    return p if not p.is_constant() else p + BiPoly.monomial(
        *(exps[-1]), draw(st.integers(1, 3)))


@st.composite
def curve_parts(draw, count=3, power=3):
    """A unit times a product of powers of factors: exponents repeat, so
    content and primitive part can share one."""
    h = BiPoly.const(draw(coefficients.filter(bool)))
    for _ in range(draw(st.integers(0, count))):
        h = h * draw(factors()) ** draw(st.integers(1, power))
    if draw(st.booleans()):
        # one linear factor with large denominators: with more of them both
        # the PRS and the reference loops take seconds per example
        h = h * draw(factors(large_coefficients, 1))
    return h


def _assert_uni_normal(p):
    """The tuple form: Fraction coefficients, no trailing zero."""
    assert type(p) is tuple and all(type(c) is Fraction for c in p)
    assert not p or p[-1] != 0


def _y_derivative(p):
    return BiPoly({(a, b - 1): b * c for (a, b), c in p.terms.items() if b})


#: A member of the sparse family x^a*y^b - x*y - 16*x + y^c, whose gcd
#: with its y-derivative took the PRS 0.23 s here and over 20 s at
#: (20, 12, 15); the Fraction references take seconds past (10, 5, 7).
SPARSE = P("x^10*y^5 - x*y - 16*x + y^7")


@given(curve_parts(2, 3))
@example(SPARSE)
@settings(max_examples=100, deadline=None)
def test_squarefree_matches_musser(h):
    assert squarefree_decomposition(h) == _reference_squarefree(h)


@given(curve_parts())
@settings(max_examples=100, deadline=None)
def test_squarefree_is_a_factorization(h):
    parts = squarefree_decomposition(h)
    prod = BiPoly.const(1)
    for f, e in parts:
        assert f == f.monic_grlex() and squarefree_decomposition(f) == [(f, 1)]
        prod = prod * f ** e
    assert h.is_zero() or prod.monic_grlex() == h.monic_grlex()
    assert [e for _, e in parts] == sorted({e for _, e in parts})
    for i, (f, _) in enumerate(parts):
        for g, _ in parts[:i]:
            assert gcd_bi(f, g).is_constant()


def _int_poly(rows):
    """The polynomial of integer rows by y-degree, coefficients exact."""
    return BiPoly.from_ints({(a, b): v for b, row in enumerate(rows)
                             for a, v in enumerate(row) if v})


@given(curve_parts(2, 2), curve_parts(2, 2), curve_parts(2, 2))
@example(SPARSE, _y_derivative(SPARSE), BiPoly.const(1))
@example(P("-3*x*y"), P("3*x + 6"), P("-4*x^2*y^2"))  # read back twice
@example(P("x + y"), P("x - y"), BiPoly.const(1))  # the unit 1
@example(BiPoly.const(-3), P("x - 8"), BiPoly.const(1))  # the unit -1
@settings(max_examples=60, deadline=None)
def test_gcd_matches_reference(a, b, m):
    p, q = a * m, b * m
    assert gcd_bi(p, q) == _reference_gcd_bi(p, q)
    assert gcd_bi(p, BiPoly.zero()) == p.monic_grlex()
    # the cofactors, signs included, times the gcd give the inputs exactly
    rows = [poly._rows(f) for f in (p, q)]
    g, *cofactors = poly._gcd(*rows)
    assert poly._from_rows(g) == gcd_bi(p, q)
    for f, c in zip(rows, cofactors):
        assert _int_poly(g) * _int_poly(c) == _int_poly(f)


@pytest.mark.parametrize("text,expected", [
    ("x^3*(1 + x)^2", [("x + 1", 2), ("x", 3)]),             # content only
    ("5*y^3*(1 - 2*y)^2", [("y - 1/2", 2), ("y", 3)]),        # y only
    ("(1 + x)^2*(y - x)^2*y", [("y", 1), ("(1 + x)*(x - y)", 2)]),
    ("x*(1 + x + y)^40", [("x", 1), ("x + y + 1", 40)]),
    ("3/1000000000000*(x^2 - y)^3*(y + 1)", [("y + 1", 1), ("x^2 - y", 3)]),
])
def test_squarefree_cases(text, expected):
    h = P(text)
    assert squarefree_decomposition(h) == [(P(f), e) for f, e in expected]
    if h.total_degree() < 10:
        assert squarefree_decomposition(h) == _reference_squarefree(h)


def test_squarefree_zero_and_constant():
    assert squarefree_decomposition(BiPoly.zero()) == []
    assert squarefree_decomposition(BiPoly.const(Fraction(-7, 3))) == []


def test_gcd_zero_and_constant():
    with pytest.raises(ValueError):
        gcd_bi(BiPoly.zero(), BiPoly.zero())
    assert gcd_bi(BiPoly.const(Fraction(2, 3)), P("x + y")) == BiPoly.const(1)
    assert gcd_bi(BiPoly.zero(), P("1/2*x^2*y")) == P("x^2*y")


def test_gcd_powered_pair():
    p = P("(y + x + x*y)^20*x")
    q = P("(y + x + x*y)^20*y^2")
    assert gcd_bi(p, q) == P("(y + x + x*y)^20")


@pytest.mark.parametrize("a, b, cofactors", [
    ([0, 1], [-4, 1], ([1], [0, 1], [-4, 1])),  # x - 4 vanishes at xi = 4
    # 12 x^3 y^3 and -12 x^2 y^2 (x^2 + 2 x), found by a seeded search
    ([[], [], [], [0, 0, 0, 12]], [[], [], [0, 0, -24, -12]],
     ([[], [], [0, 0, 1]], [[], [0, 12]], [[-24, -12]])),
])
def test_gcd_read_back_retries(monkeypatch, a, b, cofactors):
    """The first read-back at xi = 2 min(|a|, |b|) + 2 fails the division
    test, so xi grows once and the gcd, with its cofactors, comes out
    right."""
    xis = []
    original = poly._digits

    def digits(v, xi):
        xis.append(xi)
        return original(v, xi)

    monkeypatch.setattr(poly, "_digits", digits)
    xi = 2 * min(max(map(abs, poly._ints(p))) for p in (a, b)) + 2
    assert poly._gcd(a, b) == cofactors
    assert xi in xis and xi * 73794 // 27011 in xis


def _count_calls(monkeypatch, *names):
    """The names of the calls made to the named `poly` functions."""
    calls = []
    for name in names:
        real = getattr(poly, name)
        monkeypatch.setattr(poly, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    return calls


@pytest.mark.parametrize("a, b, cofactors", [
    ([1, 1], [-1, 1], ([1], [1, 1], [-1, 1])),  # Z[x], the unit 1
    ([[0, 1], [1]], [[0, 1], [-1]],  # Z[x][y]: x + y, x - y
     ([[1]], [[0, 1], [1]], [[0, 1], [-1]])),
    # -3 and x - 8: xi = 8 is the root of x - 8, so the read-back is -1
    ([[-3]], [[-8, 1]], ([[-1]], [[3]], [[8, -1]])),
])
def test_unit_gcd_takes_no_division(monkeypatch, a, b, cofactors):
    """A unit candidate divides both inputs, so it is their gcd (GCDHEU's
    lemma): `_gcd` returns it with the inputs, negated for -1, as the
    cofactors, and tests no division."""
    rows = isinstance(a[-1], list)
    div = poly._rdivexact if rows else poly._zdivexact
    g = cofactors[0]
    assert cofactors == (g, div(a, g), div(b, g))
    calls = _count_calls(monkeypatch, "_zdivexact", "_rdivexact")
    assert poly._gcd(a, b) == cofactors
    assert calls == []


def _coefficient(rng, bits=40):
    """A nonzero rational of numerator and denominator below 2^bits."""
    return Fraction(rng.randrange(1, 2 ** bits) * rng.choice((1, -1)),
                    rng.randrange(1, 2 ** bits))


def _dense(rng, degree):
    """Every monomial of total degree <= degree, with random coefficients."""
    return BiPoly({(a, b): _coefficient(rng) for a in range(degree + 1)
                   for b in range(degree + 1 - a)})


def _eisenstein(rng, c, d):
    """y^d + sum (x - c) r_i(x) y^i, i < d, with deg r_i = d - 1 - i and
    r_0(c) != 0: dense in total degree d, and irreducible by Eisenstein's
    criterion at the prime x - c of Q[x]."""
    f = BiPoly.monomial(0, d)
    for i in range(d):
        r = {(a, i): _coefficient(rng) for a in range(d - i)}
        assert i or sum(v * c ** a for (a, _), v in r.items())
        f = f + P(f"x - ({c})") * BiPoly(r)
    return f


def test_heavy_gcds_match_their_construction():
    """Inputs the Fraction references cannot take (Musser's loop ran past
    90 s on a dense f^2 g of degree 9), checked against gcds known by
    construction: each pair of cofactors is an irreducible polynomial and
    one it does not divide."""
    rng = random.Random(24)
    # f^2 g, f and g irreducible and distinct: 91 terms, total degree 12
    f, g = _eisenstein(rng, 1, 4), _eisenstein(rng, -1, 4)
    h = f * f * g
    assert len(h.nums) == 91 and f.monic_grlex() != g.monic_grlex()
    # gcd(u m, v m) = m, dense of total degree 11
    u, v, m = _eisenstein(rng, 2, 5), _dense(rng, 5), _dense(rng, 6)
    assert u.monic_grlex() != v.monic_grlex()
    # gcd(p n, q n) = n in Z[x], of degrees 65 and 66 and ~1,010 bits, with
    # p irreducible by Eisenstein's criterion at 2
    p = [2 * rng.randrange(-2 ** 499, 2 ** 499) for _ in range(34)] + [1]
    p[0] = 2 * (2 * rng.randrange(2 ** 498) + 1)
    q, n = ([rng.randrange(-2 ** 500, 2 ** 500) for _ in range(k + 1)]
            for k in (35, 31))
    assert divmod_q(poly_q(q), poly_q(p))[1]
    with deadline(2):
        assert squarefree_decomposition(h) == [(g.monic_grlex(), 1),
                                               (f.monic_grlex(), 2)]
    with deadline(2):
        assert gcd_bi(u * m, v * m) == m.monic_grlex()
    with deadline(2):
        assert row_q(row_gcd([_zmul(p, n), _zmul(q, n)])) == row_q(n)


# --- curve part from the typed products of powers -----------------------------

def _reference_curve_part(gens):
    """The curve part from the expanded generators: one gcd chain, Yun's
    split of the gcd h, and the exact quotients by h."""
    h = reduce(gcd_bi, gens)
    if len(gens) == 1:
        return squarefree_decomposition(h), [BiPoly.const(h.lead_grlex()[1])]
    if h.is_constant():
        return [], list(gens)
    return squarefree_decomposition(h), [g.divexact(h) for g in gens]


def _lead_route_curve_part(gens):
    """The curve part by the earlier route, kept as an oracle: each
    generator's lead read by `lead_grlex`, and every quotient rebuilt
    through `_expand` from lead and monic bases, also when the generators
    share no factor."""
    n = len(gens)
    xs, ys = [0] * n, [0] * n
    exps = {}
    for i, g in enumerate(gens):
        for b, e in g.factors if isinstance(g, poly._Product) else ((g, 1),):
            a, c = b.x_order(), b.y_order()
            xs[i] += a * e
            ys[i] += c * e
            if len(b.nums) > 1:
                r = b.divide_x_power(a).divide_y_power(c).monic_grlex()
                exps.setdefault(r, [0] * n)[i] += e
    common = [b for b, es in exps.items() if es[0]]
    for i in range(1, n):
        gcds = (c if c == b else gcd_bi(c, b)
                for c in common for b, es in exps.items() if es[i])
        common = list(dict.fromkeys(d for d in gcds if not d.is_constant()))
    base = [(BiPoly.x(), xs), (BiPoly.y(), ys)]
    base += blowup._refine(list(exps.items())) if common else exps.items()
    parts = {}
    for k, (p, es) in enumerate(base):
        if m := min(es):
            for q, j in ((p, 1),) if k < 2 else squarefree_decomposition(p):
                parts[j * m] = parts[j * m] * q if j * m in parts else q
    split = [(parts[e], e) for e in sorted(parts)]
    return split, [poly._expand(g.lead_grlex()[1], [
        (p, k) for p, es in base if (k := es[i] - min(es))])
        for i, g in enumerate(gens)]


def _assert_lead_route(texts):
    """curve_part agrees with the lead route, its residuals plain; each side
    parses its own generators, so neither sees the other's expansions."""
    split, residual = curve_part([P(t) for t in texts])
    assert (split, residual) == _lead_route_curve_part([P(t) for t in texts])
    assert {type(r) for r in residual} == {BiPoly}


@st.composite
def factored_ideals(draw):
    """Generators typed as products of powers: a unit, x and y powers, and
    parenthesized bases drawn as products of a few shared factors, so that
    bases repeat, share factors and need not be squarefree; some powers
    nested."""
    pool = draw(st.lists(factors(), min_size=1, max_size=3))
    texts = []
    for _ in range(draw(st.integers(1, 3))):
        parts = [f"({frac_str(draw(small_coefficients.filter(bool)))})"]
        for var in "xy":
            if k := draw(st.integers(0, 2)):
                parts.append(f"{var}^{k}")
        for _ in range(draw(st.integers(0, 3))):
            base = reduce(BiPoly.__mul__, draw(st.lists(
                st.sampled_from(pool), min_size=1, max_size=2)))
            power = f"({poly_to_str(base)})^{draw(st.integers(1, 2))}"
            parts.append(f"({power})^2" if draw(st.booleans()) else power)
        text = "*".join(parts)
        texts.append(text if (0, 0) not in P(text).nums else text + "*x")
    return texts


@given(factored_ideals())
@settings(max_examples=80, deadline=None)
def test_initial_state_factored_matches_expanded(texts):
    """The curve part read from the typed factors is the one the expanded
    generators give: carriers, strict records and residuals, constants
    included."""
    gens = [P(t) for t in texts]
    expanded = [P(poly_to_str(g)) for g in gens]
    assert curve_part(gens) == _reference_curve_part(expanded)
    assert curve_part(expanded) == _reference_curve_part(expanded)
    a, b = initial_state(gens), initial_state(expanded)
    assert a.carriers == b.carriers
    assert a.strict_records == b.strict_records
    assert a.leaves[0].residual == b.leaves[0].residual


#: Three generators sharing y^2 - x^3, with distinct cofactors.
_SHARED_FACTOR_TEXTS = ("(y^2 - x^3)*(x + y)*x", "(y^2 - x^3)*(x - y^2)",
                        "(y^2 - x^3)*(y - x^2)^2*y")


@pytest.mark.parametrize("texts", [
    ["x*(1 + x + y)^24"], ["(y^2 - x^3)^12*x", "(y^2 - x^3)^12*y"],
    ["(y + x + x*y)^16*y^2", "(y + x + x*y)^16*x"],
    ["x*x*(y - x^2)*(y - x^2)^2", "(y^2 - x^4)*(y - x^2)^2*y"],
    ["(x^2 - y^2)^2", "(x + y)^3*(x - y)*x^2"], ["x^4*y", "x^7 + x*y^4"],
    ["(x*y)^2*(x - y)", "x^2*y^2*(x + y)", "x^3*y^3"],
    # typed expanded: distinct bases sharing a factor, their cofactors
    # sharing x + y in two of the three in the second
    [poly_to_str(P(t)) for t in _SHARED_FACTOR_TEXTS],
    [poly_to_str(P(t)) for t in ("(y - x^2)*(x + y)*(x - y)",
                                 "(y - x^2)*(x + y)*(x + 2*y)",
                                 "(y - x^2)*(x - 3*y)")],
])
def test_curve_part_cases(texts):
    gens = [P(t) for t in texts]
    expanded = [P(poly_to_str(g)) for g in gens]
    assert curve_part(gens) == _reference_curve_part(expanded)
    assert curve_part(expanded) == _reference_curve_part(expanded)
    _assert_lead_route(texts)
    _assert_lead_route([poly_to_str(g) for g in expanded])


@pytest.mark.parametrize("texts", [
    ["(1 + x)*(y - x^2)", "x^3 + y^5"], ["x^2*y", "x^3 + y^2"],
    ["(x + y)^2*y", "x^3"], ["x*(1 + x + y)^24"],
])
def test_residuals_are_plain_polynomials(texts):
    """Typed products sharing no factor are their own residuals, passed on
    expanded as plain BiPolys, the only kind the chart transforms see."""
    residual = curve_part([P(t) for t in texts])[1]
    assert {type(r) for r in residual} == {BiPoly}


def _recorded_ideals():
    """The 111-ideal corpus, the benchmark's corpus pool and every ideal of
    the benchmark's workloads that parses."""
    ideals = [gens for _, gens in corpus() + pool_entries()]
    for texts in (t for w in perfbench_ideals().values() for t in w):
        try:
            ideals.append([P(t) for t in texts])
        except (ParseError, DegreeCapExceeded):
            pass
    return ideals


def test_curve_part_matches_reference_on_recorded_ideals():
    """x and y skip Yun's split, which returns each of them unchanged; the
    curve part of every recorded ideal is the expanded gcd chain's."""
    x, y = BiPoly.x(), BiPoly.y()
    assert squarefree_decomposition(x) == [(x, 1)]
    assert squarefree_decomposition(y) == [(y, 1)]
    ideals = _recorded_ideals()
    assert len(ideals) > 111 + 240
    for gens in ideals:
        gens = [g for g in gens if not g.is_zero()]
        expanded = [P(poly_to_str(g)) for g in gens]
        assert curve_part(gens) == _reference_curve_part(expanded), gens


def test_curve_part_matches_lead_route_on_benchmark_ops():
    """Every nonzero ideal of the recorded benchmark operations, in each
    generator order recorded, gives the lead route's curve part."""
    ops = json.loads((PERFBENCH / "expected.json").read_text(
        encoding="utf-8"))["ops"]
    ideals = {}
    for key in ops:
        argv = json.loads(key)
        if "--" not in argv:
            continue
        try:
            nonzero = tuple(t for t in argv[argv.index("--") + 1:]
                            if not P(t).is_zero())
        except (ParseError, DegreeCapExceeded):
            continue
        if nonzero:
            ideals[nonzero] = None
    assert len(ideals) > 700
    for texts in ideals:
        _assert_lead_route(texts)


def test_curve_part_splits_no_coordinate(monkeypatch):
    """A monomial ideal's curve part is x^a y^b: no Yun's split runs."""
    calls = []
    monkeypatch.setattr(blowup, "squarefree_decomposition",
                        lambda p: calls.append(p) or [])
    split, _ = curve_part([P("x^3*y"), P("x^2*y^5"), P("x^4*y^3")])
    assert split == [(P("y"), 1), (P("x"), 2)] and calls == []


def test_curve_part_expanded_refines_its_bases(monkeypatch):
    """Generators typed expanded, with a common factor and nonconstant
    cofactors, take the one route every curve part takes: the gcd chain
    (2 gcds) finds the common factor, and factor refinement of the three
    distinct bases (12 gcds) splits it off, as the gcd chain on the
    expanded generators does."""
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return gcd_bi(p, q)

    monkeypatch.setattr(blowup, "gcd_bi", counted)
    expanded = [P(poly_to_str(P(t))) for t in _SHARED_FACTOR_TEXTS]
    assert curve_part(expanded) == _reference_curve_part(expanded)
    assert len(calls) == 14


@given(bipolys(), bipolys())
@settings(max_examples=200, deadline=None)
def test_bi_mul_matches_reference(p, q):
    r = p * q
    assert r == _reference_bi_mul(p, q)
    _assert_normal(r)


def test_monomial_product_takes_the_fast_path_either_way(monkeypatch):
    """A one-term factor on either side shifts the other's terms: no
    general product."""
    calls = []
    monkeypatch.setattr(poly, "_product", lambda p, q: calls.append(1) or
                        _product(p, q))
    m, p = BiPoly.monomial(1, 1, Fraction(-2, 3)), P("(1 - x - y)^14")
    assert len(p.nums) == 120
    calls.clear()
    assert m * p == p * m == _reference_bi_mul(m, p)
    assert calls == []


@given(st.lists(coefficients, max_size=6), st.lists(coefficients, max_size=6))
@settings(max_examples=200, deadline=None)
def test_uni_mul_matches_reference(ca, cb):
    p, q = poly_q(ca), poly_q(cb)
    r = from_ints_q(_zmul(nums_q(p), nums_q(q)), den_q(p) * den_q(q))
    assert r == _reference_uni_mul(p, q)
    _assert_uni_normal(r)


@given(st.lists(coefficients, max_size=6), st.lists(coefficients, max_size=6))
@settings(max_examples=150, deadline=None)
def test_uni_outputs_keep_normal_form(ca, cb):
    """Integer rows from every kernel, over any denominator, as the zeta
    numerator: in lowest terms with no trailing zero."""
    p, q = poly_q(ca), poly_q(cb)
    pn, qn = nums_q(p), nums_q(q)
    rows = [_zmul(pn, qn), pn[::-1], [0, 0, *pn, 0],
            BiPoly({(i, i % 2): c for i, c in enumerate(ca)}).y_coeffs(0),
            BiPoly({(i % 2, i): c for i, c in enumerate(cb)}).x0_row()]
    if q:
        rows += [row_gcd([pn, qn]), squarefree_part(qn)]
    outputs = [RationalFunctionS(row, den, ()) for row in rows
               for den in (1, -3, den_q(p))]
    for r in outputs:
        _assert_canonical(r)


# --- univariate ----------------------------------------------------------------

def distinct_root_count(p):
    """Number of distinct complex zeros: the degree of the squarefree part."""
    if not p:
        raise ValueError("zero polynomial has no root count")
    return len(squarefree_part(nums_q(p))) - 1


def test_distinct_root_count_basic():
    v = var_q()
    p = mul_q(mul_q(v, v), sub_q(v, const_q(1)))
    assert distinct_root_count(p) == 2


def test_distinct_root_count_cubic_shift():
    # c1 + c2 v^3 with nonzero coefficients is squarefree: three roots
    p = poly_q([Fraction(5), 0, 0, Fraction(-7)])
    assert distinct_root_count(p) == 3
    assert len(row_gcd([nums_q(p), nums_q(derivative_q(p))])) == 1


def test_distinct_root_count_constant():
    assert distinct_root_count(const_q(3)) == 0


def test_distinct_root_count_zero_errors():
    with pytest.raises(ValueError):
        distinct_root_count(poly_q())


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5), min_size=1, max_size=5))
@settings(max_examples=80)
def test_distinct_root_count_subadditive(ca, cb):
    p, q = poly_q(ca), poly_q(cb)
    if not (p and q):
        return
    total = distinct_root_count(mul_q(p, q))
    assert total <= distinct_root_count(p) + distinct_root_count(q)
    if len(gcd_q(p, q)) == 1:
        assert total == distinct_root_count(p) + distinct_root_count(q)


def test_rational_roots_with_multiplicity():
    v = var_q()
    half = sub_q(v, const_q(Fraction(1, 2)))
    p = mul_q(mul_q(mul_q(half, half), poly_q([3, 1])), v)
    roots, cofactor = rational_roots(nums_q(p))
    assert dict(roots) == {Fraction(0): 1, Fraction(1, 2): 2, Fraction(-3): 1}
    assert cofactor == [1]


def test_rational_roots_linear_takes_no_divisors():
    # trial division up to the square root of a 60-bit constant would not
    # finish; a linear primitive part has its root read off
    c = 2**60 + 5
    with mock.patch.object(poly, "_divisors",
                           side_effect=AssertionError("trial division")):
        roots, cofactor = rational_roots([c, 3])
        assert roots == [(Fraction(-c, 3), 1)]
        assert cofactor == [1]
        roots, cofactor = rational_roots([0, 0, -4 * c, 14])
        assert roots == [(Fraction(0), 2), (Fraction(2 * c, 7), 1)]
        assert cofactor == [1]


def test_rational_roots_leftover():
    roots, cofactor = rational_roots([2, -2, -1, 1])  # (t^2 - 2)(t - 1)
    assert dict(roots) == {Fraction(1): 1}
    assert cofactor in ([-2, 0, 1], [2, 0, -1])


def test_squarefree_part():
    # t^2 (t - 2), primitive: t (t - 2) up to sign
    assert squarefree_part([0, 0, -2, 1]) in ([0, -2, 1], [0, 2, -1])
    assert squarefree_part([0, 0, 6, -3, 0]) in ([0, -2, 1], [0, 2, -1])
    with pytest.raises(ValueError):
        squarefree_part([0, 0])


# --- univariate kernel against the Fraction reference loops --------------------

def _reference_compose_affine(p, scale, offset):
    """p(scale*t + offset) by Horner on Fraction products."""
    arg = poly_q([Fraction(offset), Fraction(scale)])
    acc = ()
    for c in reversed(p):
        acc = mul_q(acc, arg)
        acc = poly_q([acc[0] + c if acc else c, *acc[1:]])
    return acc


def _reference_rational_roots(p):
    """Every divisor candidate tested by Fraction evaluation, each root
    divided out in Q[t]."""
    if not p:
        raise ValueError("zero polynomial")
    roots = []
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    if k:
        roots.append((Fraction(0), k))
        p = poly_q(p[k:])
    if len(p) <= 1:
        return roots, monic_q(p)
    ints = nums_q(p)
    g = math.gcd(*ints)
    a0, an = ints[0] // g, ints[-1] // g
    cands = {Fraction(s * u, v) for u in _reference_divisors(a0)
             for v in _reference_divisors(an) for s in (1, -1)}
    for r in sorted(cands):
        mult = 0
        while len(p) > 1 and eval_q(p, r) == 0:
            p = divexact_q(p, poly_q([-r, 1]))
            mult += 1
        if mult:
            roots.append((r, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, monic_q(p)


def _reference_divisors(n):
    n = abs(n)
    return [d for d in range(1, math.isqrt(n) + 1) if n % d == 0] + \
        [n // d for d in range(math.isqrt(n), 0, -1)
         if n % d == 0 and d * d != n]


#: Univariate polynomials: zero, constants, small and large coefficients.
unipolys = st.lists(coefficients, max_size=6).map(poly_q)
#: Rational roots with small numerators and denominators, so that roots
#: repeat and the divisor lists stay short.
small_roots = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def root_rich(draw, roots=small_roots, count=5):
    """A nonzero multiple of a product of rational linear factors, some of
    them repeated, times at most one factor without rational roots."""
    p = const_q(draw(st.sampled_from(
        [Fraction(1), Fraction(-7, 3), Fraction(10**6, 10**9 + 7)])))
    for r in draw(st.lists(roots, max_size=count)):
        p = mul_q(p, poly_q([-r, 1]))
    extra = draw(st.sampled_from([(), (2, 0, 1), (-2, 0, 1), (1, 1, 1)]))
    return mul_q(p, poly_q(extra)) if extra else p


@given(unipolys, unipolys, unipolys)
@example(poly_q([0, 1]), poly_q([-4, 1]), poly_q([1]))  # read back twice
@example(poly_q([1, 1]), poly_q([-1, 1]), poly_q([1]))  # the unit 1
# rows equal up to sign and content
@example(poly_q([1, 2, -3]), poly_q([-2, -4, 6]), poly_q([1]))
@settings(max_examples=120, deadline=None)
def test_row_gcd_matches_reference(p, q, m):
    pm, qm = mul_q(p, m), mul_q(q, m)
    for a, b in ((p, q), (pm, qm), (m, pm), (p, poly_q())):
        g = row_gcd([nums_q(a), nums_q(b)])
        assert row_q(g) == gcd_q(a, b)
        assert not g or (g[-1] and math.gcd(*g) == 1)
        if a and b:
            # _gcd's sign, and cofactors whose products give a and b
            ra, rb = nums_q(a), nums_q(b)
            h, ca, cb = poly._gcd(ra, rb)
            assert len(g) == 1 or g == h
            assert _zmul(h, ca) == ra and _zmul(h, cb) == rb
    # the chain stops at a constant gcd, whatever follows
    chained = row_gcd([nums_q(pm), nums_q(qm), nums_q(m)])
    assert row_q(chained) == gcd_q(gcd_q(pm, qm), m) or (
        len(row_gcd([nums_q(pm), nums_q(qm)])) == 1 and chained == [1])
    assert row_gcd([]) == row_gcd([[], [0, 0]]) == []


@given(st.one_of(unipolys, root_rich()), unipolys)
@settings(max_examples=120, deadline=None)
def test_squarefree_part_matches_reference(p, m):
    mm = mul_q(m, m)
    for a in (p, mul_q(p, mm), mul_q(m, mm)):
        if not a:
            with pytest.raises(ValueError):
                squarefree_part(nums_q(a))
            continue
        s = squarefree_part(nums_q(a))
        assert row_q(s) == squarefree_q(a)
        assert s[-1] and math.gcd(*s) == 1


@given(st.one_of(unipolys, root_rich()), coefficients, coefficients)
@settings(max_examples=120, deadline=None)
def test_compose_affine_matches_reference(p, scale, offset):
    """The Fraction compose_affine the zero-data tests compare against."""
    for s, o in ((scale, offset), (scale, 0), (0, offset), (1, 0)):
        q = compose_affine(p, s, o)
        assert q == _reference_compose_affine(p, s, o)
        _assert_uni_normal(q)


@given(st.one_of(unipolys, root_rich()), coefficients, st.sampled_from("AB"))
@settings(max_examples=150, deadline=None)
def test_zeros_in_birth_matches_compose_affine(p, offset, side):
    """The birth-coordinate rows (an integer Taylor shift) against
    compose_affine in Fraction, up to a nonzero factor."""
    if len(p) < 2:
        return
    for o in (offset, 0):
        row, inf = zeros_in_birth(PointMap(side, Fraction(o)), nums_q(p))
        tau = compose_affine(p, Fraction(1), -Fraction(o))
        if side == "A":
            assert (row_q(row), inf) == (squarefree_q(tau), False)
        else:
            assert (row_q(row), inf) == (squarefree_q(reversed_q(tau)),
                                         tau[0] == 0)
        assert row[-1] and math.gcd(*row) == 1


@given(st.one_of(root_rich(), root_rich(st.builds(
    Fraction, st.integers(-3000, 3000), st.integers(1, 400)), count=2),
    st.lists(small_coefficients, max_size=5).map(poly_q)))
@settings(max_examples=120, deadline=None)
def test_rational_roots_match_reference(p):
    if not p:
        with pytest.raises(ValueError):
            rational_roots(nums_q(p))
        return
    roots, cofactor = rational_roots(nums_q(p))
    assert (roots, row_q(cofactor)) == _reference_rational_roots(p)
    assert cofactor[-1] and math.gcd(*cofactor) == 1


@given(st.one_of(unipolys, root_rich()), st.one_of(unipolys, root_rich()),
       root_rich())
@settings(max_examples=120, deadline=None)
def test_union_zero_data_matches_lcm_reference(a, b, m):
    """The union of two zero sets: the lcm of their squarefree rows."""
    for x, y in ((a, b), (mul_q(a, m), mul_q(b, m)), (m, m)):
        if not (x and y):
            continue
        sx, sy = squarefree_part(nums_q(x)), squarefree_part(nums_q(y))
        for fx, fy in ((False, False), (True, False), (False, True)):
            row, inf = union_zero_data((sx, fx), (sy, fy))
            assert row_q(row) == lcm_q(squarefree_q(x), squarefree_q(y))
            assert inf == (fx or fy)
        assert union_zero_data(None, (sx, True)) == (sx, True)


# --- integer kernel against the Fraction kernels it replaced -------------------
#
# The kernels below compute one Fraction per coefficient, as the chart kernel
# did before it stored integer numerators over one denominator.

def _reference_numerators(cs):
    den = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _reference_fraction_product(p, q):
    """p*q for {packed exponent: Fraction}: the numerators of each factor
    over its common denominator convolved, one Fraction per output."""
    pn, pd = _reference_numerators(list(p.values()))
    qn, qd = _reference_numerators(list(q.values()))
    qs = list(zip(q, qn))
    acc = {}
    for i, a in zip(p, pn):
        for j, b in qs:
            acc[i + j] = acc.get(i + j, 0) + a * b
    return {k: Fraction(n, pd * qd) for k, n in acc.items() if n}


def _reference_shift_rows(terms, delta, axis):
    """{exponents: Fraction} with the variable of index axis replaced by
    itself plus delta: per row, the integer Taylor shift over L v^D, one
    Fraction per output coefficient."""
    u, v = delta.numerator, delta.denominator
    rows = {}
    for e, c in terms.items():
        rows.setdefault(e[1 - axis], {})[e[axis]] = c
    out = {}
    for key, row in rows.items():
        deg = max(row)
        vpow = [v ** k for k in range(deg + 1)]
        nums, den = _reference_numerators(list(row.values()))
        a = [0] * (deg + 1)
        for j, n in zip(row, nums):
            a[j] = n * vpow[deg - j]
        for i in range(deg):
            acc = a[deg]
            for j in range(deg - 1, i - 1, -1):
                acc = a[j] + u * acc
                a[j] = acc
        for j, n in enumerate(a):
            if n:
                out[(key, j) if axis else (j, key)] = \
                    Fraction(n, den * vpow[deg - j])
    return out


def _reference_restrict(p, value, axis):
    """The variable of index axis set to value, by a power table."""
    value, other = Fraction(value), 1 - axis
    if value == 0:
        out = {e[other]: c for e, c in p.terms.items() if not e[axis]}
    else:
        powers = [Fraction(1)]
        for _ in range(max((e[axis] for e in p.terms), default=0)):
            powers.append(powers[-1] * value)
        out = {}
        for e, c in p.terms.items():
            out[e[other]] = out.get(e[other], Fraction(0)) + \
                c * powers[e[axis]]
    return poly_q([out.get(i, 0) for i in range(max(out, default=-1) + 1)])


def _reference_eval(p, px, py):
    px, py = Fraction(px), Fraction(py)
    total = Fraction(0)
    for (a, b), c in p.terms.items():
        total += c * px ** a * py ** b
    return total


def _reference_divexact(p, d):
    """Long division by the graded-lex leading term in Fraction."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    key = (lambda e: (e[0] + e[1], e[0]))
    rem, dt = p.terms, d.terms
    de = max(dt, key=key)
    quo = {}
    while rem:
        re = max(rem, key=key)
        ea, eb = re[0] - de[0], re[1] - de[1]
        if ea < 0 or eb < 0:
            raise ValueError("inexact bivariate division")
        c = rem[re] / dt[de]
        quo[(ea, eb)] = quo.get((ea, eb), Fraction(0)) + c
        for (a, b), v in dt.items():
            e = (a + ea, b + eb)
            r = rem.get(e, Fraction(0)) - c * v
            if r:
                rem[e] = r
            else:
                rem.pop(e, None)
    return BiPoly(quo)


def _assert_canonical(p):
    """Integer numerators over one denominator den >= 1 in lowest terms:
    no zero numerator in a BiPoly, no trailing zero in a zeta numerator."""
    if isinstance(p, BiPoly):
        den, nums = p.den, list(p.nums.values())
        assert all(type(a) is int and type(b) is int for a, b in p.nums)
        assert all(nums)
    else:
        den, nums = p.scale, list(p.nums)
        assert type(p.nums) is tuple and (not nums or nums[-1])
    assert type(den) is int and den >= 1
    assert all(type(n) is int for n in nums)
    assert math.gcd(den, *nums) == 1


#: Bivariate polynomials with small or with large (up to 10^12)
#: denominators.
any_bipolys = st.one_of(bipolys(), bipolys(coefficients))


@given(any_bipolys, any_bipolys)
@settings(max_examples=200, deadline=None)
def test_product_matches_fraction_kernel(p, q):
    r = p * q
    _assert_canonical(r)
    if p.is_zero() or q.is_zero():
        assert r.is_zero()
        return
    s = max(b for _, b in p.nums) + max(b for _, b in q.nums) + 1
    out = _product({a * s + b: n for (a, b), n in p.nums.items()},
                   {a * s + b: n for (a, b), n in q.nums.items()})
    want = _reference_fraction_product(
        {a * s + b: c for (a, b), c in p.terms.items()},
        {a * s + b: c for (a, b), c in q.terms.items()})
    assert {k: Fraction(n, p.den * q.den) for k, n in out.items() if n} == want
    assert r.terms == {divmod(k, s): c for k, c in want.items()}


@given(any_bipolys, shifts)
@settings(max_examples=200, deadline=None)
def test_shift_rows_matches_fraction_kernel(p, delta):
    if p.is_zero():
        return
    for axis in (0, 1):
        nums, den = _shift_rows(p.nums, p.den, delta, axis)
        assert {e: Fraction(n, den) for e, n in nums.items()} == \
            _reference_shift_rows(p.terms, delta, axis)
    for q in (p.translate(delta, 0), p.translate(0, delta),
              p.translate(delta, delta)):
        _assert_canonical(q)


@given(any_bipolys, shifts)
@settings(max_examples=200, deadline=None)
def test_restrict_matches_fraction_kernel(p, value):
    """The Fraction restriction oracle against the power table."""
    for v in (value, Fraction(0)):
        for axis in (0, 1):
            r = restrict(p, v, axis)
            assert r == _reference_restrict(p, v, axis)
            _assert_uni_normal(r)


@given(any_bipolys, shifts, shifts)
@settings(max_examples=200, deadline=None)
def test_eval_matches_fraction_kernel(p, px, py):
    """Evaluation as `Chart.divisors_through` makes it: `_zhorner` at px
    over the row `y_coeffs(py)`, of degree d at most deg_x, over
    den v_y^deg_y v_x^d."""
    deg_y = max((b for _, b in p.nums), default=0)
    row = p.y_coeffs(py)
    assert len(row) <= max((a for a, _ in p.nums), default=0) + 1
    scale = p.den * Fraction(py).denominator ** (deg_y if py else 0) * \
        Fraction(px).denominator ** max(len(row) - 1, 0)
    value = Fraction(_zhorner(row, px.numerator, px.denominator), scale)
    assert value == _reference_eval(p, px, py) == eval_bi(p, px, py)


@given(any_bipolys, any_bipolys, any_bipolys)
@settings(max_examples=150, deadline=None)
def test_divexact_matches_fraction_kernel(a, b, d):
    if not b.is_zero():
        q = (a * b).divexact(b)
        assert q == _reference_divexact(a * b, b) == a
        _assert_canonical(q)
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divexact(d)
        return
    try:
        want = _reference_divexact(a, d)
    except ValueError:
        with pytest.raises(ValueError):
            a.divexact(d)
        assert not divides(d, a)
    else:
        assert a.divexact(d) == want
        _assert_canonical(want)


def test_divexact_inexact_cases():
    for p, d in (("y", "x"), ("x", "2*x + 1"), ("x^2 + y", "x + y"),
                 ("1/3*x*y", "x^2"), ("x^2 - y^2", "x + 2*y")):
        with pytest.raises(ValueError):
            _reference_divexact(P(p), P(d))
        with pytest.raises(ValueError):
            P(p).divexact(P(d))
    assert P("6*x^2*y - 3/7*y").divexact(P("-3/2*y")) == P("-4*x^2 + 2/7")


@given(any_bipolys, unipolys)
@settings(max_examples=100, deadline=None)
def test_kernel_outputs_are_canonical(p, u):
    outs = [p + p, p - p, -p, p * BiPoly.const(Fraction(-10**12, 7)),
            p.monic_grlex(), p.subst_chart_a(), p.subst_chart_b(), p * p,
            p.divide_x_power(p.x_order()), p.divide_y_power(p.y_order()),
            RationalFunctionS(_zmul(nums_q(u), nums_q(u)), den_q(u) ** 2, ())]
    if u:
        rows = [squarefree_part(nums_q(u)),
                row_gcd([nums_q(u), nums_q(derivative_q(u))])]
        outs += [RationalFunctionS(row, 1, ()) for row in rows]
    for r in outs:
        _assert_canonical(r)
    assert BiPoly(p.terms) == p
    assert hash(BiPoly(p.terms)) == hash(p)


# --- products and powers against the schoolbook loop ---------------------------

def _reference_product(p, q):
    """The schoolbook convolution of {packed exponent: numerator}, one
    product per term pair, zero outputs dropped."""
    acc = {}
    for i, a in p.items():
        for j, b in q.items():
            acc[i + j] = acc.get(i + j, 0) + a * b
    return {k: n for k, n in acc.items() if n}


#: Nonzero numerators: small ones, ones up to 10^12, and ones at and next
#: to powers of two.
numerators = st.one_of(
    st.integers(-9, 9), st.integers(-10**12, 10**12),
    st.builds(lambda bits, d, sign: sign * (2 ** bits + d),
              st.sampled_from([7, 15, 23, 31, 63, 64, 100]),
              st.integers(-2, 1), st.sampled_from([-1, 1]))).filter(bool)
#: Packed polynomials, dense (many terms in a short range) or sparse (at
#: most three terms in a long one).
dense_packed = st.dictionaries(st.integers(0, 12), numerators,
                               min_size=11, max_size=13)
sparse_packed = st.dictionaries(st.integers(0, 2000), numerators,
                                min_size=1, max_size=3)


def _nonzero(nums):
    return {k: n for k, n in nums.items() if n}


@pytest.mark.parametrize("packed", [dense_packed, sparse_packed],
                         ids=["dense", "sparse"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_product_matches_schoolbook(packed, data):
    p, q = data.draw(packed), data.draw(packed)
    # (p + q)(p - q): the cross terms cancel
    a = _nonzero({k: p.get(k, 0) + q.get(k, 0) for k in p.keys() | q.keys()})
    b = _nonzero({k: p.get(k, 0) - q.get(k, 0) for k in p.keys() | q.keys()})
    for f, g in [(p, q)] + ([(a, b)] if a and b else []):
        assert _nonzero(_product(f, g)) == _reference_product(f, g)


@given(any_bipolys, any_bipolys)
@settings(max_examples=200, deadline=None)
def test_bi_product_cancels_to_canonical_form(p, q):
    r = (p + q) * (p - q)
    assert r == p * p - q * q
    assert r.terms == _reference_bi_mul(p + q, p - q).terms
    _assert_canonical(r)


@given(bipolys(coefficients, terms=3, degree=3), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_power_matches_repeated_product(p, n):
    want = BiPoly.const(1)
    for _ in range(n):
        want = want * p
    got = p ** n
    assert got == want
    _assert_canonical(got)


@pytest.mark.parametrize("text", [
    "(1 + x + y)^24", "(1 - x)^45", "(1/2 + 1/3*x + y)^20", "(y^2 - x^3)^12",
    "(x^20 + y^20 + x)^3"])
def test_dense_and_sparse_powers_match_repeated_product(text):
    base, n = text.rsplit("^", 1)
    p, n = P(base), int(n)
    got = p ** n
    want = BiPoly.const(1)
    for _ in range(n):
        want = want * p
    assert got == want
    _assert_canonical(got)


def test_power_of_zero_and_small_exponents():
    p = P("3/4*x - y^2")
    assert p ** 0 == BiPoly.const(1) == BiPoly.zero() ** 0
    assert p ** 1 == p
    assert BiPoly.zero() ** 5 == BiPoly.zero()
    with pytest.raises(ValueError):
        p ** -1


@pytest.mark.parametrize("n", [1, 7, 64])
def test_trinomial_power_is_multinomial(n):
    f = math.factorial
    p = P(f"(1 + x + y)^{n}")
    assert p.den == 1
    assert p.nums == {(a, b): f(n) // (f(a) * f(b) * f(n - a - b))
                      for a in range(n + 1) for b in range(n + 1 - a)}
    _assert_canonical(p)


def test_dense_inputs_parse_in_bounded_time():
    """Dense products and powers with small and with 30-digit
    coefficients, each one schoolbook convolution per product: the
    trinomial powers fill in, the large literals make every term pair a
    long multiplication."""
    c, d = "123456789012345678901234567890", "98765432109876543210987654321"
    with deadline(1):
        for text, terms in [
                ("(1+x+y)^32*(1-x+y)^32 + x", 1090),
                ("(1+x+y)^64 + x", 2145),
                (f"({c}*x + {d}*y + 1)^40 + x", 861),
                (f"({c}*x + {d}*y + 1)^20*({d}*x - {c}*y + 1)^20 + x",
                 861)]:
            assert len(P(text).nums) == terms, text


@given(st.one_of(st.integers(-10 ** 30, 10 ** 30),
                 st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                           st.integers(1, 10 ** 30))))
@example(0)
@example(Fraction(0, 7))
@example(1)
@example(Fraction(1, 2))
def test_literal_bits_read_off_the_number(c):
    """A literal's bit bound is `_bits` of the constant it denotes."""
    text = f"{abs(c.numerator)}/{c.denominator}" if c.denominator > 1 \
        else str(abs(c))
    bits = poly._Parser(text, ("x", "y")).parse_atom()[3]
    assert bits == poly._bits(BiPoly.const(abs(c)))


def test_parser_builds_no_constant_per_literal(monkeypatch):
    """Literals are carried as numbers: parsing them builds no constant
    polynomial, and the literal caps refuse with the same texts."""
    built = []
    const = BiPoly.const.__func__
    monkeypatch.setattr(BiPoly, "const", classmethod(
        lambda cls, c: (built.append(c), const(cls, c))[1]))
    assert P("3*x + 5/7*y - 12*x*y^2 + 0*x") == P("3*x + 5/7*y - 12*x*y^2")
    assert built == []
    nines = "9" * 1000
    with pytest.raises(DegreeCapExceeded) as exc:
        P(f"{nines}/7*x*{nines}")
    bits = poly._bits(BiPoly.const(Fraction(int(nines), 7))) + poly._bits(
        BiPoly.const(int(nines)))
    assert str(exc.value) == (f"coefficient size bound of {bits} bits "
                              "exceeds cap 4096")


def _frac_str_by_fraction(q):
    """frac_str through a Fraction of every input, the earlier route."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@pytest.mark.parametrize("q, text", [
    (0, "0"), (7, "7"), (-7, "-7"), (10 ** 30, str(10 ** 30)),
    (True, "1"), (False, "0"),
    (Fraction(0, 5), "0"), (Fraction(-2, 4), "-1/2"), (Fraction(9, 3), "3"),
    (Fraction(-12, 8), "-3/2"), (0.5, "1/2"), (-0.75, "-3/4"), (2.0, "2"),
    (-0.0, "0"),
])
def test_frac_str_pins_the_fraction_results(q, text):
    assert frac_str(q) == text == _frac_str_by_fraction(q)


@given(st.one_of(st.integers(), st.booleans(), st.fractions(),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_frac_str_matches_the_fraction_route(q):
    assert frac_str(q) == _frac_str_by_fraction(q)
