"""Rational functions in s: assembly from terms, reduction, poles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import perfbench_ideals
from reference_q import (
    add_q,
    const_q,
    den_q,
    divexact_q,
    eval_q,
    from_ints_q,
    mul_q,
    nums_q,
    poly_q,
)
from topzeta import parse_poly, principalize
from topzeta.poly import frac_str
from topzeta.ratfunc import (
    RationalFunctionS,
    _den_sort_key,
    _primitive,
    poles_of,
    rf_sum_of_terms,
)
from topzeta.zeta import zeta_terms


def test_sum_golden():
    rf = rf_sum_of_terms([
        (1, [(4, 7)]),
        (1, [(3, 6), (4, 7)]),
        (1, [(2, 5), (3, 6)]),
        (1, [(1, 1), (2, 5)]),
    ])
    assert (rf.nums, rf.scale) == ((8, 16, 5), 1)
    assert rf.den == (((2, 5), 1), ((4, 7), 1), ((1, 1), 1))


def test_sum_single_vertex():
    rf = rf_sum_of_terms([(2, [(2, 1)])])
    assert (rf.nums, rf.scale) == ((2,), 1)
    assert rf.den == (((2, 1), 1),)


def test_sum_empty_is_zero():
    assert rf_sum_of_terms([]).is_zero()


def test_sum_constant_factor_folds():
    # N = 0 factors are plain constants
    rf = rf_sum_of_terms([(6, [(3, 0), (1, 1)])])
    assert (rf.nums, rf.scale) == ((2,), 1)
    assert rf.den == (((1, 1), 1),)


def test_sum_matches_pointwise_evaluation():
    cases = [
        [(1, [(4, 7)]), (1, [(3, 6), (4, 7)]), (1, [(2, 5), (3, 6)]),
         (1, [(1, 1), (2, 5)])],
        [(2, [(2, 1)])],
        [(1, [(1, 2), (1, 2)]), (-1, [(1, 2)])],
        [(3, [(5, 4), (2, 3)]), (-2, [(2, 3)]), (7, [(5, 4)])],
    ]
    rng = random.Random(7)
    for terms in cases:
        rf = rf_sum_of_terms(terms)
        for _ in range(10):
            s = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
            if any(nu + N * s == 0 for _, fs in terms for nu, N in fs):
                continue
            direct = sum(
                (Fraction(c) / _prod(fs, s) for c, fs in terms),
                Fraction(0),
            )
            assert _eval_at(rf, s) == direct


def _eval_at(rf, s):
    """rf at s, off its poles."""
    d = Fraction(1)
    for (nu, N), m in rf.den:
        d *= (nu + N * s) ** m
    return eval_q(_num(rf), s) / d


def _num(rf):
    """The numerator of rf as Fraction coefficients."""
    return from_ints_q(rf.nums, rf.scale)


def _prod(factors, s):
    out = Fraction(1)
    for nu, N in factors:
        out *= nu + N * s
    return out


def test_reduction_cancels_linear_factor():
    # (3+6s) cancels against the numerator in the golden sum
    rf = rf_sum_of_terms([
        (1, [(4, 7)]),
        (1, [(3, 6), (4, 7)]),
        (1, [(2, 5), (3, 6)]),
        (1, [(1, 1), (2, 5)]),
    ])
    assert all(f != (1, 2) for f, _ in rf.den)
    assert eval_q(_num(rf), Fraction(-1, 2)) != 0


def test_poles_golden():
    rf = rf_sum_of_terms([
        (1, [(4, 7)]),
        (1, [(3, 6), (4, 7)]),
        (1, [(2, 5), (3, 6)]),
        (1, [(1, 1), (2, 5)]),
    ])
    ps = poles_of(rf)
    assert [(p.location, p.order) for p in ps] == [
        (Fraction(-1), 1), (Fraction(-4, 7), 1), (Fraction(-2, 5), 1)]
    by_loc = {p.location: p.leading_coefficient for p in ps}
    assert by_loc[Fraction(-1)] == Fraction(-1, 3)
    assert by_loc[Fraction(-2, 5)] == Fraction(2, 3)
    assert by_loc[Fraction(-4, 7)] == Fraction(-4, 21)


def test_poles_simple_readoff():
    rf = rf_sum_of_terms([(2, [(2, 1)])])
    (p,) = poles_of(rf)
    assert (p.location, p.order, p.leading_coefficient) == (Fraction(-2), 1,
                                                            Fraction(2))


def test_pole_order_two():
    rf = _build(poly_q([1]), {(1, 1): 2})
    (p,) = poles_of(rf)
    assert (p.location, p.order) == (Fraction(-1), 2)
    assert p.leading_coefficient == Fraction(1)


def test_poles_are_roots_of_reduced_denominator():
    rf = rf_sum_of_terms([(1, [(1, 2), (3, 4)]), (5, [(3, 4)])])
    for p in poles_of(rf):
        assert eval_q(_num(rf), p.location) != 0


@pytest.mark.parametrize("terms, text, num", [
    ([(1, [(4, 7)]), (1, [(3, 6), (4, 7)]), (1, [(2, 5), (3, 6)]),
      (1, [(1, 1), (2, 5)])],
     "(5*s^2 + 16*s + 8)/((2+5s)(4+7s)(1+s))", ["8", "16", "5"]),
    # a fractional numerator with a zero coefficient inside
    ([(Fraction(1, 2), [(1, 1)]), (Fraction(-5, 2), [(2, 1)]),
      (Fraction(5, 2), [(3, 1)])],
     "(1/2*s^2 + 1/2)/((1+s)(2+s)(3+s))", ["1/2", "0", "1/2"]),
])
def test_canonical_order_and_str(terms, text, num):
    rf = rf_sum_of_terms(terms)
    assert str(rf) == text and rf.to_json_dict()["num"] == num
    # ratios nu/N ascend: 2/5 < 4/7 < 1
    ratios = [Fraction(nu, N) for (nu, N), _ in rf.den]
    assert ratios == sorted(ratios)


def test_term_validation():
    """The same refusals, with the same texts, as the common-denominator
    oracle below."""
    for terms, message in [
        ([(1, [(1, 1), (1, 1), (1, 1)])],
         "terms carry at most two linear factors"),
        ([(1, [(0, 0)])], "factor constant part must be >= 1"),
        ([(1, [(0, 3)])], "factor constant part must be >= 1"),
        ([(1, [(2, 1), (1, -1)])], "bad linear factor (1 + -1s)"),
    ]:
        for total in (rf_sum_of_terms, _common_denominator_sum):
            with pytest.raises(ValueError) as exc:
                total(terms)
            assert str(exc.value) == message


# --- oracle: one integer common denominator, reduced by synthetic division ---

def _div_factor(p, f):
    """p / (c + d*s) by synthetic division in Z[s], or None when the factor
    does not divide p (exact for primitive factors by Gauss's lemma)."""
    c, d = f
    q = [0] * (len(p) - 1)
    r = p[-1]
    for k in range(len(p) - 1, 0, -1):
        qk, rem = divmod(r, d)
        if rem:
            return None
        q[k - 1] = qk
        r = p[k - 1] - c * qk
    return q if r == 0 else None


def _build(num, den=None):
    """Reduce and canonicalize num / prod f^m: cancel factors against
    numerator roots, drop zero multiplicities, sort factors."""
    den = {f: m for f, m in (den or {}).items() if m > 0}
    if not num:
        return RationalFunctionS(num, 1, ())
    # num = content * prim with prim primitive in Z[s]; by Gauss's lemma
    # a primitive factor divides prim in Q[s] iff it does so in Z[s]
    g = math.gcd(*nums_q(num))
    prim = [c // g for c in nums_q(num)]
    for f in list(den):
        while den[f] and (q := _div_factor(prim, f)) is not None:
            prim = q
            den[f] -= 1
        if not den[f]:
            del den[f]
    items = sorted(den.items(), key=_den_sort_key)
    return RationalFunctionS([g * c for c in prim], den_q(num), items)


def _common_denominator_sum(terms):
    """Every term over one integer common denominator D, each term's share
    c * L * D / d_i by synthetic division, then `_build`."""
    parsed = []
    for coeff, factors in terms:
        if len(factors) > 2:
            raise ValueError("terms carry at most two linear factors")
        c, fs = Fraction(coeff), []
        for nu, N in factors:
            if nu < 1:
                raise ValueError("factor constant part must be >= 1")
            if N == 0:
                c /= nu
                continue
            g, f = _primitive(nu, N)
            c /= g
            fs.append(f)
        parsed.append((c, fs))
    common = {}
    for _, fs in parsed:
        for f in fs:
            common[f] = max(common.get(f, 0), fs.count(f))
    D = [1]
    for (c0, c1), m in common.items():
        for _ in range(m):
            D = [c0 * a + c1 * b for a, b in zip(D + [0], [0] + D)]
    L = math.lcm(*(c.denominator for c, _ in parsed))
    acc = [0] * len(D)
    for c, fs in parsed:
        if c == 0:
            continue
        q = D
        for f in fs:
            q = _div_factor(q, f)
        k = c.numerator * (L // c.denominator)
        for i, a in enumerate(q):
            acc[i] += k * a
    return _build(from_ints_q(acc, L), common)


# --- reference oracle: Fraction-coefficient products, root-test reduction ---

def _reference_build(num, den):
    """Cancel each factor while its root is a numerator root, then sort by
    ratio nu/N."""
    den = {f: m for f, m in den.items() if m > 0}
    if not num:
        return num, ()
    for f in list(den):
        while den[f] > 0 and eval_q(num, Fraction(-f[0], f[1])) == 0:
            num = divexact_q(num, poly_q([f[0], f[1]]))
            den[f] -= 1
        if den[f] == 0:
            del den[f]
    return num, tuple(sorted(den.items(),
                             key=lambda i: (Fraction(*i[0]), i[0][1])))


def _reference_sum(terms):
    """Multiply every term by each linear factor it misses, over Q."""
    parsed = []
    for coeff, factors in terms:
        c, fs = Fraction(coeff), []
        for nu, N in factors:
            g = math.gcd(nu, N)
            c /= g
            if N:
                fs.append((nu // g, N // g))
        parsed.append((c, fs))
    common = {}
    for _, fs in parsed:
        for f in fs:
            common[f] = max(common.get(f, 0), fs.count(f))
    num = poly_q()
    for c, fs in parsed:
        missing = dict(common)
        for f in fs:
            missing[f] -= 1
        piece = const_q(c)
        for f, m in missing.items():
            for _ in range(m):
                piece = mul_q(piece, poly_q([f[0], f[1]]))
        num = add_q(num, piece)
    return _reference_build(num, common)


_coeff = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


@st.composite
def _term_lists(draw):
    """Terms over a small factor pool, so factors repeat within and across
    terms; pool entries include N = 0 and non-primitive (nu, N).  With
    `cancel`, every term reappears negated, with its factors and its
    coefficient scaled by the same integer, so the sum is zero."""
    pool = draw(st.lists(
        st.tuples(st.integers(1, 7), st.integers(0, 6)),
        min_size=1, max_size=5))
    factor = st.sampled_from(pool).flatmap(
        lambda f: st.integers(1, 3).map(lambda g: (g * f[0], g * f[1])))
    terms = draw(st.lists(
        st.tuples(_coeff, st.lists(factor, max_size=2)), max_size=12))
    if draw(st.booleans()):
        g = draw(st.integers(1, 4))
        terms += [(-c * g ** len(fs), [(g * nu, g * N) for nu, N in fs])
                  for c, fs in terms]
        draw(st.randoms()).shuffle(terms)
    return terms


@settings(max_examples=300, deadline=None)
@given(_term_lists())
def test_sum_matches_reference(terms):
    rf = rf_sum_of_terms(terms)
    num, den = _reference_sum(terms)
    assert _num(rf) == num and rf.den == den


@settings(max_examples=200, deadline=None)
@given(st.lists(_coeff, min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=6),
       st.dictionaries(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                       st.integers(-1, 3), max_size=4))
def test_build_matches_reference(coeffs, roots, den):
    """Numerators carrying some denominator factors, to any multiplicity."""
    num = poly_q(coeffs)
    for nu, N in roots:
        g = math.gcd(nu, N)
        num = mul_q(num, poly_q([nu // g, N // g]))
    den = {(nu // math.gcd(nu, N), N // math.gcd(nu, N)): m
           for (nu, N), m in den.items()}
    rf = _build(num, den)
    ref_num, ref_den = _reference_build(num, den)
    assert _num(rf) == ref_num and rf.den == ref_den


def test_sum_cancels_to_zero():
    rf = rf_sum_of_terms([(1, [(1, 2), (3, 4)]), (-4, [(2, 4), (6, 8)])])
    assert rf.is_zero() and rf.den == ()


# --- partial fractions against the common-denominator oracle ----------------

@st.composite
def _order_two_term_lists(draw):
    """Terms whose two factors are often one factor, typed as different
    multiples of it, beside its order-one terms."""
    f = draw(st.tuples(st.integers(1, 7), st.integers(1, 6)))
    mult = st.integers(1, 3).map(lambda g: (g * f[0], g * f[1]))
    other = st.tuples(st.integers(1, 7), st.integers(0, 6))
    factors = st.one_of(st.tuples(mult, mult), st.tuples(mult),
                        st.tuples(mult, other), st.tuples())
    return draw(st.lists(st.tuples(_coeff, factors.map(list)), max_size=8))


def _assert_same_sum(terms):
    rf, want = rf_sum_of_terms(terms), _common_denominator_sum(terms)
    assert (rf.nums, rf.scale, rf.den) == (want.nums, want.scale, want.den)
    assert str(rf) == str(want) and rf.to_json_dict() == want.to_json_dict()


@settings(max_examples=300, deadline=None)
@given(st.one_of(_term_lists(), _order_two_term_lists()))
def test_sum_matches_common_denominator_oracle(terms):
    _assert_same_sum(terms)


@pytest.mark.parametrize("terms", [
    [],
    [(0, [(1, 1)])],
    [(5, [])],
    [(3, [(2, 0)]), (-1, [(6, 0), (1, 0)])],
    [(1, [(1, 2), (1, 2)]), (-4, [(2, 4), (2, 4)])],
    [(1, [(1, 2), (3, 4)]), (-4, [(2, 4), (6, 8)])],
    [(1, [(1, 1), (2, 3)]), (1, [(1, 1)])],
], ids=["empty", "zero-term", "constant", "constants-cancel",
        "order-two-cancels", "pair-cancels", "partial-cancel"])
def test_sum_matches_oracle_on_edge_cases(terms):
    _assert_same_sum(terms)


def test_sum_matches_oracle_on_diagrams(corpus_results):
    """Every corpus diagram, and every chain and swell ideal of the
    benchmark."""
    diagrams = [result.diagram for _, result in corpus_results]
    for name in ("chain", "swell"):
        diagrams += [principalize([parse_poly(t) for t in texts]).diagram
                     for texts in perfbench_ideals()[name]]
    assert len(diagrams) == 111 + 16 + 12
    for diagram in diagrams:
        _assert_same_sum(zeta_terms(diagram))


def _poles_by_fractions(rf):
    """Poles as they were formed in Fraction arithmetic: num(s0) over
    N^m and the other factors at s0, the oracle of the integer route."""
    out = []
    for i, ((nu, N), m) in enumerate(rf.den):
        s0 = Fraction(-nu, N)
        rest = Fraction(1)
        for j, ((g0, g1), k) in enumerate(rf.den):
            if j != i:
                rest *= (g0 + g1 * s0) ** k
        out.append((s0, m, eval_q(_num(rf), s0) / (Fraction(N) ** m * rest)))
    return sorted(out)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_term_lists(), _order_two_term_lists()))
def test_poles_match_the_fraction_route(terms):
    """Leading coefficients formed on integers by homogeneous Horner equal
    the Fraction evaluation, for numerators of every degree against the
    factors, order-two poles among them."""
    rf = rf_sum_of_terms(terms)
    assert [tuple(p) for p in poles_of(rf)] == _poles_by_fractions(rf)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=6),
       st.integers(1, 10 ** 6))
def test_json_numerators_are_fractions_in_lowest_terms(nums, scale):
    """Each numerator over the scale prints as frac_str of its Fraction."""
    rf = RationalFunctionS(nums, scale, [])
    assert rf.to_json_dict()["num"] == [
        frac_str(Fraction(n, rf.scale)) for n in rf.nums]
