"""The certificate's orders from one bounded walk of the chart tree, checked
against the expanded-pullback read they replaced (`_reference_order` in
tests/test_blowup.py, the oracle)."""

from fractions import Fraction

import pytest

from corpus import pool_entries, swell_entries
from test_blowup import _reference_order
from topzeta import blowup, poly
from topzeta.blowup import divisor_order_of, divisor_orders
from topzeta.errors import CenterNotRational
from topzeta.family import build
from topzeta.generic import (
    _member,
    _min_orders,
    _verify_min_property,
    certify_generic,
    sample_lambda,
)
from topzeta.poly import combination, parse_poly
from topzeta.principalize import principalize

#: Generators typed as products of powers, some sharing bases, some with
#: a reducible curve part of which the first leaf showing it misses x.
TYPED = [
    ("(y^2 - x^3)^12*x", "(y^2 - x^3)^12*y"),
    ("(y + x + x*y)^16*x", "(y + x + x*y)^16*y^2"),
    ("(y^2 - x^3)^3*(y - x^2)^2*x", "(y^2 - x^3)^2*(y - x^2)^3*y^2"),
    ("(y - x)*(y + x)*x^3", "(y^2 - x^2)*y^3"),
    ("x*(y - 1)*(x^2 + y^2)", "x*(y - 1)*(-y - x^2)"),
    ("x*y*(y - x)", "-x^2*(y - x)"),
    ("(x - y^2)*x*(y - x)^2", "x^3*(x - y^2)"),
    ("(1/2*y - x^2)^2*(2*x + y)", "3*(y - 2*x^2)*x^4"),
]

#: Curve parts times residual pairs: carriers of several components, one
#: of them the line x = 0.
CURVES = ["x*(y-x)", "x*(x-y^2)", "y*(y-x^2)", "(y-x)*(y+x)"]
PAIRS = [("x^2", "y^3"), ("(y-x)^2", "x^3"), ("(y-x^2)^2", "x^5")]


def _runs(corpus_results):
    """The corpus, then the benchmark's pool, build(a, b) for a <= 12, swell
    for K <= 11 (K <= 7 for two more centres), the typed products and the
    curve-part family."""
    runs = list(corpus_results)
    for name, gens in pool_entries():
        try:
            runs.append((name, principalize(gens)))
        except CenterNotRational:
            pass
    runs += [(f"chain-{a}-{b}", principalize(build(a, b)))
             for a in range(1, 13) for b in range(a)]
    runs += [(name, principalize(gens)) for name, gens in
             swell_entries(11, ("1",)) + swell_entries(7, ("-1", "1/2"))]
    runs += [(" ".join(texts), principalize([parse_poly(t) for t in texts]))
             for texts in TYPED]
    runs += [(f"{c}: {a}, {b}", principalize(
        [parse_poly(f"{c}*{a}"), parse_poly(f"{c}*{b}")]))
        for c in CURVES for a, b in PAIRS]
    return runs


@pytest.fixture(scope="module")
def runs(corpus_results):
    return _runs(corpus_results)


def test_walk_orders_match_the_expanded_pullback(runs, corpus_results):
    """Every order of every generator and of the all-ones member, typed or
    expanded, equals the oracle's, on exceptional divisors and carriers
    (`divisor_order_of` on the corpus is checked in tests/test_blowup.py);
    the walk bounded by the largest N reads the same order up to the
    bound, and past it None, or the exact sum over a typed product's
    bases."""
    past = typed = lost = 0
    corpus_names = {name for name, _ in corpus_results}
    for name, result in runs:
        state = result.state
        idents = state.divisor_order + [
            c.ident for c in state.carriers if c.through_origin]
        bound = max((state.divisors[d].N for d in state.divisor_order),
                    default=0)
        lam = [Fraction(1)] * len(result.gens)
        polys = list(result.gens)
        if len(polys) > 1:
            polys += [combination(lam, result.gens), _member(lam, polys)]
        for g in polys:
            if g.is_zero():
                continue
            whole = poly._expand(1, ((g, 1),)) if isinstance(
                g, poly._Product) else g
            pulled = {}
            want = {d: _reference_order(state, whole, d, pulled)
                    for d in idents}
            typed += isinstance(g, poly._Product)
            if name not in corpus_names:
                assert {d: divisor_order_of(state, g, d)
                        for d in idents} == want, name
            walked = divisor_orders(state, g, bound)
            assert walked.keys() == set(state.divisor_order), name
            assert all(k == want[d] if want[d] <= bound else
                       k in (None, want[d]) for d, k in walked.items()), name
            past += None in walked.values()
        lost += any(c.root_eq.x_order() and len(c.root_eq.nums) > 1
                    for c in state.carriers)
    assert len(runs) > 400 and past > 50 and typed >= 16 and lost >= 5, \
        (len(runs), past, typed, lost)


def test_divisor_checks_match_the_oracle(runs):
    """The DivisorChecks of the first three samples, accepted or not, and
    of the certified one carry the oracle's orders: a member order past
    the bound is read again, exactly."""
    mismatched = 0
    for name, result in runs:
        state, gens = result.state, result.gens
        if len(gens) < 2:
            continue
        idents = state.divisor_order + [
            c.ident for c in state.carriers if c.through_origin]
        pulled = [{} for _ in gens]
        n_min = {d: min(_reference_order(state, g, d, p)
                        for g, p in zip(gens, pulled)) for d in idents}
        lams = [sample_lambda(len(gens), 0, a) for a in range(3)]
        lams.append(certify_generic(result, seed=0).lam)
        for lam in lams:
            member, memo = combination(lam, gens), {}
            got = _verify_min_property(result, lam, _min_orders(result))
            assert list(got) == idents, name
            for d, check in got.items():
                assert (check.N_from_generic, check.N_min) == (
                    _reference_order(state, member, d, memo), n_min[d]), \
                    (name, lam, d)
                mismatched += not check.min_property_ok
    assert mismatched > 0


def test_walk_keeps_swell_pullbacks_small(monkeypatch):
    """On swell K = 14 the certificate translates pullbacks kept mod
    x^(B + 1): a few hundred terms, where the expanded pullbacks reached
    20,986."""
    (_, gens), = [e for e in swell_entries(14, ("1",))
                  if e[0] == "swell-1-14"]
    result = principalize(gens)
    sizes = []
    shift = poly._shift_rows

    def counted(nums, *args):
        sizes.append(len(nums))
        return shift(nums, *args)

    monkeypatch.setattr(poly, "_shift_rows", counted)
    monkeypatch.setattr(blowup, "_shift_rows", counted)
    report = certify_generic(result, seed=0)
    assert report.retries == 0 and sizes
    assert max(sizes) <= 300, max(sizes)
