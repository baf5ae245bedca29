"""Rational functions in one indeterminate s with factored linear denominators.

The denominator is kept as a multiset of primitive integer factors c + d*s
(gcd(c, d) = 1, both positive); all remaining constants live in the
numerator.  This makes the reduced form canonical and pole extraction a
matter of reading off factors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .poly import UniPoly, frac_str

#: A primitive linear factor c + d*s, keyed as (c, d).
Factor = tuple[int, int]


def _primitive(nu: int, N: int) -> tuple[int, Factor]:
    """Split nu + N*s into constant * primitive factor."""
    if nu < 0 or N < 0 or (nu == 0 and N == 0):
        raise ValueError(f"bad linear factor ({nu} + {N}s)")
    g = math.gcd(nu, N)
    return g, (nu // g, N // g)


def _div_factor(p: list[int], f: Factor) -> list[int] | None:
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


def _factor_root(f: Factor) -> Fraction:
    return Fraction(-f[0], f[1])


def _den_sort_key(item: tuple[Factor, int]):
    (nu, N), _ = item
    # ratio nu/N ascending, then N ascending; N = 0 factors cannot occur
    return (Fraction(nu, N), N)


class Pole(NamedTuple):
    location: Fraction
    order: int
    leading_coefficient: Fraction


class RationalFunctionS:
    """Reduced rational function numerator / prod (nu_i + N_i s)^m_i."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: Sequence[tuple[Factor, int]]):
        self.num = num
        self.den: tuple[tuple[Factor, int], ...] = tuple(den)

    @classmethod
    def build(cls, num: UniPoly,
              den: dict[Factor, int] | None = None) -> "RationalFunctionS":
        """Reduce and canonicalize: cancel factors against numerator roots,
        drop zero multiplicities, sort factors."""
        den = {f: m for f, m in (den or {}).items() if m > 0}
        if num.is_zero():
            return cls(num, ())
        # num = content * prim with prim primitive in Z[s]; by Gauss's lemma
        # a primitive factor divides prim in Q[s] iff it does so in Z[s]
        g = math.gcd(*num.nums)
        prim = [c // g for c in num.nums]
        for f in list(den):
            while den[f] and (q := _div_factor(prim, f)) is not None:
                prim = q
                den[f] -= 1
            if not den[f]:
                del den[f]
        items = sorted(den.items(), key=_den_sort_key)
        return cls(UniPoly.from_ints([g * c for c in prim], num.den), items)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunctionS)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.num.is_zero():
            return "0"
        num = str(self.num)
        if not self.den:
            return num
        fac = []
        for (nu, N), m in self.den:
            base = f"({nu}+{N}s)" if N != 1 else f"({nu}+s)"
            fac.append(base if m == 1 else base + f"^{m}")
        return f"({num})/({''.join(fac)})"

    __repr__ = __str__

    def to_json_dict(self) -> dict:
        return {
            "num": [frac_str(c) for c in self.num.coeffs],
            "den": [[nu, N, m] for (nu, N), m in self.den],
        }


def rf_sum_of_terms(
    terms: Iterable[tuple[int | Fraction, Sequence[tuple[int, int]]]]
) -> RationalFunctionS:
    """Exact sum of coefficient / prod (nu + N*s) terms, reduced.

    Each term carries at most two linear factors (the two-dimensional
    situation); a factor with N = 0 is a plain constant and folds into the
    coefficient.
    """
    parsed: list[tuple[Fraction, list[Factor]]] = []
    for coeff, factors in terms:
        if len(factors) > 2:
            raise ValueError("terms carry at most two linear factors")
        c = Fraction(coeff)
        fs: list[Factor] = []
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

    common: dict[Factor, int] = {}
    for _, fs in parsed:
        for f in fs:
            common[f] = max(common.get(f, 0), fs.count(f))

    # integer common denominator D; each term contributes c * L * D / d_i,
    # with L the lcm of the coefficient denominators
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
    num = UniPoly.from_ints(acc, L)
    return RationalFunctionS.build(num, common)


def poles_of(rf: RationalFunctionS) -> list[Pole]:
    """Poles of a reduced rational function, sorted by location.

    The leading coefficient is the residue for an order-one pole and the
    leading Laurent coefficient for higher order: with (nu + N s)^m in the
    denominator, (nu + N s)^m = N^m (s - s0)^m near s0 = -nu/N.
    """
    out = []
    for i, (f, m) in enumerate(rf.den):
        nu, N = f
        s0 = _factor_root(f)
        rest = Fraction(1)
        for j, (g, k) in enumerate(rf.den):
            if j == i:
                continue
            rest *= (g[0] + g[1] * s0) ** k
        lead = rf.num.eval(s0) / (Fraction(N) ** m * rest)
        out.append(Pole(location=s0, order=m, leading_coefficient=lead))
    out.sort(key=lambda p: p.location)
    return out
