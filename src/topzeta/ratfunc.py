"""Rational functions in one indeterminate s with factored linear denominators.

The denominator is kept as a multiset of primitive integer factors c + d*s
(gcd(c, d) = 1, both positive); all remaining constants live in the
numerator.  This makes the reduced form canonical and pole extraction a
matter of reading off factors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, NamedTuple, Sequence

from .poly import BiPoly, _lowest, _strip, _zhorner, poly_to_str

#: A primitive linear factor c + d*s, keyed as (c, d).
Factor = tuple[int, int]


def _primitive(nu: int, N: int) -> tuple[int, Factor]:
    """Split nu + N*s into constant * primitive factor."""
    if nu < 0 or N < 0 or (nu == 0 and N == 0):
        raise ValueError(f"bad linear factor ({nu} + {N}s)")
    g = math.gcd(nu, N)
    return g, (nu // g, N // g)


def _factor_root(f: Factor) -> Fraction:
    return Fraction(-f[0], f[1])


def _den_sort_key(item: tuple[Factor, int]):
    (nu, N), _ = item
    # ratio nu/N ascending, then N ascending; N = 0 factors cannot occur
    return (Fraction(nu, N), N)


def _over(n: int, d: int) -> str:
    """`frac_str` of n/d for d >= 1, through one integer gcd."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class Pole(NamedTuple):
    location: Fraction
    order: int
    leading_coefficient: Fraction


class RationalFunctionS:
    """Reduced rational function numerator / prod (nu_i + N_i s)^m_i.

    The numerator is `nums`, its integer numerators indexed by degree with
    no trailing zero, over `scale` >= 1, with gcd(scale, *nums) == 1.
    """

    __slots__ = ("nums", "scale", "den")

    def __init__(self, nums: Sequence[int], scale: int,
                 den: Sequence[tuple[Factor, int]]):
        nums = _strip(list(nums))
        g = _lowest(scale, nums)
        self.nums = tuple(n // g for n in nums)
        self.scale = scale // g
        self.den: tuple[tuple[Factor, int], ...] = tuple(den)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunctionS) and self.den == other.den
                and (self.nums, self.scale) == (other.nums, other.scale))

    def __hash__(self) -> int:
        return hash((self.nums, self.scale, self.den))

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        num = poly_to_str(BiPoly.from_ints(
            {(i, 0): n for i, n in enumerate(self.nums)}, self.scale),
            ("s", "t"))
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
            "num": [_over(n, self.scale) for n in self.nums],
            "den": [[nu, N, m] for (nu, N), m in self.den],
        }


def _fraction_sum(pieces: list[tuple[int, int]]) -> tuple[int, int]:
    """Sum of the fractions n/d (d > 0), in lowest terms."""
    den = math.lcm(*(d for _, d in pieces))
    num = sum(n * (den // d) for n, d in pieces)
    g = math.gcd(num, den)
    return num // g, den // g


def rf_sum_of_terms(
    terms: Iterable[tuple[int | Fraction, Sequence[tuple[int, int]]]]
) -> RationalFunctionS:
    """Exact sum of coefficient / prod (nu + N*s) terms, reduced.

    Each term carries at most two linear factors (the two-dimensional
    situation); a factor with N = 0 is a plain constant and folds into the
    coefficient.  Summed by partial fractions: each term adds to the
    principal part a_f/f + b_f/f^2 of its factors, with
    c/(f*g) = (c*f1/det)/f - (c*g1/det)/g, det = g0*f1 - g1*f0, since
    distinct primitive factors share no root.  A factor is in the reduced
    denominator to the order of its principal part, and only those factors
    are multiplied out: linear in the terms plus the reduced degree squared.
    """
    # (factor, order) -> fractions n/d (d > 0); the constant is (None, 0)
    pieces: dict[tuple, list[tuple[int, int]]] = {}
    for coeff, factors in terms:
        if len(factors) > 2:
            raise ValueError("terms carry at most two linear factors")
        n, d = (coeff, 1) if type(coeff) is int else \
            Fraction(coeff).as_integer_ratio()
        fs: list[Factor] = []
        for nu, N in factors:
            if nu < 1:
                raise ValueError("factor constant part must be >= 1")
            if N == 0:
                d *= nu
                continue
            g, f = _primitive(nu, N)
            d *= g
            fs.append(f)
        if len(fs) < 2 or fs[0] == fs[1]:
            pieces.setdefault((fs[0] if fs else None, len(fs)), []).append(
                (n, d))
        else:
            (f0, f1), (g0, g1) = fs
            det = g0 * f1 - g1 * f0
            n, d = (n, d * det) if det > 0 else (-n, -d * det)
            pieces.setdefault((fs[0], 1), []).append((n * f1, d))
            pieces.setdefault((fs[1], 1), []).append((-n * g1, d))

    coef = {key: _fraction_sum(ps) for key, ps in pieces.items()}
    L = math.lcm(*(d for _, d in coef.values()))
    coef = {key: n * (L // d) for key, (n, d) in coef.items()}
    order = {f: 2 if coef.get((f, 2)) else 1
             for (f, _), n in coef.items() if n and f}
    kept = sorted(order.items(), key=_den_sort_key)

    # num/den over L, adding one principal part at a time by Horner:
    # num/den + a/f + b/f^2 = ((num*f + a*den)*f + b*den) / (den*f^2)
    num, den = [coef.get((None, 0), 0)], [1]
    for f, m in kept:
        c0, c1 = f
        for k in range(1, m + 1):
            w = coef.get((f, k), 0)
            num = [c0 * u + c1 * v + w * e for u, v, e in
                   zip_longest(num + [0], [0] + num, den, fillvalue=0)]
        for _ in range(m):
            den = [c0 * u + c1 * v for u, v in zip(den + [0], [0] + den)]
    return RationalFunctionS(num, L, kept)


def poles_of(rf: RationalFunctionS) -> list[Pole]:
    """Poles of a reduced rational function, sorted by location.

    The leading coefficient is the residue for an order-one pole and the
    leading Laurent coefficient for higher order: with (nu + N s)^m in the
    denominator, (nu + N s)^m = N^m (s - s0)^m near s0 = -nu/N.  It is
    formed on integers, one Fraction per pole: N^d num(s0) by homogeneous
    Horner, d the numerator's degree, and N (g0 + g1 s0) = g0 N - g1 nu for
    every other factor.
    """
    nums, den = rf.nums, rf.scale
    d = max(len(nums) - 1, 0)
    out = []
    for i, (f, m) in enumerate(rf.den):
        nu, N = f
        # lead = H / (rest N^power), H = _zhorner(nums, -nu, N)
        rest, power = den, d + m
        for j, ((g0, g1), k) in enumerate(rf.den):
            if j != i:
                rest *= (g0 * N - g1 * nu) ** k
                power -= k
        lead = Fraction(_zhorner(nums, -nu, N) * N ** max(-power, 0),
                        rest * N ** max(power, 0))
        out.append(Pole(location=_factor_root(f), order=m,
                        leading_coefficient=lead))
    out.sort(key=lambda p: p.location)
    return out
