"""Polynomial arithmetic in Q[t] by Fraction loops: the reference oracles of
the integer row kernels in `topzeta.poly` and `topzeta.blowup`.

A polynomial is a plain tuple of Fraction coefficients indexed by degree,
with no trailing zero; () is zero.  `poly_q` makes one, and every helper
takes and returns one, computing one Fraction per coefficient.
`restrict`, `chart_restrict` and `compose_affine` are the Fraction
restriction path the engine took before restrictions and zero sets became
integer rows.
"""

import math
from fractions import Fraction

from topzeta.poly import BiPoly


def poly_q(coeffs=()):
    """The coefficients as Fractions, without trailing zeros."""
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def from_ints_q(nums, den=1):
    """The polynomial with coefficients nums[i] / den, den != 0."""
    return poly_q(Fraction(n, den) for n in nums)


def den_q(p):
    """The least positive common denominator of the coefficients."""
    return math.lcm(*(c.denominator for c in p))


def nums_q(p):
    """The integer numerators over `den_q(p)`, which share no factor with
    it: the integer row of p in lowest terms."""
    den = den_q(p)
    return [int(c * den) for c in p]


def const_q(c):
    return poly_q([c])


def var_q():
    return poly_q([0, 1])


def add_q(p, q):
    a, b = list(p), list(q)
    if len(a) < len(b):
        a, b = b, a
    for i, c in enumerate(b):
        a[i] += c
    return poly_q(a)


def scale_q(p, c):
    return poly_q([a * Fraction(c) for a in p])


def sub_q(p, q):
    return add_q(p, scale_q(q, -1))


def mul_q(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_q(out)


def leading_q(p):
    return p[-1]


def monic_q(p):
    return scale_q(p, 1 / leading_q(p)) if p else p


def derivative_q(p):
    return poly_q([i * c for i, c in enumerate(p)][1:])


def reversed_q(p):
    return poly_q(p[::-1])


def divmod_q(p, q):
    """Quotient and remainder of p by nonzero q, by long division."""
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(p)
    dq = len(rem) - len(q)
    if dq < 0:
        return (), p
    quo = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = quo[k] = rem[k + len(q) - 1] / leading_q(q)
        for j, b in enumerate(q):
            rem[k + j] -= c * b
    return poly_q(quo), poly_q(rem)


def divexact_q(p, q):
    quo, rem = divmod_q(p, q)
    if rem:
        raise ValueError("inexact univariate division")
    return quo


def gcd_q(a, b):
    """Monic gcd by the Euclidean loop."""
    while b:
        a, b = b, divmod_q(a, b)[1]
    return monic_q(a)


def squarefree_q(p):
    """Monic p / gcd(p, p')."""
    if not p:
        raise ValueError("zero polynomial")
    return monic_q(divexact_q(p, gcd_q(p, derivative_q(p))))


def lcm_q(a, b):
    return monic_q(mul_q(divexact_q(a, gcd_q(a, b)), b))


def row_q(row):
    """A row of integers as the monic polynomial it stands for, up to a
    nonzero factor; zero for an empty or all-zero row."""
    return monic_q(poly_q(row))


def restrict(p, value, axis):
    """p with the variable of exponent index axis set to value, an int or
    a Fraction, as a polynomial in the other variable."""
    value, other = Fraction(value), 1 - axis
    out = {}
    for e, c in p.terms.items():
        out[e[other]] = out.get(e[other], Fraction(0)) + c * value ** e[axis]
    return poly_q([out.get(i, 0) for i in range(max(out, default=-1) + 1)])


def chart_restrict(p, axis):
    """p on the divisor with axis ("x", alpha) or ("y", beta)."""
    var, c = axis
    return restrict(p, c, 0 if var == "x" else 1)


def eval_q(p, t):
    """p(t) by Horner on the Fraction coefficients."""
    out = Fraction(0)
    for c in reversed(p):
        out = out * t + c
    return out


def eval_bi(p, px, py):
    return eval_q(restrict(p, px, 0), Fraction(py))


def compose_affine(p, scale, offset):
    """p(scale*t + offset): the Taylor shift by offset through
    `BiPoly.translate`, then coefficient j times scale^j."""
    q = BiPoly({(j, 0): c for j, c in enumerate(p)}).translate(
        Fraction(offset), 0)
    return poly_q([q.terms.get((j, 0), 0) * Fraction(scale) ** j
                   for j in range(len(p))])


def divides(d, p):
    """Whether the bivariate d divides p."""
    try:
        p.divexact(d)
        return True
    except ValueError:
        return False


def combination_q(coeffs, polys):
    """sum(c_i p_i), exactly, by Fraction terms."""
    out = {}
    for c, p in zip(coeffs, polys):
        for e, v in p.terms.items():
            out[e] = out.get(e, Fraction(0)) + Fraction(c) * v
    return BiPoly(out)
