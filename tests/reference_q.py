"""Polynomial arithmetic in Q[t] by Fraction loops: the reference oracles of
the integer row kernels in `topzeta.poly` and `topzeta.blowup`.

Every helper takes and returns `UniPoly` values and computes on their
`coeffs`, one Fraction per coefficient.  `restrict`, `chart_restrict` and
`compose_affine` are the Fraction restriction path the engine took before
restrictions and zero sets became integer rows.
"""

from fractions import Fraction

from topzeta.poly import BiPoly, UniPoly


def const_q(c):
    return UniPoly([Fraction(c)])


def var_q():
    return UniPoly([0, 1])


def add_q(p, q):
    a, b = list(p.coeffs), list(q.coeffs)
    if len(a) < len(b):
        a, b = b, a
    for i, c in enumerate(b):
        a[i] += c
    return UniPoly(a)


def scale_q(p, c):
    return UniPoly([a * Fraction(c) for a in p.coeffs])


def sub_q(p, q):
    return add_q(p, scale_q(q, -1))


def mul_q(p, q):
    out = [Fraction(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return UniPoly(out)


def leading_q(p):
    return p.coeffs[-1]


def monic_q(p):
    return p if p.is_zero() else scale_q(p, 1 / leading_q(p))


def derivative_q(p):
    return UniPoly([i * c for i, c in enumerate(p.coeffs)][1:])


def reversed_q(p):
    return UniPoly(p.coeffs[::-1])


def divmod_q(p, q):
    """Quotient and remainder of p by nonzero q, by long division."""
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(p.coeffs)
    dq = len(rem) - len(q.coeffs)
    if dq < 0:
        return UniPoly(), p
    quo = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = quo[k] = rem[k + q.degree()] / leading_q(q)
        for j, b in enumerate(q.coeffs):
            rem[k + j] -= c * b
    return UniPoly(quo), UniPoly(rem)


def divexact_q(p, q):
    quo, rem = divmod_q(p, q)
    if not rem.is_zero():
        raise ValueError("inexact univariate division")
    return quo


def gcd_q(a, b):
    """Monic gcd by the Euclidean loop."""
    while not b.is_zero():
        a, b = b, divmod_q(a, b)[1]
    return monic_q(a)


def squarefree_q(p):
    """Monic p / gcd(p, p')."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return monic_q(divexact_q(p, gcd_q(p, derivative_q(p))))


def lcm_q(a, b):
    return monic_q(mul_q(divexact_q(a, gcd_q(a, b)), b))


def row_q(row):
    """A row of integers as the monic polynomial it stands for, up to a
    nonzero factor; zero for an empty or all-zero row."""
    return monic_q(UniPoly(row))


def restrict(p, value, axis):
    """p with the variable of exponent index axis set to value, an int or
    a Fraction, as a polynomial in the other variable."""
    value, other = Fraction(value), 1 - axis
    out = {}
    for e, c in p.terms.items():
        out[e[other]] = out.get(e[other], Fraction(0)) + c * value ** e[axis]
    return UniPoly([out.get(i, 0) for i in range(max(out, default=-1) + 1)])


def chart_restrict(p, axis):
    """p on the divisor with axis ("x", alpha) or ("y", beta)."""
    var, c = axis
    return restrict(p, c, 0 if var == "x" else 1)


def eval_q(p, t):
    """p(t) by Horner on the Fraction coefficients."""
    out = Fraction(0)
    for c in reversed(p.coeffs):
        out = out * t + c
    return out


def eval_bi(p, px, py):
    return eval_q(restrict(p, px, 0), Fraction(py))


def compose_affine(p, scale, offset):
    """p(scale*t + offset): the Taylor shift by offset through
    `BiPoly.translate`, then coefficient j times scale^j."""
    q = BiPoly({(j, 0): c for j, c in enumerate(p.coeffs)}).translate(
        Fraction(offset), 0)
    return UniPoly([q.terms.get((j, 0), 0) * Fraction(scale) ** j
                    for j in range(len(p.coeffs))])


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
