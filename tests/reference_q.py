"""Division and gcd in Q[t] by Fraction loops: the reference oracles of the
integer univariate kernel in `topzeta.poly`."""

from fractions import Fraction

from topzeta.poly import UniPoly


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
        c = quo[k] = rem[k + q.degree()] / q.leading()
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
    return a.monic()
