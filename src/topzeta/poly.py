"""Exact univariate and bivariate polynomial arithmetic over the rationals.

A bivariate polynomial is a dict mapping exponent pairs (a, b) to nonzero
Fraction coefficients; the zero polynomial has an empty dict.  This sparse
exact representation makes identity tests reliable, which everything
downstream (transform factorizations, gcd extraction, zero counting)
depends on.

Univariate polynomials are coefficient tuples indexed by degree.  They show
up as restrictions of bivariate data to an exceptional line and as numerators
of zeta functions.

Products, translations, gcds and the squarefree split compute on integer
numerators over one common denominator; what they return is over Q again.
The univariate gcd, lcm and squarefree part, the affine substitution and
the rational roots do too: `_zgcd` on primitive numerators is the only gcd
in Q[t], and a result is made monic once, at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import (
    DegreeCapExceeded,
    NonRationalLiteralError,
    ParseError,
    UnknownVariableError,
)

DEGREE_CAP = 64

#: Multiplicity of the zero polynomial at any point.
INFINITE_MULT = math.inf


# ---------------------------------------------------------------------------
# integer numerators
# ---------------------------------------------------------------------------

def _numerators(cs: list[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of cs over their least common denominator."""
    den = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _product(p: dict[int, Fraction], q: dict[int, Fraction],
             ) -> dict[int, Fraction]:
    """p*q for polynomials given as {packed exponent: nonzero coefficient},
    packed so that exponents add under multiplication: the integer
    numerators of each factor over its common denominator are convolved,
    and each nonzero output coefficient becomes one Fraction."""
    pn, pd = _numerators(list(p.values()))
    qn, qd = _numerators(list(q.values()))
    qs = list(zip(q, qn))
    acc: dict[int, int] = {}
    for i, a in zip(p, pn):
        for j, b in qs:
            acc[i + j] = acc.get(i + j, 0) + a * b
    den = pd * qd
    if den == 1:
        return {k: Fraction(n) for k, n in acc.items() if n}
    return {k: Fraction(n, den) for k, n in acc.items() if n}


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over Q, coefficients indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls([Fraction(c)])

    @classmethod
    def var(cls) -> "UniPoly":
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with deg(0) = -1."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _uni(out)

    def __neg__(self) -> "UniPoly":
        return _uni([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = _product({i: c for i, c in enumerate(self.coeffs) if c},
                       {i: c for i, c in enumerate(other.coeffs) if c})
        deg = len(self.coeffs) + len(other.coeffs) - 2
        return _uni([out.get(i, _ZERO) for i in range(deg + 1)])

    def scale(self, c) -> "UniPoly":
        c = Fraction(c)
        return _uni([a * c for a in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def derivative(self) -> "UniPoly":
        return _uni([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, t) -> Fraction:
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def compose_affine(self, scale, offset) -> "UniPoly":
        """p(scale*t + offset) as a polynomial in t: the integer Taylor
        shift by offset, then coefficient j times scale^j."""
        scale, offset = Fraction(scale), Fraction(offset)
        terms = {(j, 0): c for j, c in enumerate(self.coeffs) if c}
        if offset:
            terms = _shift_rows(terms, offset, 0)
        out, power = [], Fraction(1)
        for j in range(len(self.coeffs)):
            out.append(terms.get((j, 0), _ZERO) * power)
            power *= scale
        return _uni(out)

    def reversed(self) -> "UniPoly":
        """Coefficients in reverse order: zeros become reciprocals of the
        nonzero zeros of self."""
        return _uni(list(reversed(self.coeffs)))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for d in range(self.degree(), -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                mono = str(abs(c))
            else:
                var = "s" if d == 1 else f"s^{d}"
                mono = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(("-" if c < 0 else "") + mono)
            else:
                parts.append((" - " if c < 0 else " + ") + mono)
        return "".join(parts)

    __repr__ = __str__


_ZERO = Fraction(0)


def _uni(coeffs: list[Fraction]) -> UniPoly:
    """A UniPoly over coefficients that are already Fractions, as the
    arithmetic on UniPolys and the restrictions leave them: trailing zeros
    are dropped, and the constructor's per-coefficient conversion is
    skipped."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    p = UniPoly.__new__(UniPoly)
    p.coeffs = tuple(coeffs)
    return p


def _zuni(p: UniPoly) -> list[int]:
    """Primitive integer numerators of p; [] for zero."""
    return _zprimitive(_numerators(list(p.coeffs))[0])


def _zmonic(a: list[int]) -> UniPoly:
    """The monic UniPoly of integer coefficients a; zero for []."""
    return _uni([Fraction(v, a[-1]) for v in a]) if a else UniPoly()


def uni_gcd(*polys: UniPoly) -> UniPoly:
    """Monic greatest common divisor in Q[t]; zero when every poly is."""
    g: list[int] = []
    for p in polys:
        g = _zgcd(g, _zuni(p))
        if len(g) == 1:
            break
    return _zmonic(g)


def uni_lcm(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic least common multiple in Q[t]."""
    za, zb = _zuni(a), _zuni(b)
    return _zmonic(_zmul(_zdivexact(za, _zgcd(za, zb)), zb))


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'), monic; carries one copy of each root."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    a = _zuni(p)
    da = [i * v for i, v in enumerate(a)][1:]
    return _zmonic(_zdivexact(a, _zgcd(a, da)))


def distinct_root_count(p: UniPoly) -> int:
    """Number of distinct complex zeros, computed without root extraction."""
    if p.is_zero():
        raise ValueError("zero polynomial has no root count")
    return squarefree_part(p).degree()


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: UniPoly) -> tuple[list[tuple[Fraction, int]], UniPoly]:
    """All rational roots with multiplicities, plus the root-free cofactor.

    The cofactor is monic; it is nonconstant exactly when p has irrational
    (or complex) zeros.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    # strip the root at 0 first
    k = 0
    while p.coeffs[k] == 0:
        k += 1
    roots = [(Fraction(0), k)] if k else []
    a = _zprimitive(_numerators(list(p.coeffs[k:]))[0])
    if len(a) > 1:
        cands = {Fraction(s * u, v) for u in _divisors(a[0])
                 for v in _divisors(a[-1]) for s in (1, -1)}
        for r in sorted(cands):
            u, v, mult = r.numerator, r.denominator, 0
            while len(a) > 1 and _zhorner(a, u, v) == 0:
                a = _zdivexact(a, [-u, v])
                mult += 1
            if mult:
                roots.append((r, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, _zmonic(a)


def _zhorner(a: list[int], u: int, v: int) -> int:
    """v^deg(a) * a(u/v), by homogeneous Horner on integers."""
    acc, vpow = a[-1], 1
    for c in reversed(a[:-1]):
        vpow *= v
        acc = acc * u + c * vpow
    return acc


# ---------------------------------------------------------------------------
# bivariate
# ---------------------------------------------------------------------------

def _grlex_key(e: tuple[int, int]) -> tuple[int, int]:
    return (e[0] + e[1], e[0])


class BiPoly:
    """Sparse bivariate polynomial over Q in variables x, y."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        t: dict[tuple[int, int], Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    t[(int(e[0]), int(e[1]))] = c
        self.terms = t

    # -- constructors --

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls({(0, 1): Fraction(1)})

    @classmethod
    def monomial(cls, a: int, b: int, c=1) -> "BiPoly":
        return cls({(a, b): Fraction(c)})

    # -- basic queries --

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(a + b for a, b in self.terms)

    def mult_at_origin(self):
        """Lowest total degree of a term; INFINITE_MULT for zero."""
        if not self.terms:
            return INFINITE_MULT
        return min(a + b for a, b in self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if not self.terms or not other.terms:
            return BiPoly()
        # (a, b) packs to a*s + b, with s past the product's y-degree
        s = max(b for _, b in self.terms) + max(b for _, b in other.terms) + 1
        out = _product({a * s + b: c for (a, b), c in self.terms.items()},
                       {a * s + b: c for (a, b), c in other.terms.items()})
        return _normal({divmod(k, s): c for k, c in out.items()})

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power")
        acc = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def scale(self, c) -> "BiPoly":
        c = Fraction(c)
        return BiPoly({e: v * c for e, v in self.terms.items()})

    # -- structure --

    def lead_grlex(self) -> tuple[tuple[int, int], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def monic_grlex(self) -> "BiPoly":
        if self.is_zero():
            return self
        _, c = self.lead_grlex()
        return self.scale(1 / c)

    def divexact(self, d: "BiPoly") -> "BiPoly":
        """Exact division; raises ValueError when d does not divide self."""
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = BiPoly(dict(self.terms))
        (de, dc) = d.lead_grlex()
        quo: dict[tuple[int, int], Fraction] = {}
        while not rem.is_zero():
            (re, rc) = rem.lead_grlex()
            ea, eb = re[0] - de[0], re[1] - de[1]
            if ea < 0 or eb < 0:
                raise ValueError("inexact bivariate division")
            c = rc / dc
            quo[(ea, eb)] = quo.get((ea, eb), Fraction(0)) + c
            rem = rem - d * BiPoly.monomial(ea, eb, c)
        return BiPoly(quo)

    def divides(self, other: "BiPoly") -> bool:
        try:
            other.divexact(self)
            return True
        except ValueError:
            return False

    def x_order(self) -> int:
        """Largest k with x^k dividing self (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return min(a for a, _ in self.terms)

    def y_order(self) -> int:
        if not self.terms:
            return 0
        return min(b for _, b in self.terms)

    def divide_x_power(self, k: int) -> "BiPoly":
        return _normal({(a - k, b): c for (a, b), c in self.terms.items()})

    def divide_y_power(self, k: int) -> "BiPoly":
        return _normal({(a, b - k): c for (a, b), c in self.terms.items()})

    # -- substitutions used by the blow-up kernel --

    def subst_chart_a(self) -> "BiPoly":
        """Pullback under (x, y) -> (x, x*y): monomial map (a,b) -> (a+b, b)."""
        return _normal({(a + b, b): c for (a, b), c in self.terms.items()})

    def subst_chart_b(self) -> "BiPoly":
        """Pullback under (x, y) -> (x*y, y): monomial map (a,b) -> (a, a+b)."""
        return _normal({(a, a + b): c for (a, b), c in self.terms.items()})

    def translate(self, dx, dy) -> "BiPoly":
        """p(x + dx, y + dy)."""
        if not (dx or dy):
            return BiPoly(self.terms)
        terms = self.terms
        if dy:
            terms = _shift_rows(terms, Fraction(dy), 1)
        if dx:
            terms = _shift_rows(terms, Fraction(dx), 0)
        return _normal(terms)

    def mult_at_point(self, pt: tuple[Fraction, Fraction]):
        """Lowest total degree of the Taylor expansion at pt."""
        if pt == (0, 0):
            return self.mult_at_origin()
        return self.translate(pt[0], pt[1]).mult_at_origin()

    # -- restrictions and evaluation --

    def restrict_x(self, alpha) -> UniPoly:
        """p(alpha, t) as a univariate polynomial in t = y."""
        return self._restrict(alpha, 0)

    def restrict_y(self, beta) -> UniPoly:
        """p(t, beta) as a univariate polynomial in t = x."""
        return self._restrict(beta, 1)

    def _restrict(self, value, axis: int) -> UniPoly:
        """Set the variable with exponent index `axis` to value: at 0 a
        filter of the terms, elsewhere one power table per call."""
        value = Fraction(value)
        other = 1 - axis
        if value == 0:
            out = {e[other]: c for e, c in self.terms.items() if not e[axis]}
        else:
            powers = [Fraction(1)]
            for _ in range(max((e[axis] for e in self.terms), default=0)):
                powers.append(powers[-1] * value)
            out = {}
            for e, c in self.terms.items():
                k = e[other]
                out[k] = out.get(k, _ZERO) + c * powers[e[axis]]
        deg = max(out, default=-1)
        return _uni([out.get(i, _ZERO) for i in range(deg + 1)])

    def eval(self, px, py) -> Fraction:
        px, py = Fraction(px), Fraction(py)
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * px ** a * py ** b
        return total

    # -- printing --

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"BiPoly({poly_to_str(self)})"


def _shift_rows(terms: dict[tuple[int, int], Fraction], delta: Fraction,
                axis: int) -> dict[tuple[int, int], Fraction]:
    """Terms of p with the variable of exponent index `axis` replaced by
    itself plus delta, in integer arithmetic.

    Each row (the terms sharing the other exponent) is a polynomial r of
    degree D in t.  With delta = u/v and L the lcm of the row's
    denominators, L v^D r(z/v) has integer coefficients; the classical
    Taylor shift by u turns them into those of L v^D r((z + u)/v), and
    coefficient j of r(t + delta) is the shifted one over L v^(D - j).
    """
    u, v = delta.numerator, delta.denominator
    rows: dict[int, dict[int, Fraction]] = {}
    for e, c in terms.items():
        rows.setdefault(e[1 - axis], {})[e[axis]] = c
    out: dict[tuple[int, int], Fraction] = {}
    for key, row in rows.items():
        deg = max(row)
        vpow = [1]
        for _ in range(deg):
            vpow.append(vpow[-1] * v)
        nums, den = _numerators(list(row.values()))
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


def _normal(terms: dict[tuple[int, int], Fraction]) -> BiPoly:
    """A BiPoly over terms already in normal form (int exponents, nonzero
    Fraction coefficients), as the kernel's exponent maps and shifts leave
    them, without the constructor's per-term checks."""
    p = BiPoly.__new__(BiPoly)
    p.terms = terms
    return p


# ---------------------------------------------------------------------------
# gcd and squarefree split: integer rows over Z[x][y]
# ---------------------------------------------------------------------------
#
# A polynomial in Z[x] is a list of ints indexed by degree; a polynomial in
# Z[x][y] is a list of such rows indexed by y-degree.  Neither has trailing
# zeros, and zero is [].  A rows polynomial is primitive when the gcd of its
# rows in Z[x] is 1; Gauss's lemma makes primitive gcds and quotients by
# primitive divisors exact in these rows.

def _strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _zmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def _zsub(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    else:
        a = list(a)
    for i, v in enumerate(b):
        a[i] -= v
    return _strip(a)


def _zdivexact(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[x]; raises ValueError when b does not divide a."""
    a, lead, db = list(a), b[-1], len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(a[k + db], lead)
        if r:
            raise ValueError("inexact division in Z[x]")
        q[k] = c
        if c:
            for j, v in enumerate(b):
                a[k + j] -= c * v
    if any(a):
        raise ValueError("inexact division in Z[x]")
    return q


def _zprem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b in Q[x]."""
    a, lead, db = list(a), b[-1], len(b) - 1
    while len(a) > db:
        top = a.pop()
        g = math.gcd(top, lead)
        u, w, k = lead // g, top // g, len(a) - db
        if u != 1:
            a = [u * v for v in a]
        for j in range(db):
            a[k + j] -= w * b[j]
        _strip(a)
    return a


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Z[x] (content times primitive PRS), up to sign."""
    if not a or not b:
        return list(a or b)
    c = math.gcd(math.gcd(*a), math.gcd(*b))
    if len(a) == 1 or len(b) == 1:
        return [c]
    a, b = _zprimitive(a), _zprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _zprimitive(_zprem(a, b))
    return [c * v for v in a]


def _zprimitive(a: list[int]) -> list[int]:
    c = math.gcd(*a)
    return a if c == 1 else [v // c for v in a]


def _rows(p: BiPoly) -> list[list[int]]:
    """p as integer rows, its denominators cleared."""
    nums, _ = _numerators(list(p.terms.values()))
    rows: list[list[int]] = [[] for _ in range(1 + max(b for _, b in p.terms))]
    for (a, b), n in zip(p.terms, nums):
        row = rows[b]
        if len(row) <= a:
            row.extend([0] * (a + 1 - len(row)))
        row[a] = n
    return rows


def _from_rows(rows: list[list[int]]) -> BiPoly:
    """The BiPoly of nonzero integer rows, made monic in grlex."""
    terms = {(a, b): v for b, row in enumerate(rows)
             for a, v in enumerate(row) if v}
    lead = terms[max(terms, key=_grlex_key)]
    return _normal({e: Fraction(v, lead) for e, v in terms.items()})


def _rsub(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    a = a + [[]] * (len(b) - len(a))
    return _strip([_zsub(u, v) for u, v in zip(a, b)] + a[len(b):])


def _rdiff(a: list[list[int]]) -> list[list[int]]:
    """Derivative along y."""
    return [[i * v for v in row] for i, row in enumerate(a)][1:]


def _content(a: list[list[int]]) -> list[int]:
    """gcd in Z[x] of the rows, shortest first so that a constant stops
    the polynomial gcds early."""
    g: list[int] = []
    for row in sorted((r for r in a if r), key=len):
        g = _zgcd(g, row)
        if len(g) == 1 and g[0] in (1, -1):
            break
    return g


def _rdivexact(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a / b in Z[x][y] for primitive b dividing a over Q."""
    a, lead, db = list(a), b[-1], len(b) - 1
    q: list[list[int]] = [[] for _ in range(len(a) - db)]
    for k in range(len(q) - 1, -1, -1):
        if a[k + db]:
            c = q[k] = _zdivexact(a[k + db], lead)
            for j in range(db):
                a[k + j] = _zsub(a[k + j], _zmul(c, b[j]))
    if any(a[:db]):
        raise ValueError("inexact division in Z[x][y]")
    return q


def _primitive(a: list[list[int]]) -> list[list[int]]:
    c = _content(a)
    if len(c) == 1 and c[0] in (1, -1):
        return a
    return [_zdivexact(row, c) for row in a]


def _prem(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Pseudo-remainder of a by b along y."""
    a, lead, db = list(a), b[-1], len(b) - 1
    while len(a) > db:
        top, k = a.pop(), len(a) - db
        a = [_zmul(lead, row) for row in a]
        for j in range(db):
            a[k + j] = _zsub(a[k + j], _zmul(top, b[j]))
        _strip(a)
    return a


def _primitive_gcd(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """gcd of primitive rows by the primitive PRS along y; primitive."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _gcd_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    ca, cb = _content(a), _content(b)
    g = _primitive_gcd(_primitive(a), _primitive(b))
    c = _zgcd(ca, cb)
    return [_zmul(c, row) for row in g]


def gcd_bi(p: BiPoly, q: BiPoly) -> BiPoly:
    """Greatest common divisor in Q[x, y], normalized monic in graded-lex.

    Brown's primitive PRS over Z[x][y] on integer rows, with contents
    taken in Z[x].
    """
    return gcd_bi_many([p, q])


def gcd_bi_many(polys: Iterable[BiPoly]) -> BiPoly:
    g: list[list[int]] = []
    for p in polys:
        if p.is_zero():
            continue
        g = _rows(p) if not g else _gcd_rows(g, _rows(p))
        if len(g) == 1 and len(g[0]) == 1:
            break
    if not g:
        raise ValueError("gcd of all-zero family")
    return _from_rows(g)


def _yun(f: list[list[int]]) -> list[tuple[list[list[int]], int]]:
    """Yun's squarefree split of primitive rows f along y: the products of
    the factors of each multiplicity, nonconstant ones only."""
    df = _rdiff(f)
    a = _primitive_gcd(f, _primitive(df))
    b, c = _rdivexact(f, a), _rdivexact(df, a)
    out = []
    i = 1
    while len(b) > 1:
        d = _rsub(c, _rdiff(b))
        a = _primitive_gcd(b, _primitive(d)) if d else b
        if len(a) > 1:
            out.append((a, i))
        b, c = _rdivexact(b, a), _rdivexact(d, a)
        i += 1
    return out


def squarefree_decomposition(h: BiPoly) -> list[tuple[BiPoly, int]]:
    """Write h (up to a constant) as a product of pairwise coprime squarefree
    factors with exponents, one factor per exponent, in increasing order.

    Yun's algorithm twice: on the content of h in Z[x], read as rows in the
    variable x, and on its primitive part along y.
    """
    if h.is_zero() or h.is_constant():
        return []
    rows = _rows(h)
    cont = _content(rows)
    parts: dict[int, list[list[int]]] = {}
    if len(cont) > 1:
        for a, i in _yun(_primitive([[v] if v else [] for v in cont])):
            parts[i] = [[v[0] if v else 0 for v in a]]
    if len(rows) > 1:
        for a, i in _yun(_primitive(rows)):
            c = parts.get(i, [[1]])[0]
            parts[i] = [_zmul(c, row) for row in a]
    return [(_from_rows(parts[i]), i) for i in sorted(parts)]


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

_EXPONENT_CAP = 256


class _Parser:
    def __init__(self, text: str, names: tuple[str, str]):
        self.text = text
        self.pos = 0
        self.names = names

    def error(self, msg: str, cls=ParseError):
        raise cls(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.error("decimal literals are not rational", NonRationalLiteralError)
        return int(self.text[start:self.pos])

    def parse_expr(self) -> BiPoly:
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        elif self.peek() == "+":
            self.pos += 1
        acc = self.parse_term().scale(sign)
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self.parse_term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self.parse_term()
            else:
                return acc

    def parse_term(self) -> BiPoly:
        acc = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> BiPoly:
        base = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            if self.peek() == "-":
                self.error("exponent must be a nonnegative integer")
            k = self.take_int()
            if k > _EXPONENT_CAP:
                raise DegreeCapExceeded(f"exponent {k} exceeds cap {_EXPONENT_CAP}")
            # exact before expanding: Q[x, y] has no zero divisors
            _check_degree(base.total_degree() * k)
            return base ** k
        return base

    def parse_atom(self) -> BiPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return inner
        if ch == "-":
            self.pos += 1
            return -self.parse_atom()
        if ch.isdigit():
            num = self.take_int()
            if self.peek() == "/":
                mark = self.pos
                self.pos += 1
                if not self.peek().isdigit():
                    self.pos = mark
                    self.error("'/' outside a rational literal")
                den = self.take_int()
                if den == 0:
                    self.error("zero denominator in rational literal",
                               NonRationalLiteralError)
                return BiPoly.const(Fraction(num, den))
            return BiPoly.const(num)
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if name == self.names[0]:
                return BiPoly.x()
            if name == self.names[1]:
                return BiPoly.y()
            self.pos = start
            self.error(f"unknown variable {name!r}", UnknownVariableError)
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")


def parse_poly(text: str, names: tuple[str, str] = ("x", "y")) -> BiPoly:
    """Parse ASCII polynomial text into a BiPoly.

    Grammar: integers, rational literals a/b, the two declared variables,
    operators + - * ^ and parentheses.  Multiplication is always explicit.
    """
    p = _Parser(text, names)
    result = p.parse_expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    _check_degree(result.total_degree())
    return result


def _check_degree(degree: int) -> None:
    if degree > DEGREE_CAP:
        raise DegreeCapExceeded(
            f"total degree {degree} exceeds cap {DEGREE_CAP}")


def _monomial_str(a: int, b: int, c: Fraction,
                  names: tuple[str, str]) -> str:
    parts = []
    if a:
        parts.append(names[0] if a == 1 else f"{names[0]}^{a}")
    if b:
        parts.append(names[1] if b == 1 else f"{names[1]}^{b}")
    cs = str(abs(c))
    if not parts:
        return cs
    if abs(c) != 1:
        parts.insert(0, cs)
    return "*".join(parts)


def poly_to_str(p: BiPoly, names: tuple[str, str] = ("x", "y")) -> str:
    """Canonical text form; graded-lex descending, round-trips via parse_poly."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
    out = []
    for (a, b), c in items:
        mono = _monomial_str(a, b, c, names)
        if not out:
            out.append(("-" if c < 0 else "") + mono)
        else:
            out.append((" - " if c < 0 else " + ") + mono)
    return "".join(out)


def mult_at_point(p: BiPoly, pt: tuple[Fraction, Fraction]):
    """Multiplicity of p at a rational point: min total degree after recentering.

    Returns INFINITE_MULT for the zero polynomial.
    """
    return p.mult_at_point((Fraction(pt[0]), Fraction(pt[1])))


def frac_str(q: Fraction) -> str:
    """Lowest-terms display: '-2/5', integers without denominator."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def uni_to_str(p: UniPoly, var: str) -> str:
    """Display a univariate polynomial in a named variable."""
    return str(p).replace("s", var)
