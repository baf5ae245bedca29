"""Exact univariate and bivariate polynomial arithmetic over the rationals.

Every polynomial is stored as integer numerators over one positive common
denominator in lowest terms: gcd(den, *numerators) == 1 and no numerator
is zero.  The form is unique, so the identity tests everything downstream
depends on compare integers.  A bivariate polynomial maps exponent pairs
(a, b) to numerators.  A restriction to an exceptional line, and a zero
set on it, is a plain list of integers by degree (a row), up to a nonzero
factor.

Every kernel computes on integers and builds no Fraction per coefficient;
gcds, the squarefree split, exact division and the rational roots run on
primitive integer rows; every bivariate product and power is one
schoolbook convolution over packed exponents (`_product`).
`BiPoly.terms` is a read-only Fraction view, for printing and callers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

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

def _new(cls, nums, den: int):
    """An instance of cls over numerators already in lowest terms."""
    p = object.__new__(cls)
    p.nums, p.den = nums, den
    return p


def _lowest(den: int, nums: Iterable[int]) -> int:
    """The divisor, of the sign of den, that brings nums / den to lowest
    terms over a positive denominator."""
    if den == 1:
        return 1
    g = math.gcd(den, *nums)
    return g if den > 0 else -g


def _hpowers(q: int | Fraction, d: int) -> list[int]:
    """u^i v^(d - i) for i = 0..d, with q = u/v: the numerator of q^i over
    the denominator v^d."""
    u, v = q.numerator, q.denominator
    up, vp = [1] * (d + 1), [1] * (d + 1)
    for i in range(d):
        up[i + 1], vp[i + 1] = up[i] * u, vp[i] * v
    return up if v == 1 else [a * b for a, b in zip(up, reversed(vp))]


def _product(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """Integer convolution of nonzero polynomials given as {packed exponent:
    numerator}, packed so that exponents add under multiplication; an
    output entry may be zero."""
    qs = list(q.items())
    acc: dict[int, int] = {}
    for i, a in p.items():
        for j, b in qs:
            acc[i + j] = acc.get(i + j, 0) + a * b
    return acc


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def rational_roots(row: Sequence[int]
                   ) -> tuple[list[tuple[Fraction, int]], list[int]]:
    """All rational roots of the nonzero integer row with multiplicities,
    plus the primitive root-free cofactor, up to sign; the cofactor has
    positive degree exactly when the row has irrational (or complex) zeros.
    """
    p = _strip(list(row))
    if not p:
        raise ValueError("zero polynomial")
    # strip the root at 0 first
    k = 0
    while p[k] == 0:
        k += 1
    roots = [(Fraction(0), k)] if k else []
    a = _zprimitive(p[k:])
    if len(a) > 1:
        # a linear part's one candidate is its root: no trial division
        cands = {Fraction(-a[0], a[1])} if len(a) == 2 else {
            Fraction(s * u, v) for u in _divisors(a[0])
            for v in _divisors(a[-1]) for s in (1, -1)}
        for r in sorted(cands):
            u, v, mult = r.numerator, r.denominator, 0
            while len(a) > 1 and _zhorner(a, u, v) == 0:
                a = _zdivexact(a, [-u, v])
                mult += 1
            if mult:
                roots.append((r, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, a


def _zhorner(a, u: int, v: int) -> int:
    """v^deg(a) * a(u/v), by homogeneous Horner on integers; 0 for []."""
    acc, vpow = a[-1] if a else 0, 1
    for c in reversed(a[:-1]):
        vpow *= v
        acc = acc * u + c * vpow
    return acc


# ---------------------------------------------------------------------------
# bivariate
# ---------------------------------------------------------------------------

#: The exponents a constant may have.
_CONSTANT = frozenset({(0, 0)})


def _grlex_key(e: tuple[int, int]) -> tuple[int, int]:
    return (e[0] + e[1], e[0])


class BiPoly:
    """Sparse bivariate polynomial over Q in variables x, y.

    `nums` maps exponent pairs (a, b) to nonzero integer numerators over
    the denominator `den` >= 1, with gcd(den, *nums.values()) == 1; the
    zero polynomial has no numerators.  `terms` is a read-only Fraction
    view, {(a, b): coefficient}.  A product of powers that `parse_poly`
    keeps typed is a `_Product`, which computes `nums` and `den` only when
    one is first read.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        cs = {(int(a), int(b)): Fraction(c)
              for (a, b), c in (terms or {}).items()}
        den = math.lcm(*(c.denominator for c in cs.values()))
        p = BiPoly.from_ints({e: int(c * den) for e, c in cs.items()}, den)
        self.nums, self.den = p.nums, p.den

    # -- constructors --

    @classmethod
    def from_ints(cls, nums: dict[tuple[int, int], int],
                  den: int = 1) -> "BiPoly":
        """The polynomial with coefficients nums[e] / den, den != 0."""
        g = _lowest(den, nums.values())
        return _new(cls, {e: n // g for e, n in nums.items() if n}, den // g)

    @classmethod
    def zero(cls) -> "BiPoly":
        return _new(cls, {}, 1)

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls.monomial(0, 0, c)

    @classmethod
    def x(cls) -> "BiPoly":
        return _new(cls, {(1, 0): 1}, 1)

    @classmethod
    def y(cls) -> "BiPoly":
        return _new(cls, {(0, 1): 1}, 1)

    @classmethod
    def monomial(cls, a: int, b: int, c=1) -> "BiPoly":
        c = Fraction(c)
        return cls.from_ints({(a, b): c.numerator}, c.denominator)

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return {e: Fraction(n, self.den) for e, n in self.nums.items()}

    # -- basic queries --

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return self.nums.keys() <= _CONSTANT

    def total_degree(self) -> int:
        if not self.nums:
            return 0
        return max(a + b for a, b in self.nums)

    def mult_at_origin(self):
        """Lowest total degree of a term; INFINITE_MULT for zero."""
        if not self.nums:
            return INFINITE_MULT
        return min(a + b for a, b in self.nums)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BiPoly) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.den, frozenset(self.nums.items())))

    # -- arithmetic --

    def __add__(self, other: "BiPoly") -> "BiPoly":
        den = math.lcm(self.den, other.den)
        k, m = den // self.den, den // other.den
        out = {e: n * k for e, n in self.nums.items()}
        for e, n in other.nums.items():
            out[e] = out.get(e, 0) + n * m
        return BiPoly.from_ints(out, den)

    def __neg__(self) -> "BiPoly":
        return _new(BiPoly, {e: -n for e, n in self.nums.items()}, self.den)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if not self.nums or not other.nums:
            return BiPoly.zero()
        if len(self.nums) == 1:
            self, other = other, self
        if len(other.nums) == 1:
            ((a, b), c), = other.nums.items()
            return BiPoly.from_ints({(u + a, v + b): n * c for (u, v), n in
                                     self.nums.items()}, self.den * other.den)
        # (a, b) packs to a*s + b, with s past the product's y-degree
        s = max(b for _, b in self.nums) + max(b for _, b in other.nums) + 1
        out = _product({a * s + b: n for (a, b), n in self.nums.items()},
                       {a * s + b: n for (a, b), n in other.nums.items()})
        return BiPoly.from_ints({divmod(k, s): n for k, n in out.items()},
                                self.den * other.den)

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power")
        if not self.nums:
            return self if n else BiPoly.const(1)
        if len(self.nums) == 1:
            ((a, b), c), = self.nums.items()
            return _new(BiPoly, {(a * n, b * n): c ** n}, self.den ** n)
        # (a, b) packs to a*s + b, with s past the power's y-degree
        s = n * max(b for _, b in self.nums) + 1
        nums = {a * s + b: v for (a, b), v in self.nums.items()}
        out = reduce(_product, [nums] * n, {0: 1})
        return BiPoly.from_ints({divmod(k, s): v for k, v in out.items()},
                                self.den ** n)

    # -- structure --

    def lead_grlex(self) -> tuple[tuple[int, int], Fraction]:
        if not self.nums:
            raise ValueError("zero polynomial")
        e = max(self.nums, key=_grlex_key)
        return e, Fraction(self.nums[e], self.den)

    def monic_grlex(self) -> "BiPoly":
        if self.is_zero():
            return self
        return BiPoly.from_ints(self.nums,
                                self.nums[max(self.nums, key=_grlex_key)])

    def divexact(self, d: "BiPoly") -> "BiPoly":
        """Exact division; raises ValueError when d does not divide self.

        On integer rows, by d over its integer content k: by Gauss's lemma
        that quotient is exact in Z[x][y] when d divides self over Q."""
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        k = math.gcd(*d.nums.values())
        q = _rdivexact(_rows(self),
                       [[v // k for v in row] for row in _rows(d)])
        return BiPoly.from_ints({(a, j): n * d.den for j, row in enumerate(q)
                                 for a, n in enumerate(row)}, self.den * k)

    def x_order(self) -> int:
        """Largest k with x^k dividing self (0 for the zero polynomial)."""
        if not self.nums:
            return 0
        return min(a for a, _ in self.nums)

    def y_order(self) -> int:
        if not self.nums:
            return 0
        return min(b for _, b in self.nums)

    def divide_x_power(self, k: int) -> "BiPoly":
        return _new(BiPoly, {(a - k, b): n for (a, b), n in self.nums.items()},
                    self.den)

    def divide_y_power(self, k: int) -> "BiPoly":
        return _new(BiPoly, {(a, b - k): n for (a, b), n in self.nums.items()},
                    self.den)

    # -- substitutions used by the blow-up kernel --

    def subst_chart_a(self, k: int = 0) -> "BiPoly":
        """Pullback under (x, y) -> (x, x*y), divided by x^k, k at most
        mult_at_origin: monomial map (a,b) -> (a+b-k, b)."""
        return _new(BiPoly, {(a + b - k, b): n
                             for (a, b), n in self.nums.items()}, self.den)

    def subst_chart_b(self, k: int = 0) -> "BiPoly":
        """Pullback under (x, y) -> (x*y, y), divided by y^k, k at most
        mult_at_origin: monomial map (a,b) -> (a, a+b-k)."""
        return _new(BiPoly, {(a, a + b - k): n
                             for (a, b), n in self.nums.items()}, self.den)

    def translate(self, dx, dy) -> "BiPoly":
        """p(x + dx, y + dy), for ints or Fractions dx and dy."""
        if not self.nums or not (dx or dy):
            return self
        nums, den = self.nums, self.den
        if dy:
            nums, den = _shift_rows(nums, den, dy, 1)
        if dx:
            nums, den = _shift_rows(nums, den, dx, 0)
        return BiPoly.from_ints(nums, den)

    # -- restrictions to a divisor, as integer rows --

    def x0_row(self) -> list[int]:
        """The numerators of p(0, t) by degree, without a trailing zero:
        den times p(0, t)."""
        col = {b: n for (a, b), n in self.nums.items() if not a}
        return [col.get(b, 0) for b in range(max(col, default=-1) + 1)]

    def y_coeffs(self, beta) -> list[int]:
        """The numerators of p(t, beta) by degree, without a trailing zero:
        den v^D times p(t, beta) for beta = u/v, D the y-degree of p."""
        if not beta:
            col = {a: n for (a, b), n in self.nums.items() if not b}
            return [col.get(a, 0) for a in range(max(col, default=-1) + 1)]
        out = [0] * (max((a for a, _ in self.nums), default=-1) + 1)
        powers = _hpowers(beta, max((b for _, b in self.nums), default=0))
        for (a, b), n in self.nums.items():
            out[a] += n * powers[b]
        return _strip(out)

    # -- printing --

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"BiPoly({poly_to_str(self)})"


class _Product(BiPoly):
    """A nonzero polynomial typed as `const` times the product of base^e
    over `factors` = ((base, e), ...), nonconstant bases, one of several
    terms at least.  `nums` and `den` are computed on their first read
    (`_expand`) and kept; the zero test is read off the factors, and so
    is the grlex lead in `curve_part`.  The read hook lives on this
    subclass alone, so attribute reads on every other BiPoly stay plain
    slot reads."""

    __slots__ = ("const", "factors")

    def __getattr__(self, name: str):
        # reached only while the nums and den slots are unset
        if name not in ("nums", "den"):
            raise AttributeError(name)
        p = _expand(self.const, self.factors)
        self.nums, self.den = p.nums, p.den
        return getattr(p, name)

    def is_zero(self) -> bool:
        return False


def _expand(c: int | Fraction, bases: Iterable[tuple[BiPoly, int]]
            ) -> BiPoly:
    """c times the product of base^e over bases, as a plain BiPoly: the
    constant and the one-term bases first, as one monomial."""
    a = b = 0
    rest = []
    for p, e in bases:
        if len(p.nums) == 1:
            ((u, v), n), = p.nums.items()
            a, b = a + u * e, b + v * e
            if n != 1 or p.den != 1:
                c = c * Fraction(n, p.den) ** e
        else:
            rest.append(p ** e if e > 1 else p)
    if c == 1 and not (a or b) and rest:
        acc = rest.pop()
    else:
        acc = _new(BiPoly, {(a, b): c.numerator}, c.denominator) if c else \
            BiPoly.zero()
    for p in rest:
        acc = acc * p
    return acc


def combination(coeffs: Sequence, polys: Iterable[BiPoly]) -> BiPoly:
    """sum(c_i p_i) for int or Fraction coefficients, times one positive
    integer, on numerators: one Fraction per coefficient, none per term."""
    pairs = [(Fraction(c), p) for c, p in zip(coeffs, polys)]
    scale = math.lcm(*(c.denominator * p.den for c, p in pairs))
    out: dict[tuple[int, int], int] = {}
    for c, p in pairs:
        if k := c.numerator * (scale // (c.denominator * p.den)):
            for e, n in p.nums.items():
                out[e] = out.get(e, 0) + k * n
    return BiPoly.from_ints(out)


def _shift_rows(nums: dict[tuple[int, int], int], den: int,
                delta: int | Fraction,
                axis: int) -> tuple[dict[tuple[int, int], int], int]:
    """Numerators and denominator of nonzero p = nums / den with the
    variable of exponent index `axis` replaced by itself plus delta = u/v.

    A row r of degree d (the terms sharing the other exponent, numerators
    a_j) gives A(z) = sum a_j v^(d - j) z^j with A(v t) = v^d r(t); the
    classical Taylor shift by u makes A(z + u) = sum A'_j z^j, so numerator
    j of r(t + delta) over den v^D, D the largest d, is A'_j v^(D - d + j).
    """
    u, v = delta.numerator, delta.denominator
    rows: dict[int, dict[int, int]] = {}
    for e, n in nums.items():
        rows.setdefault(e[1 - axis], {})[e[axis]] = n
    top = max(max(row) for row in rows.values())
    vpow = [v ** k for k in range(top + 1)]
    out: dict[tuple[int, int], int] = {}
    for key, row in rows.items():
        deg = max(row)
        a = [0] * (deg + 1)
        for j, n in row.items():
            a[j] = n * vpow[deg - j]
        for i in range(deg):
            acc = a[deg]
            for j in range(deg - 1, i - 1, -1):
                acc = a[j] + u * acc
                a[j] = acc
        for j, n in enumerate(a):
            if n:
                out[(key, j) if axis else (j, key)] = n * vpow[top - deg + j]
    return out, den * vpow[top]


# ---------------------------------------------------------------------------
# gcd and squarefree split: integer rows over Z[x][y]
# ---------------------------------------------------------------------------
#
# A polynomial in Z[x] is a list of ints indexed by degree; a polynomial in
# Z[x][y] is a list of such rows indexed by y-degree.  Neither has trailing
# zeros, and zero is [].  One heuristic gcd (`_gcd`) serves both; by Gauss's
# lemma a quotient by a divisor primitive over Z is exact in these rows.

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


def _zprimitive(a: list[int]) -> list[int]:
    c = math.gcd(*a)
    return a if c == 1 else [v // c for v in a]


def _rows(p: BiPoly) -> list[list[int]]:
    """The numerators of nonzero p as integer rows indexed by y-degree."""
    rows: list[list[int]] = [[] for _ in range(1 + max(b for _, b in p.nums))]
    for (a, b), n in p.nums.items():
        row = rows[b]
        if len(row) <= a:
            row.extend([0] * (a + 1 - len(row)))
        row[a] = n
    return rows


def _from_rows(rows: list[list[int]]) -> BiPoly:
    """The BiPoly of nonzero integer rows, made monic in grlex."""
    nums = {(a, b): v for b, row in enumerate(rows)
            for a, v in enumerate(row) if v}
    return BiPoly.from_ints(nums, nums[max(nums, key=_grlex_key)])


def _rsub(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    a = a + [[]] * (len(b) - len(a))
    return _strip([_zsub(u, v) for u, v in zip(a, b)] + a[len(b):])


def _rdiff(a: list[list[int]]) -> list[list[int]]:
    """Derivative along y."""
    return [[i * v for v in row] for i, row in enumerate(a)][1:]


def _rdivexact(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a / b in Z[x][y] for b primitive over Z; raises ValueError when b
    does not divide a."""
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


def _ints(a: list) -> list[int]:
    """The integer coefficients of nonzero a in Z[x] or Z[x][y]."""
    return [v for row in a for v in row] if isinstance(a[-1], list) else a


def _neg(a: list) -> list:
    """-a for a in Z[x] or Z[x][y]."""
    return [_neg(v) if isinstance(v, list) else -v for v in a]


def _digits(v: int, xi: int) -> list[int]:
    """The row of symmetric base-xi digits of v, each of absolute value at
    most xi / 2: the polynomial in Z[x] that takes the value v at xi."""
    out = []
    while v:
        v, d = divmod(v, xi)
        if 2 * d > xi:
            v, d = v + 1, d - xi
        out.append(d)
    return out


def _gcd(a: list, b: list) -> tuple[list, list, list]:
    """(g, a / g, b / g) for nonzero a and b, both in Z[x] or both in
    Z[x][y] (rows), where g is their gcd up to sign, primitive over Z: the
    heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7,
    1989).

    Set x to an integer xi > 2 |a| + 1, where |p| is the largest absolute
    coefficient of p and |a| <= |b|; take the gcd gamma of a(xi) and b(xi),
    an integer gcd or, for rows, one recursive call in Z[y] times the
    integer content the values share; read gamma back as the polynomial h
    of its symmetric base-xi digits, and accept G = h over its integer
    content once exact division shows that it divides a and b.  Otherwise
    grow xi and repeat.  A unit G (+-1) divides both, so it is taken with
    no division, with a and b, negated for -1, as the cofactors.

    A G that divides a and b is their gcd.  Write gcd(a, b) = G c; then
    c(xi) divides gamma / G(xi) = cont(h), at most xi / 2, so c(xi) is an
    integer.  Every complex root of a row of a lies below 1 + |a| <= xi / 2
    in modulus (Cauchy's bound).  c's leading row divides a's, so it does
    not vanish at xi, and c has no y; c then divides every row of a, so
    unless c is an integer, |c(xi)| > xi / 2.

    The loop ends.  With cofactors A and B, gamma is gcd(a, b)(xi) times
    e = gcd(A(xi), B(xi)), and e divides the resultant of A and B in x,
    which is nonzero and does not change with xi; e is a constant once xi
    is not a root of their resultant in y.  So e is bounded, and once xi is
    past twice the coefficients of e gcd(a, b), h is that product: G is the
    gcd.
    """
    rows = isinstance(a[-1], list)
    div = _rdivexact if rows else _zdivexact
    xi = 2 * min(max(map(abs, _ints(a))), max(map(abs, _ints(b)))) + 2
    while True:
        if rows:
            va, vb = (_strip([_zhorner(r, xi, 1) for r in p]) for p in (a, b))
            k = math.gcd(*va, *vb)
            gamma = [k * v for v in _gcd(va, vb)[0]] if va and vb else va or vb
            h = [_digits(v, xi) for v in gamma]
            c = math.gcd(*_ints(h))
            g = [[v // c for v in row] for row in h]
        else:
            g = _zprimitive(_digits(
                math.gcd(_zhorner(a, xi, 1), _zhorner(b, xi, 1)), xi))
        if len(g) == 1 and len(unit := g[0] if rows else g) == 1:
            return (g, a, b) if unit[0] == 1 else (g, _neg(a), _neg(b))
        try:
            return g, div(a, g), div(b, g)
        except ValueError:
            xi = xi * 73794 // 27011


def row_gcd(rows: Iterable[Sequence[int]]) -> list[int]:
    """gcd in Z[t] of integer rows by degree, up to sign, primitive,
    stopping at the first constant gcd; [] when every row is zero."""
    g: list[int] = []
    for row in rows:
        if row := _strip(list(row)):
            g = _gcd(g, row)[0] if g else _zprimitive(row)
            if len(g) == 1:
                break
    return g


def squarefree_part(row: Sequence[int]) -> list[int]:
    """The primitive row of p / gcd(p, p'), up to sign, for the nonzero
    integer row p: one copy of each root."""
    a = _zprimitive(_strip(list(row)))
    if not a:
        raise ValueError("zero polynomial")
    if len(a) == 1:
        return a
    return _gcd(a, [i * v for i, v in enumerate(a)][1:])[1]


def gcd_bi(p: BiPoly, q: BiPoly) -> BiPoly:
    """Greatest common divisor in Q[x, y], normalized monic in graded-lex,
    by `_gcd` on integer rows."""
    rows = [_rows(f) for f in (p, q) if f.nums]
    if not rows:
        raise ValueError("gcd of two zero polynomials")
    return _from_rows(rows[0] if len(rows) == 1 else _gcd(*rows)[0])


def _yun(f: list[list[int]]) -> list[tuple[list[list[int]], int]]:
    """Yun's squarefree split of rows f along y, primitive in Z[x]: the
    products of the factors of each multiplicity, nonconstant ones only."""
    a, b, c = _gcd(f, _rdiff(f))
    out = []
    i = 1
    while len(b) > 1:
        d = _rsub(c, _rdiff(b))
        a, b, c = _gcd(b, d) if d else (b, [[1]], [])
        if len(a) > 1:
            out.append((a, i))
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
    cont = row_gcd(sorted(rows, key=len))
    parts: dict[int, list[list[int]]] = {}
    if len(cont) > 1:
        for a, i in _yun([[v] if v else [] for v in cont]):
            parts[i] = [[v[0] if v else 0 for v in a]]
    if len(rows) > 1:
        for a, i in _yun([_zdivexact(row, cont) for row in rows]):
            c = parts.get(i, [[1]])[0]
            parts[i] = [_zmul(c, row) for row in a]
    return [(_from_rows(parts[i]), i) for i in sorted(parts)]


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

_EXPONENT_CAP = 256
#: A literal's digits, a coefficient's bits (`_bits`: 2^4096 has 1,234
#: digits, which str() prints), and parentheses open at once.
_DIGIT_CAP, _BIT_CAP, _DEPTH_CAP = 1000, 4096, 100


class _Parser:
    def __init__(self, text: str, names: tuple[str, str]):
        self.text, self.pos, self.names = text, 0, names
        self.depth = 0
        self.advance(0)

    def error(self, msg: str, cls=ParseError):
        raise cls(msg, self.pos)

    def advance(self, k: int = 1):
        """Step over k characters and the whitespace after them."""
        self.pos += k
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def take_int(self, denominator: bool = False) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.error("decimal literals are not rational", NonRationalLiteralError)
        if self.pos - start > _DIGIT_CAP:
            raise DegreeCapExceeded(
                f"integer literal of {self.pos - start} digits exceeds cap "
                f"{_DIGIT_CAP}")
        n = int(self.text[start:self.pos])
        if denominator and not n:
            self.error("zero denominator in rational literal",
                       NonRationalLiteralError)
        self.advance(0)
        return n

    # Each parse_* returns (c, bases, total degree, bits): the value c times
    # the product of base^e over bases, c an int or Fraction, bases plain
    # nonconstant polynomials and none when c is 0; bits bounds the
    # coefficients (`_bits`).  A product stays typed; a sum expands its
    # terms and is one base.

    def parse_expr(self) -> tuple[int | Fraction, list, int, int]:
        if (negate := self.peek() == "-") or self.peek() == "+":
            self.advance()
        c, bases, degree, bits = self.parse_term()
        if negate:
            c = -c
        if self.peek() not in ("+", "-"):
            return c, bases, degree, bits
        acc = _expand(c, bases)
        while (ch := self.peek()) in ("+", "-"):
            self.advance()
            c, bases = self.parse_term()[:2]
            acc = acc + _expand(c if ch == "+" else -c, bases)
        degree, bits = acc.total_degree(), _bits(acc)
        _check_caps(degree, bits)
        if acc.is_constant():
            return Fraction(acc.nums.get((0, 0), 0), acc.den), [], degree, bits
        return 1, [(acc, 1)], degree, bits

    def parse_term(self) -> tuple[int | Fraction, list, int, int]:
        c, bases, degree, bits = self.parse_factor()
        while self.peek() == "*":
            self.advance()
            k, more, d, b = self.parse_factor()
            # exact before expanding, as for powers (0 has degree 0)
            _check_caps(degree + d, bits + b)
            c *= k
            bases, degree, bits = ((bases + more, degree + d, bits + b) if c
                                   else ([], 0, 0))
        return c, bases, degree, bits

    def parse_factor(self) -> tuple[int | Fraction, list, int, int]:
        c, bases, degree, bits = self.parse_atom()
        if self.peek() == "^":
            self.advance()
            if self.peek() == "-":
                self.error("exponent must be a nonnegative integer")
            k = self.take_int()
            if k > _EXPONENT_CAP:
                raise DegreeCapExceeded(f"exponent {k} exceeds cap {_EXPONENT_CAP}")
            # exact before expanding: Q[x, y] has no zero divisors
            _check_caps(degree * k, bits * k)
            return (c ** k, [(b, e * k) for b, e in bases if k], degree * k,
                    bits * k)
        return c, bases, degree, bits

    def parse_atom(self) -> tuple[int | Fraction, list, int, int]:
        ch = self.peek()
        if ch == "(":
            if self.depth == _DEPTH_CAP:
                self.error(f"parentheses nested deeper than {_DEPTH_CAP}")
            self.depth += 1
            self.advance()
            inner = self.parse_expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.depth -= 1
            self.advance()
            return inner
        if ch == "-":
            odd = False  # a run of signs is a loop, not a recursion
            while self.peek() == "-":
                self.advance()
                odd = not odd
            c, bases, degree, bits = self.parse_atom()
            return (-c if odd else c), bases, degree, bits
        if ch.isdigit():
            c = self.take_int()
            if self.peek() == "/":
                mark = self.pos
                self.advance()
                if not self.peek().isdigit():
                    self.pos = mark
                    self.error("'/' outside a rational literal")
                c = Fraction(c, self.take_int(denominator=True))
            # `_bits` of the constant, off its numerator and denominator
            return c, [], 0, max((max(abs(c.numerator), 1) - 1).bit_length(),
                                 (c.denominator - 1).bit_length())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if name in self.names:
                self.advance(0)
                v = BiPoly.x() if name == self.names[0] else BiPoly.y()
                return 1, [(v, 1)], 1, 0
            self.pos = start
            self.error(f"unknown variable {name!r}", UnknownVariableError)
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")


def parse_poly(text: str, names: tuple[str, str] = ("x", "y")) -> BiPoly:
    """Parse ASCII polynomial text into a BiPoly.

    Grammar: integers, rational literals a/b, the two declared variables,
    operators + - * ^ and parentheses.  Multiplication is always explicit.

    A product of powers with a base of several terms is returned
    unexpanded, as a `_Product`: a constant `const` times the product of
    base^e over `factors` = ((base, e), ...), whose numerators are computed
    when `nums` or `den` is first read.  Constants are folded,
    parenthesized products and nested powers flattened, and a sum is
    expanded and stays one base.  Any other result (zero, one base to the
    first power, a sum or a monomial) is a plain BiPoly.  A degree,
    exponent, literal or coefficient size past its cap is refused before
    anything expands, and so is nesting past 100 parentheses.
    """
    p = _Parser(text, names)
    c, bases, degree, _ = p.parse_expr()
    if p.pos != len(text):
        p.error("trailing input")
    _check_caps(degree, 0)
    return _typed(c, bases)


def _typed(c: int | Fraction, bases: list[tuple[BiPoly, int]]) -> BiPoly:
    """c times the product of base^e over bases, nonconstant plain bases,
    typed as `parse_poly` returns it: a `_Product` when there are two
    bases or a power and a base has several terms."""
    if (len(bases) > 1 or bases and bases[0][1] > 1) and any(
            len(b.nums) > 1 for b, _ in bases):
        q = object.__new__(_Product)
        q.const = c
        q.factors = tuple(bases)
        return q
    return _expand(c, bases)


def _bits(p: BiPoly) -> int:
    """ceil(log2) of den and of the sum of |numerators|, the larger: it
    adds under products and multiplies under powers."""
    return max((max(sum(map(abs, p.nums.values())), 1) - 1).bit_length(),
               (p.den - 1).bit_length())


def _check_caps(degree: int, bits: int) -> None:
    if degree > DEGREE_CAP:
        raise DegreeCapExceeded(
            f"total degree {degree} exceeds cap {DEGREE_CAP}")
    if bits > _BIT_CAP:
        raise DegreeCapExceeded(
            f"coefficient size bound of {bits} bits exceeds cap {_BIT_CAP}")


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


def frac_str(q: Fraction) -> str:
    """Lowest-terms display: '-2/5', integers without denominator.  An int
    or a Fraction is read as it is; anything else goes through Fraction."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"

