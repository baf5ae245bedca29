"""Point blow-ups over the origin: charts, transforms, numerical data.

The state is a tree of affine charts.  Each blow-up replaces a leaf chart by
two standard charts (after an optional translation bringing the center to
the chart origin).  Per chart we keep

  * local equations of every exceptional divisor met so far (a coordinate,
    a coordinate shifted by a constant, or a product shape that this chart
    never needs to analyze),
  * strict equations of the curve carriers (the squarefree factors of the
    common divisor of the generators),
  * the residual generators: the finitely supported part after dividing all
    divisorial factors out, each kept as a strict part times powers of the
    chart's divisor equations, so that only the strict parts are translated
    and substituted.

Points on an exceptional curve are identified across charts through affine
point maps into the curve's birth coordinate, giving a projective-line
coordinate in Q plus a point at infinity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .errors import (
    AllZero,
    CenterNotOverOrigin,
    CenterNotRational,
    DegenerateLambda,
    InternalInvariantError,
    ResidualNotUnit,
    SupportMissesOrigin,
)
from .poly import (
    INFINITE_MULT,
    BiPoly,
    _new,
    _expand,
    _Product,
    _grlex_key,
    _shift_rows,
    _strip,
    _gcd,
    _zhorner,
    _zmul,
    gcd_bi,
    poly_to_str,
    rational_roots,
    row_gcd,
    squarefree_decomposition,
    squarefree_part,
)

#: Point on a projective line over Q: a Fraction, or None for infinity.
PPoint = Optional[Fraction]

#: Zero set on a divisor: a squarefree primitive row of its finite birth
#: coordinates, up to sign, and whether it holds the point at infinity.
ZeroData = tuple[list[int], bool]

_ZERO = Fraction(0)
_X, _Y, _ONE = BiPoly.x(), BiPoly.y(), BiPoly.const(1)


# --- chart path steps -------------------------------------------------------

def step_translate(dx: Fraction, dy: Fraction) -> tuple:
    return ("T", dx, dy)


STEP_A = ("A",)
STEP_B = ("B",)


def apply_step(p: BiPoly, step: tuple, bound: int | None = None) -> BiPoly:
    """p pulled back along one chart path step, mod x^(bound + 1) when p is
    kept so: centres lie on x = 0, so no step lowers a term's x-degree (a
    translation moves y only, chart A maps x^a y^b to x^(a+b) y^b and chart
    B keeps a)."""
    if step[0] == "T":
        return p.translate(step[1], step[2])
    if step[0] == "A":
        if bound is None:
            return p.subst_chart_a()
        nums = {(a + b, b): n for (a, b), n in p.nums.items()
                if a + b <= bound}
        return (_new(BiPoly, nums, p.den) if len(nums) == len(p.nums) else
                BiPoly.from_ints(nums, p.den))
    return p.subst_chart_b()


def _below(p: BiPoly, bound: int) -> BiPoly:
    """p mod x^(bound + 1)."""
    nums = {e: n for e, n in p.nums.items() if e[0] <= bound}
    return p if len(nums) == len(p.nums) else BiPoly.from_ints(nums, p.den)


# --- point maps -------------------------------------------------------------

class PointMap(NamedTuple):
    """Affine identification of a chart parameter with a divisor's birth
    coordinate.

    For a divisor visible as {x = alpha} the parameter is the y-value (and
    symmetrically).  side "A" means t + offset IS the birth coordinate;
    side "B" means the birth coordinate is its reciprocal (0 -> infinity).
    A divisor on a line y = c != 0 is read only at t = 0, the one point it
    owns (`Occurrence`), so it keeps its map where a chart rescales t.
    """

    side: str
    offset: Fraction

    def to_birth(self, t: Fraction) -> PPoint:
        v = t + self.offset if self.offset else t
        if self.side == "A":
            return v
        return None if v == 0 else Fraction(1) / v

    def shift(self, delta: Fraction) -> "PointMap":
        return PointMap(self.side, self.offset + delta)


#: The point map of a new divisor, per chart side.
_NEW_PM = {side: PointMap(side, _ZERO) for side in "AB"}


# --- records ----------------------------------------------------------------

class BlowUpEvent(NamedTuple):
    step: int
    chart_path: tuple
    center: tuple[Fraction, Fraction]
    divisors_through: tuple[str, ...]
    new_divisor: str
    N: int
    nu: int
    reasons: tuple[str, ...]


class PointRecord(NamedTuple):
    """A point over the origin, pinned to a specific leaf chart."""

    leaf_index: int
    coords: tuple[Fraction, Fraction]
    reasons: tuple[str, ...] = ()


# --- charts -----------------------------------------------------------------

class Chart:
    """One affine chart of the tree.

    Residual generator i is kept as `residual_parts[i] = (s, k)`: a strict
    part s and exponents k over the divisor equations `exc`, with
    r_i = s * prod(exc[d]^k[d]) exactly.  The divisor equations are
    transformed anyway, so a blow-up transforms only the strict parts.
    `residual` is the expanded view, built on every read.

    A chart never changes after it is built: `blow_up` replaces a leaf by
    fresh charts rather than editing it.  So `axes` is set when the chart
    is built, and its three memos are never invalidated: `bad_hits`,
    `blown_up` and `rows`.  `blown_up` links a blown-up chart to its two
    children, so the state's `root` keeps the whole chart tree of a run
    alive, not only its leaves.
    """

    def __init__(self, path: tuple, exc: dict[str, BiPoly] | None = None,
                 pms: dict[str, PointMap] | None = None,
                 carriers: dict[str, BiPoly] | None = None,
                 residual_parts: list[tuple[BiPoly, dict[str, int]]]
                 | None = None):
        self.path = path
        self.exc = {} if exc is None else exc
        self.pms = {} if pms is None else pms
        self.carriers = {} if carriers is None else carriers
        self.residual_parts = [] if residual_parts is None else residual_parts
        #: Axis of every divisor the chart can analyze, in birth order.
        self.axes: dict[str, tuple[str, Fraction]] = {
            d: axis for d in self.exc
            if d in self.pms and (axis := self.axis_of(d)) is not None}
        #: The chart's bad-point hits, stored by
        #: `principalize.find_bad_points` on its first successful scan.
        self.bad_hits: Optional[tuple] = None
        #: `_split` of the chart's first blow-up, stored by `blow_up`.
        self.blown_up: Optional[tuple] = None
        #: `Occurrence.residual_rows()` by divisor, stored on first read:
        #: by the bad-point scan, and read again by the certificate.
        self.rows: dict[str, list[list[int]]] = {}

    @property
    def residual(self) -> list[BiPoly]:
        """The residual generators, expanded."""
        out = []
        for s, k in self.residual_parts:
            for d, e in k.items():
                s = s * self.exc[d] ** e
            out.append(s)
        return out

    def axis_of(self, ident: str) -> Optional[tuple[str, Fraction]]:
        """("x", alpha) when the divisor is the line x = alpha, similarly
        for y; None for equations this chart cannot analyze."""
        eq = self.exc.get(ident)
        if eq is None:
            return None
        nums = eq.nums
        for var, e in (("x", (1, 0)), ("y", (0, 1))):
            if e in nums and nums.keys() <= {e, (0, 0)}:
                c = nums.get((0, 0))
                return (var, Fraction(-c, nums[e]) if c else _ZERO)
        return None

    def occurrences(self, leaf_index: int) -> Iterator["Occurrence"]:
        """Analyzable divisor appearances of the chart as leaf
        `leaf_index`, divisors in birth order."""
        for ident, axis in self.axes.items():
            yield Occurrence(leaf_index, self, ident, axis, self.pms[ident])

    def divisors_through(self, pt: tuple[Fraction, Fraction]) -> list[str]:
        """Divisors through pt: those in axis form by their coordinate,
        the others by their equation's row at y = pt[1], at x = pt[0]."""
        axes, (px, py) = self.axes, pt
        return [d for d, eq in self.exc.items()
                if ((px if axes[d][0] == "x" else py) == axes[d][1]
                    if d in axes else _zhorner(eq.y_coeffs(py), px.numerator,
                                               px.denominator) == 0)]


class Occurrence(NamedTuple):
    """An analyzable appearance of an exceptional divisor in a leaf chart,
    and the one place that decides which points a chart speaks for.

    Leaf charts overlap, so each chart is authoritative only on its own
    {x = 0} locus; the owned loci partition the surface.  Translations only
    move along y, so every x-parallel divisor is the axis x = 0: an
    occurrence with axis ("x", 0) owns the whole divisor, one with axis
    ("y", beta) only the single point t = 0.  Every diagram point read from
    the atlas (bad points, corners, branch points, generic crossings) is
    read through `corners`, `owned_params` or `owned_zeros`.

    Ownership decides only which points a chart speaks for, not how a
    polynomial is read: on either kind of divisor `restriction` reads all
    of p on it, as a stripped integer row, so [] is a restriction that
    vanishes.  Only a fully owned divisor takes gcds and roots of rows; a
    point-owned one asks only whether a row is zero at t = 0.  A residual
    generator's row is the product of its factors' rows (`residual_rows`):
    restriction is a ring homomorphism.
    """

    leaf_index: int
    chart: Chart
    ident: str
    axis: tuple[str, Fraction]
    pm: PointMap

    @property
    def mode(self) -> str:
        """"all" for a fully owned divisor, "point" for the t = 0 point."""
        return "all" if self.axis[0] == "x" else "point"

    @property
    def corners(self) -> list[tuple[Fraction, str]]:
        """(parameter, partner) of each owned crossing with another
        exceptional divisor of the chart, partners in birth order."""
        opposite = "y" if self.mode == "all" else "x"
        return [(c, d) for d, (var, c) in self.chart.axes.items()
                if d != self.ident and var == opposite]

    def param_point(self, t: Fraction) -> tuple[Fraction, Fraction]:
        var, c = self.axis
        return (c, t) if var == "x" else (t, c)

    def restriction(self, p: BiPoly) -> list[int]:
        """p on the divisor by degree in t, up to a positive factor, without
        a trailing zero: p(0, t) when fully owned, else p(t, beta)."""
        var, beta = self.axis
        return p.x0_row() if var == "x" else p.y_coeffs(beta)

    def _scale(self, p: BiPoly) -> int:
        """The positive integer `restriction(p)` is p's restriction times
        (see `x0_row` and `y_coeffs`)."""
        var, beta = self.axis
        v = beta.denominator
        if var == "x" or v == 1:
            return p.den
        return p.den * v ** max((b for _, b in p.nums), default=0)

    def residual_rows(self) -> list[list[int]]:
        """`restriction(r)` of every residual generator r, in order: the
        product of the rows of its strict part and divisor powers, each
        divisor equation's row read once, and [] for a power of the
        occurrence's own divisor.  So a row is r's restriction times the
        product of its factors' `_scale`s (`residual_scales`).  The rows
        are kept on the chart (`rows`); callers do not modify them."""
        if self.ident in self.chart.rows:
            return self.chart.rows[self.ident]
        exc = self.chart.exc
        factors: dict[str, list[int]] = {}
        out = []
        for s, k in self.chart.residual_parts:
            if self.ident in k:
                out.append([])
                continue
            row = self.restriction(s)
            for d, e in k.items():
                if d not in factors:
                    factors[d] = self.restriction(exc[d])
                for _ in range(e):
                    row = _zmul(row, factors[d])
            out.append(row)
        self.chart.rows[self.ident] = out
        return out

    def residual_scales(self) -> list[int]:
        """The positive integer each row of `residual_rows()` is its
        generator's restriction times, so that rows combine exactly."""
        scale, exc = self._scale, self.chart.exc
        return [scale(s) * math.prod(scale(exc[d]) ** e for d, e in k.items())
                for s, k in self.chart.residual_parts]

    def residual_restrictions(self) -> list[list[int]]:
        """Restriction of every residual generator, in order; refuses a
        residual ideal that vanishes along the divisor."""
        rows = self.residual_rows()
        if not any(rows):
            raise InternalInvariantError(
                f"residual ideal vanishes along divisor {self.ident}")
        return rows

    def carrier_restrictions(self) -> list[tuple[str, list[int]]]:
        """Restriction of every carrier visible in the chart, in carrier
        order; refuses the first carrier that contains the divisor."""
        out = []
        for c, eq in self.chart.carriers.items():
            row = self.restriction(eq)
            if not row:
                raise InternalInvariantError(
                    f"carrier {c} contains divisor {self.ident}")
            out.append((c, row))
        return out

    def owned_params(self, rows: list[list[int]],
                     context: str) -> list[Fraction]:
        """Parameters of the common zeros of restriction rows, not all
        zero, on the owned locus; refuses the run when one is irrational."""
        if self.mode == "point":
            return [_ZERO] if all(map(_zero_at_0, rows)) else []
        locator = row_gcd(rows)
        if len(locator) <= 1:
            return []
        roots, cofactor = rational_roots(locator)
        if len(cofactor) > 1:
            # printed monic, in y: a fully owned divisor is {x = 0}
            s = squarefree_part(cofactor)
            monic = BiPoly.from_ints({(0, j): n for j, n in enumerate(s)},
                                     s[-1])
            raise CenterNotRational(
                f"{poly_to_str(monic)} ({context} on {self.ident})")
        return [r for r, _ in roots]

    def owned_zeros(self, row: list[int]) -> Optional[ZeroData]:
        """Birth-coordinate zero data of a nonzero restriction row on the
        owned locus, or None for no zero there."""
        if self.mode == "point":
            return point_zero_data(self.pm) if _zero_at_0(row) else None
        return zeros_in_birth(self.pm, row) if len(row) > 1 else None


def _zero_at_0(row) -> bool:
    return not row or not row[0]


class CarrierDef(NamedTuple):
    ident: str
    root_eq: BiPoly  # squarefree factor of the common curve part
    exponent: int
    through_origin: bool


class Vertex(NamedTuple):
    """One component of the total-transform support, a vertex of the
    intersection diagram.

    N is the multiplicity of the component in the divisor of the pulled-back
    ideal; nu - 1 its multiplicity in the pullback of dx^dy.  Strict branches
    always have nu = 1.
    """

    ident: str
    kind: str  # "exceptional" | "strict-branch"
    N: int
    nu: int


class ChartState:
    """Single-owner mutable state of one principalization run."""

    def __init__(self, gens: list[BiPoly], carriers: list[CarrierDef],
                 root: Chart):
        self.gens = gens
        self.carriers = carriers
        self.divisors: dict[str, Vertex] = {}
        self.divisor_order: list[str] = []
        self.strict_records = [
            Vertex(c.ident, "strict-branch", c.exponent, 1)
            for c in carriers if c.through_origin]
        self.adjacency: set[frozenset] = set()
        self.root = root
        self.leaves: list[Chart] = [root]
        self.log: list[BlowUpEvent] = []
        self.complete = False
        self._kept: dict = {}

    # -- bookkeeping helpers --

    def kept(self, read):
        """read(self), computed once while the state is complete, so that
        the diagram and the certificate share their reads of the atlas;
        `blow_up` drops what was kept."""
        if not self.complete:
            return read(self)
        if read not in self._kept:
            self._kept[read] = read(self)
        return self._kept[read]

    def occurrences(self) -> Iterator[Occurrence]:
        """Owning divisor appearances, leaves in path order, divisors in
        birth order."""
        for idx, chart in enumerate(self.leaves):
            yield from chart.occurrences(idx)

    def corner_registry(self) -> dict[str, dict[PPoint, str]]:
        """Per divisor: birth coordinate of each crossing with another
        exceptional divisor, with the partner's identity."""
        reg: dict[str, dict[PPoint, str]] = {d: {} for d in self.divisor_order}
        for occ in self.occurrences():
            for t, partner in occ.corners:
                reg[occ.ident][occ.pm.to_birth(t)] = partner
        return reg


# --- construction -----------------------------------------------------------

def initial_state(gens: list[BiPoly]) -> ChartState:
    """Root state: extract the common curve part h and set up carriers.

    Each squarefree factor of h becomes a carrier; factors through the origin
    yield strict-branch records with N equal to their exponent in h
    (`ChartState`).  A generator typed as a product of powers is tested for
    zero and for vanishing at the origin on its factors, unexpanded.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise AllZero("all generators are zero")
    for g in gens:
        # a product vanishes at the origin when one of its factors does
        if (all((0, 0) in b.nums for b, _ in g.factors)
                if isinstance(g, _Product) else (0, 0) in g.nums):
            raise SupportMissesOrigin(
                f"generator {g} does not vanish at the origin")

    split, residual = curve_part(gens)
    carriers = [CarrierDef(f"C{i + 1}", f, e, (0, 0) not in f.nums)
                for i, (f, e) in enumerate(split)]
    root = Chart(
        path=(),
        carriers={c.ident: c.root_eq for c in carriers},
        residual_parts=[(r, {}) for r in residual],
    )
    return ChartState(gens, carriers, root)


def curve_part(gens: list[BiPoly]) -> tuple[list[tuple[BiPoly, int]],
                                            list[BiPoly]]:
    """For nonzero gens with gcd h: squarefree_decomposition(h), and the
    quotients g / h with h monic in grlex.

    Reads each generator as its product of powers (`factors` of a
    `_Product`, or itself), and its grlex lead off the leads of its bases,
    which make them monic.  x and y split off by their orders.  A common
    factor divides a base of every generator, so one gcd chain over the
    other bases, made monic, rules it out first, and without one each
    quotient is g over x^a y^b.  With one, the bases are refined into a
    gcd-free base, each element with its exponent in every generator
    (factor refinement: Bach, Driscoll and Shallit, J. Algorithms 15,
    1993).  Yun's split runs on the base elements other than x and y,
    which are their own splits, and each quotient is its generator's lead
    times the remaining powers of x, y and the base elements.
    """
    n = len(gens)
    xs, ys, leads = [0] * n, [0] * n, []
    exps: dict[BiPoly, list[int]] = {}  # monic base -> exponent per generator
    for i, g in enumerate(gens):
        typed = isinstance(g, _Product)
        c = g.const if typed else 1
        num, den = c.numerator, c.denominator
        for b, e in g.factors if typed else ((g, 1),):
            nums = b.nums
            top = nums[max(nums, key=_grlex_key)]  # grlex leads multiply
            num, den = num * top ** e, den * b.den ** e
            u, v = b.x_order(), b.y_order()
            xs[i] += u * e
            ys[i] += v * e
            if len(nums) > 1:
                r = BiPoly.from_ints(
                    {(s - u, t - v): m for (s, t), m in nums.items()}, top)
                exps.setdefault(r, [0] * n)[i] += e
        leads.append((num, den))
    common = [b for b, es in exps.items() if es[0]]
    for i in range(1, n):
        gcds = (c if c == b else gcd_bi(c, b)
                for c in common for b, es in exps.items() if es[i])
        common = list(dict.fromkeys(d for d in gcds if not d.is_constant()))
    base = [(BiPoly.x(), xs), (BiPoly.y(), ys)]
    if common:
        base += _refine(list(exps.items()))
    parts: dict[int, BiPoly] = {}
    for k, (p, es) in enumerate(base):
        if m := min(es):
            for q, j in ((p, 1),) if k < 2 else squarefree_decomposition(p):
                parts[j * m] = parts[j * m] * q if j * m in parts else q
    split = [(parts[e], e) for e in sorted(parts)]
    if not common:  # g over x^mx y^my, plain: here a _Product expands
        mx, my = min(xs), min(ys)
        return split, [g if not (mx or my or isinstance(g, _Product)) else
                       _new(BiPoly, {(a - mx, b - my): m for (a, b), m in
                                     g.nums.items()}, g.den) for g in gens]
    return split, [_expand(Fraction(*leads[i]), [
        (p, k) for p, es in base if (k := es[i] - min(es))])
        for i in range(n)]


def _refine(pieces: list[tuple[BiPoly, list[int]]]
            ) -> list[tuple[BiPoly, list[int]]]:
    """Pairwise coprime monic polynomials with exponent vectors, of the
    same product of p^es[i] for every i as the monic pieces (p, es)."""
    out: list[tuple[BiPoly, list[int]]] = []
    while pieces:
        p, es = pieces.pop()
        for k, (q, fs) in enumerate(out):
            g = gcd_bi(p, q)
            if not g.is_constant():
                del out[k]
                pieces += [(f, v) for f, v in (
                    (g, [a + b for a, b in zip(es, fs)]),
                    (p.divexact(g), es), (q.divexact(g), fs))
                    if not f.is_constant()]
                break
        else:
            out.append((p, es))
    return out


def _translated(chart: Chart, dy: Fraction) -> Chart:
    """The chart moved along y by dy; centres always lie on x = 0."""
    shift = (lambda p: p.translate(0, dy))
    # x-type divisors are parametrized by y, y-type ones by x
    pms = {d: chart.pms[d].shift(dy) if var == "x" else chart.pms[d]
           for d, (var, _) in chart.axes.items()}
    return Chart(
        path=chart.path + (step_translate(_ZERO, dy),),
        exc={d: shift(eq) for d, eq in chart.exc.items()},
        pms=pms,
        carriers={k: shift(v) for k, v in chart.carriers.items()},
        residual_parts=[(shift(s), k) for s, k in chart.residual_parts],
    )


def _child(chart: Chart, side: str, new_ident: str, exc_m: dict[str, int],
           car_m: dict[str, int], strict_m: list[int],
           powers: list[dict[str, int]]) -> Chart:
    """One standard chart of the blow-up at the origin of `chart`.  Each
    transform divides out, in the same pass, the power of the new divisor
    it carries: the multiplicity at the origin of the divisor equation
    (`exc_m`), carrier (`car_m`) or strict part (`strict_m`).  Residual
    generator i takes the divisor powers `powers[i]`, the new divisor's
    among them, and folds in the constant a divisor equation becomes where
    the divisor is not visible."""
    step, sub = ((STEP_A, BiPoly.subst_chart_a) if side == "A" else
                 (STEP_B, BiPoly.subst_chart_b))

    exc: dict[str, BiPoly] = {}
    pms: dict[str, PointMap] = {}
    hidden: dict[str, BiPoly] = {}
    for d, eq in chart.exc.items():
        # raw stripped pullback: keeps generator factorizations exact
        new_eq = sub(eq, exc_m[d])
        if new_eq.is_constant():
            hidden[d] = new_eq  # divisor not visible in this chart
            continue
        exc[d] = new_eq
        if d not in chart.axes:
            continue
        var, c = chart.axes[d]
        if side == "A":  # param x = a unchanged
            keep = var == "y" and not c
        else:  # param y = b unchanged, or x = c * a, read only at a = 0
            keep = var == "x" and not c or var == "y" and c
        if keep:
            pms[d] = chart.pms[d]

    exc[new_ident] = _X if side == "A" else _Y
    pms[new_ident] = _NEW_PM[side]

    carriers = {}
    for k, v in chart.carriers.items():
        sv = sub(v, car_m[k])
        if not sv.is_constant():
            carriers[k] = sv

    parts = []
    for (s, _), m, k in zip(chart.residual_parts, strict_m, powers):
        s = sub(s, m)
        if not k.keys() <= exc.keys():
            for d in k.keys() & hidden.keys():
                if hidden[d] != _ONE:
                    s = s * hidden[d] ** k[d]
            k = {d: e for d, e in k.items() if d in exc}
        parts.append((s, k))
    return Chart(path=chart.path + (step,), exc=exc, pms=pms,
                 carriers=carriers, residual_parts=parts)


def _split(chart: Chart, cy: Fraction, through: list[str],
           ident: str) -> tuple:
    """The chart-local half of a blow-up at (0, cy) that makes divisor
    `ident`: `((cy, ident), exc_m, car_m, res_part, child A, child B)`.  A
    pure function of the chart, the centre and the name, so the chart's
    stored one (`Chart.blown_up`) is returned when its key matches."""
    key = (cy, ident)
    if chart.blown_up is not None and chart.blown_up[0] == key:
        return chart.blown_up
    if cy:
        chart = _translated(chart, cy)
    for d in through:
        if d not in chart.axes and chart.axis_of(d) is None:
            raise InternalInvariantError(
                f"divisor {d} through center is not in axis form")
    exc_m = {d: eq.mult_at_origin() for d, eq in chart.exc.items()}
    car_m = {k: v.mult_at_origin() for k, v in chart.carriers.items()}
    strict_m = [s.mult_at_origin() for s, _ in chart.residual_parts]
    res_m = [m + sum(e * exc_m[d] for d, e in k.items()) if k else m
             for m, (_, k) in zip(strict_m, chart.residual_parts)]
    res_part = min(res_m)
    if res_part == INFINITE_MULT:
        raise InternalInvariantError("all residual generators are zero")
    powers = [{**k, ident: m - res_part} if m > res_part else k
              for m, (_, k) in zip(res_m, chart.residual_parts)]
    return (key, exc_m, car_m, res_part) + tuple(
        _child(chart, side, ident, exc_m, car_m, strict_m, powers)
        for side in "AB")


def blow_up(state: ChartState, pr: PointRecord) -> ChartState:
    """Blow up one center; mutates and returns the state.

    The new divisor gets N = minimal multiplicity of the full local
    generators at the center and nu = 2 + sum of (nu - 1) over exceptional
    divisors through the center.  The chart-local half (`_split`) is kept
    on the chart; what reads the state is computed on each call.
    """
    if not (0 <= pr.leaf_index < len(state.leaves)):
        raise CenterNotOverOrigin(f"no leaf chart {pr.leaf_index}")
    chart = state.leaves[pr.leaf_index]
    cx, cy = pr.coords
    if type(cx) is not Fraction or type(cy) is not Fraction:
        cx, cy = Fraction(cx), Fraction(cy)

    through = chart.divisors_through((cx, cy))
    if state.log and not through:
        raise CenterNotOverOrigin(
            f"center {pr.coords} lies on no exceptional divisor")
    if not state.log and (cx, cy) != (0, 0):
        raise CenterNotOverOrigin("the root center must be the origin")
    if cx:
        raise CenterNotOverOrigin(
            "centers must be given in their owning chart, on its x-axis locus")

    ident = f"E{len(state.divisor_order) + 1}"
    split = _split(chart, cy, through, ident)
    _, exc_m, car_m, res_part, child_a, child_b = split
    nu = 2 + sum(state.divisors[d].nu - 1 for d in through)
    exc_part = sum(state.divisors[d].N * m for d, m in exc_m.items())
    car_part = sum(c.exponent * car_m[c.ident]
                   for c in state.carriers if c.ident in car_m)
    N = int(exc_part + car_part + res_part)
    if N < 1:
        raise CenterNotOverOrigin("ideal is trivial at the requested center")
    if chart.blown_up is None:
        chart.blown_up = split

    state.divisors[ident] = Vertex(ident, "exceptional", N, nu)
    state.divisor_order.append(ident)
    state.leaves[pr.leaf_index:pr.leaf_index + 1] = [child_a, child_b]

    for d in through:
        state.adjacency.add(frozenset((ident, d)))
    if len(through) == 2:
        state.adjacency.discard(frozenset(through))

    state.log.append(BlowUpEvent(
        step=len(state.log), chart_path=chart.path,
        center=(cx, cy), divisors_through=tuple(through),
        new_divisor=ident, N=N, nu=nu, reasons=pr.reasons,
    ))
    state.complete = False
    state._kept.clear()
    return state


# --- orders and restrictions -------------------------------------------------

def divisor_order_of(state: ChartState, g: BiPoly, ident: str) -> int:
    """Exponent of the divisor's local equation in the pullback of g.

    Along an exceptional divisor, as `divisor_orders` reads it.  Along a
    carrier, the exponent of its equation in the first leaf showing it,
    read at the root on the components that leaf sees (`_carrier_eqs`).
    """
    if g.is_zero():
        raise ValueError("zero polynomial has no divisor order")
    if any(c.ident == ident for c in state.carriers):
        return _root_order(state.kept(_carrier_eqs)[ident], g)
    if ident not in state.divisors:
        raise KeyError(f"unknown divisor {ident}")
    return divisor_orders(state, g)[ident]


def _carrier_eqs(state: ChartState) -> dict[str, BiPoly]:
    """Per carrier, the product of its components that the first leaf
    showing it sees.  A step loses only a line of its chart: chart A the
    line x = 0, the root's x = 0 until the first chart A step; chart B the
    line y = 0 after the translation, which that leaf never loses, since
    the A chart of the same parent shows the carrier and its leftmost leaf
    comes first.  So the leaf sees all components but x once its path has
    a chart A step."""
    out = {}
    for c in state.carriers:
        leaf = next(ch for ch in state.leaves if c.ident in ch.carriers)
        eq = c.root_eq
        rest = eq.divide_x_power(1) if eq.x_order() else eq
        out[c.ident] = rest if STEP_A in leaf.path and \
            not rest.is_constant() else eq
    return out


def divisor_orders(state: ChartState, g: BiPoly, bound: int | None = None
                   ) -> dict[str, Optional[int]]:
    """Order of the nonzero g along every exceptional divisor, None past
    `bound`: g is pulled back step by step along the leaves of
    `_walk_plan`, each path prefix once, and read there by `x_order`.  With
    a bound, each pullback is kept mod x^(bound + 1) (`apply_step`).  A
    typed product is read as the sum of e * order(base) over its bases (a
    valuation), so it never expands."""
    plan = state.kept(_walk_plan)
    out: dict[str, Optional[int]] = {d: 0 for _, _, d in plan}
    for b, e in g.factors if isinstance(g, _Product) else ((g, 1),):
        stack = [b if bound is None else _below(b, bound)]
        for k, path, d in plan:
            del stack[k + 1:]
            for step in path[k:]:
                stack.append(apply_step(stack[-1], step, bound))
            if out[d] is not None:
                q = stack[-1]
                out[d] = out[d] + e * q.x_order() if q.nums else None
    return out


def _walk_plan(state: ChartState) -> list[tuple[int, tuple, str]]:
    """(k, path, divisor) for the first leaf, in path order, where each
    exceptional divisor is the axis x = 0, k the length of the path prefix
    it shares with the previous one.  A divisor is x = 0 in the A chart of
    its blow-up, and a blow-up of a chart is centred on its x = 0, which
    stays x = 0 in the B chart; so every divisor has such a leaf."""
    plan, path, seen = [], (), set()
    for chart in state.leaves:
        for d, (var, c) in chart.axes.items():
            if var == "x" and not c and d not in seen:
                k = min(len(path), len(chart.path))
                while path[:k] != chart.path[:k]:
                    k -= 1
                plan.append((k, chart.path, d))
                path = chart.path
                seen.add(d)
    if len(plan) < len(state.divisor_order):
        raise InternalInvariantError("a divisor is x = 0 on no leaf chart")
    return plan


def _root_order(eq: BiPoly, g: BiPoly) -> int:
    """Largest k with eq^k dividing g, eq squarefree.  A typed product is
    read on its bases; eq divides it further only if it divides the
    product of two or more of their cofactors, and only then does g
    expand."""
    if isinstance(g, _Product):
        parts = [_divide_out(b, eq) + (e,) for b, e in g.factors]
        rest = [(r, 1) for _, r, _ in parts if not r.is_constant()]
        if len(rest) < 2 or not _divide_out(_expand(1, rest), eq)[0]:
            return sum(k * e for k, _, e in parts)
    return _divide_out(g, eq)[0]


def _divide_out(p: BiPoly, eq: BiPoly) -> tuple[int, BiPoly]:
    """(k, p / eq^k) for the largest k with eq^k dividing p, the quotient
    up to a constant; for a monomial eq, by p's orders in x and y."""
    if len(eq.nums) == 1:
        (u, v), = eq.nums
        k = min(p.x_order() // u if u else INFINITE_MULT,
                p.y_order() // v if v else INFINITE_MULT)
        return k, p.divide_x_power(k * u).divide_y_power(k * v)
    k = 0
    while True:
        try:
            p, k = p.divexact(eq), k + 1
        except ValueError:
            return k, p


# --- zero sets on a divisor, in birth coordinates ----------------------------

def zeros_in_birth(pm: PointMap, row: list[int]) -> ZeroData:
    """Zero data of a restriction row p(t), nonzero, on a fully owned
    divisor, in b = t + offset (side "A") or 1/b ("B"): the row of
    p(b - offset), a Taylor shift up to a nonzero factor, reversed for "B"."""
    if pm.offset:
        nums, _ = _shift_rows({(j, 0): n for j, n in enumerate(row) if n}, 1,
                              -pm.offset, 0)
        row = [nums.get((j, 0), 0) for j in range(len(row))]
    if pm.side == "A":
        return squarefree_part(row), False
    return squarefree_part(row[::-1]), _zero_at_0(row)


def union_zero_data(acc: Optional[ZeroData], new: ZeroData) -> ZeroData:
    """Zero data of the union: the lcm of the two squarefree rows."""
    if acc is None:
        return new
    a, b = acc[0], new[0]
    return _zmul(_gcd(a, b)[1], b), acc[1] or new[1]


def zero_count(data: Optional[ZeroData]) -> int:
    """Points of a zero set: the degree of its row, and infinity."""
    return 0 if data is None else len(data[0]) - 1 + data[1]


def point_zero_data(pm: PointMap) -> ZeroData:
    """Zero data consisting of the single point at parameter t = 0."""
    b = pm.to_birth(_ZERO)
    return ([1], True) if b is None else ([-b.numerator, b.denominator], False)


def carrier_intersections(
    state: ChartState,
) -> dict[tuple[str, str], ZeroData]:
    """Birth-coordinate zero data of every carrier on every exceptional
    divisor it meets; no occurrence is read when there is no carrier."""
    out: dict[tuple[str, str], ZeroData] = {}
    if not state.carriers:
        return out
    for occ in state.occurrences():
        for c, sigma in occ.carrier_restrictions():
            data = occ.owned_zeros(sigma)
            if data is not None:
                key = (c, occ.ident)
                out[key] = union_zero_data(out.get(key), data)
    return out


def restrict_residual_to(
    state: ChartState, ident: str, coeffs: list[Fraction],
) -> list[tuple[Occurrence, list[int]]]:
    """Restriction of sum(coeffs_i * residual_i) to an exceptional divisor,
    one per occurrence of it, as `Occurrence.restriction` reads it up to a
    positive factor: [] when the combination vanishes along the divisor.
    The coefficients are brought to integers, and the occurrences with
    their rows come grouped by divisor (`_residual_pieces`)."""
    if not state.complete:
        raise ResidualNotUnit("principalization is not complete")
    lams = [c if isinstance(c, (int, Fraction)) else Fraction(c)
            for c in coeffs]
    if not any(lams):
        raise DegenerateLambda("all combination coefficients are zero")
    common = math.lcm(*(c.denominator for c in lams))
    lams = [c.numerator * (common // c.denominator) for c in lams]
    pieces = [(occ, _strip(_combined(lams, rows, scales)))
              for occ, rows, scales in state.kept(_residual_pieces).get(
                  ident, ())]
    if not pieces:
        raise KeyError(f"divisor {ident} not visible in any leaf chart")
    return pieces


def _residual_pieces(state: ChartState) -> dict[str, list[tuple]]:
    """Per divisor, its occurrences with their residual rows, which the
    bad-point scan kept on the chart, and scales: one pass."""
    out: dict[str, list[tuple]] = {}
    for occ in state.occurrences():
        out.setdefault(occ.ident, []).append(
            (occ, occ.residual_rows(), occ.residual_scales()))
    return out


def _combined(lams: list[int], rows: list[list[int]],
              scales: list[int]) -> list[int]:
    """sum(lams_i * rows_i / scales_i), times one positive integer, zeros
    kept."""
    common = math.lcm(*scales)
    out = [0] * max(map(len, rows))
    for c, row, scale in zip(lams, rows, scales):
        if k := c * (common // scale):
            for j, n in enumerate(row):
                out[j] += k * n
    return out
