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
    divisorial factors out.

Points on an exceptional curve are identified across charts through affine
point maps into the curve's birth coordinate, giving a projective-line
coordinate in Q plus a point at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

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
    UniPoly,
    gcd_bi_many,
    rational_roots,
    squarefree_decomposition,
    squarefree_part,
    uni_gcd,
    uni_to_str,
)

#: Point on a projective line over Q: a Fraction, or None for infinity.
PPoint = Optional[Fraction]


# --- chart path steps -------------------------------------------------------

def step_translate(dx: Fraction, dy: Fraction) -> tuple:
    return ("T", dx, dy)


STEP_A = ("A",)
STEP_B = ("B",)


def apply_step(p: BiPoly, step: tuple) -> BiPoly:
    if step[0] == "T":
        return p.translate(step[1], step[2])
    if step[0] == "A":
        return p.subst_chart_a()
    return p.subst_chart_b()


# --- point maps -------------------------------------------------------------

@dataclass(frozen=True)
class PointMap:
    """Affine identification of a chart parameter with a divisor's birth
    coordinate.

    For a divisor visible as {x = alpha} the parameter is the y-value (and
    symmetrically).  side "A" means scale*t + offset IS the birth coordinate;
    side "B" means the birth coordinate is its reciprocal (0 -> infinity).
    """

    side: str
    scale: Fraction
    offset: Fraction

    def to_birth(self, t: Fraction) -> PPoint:
        v = self.scale * Fraction(t) + self.offset
        if self.side == "A":
            return v
        return None if v == 0 else Fraction(1) / v

    def rescale(self, factor: Fraction) -> "PointMap":
        return PointMap(self.side, self.scale * factor, self.offset)

    def shift(self, delta: Fraction) -> "PointMap":
        return PointMap(self.side, self.scale, self.offset + self.scale * delta)


# --- records ----------------------------------------------------------------

@dataclass
class DivisorRecord:
    """One component of the total-transform support.

    N is the multiplicity of the component in the divisor of the pulled-back
    ideal; nu - 1 its multiplicity in the pullback of dx^dy.  Strict branches
    always have nu = 1.
    """

    ident: str
    kind: str  # "exceptional" | "strict-branch"
    N: int
    nu: int


@dataclass(frozen=True)
class BlowUpEvent:
    step: int
    chart_path: tuple
    center: tuple[Fraction, Fraction]
    divisors_through: tuple[str, ...]
    new_divisor: str
    N: int
    nu: int
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class PointRecord:
    """A point over the origin, pinned to a specific leaf chart."""

    leaf_index: int
    coords: tuple[Fraction, Fraction]
    divisors: tuple[str, ...]
    reasons: tuple[str, ...] = ()


# --- charts -----------------------------------------------------------------

@dataclass
class Chart:
    """One affine chart of the tree.

    A chart never changes after it is built: `blow_up` replaces a leaf by
    fresh charts rather than editing it.  The memos `axes` and `bad_hits`
    rely on this and are never invalidated.
    """

    path: tuple
    exc: dict[str, BiPoly] = field(default_factory=dict)
    pms: dict[str, PointMap] = field(default_factory=dict)
    carriers: dict[str, BiPoly] = field(default_factory=dict)
    residual: list[BiPoly] = field(default_factory=list)
    #: The chart's bad-point hits, stored by `principalize.find_bad_points`
    #: on its first successful scan of the chart.
    bad_hits: Optional[tuple] = field(default=None, init=False, repr=False,
                                      compare=False)

    def axis_of(self, ident: str) -> Optional[tuple[str, Fraction]]:
        """("x", alpha) when the divisor is the line x = alpha, similarly
        for y; None for equations this chart cannot analyze."""
        eq = self.exc.get(ident)
        if eq is None:
            return None
        sup = set(eq.terms)
        if sup <= {(1, 0), (0, 0)} and (1, 0) in sup:
            return ("x", -eq.terms.get((0, 0), Fraction(0)) / eq.terms[(1, 0)])
        if sup <= {(0, 1), (0, 0)} and (0, 1) in sup:
            return ("y", -eq.terms.get((0, 0), Fraction(0)) / eq.terms[(0, 1)])
        return None

    @cached_property
    def axes(self) -> dict[str, tuple[str, Fraction]]:
        """Axis of every divisor the chart can analyze, in birth order."""
        return {d: axis for d in self.exc
                if d in self.pms and (axis := self.axis_of(d)) is not None}

    def occurrences(self, leaf_index: int) -> Iterator["Occurrence"]:
        """Analyzable divisor appearances of the chart as leaf
        `leaf_index`, divisors in birth order."""
        for ident, axis in self.axes.items():
            yield Occurrence(leaf_index, self, ident, axis, self.pms[ident])

    def point_identity(self, pt: tuple[Fraction, Fraction]) -> frozenset:
        """Chart-independent identity of a point: the (divisor, birth
        coordinate) pairs over the analyzable divisors through it."""
        return frozenset(
            (d, self.pms[d].to_birth(pt[1] if var == "x" else pt[0]))
            for d, (var, c) in self.axes.items()
            if (pt[0] if var == "x" else pt[1]) == c)

    def pullback(self, p: BiPoly) -> BiPoly:
        """Pull a polynomial on the base through to this chart."""
        for step in self.path:
            p = apply_step(p, step)
        return p

    def restrict(self, p: BiPoly, axis: tuple[str, Fraction]) -> UniPoly:
        var, c = axis
        return p.restrict_x(c) if var == "x" else p.restrict_y(c)

    def divisors_through(self, pt: tuple[Fraction, Fraction]) -> list[str]:
        return [d for d, eq in self.exc.items() if eq.eval(pt[0], pt[1]) == 0]


@dataclass(frozen=True)
class Occurrence:
    """An analyzable appearance of an exceptional divisor in a leaf chart,
    and the one place that decides which points a chart speaks for.

    Leaf charts overlap, so each chart is authoritative only on its own
    {x = 0} locus; the owned loci partition the surface.  Translations only
    move along y, so every x-parallel divisor is the axis x = 0: an
    occurrence with axis ("x", 0) owns the whole divisor, one with axis
    ("y", beta) only the single point t = 0.  Every diagram point read from
    the atlas (bad points, corners, branch points, generic crossings) is
    read through `corners`, `owned_params` or `owned_zeros`.
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

    def to_birth(self, t: Fraction) -> PPoint:
        return self.pm.to_birth(t)

    def carrier_restrictions(self) -> list[tuple[str, UniPoly]]:
        """Restriction of every carrier visible in the chart, in carrier
        order."""
        out = []
        for c, eq in self.chart.carriers.items():
            sigma = self.chart.restrict(eq, self.axis)
            if sigma.is_zero():
                raise InternalInvariantError(
                    f"carrier {c} contains divisor {self.ident}")
            out.append((c, sigma))
        return out

    def owned_params(self, locator: UniPoly, context: str) -> list[Fraction]:
        """Parameters of the nonzero locator's zeros on the owned locus;
        refuses the run when an owned zero is irrational."""
        if self.mode == "point":
            return [Fraction(0)] if locator.eval(0) == 0 else []
        if locator.degree() <= 0:
            return []
        roots, cofactor = rational_roots(locator)
        if cofactor.degree() > 0:
            # a fully owned divisor is {x = 0}, parametrized by y
            raise CenterNotRational(
                f"{uni_to_str(squarefree_part(cofactor), 'y')} "
                f"({context} on {self.ident})")
        return [r for r, _ in roots]

    def owned_zeros(self, p: UniPoly) -> Optional[tuple[UniPoly, bool]]:
        """Birth-coordinate zero data of a nonzero restriction on the owned
        locus, or None when it has no zero there."""
        if self.mode == "point":
            return point_zero_data(self.pm) if p.eval(0) == 0 else None
        return zeros_in_birth(self.pm, p) if p.degree() > 0 else None


@dataclass
class CarrierDef:
    ident: str
    root_eq: BiPoly  # squarefree factor of the common curve part
    exponent: int
    through_origin: bool


class ChartState:
    """Single-owner mutable state of one principalization run."""

    def __init__(self, gens: list[BiPoly], carriers: list[CarrierDef],
                 root: Chart):
        self.gens = gens
        self.carriers = carriers
        self.divisors: dict[str, DivisorRecord] = {}
        self.divisor_order: list[str] = []
        self.strict_records: list[DivisorRecord] = []
        self.adjacency: set[frozenset] = set()
        self.leaves: list[Chart] = [root]
        self.log: list[BlowUpEvent] = []
        self.complete = False

    # -- bookkeeping helpers --

    def carrier_exponent(self, ident: str) -> int:
        for c in self.carriers:
            if c.ident == ident:
                return c.exponent
        raise KeyError(ident)

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
                reg[occ.ident][occ.to_birth(t)] = partner
        return reg


# --- construction -----------------------------------------------------------

def initial_state(gens: list[BiPoly]) -> ChartState:
    """Root state: extract the common curve part h and set up carriers.

    Each squarefree factor of h becomes a carrier; factors through the origin
    yield strict-branch records with N equal to their exponent in h.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise AllZero("all generators are zero")
    for g in gens:
        if g.constant_term() != 0:
            raise SupportMissesOrigin(
                f"generator {g} does not vanish at the origin")

    h = gcd_bi_many(gens)
    carriers: list[CarrierDef] = []
    if not h.is_constant():
        residual = [g.divexact(h) for g in gens]
        for i, (f, e) in enumerate(squarefree_decomposition(h)):
            carriers.append(CarrierDef(
                ident=f"C{i + 1}",
                root_eq=f,
                exponent=e,
                through_origin=(f.constant_term() == 0),
            ))
    else:
        residual = list(gens)

    root = Chart(
        path=(),
        exc={},
        pms={},
        carriers={c.ident: c.root_eq for c in carriers},
        residual=residual,
    )
    state = ChartState(gens, carriers, root)
    for c in carriers:
        if c.through_origin:
            state.strict_records.append(DivisorRecord(
                ident=c.ident, kind="strict-branch",
                N=c.exponent, nu=1))
    return state


def _translated(chart: Chart, dy: Fraction) -> Chart:
    """The chart moved along y by dy; centres always lie on x = 0."""
    shift = (lambda p: p.translate(0, dy))
    # x-type divisors are parametrized by y, y-type ones by x
    pms = {d: chart.pms[d].shift(dy) if var == "x" else chart.pms[d]
           for d, (var, _) in chart.axes.items()}
    return Chart(
        path=chart.path + (step_translate(Fraction(0), dy),),
        exc={d: shift(eq) for d, eq in chart.exc.items()},
        pms=pms,
        carriers={k: shift(v) for k, v in chart.carriers.items()},
        residual=[shift(r) for r in chart.residual],
    )


def _child(chart: Chart, side: str, new_ident: str) -> Chart:
    """One standard chart of the blow-up at the origin of `chart`."""
    step = STEP_A if side == "A" else STEP_B
    sub = (lambda p: p.subst_chart_a()) if side == "A" else \
          (lambda p: p.subst_chart_b())
    strip = (lambda p: p.divide_x_power(p.x_order())) if side == "A" else \
            (lambda p: p.divide_y_power(p.y_order()))

    exc: dict[str, BiPoly] = {}
    pms: dict[str, PointMap] = {}
    for d, eq in chart.exc.items():
        # raw stripped pullback: keeps generator factorizations exact
        new_eq = strip(sub(eq))
        if new_eq.is_constant():
            continue  # divisor not visible in this chart
        exc[d] = new_eq
        if d not in chart.axes:
            continue
        var, c = chart.axes[d]
        pm = chart.pms[d]
        if side == "A":
            if var == "y" and c == 0:
                pms[d] = pm                 # param x = a unchanged
        else:
            if var == "x" and c == 0:
                pms[d] = pm                 # param y = b unchanged
            elif var == "y" and c != 0:
                pms[d] = pm.rescale(c)      # param x = c * a

    new_eq = BiPoly.x() if side == "A" else BiPoly.y()
    exc[new_ident] = new_eq
    pms[new_ident] = PointMap(side, Fraction(1), Fraction(0))

    carriers = {}
    for k, v in chart.carriers.items():
        sv = strip(sub(v))
        if not sv.is_constant():
            carriers[k] = sv

    subs = [sub(r) for r in chart.residual]
    orders = [p.x_order() if side == "A" else p.y_order()
              for p in subs if not p.is_zero()]
    k = min(orders) if orders else 0
    residual = [p.divide_x_power(k) if side == "A" else p.divide_y_power(k)
                for p in subs]
    return Chart(path=chart.path + (step,), exc=exc, pms=pms,
                 carriers=carriers, residual=residual)


def blow_up(state: ChartState, pr: PointRecord) -> ChartState:
    """Blow up one center; mutates and returns the state.

    The new divisor gets N = minimal multiplicity of the full local
    generators at the center and nu = 2 + sum of (nu - 1) over exceptional
    divisors through the center.
    """
    if not (0 <= pr.leaf_index < len(state.leaves)):
        raise CenterNotOverOrigin(f"no leaf chart {pr.leaf_index}")
    chart = state.leaves[pr.leaf_index]
    orig_path = chart.path
    cx, cy = Fraction(pr.coords[0]), Fraction(pr.coords[1])

    through = chart.divisors_through((cx, cy))
    if state.log and not through:
        raise CenterNotOverOrigin(
            f"center {pr.coords} lies on no exceptional divisor")
    if not state.log and (cx, cy) != (0, 0):
        raise CenterNotOverOrigin("the root center must be the origin")
    if cx != 0:
        raise CenterNotOverOrigin(
            "centers must be given in their owning chart, on its x-axis locus")

    if cy != 0:
        chart = _translated(chart, cy)
    for d in through:
        if chart.axis_of(d) is None:
            raise InternalInvariantError(
                f"divisor {d} through center is not in axis form")

    nu = 2 + sum(state.divisors[d].nu - 1 for d in through)
    exc_part = sum(state.divisors[d].N * eq.mult_at_origin()
                   for d, eq in chart.exc.items() if not eq.is_zero())
    car_part = sum(state.carrier_exponent(k) * v.mult_at_origin()
                   for k, v in chart.carriers.items() if not v.is_zero())
    res_part = min(r.mult_at_origin() for r in chart.residual)
    if res_part == INFINITE_MULT:
        raise InternalInvariantError("all residual generators are zero")
    N = int(exc_part + car_part + res_part)
    if N < 1:
        raise CenterNotOverOrigin("ideal is trivial at the requested center")

    ident = f"E{len(state.divisor_order) + 1}"
    state.divisors[ident] = DivisorRecord(
        ident=ident, kind="exceptional", N=N, nu=nu)
    state.divisor_order.append(ident)

    child_a = _child(chart, "A", ident)
    child_b = _child(chart, "B", ident)
    state.leaves[pr.leaf_index:pr.leaf_index + 1] = [child_a, child_b]

    for d in through:
        state.adjacency.add(frozenset((ident, d)))
    if len(through) == 2:
        state.adjacency.discard(frozenset(through))

    state.log.append(BlowUpEvent(
        step=len(state.log), chart_path=orig_path,
        center=(cx, cy), divisors_through=tuple(through),
        new_divisor=ident, N=N, nu=nu, reasons=pr.reasons,
    ))
    state.complete = False
    return state


# --- orders and restrictions -------------------------------------------------

def divisor_order_of(state: ChartState, g: BiPoly, ident: str) -> int:
    """Exponent of the divisor's local equation in the pullback of g.

    Well defined across charts; computed in the first chart showing the
    divisor.
    """
    if g.is_zero():
        raise ValueError("zero polynomial has no divisor order")
    for c in state.carriers:
        if c.ident == ident:
            return _order_along(state, g, lambda ch: ch.carriers.get(ident))
    if ident not in state.divisors:
        raise KeyError(f"unknown divisor {ident}")
    return _order_along(state, g, lambda ch: ch.exc.get(ident))


_X, _Y = BiPoly.x(), BiPoly.y()


def _order_along(state: ChartState, g: BiPoly, eq_of) -> int:
    for chart in state.leaves:
        eq = eq_of(chart)
        if eq is None:
            continue
        p = chart.pullback(g)
        if eq == _X:
            return p.x_order()
        if eq == _Y:
            return p.y_order()
        order = 0
        while True:
            try:
                p = p.divexact(eq)
            except ValueError:
                return order
            order += 1
    raise KeyError("component not visible in any chart")


# --- zero sets on a divisor, in birth coordinates ----------------------------

def _sqfree_lcm(a: UniPoly, b: UniPoly) -> UniPoly:
    return a.divexact(uni_gcd(a, b)) * b


def zeros_in_birth(pm: PointMap, p: UniPoly) -> tuple[UniPoly, bool]:
    """Zero set of a chart restriction as (squarefree polynomial in the birth
    coordinate, flag for a zero at infinity)."""
    if p.is_zero():
        raise ValueError("identically zero restriction")
    tau = p.compose_affine(1 / pm.scale, -pm.offset / pm.scale)
    if pm.side == "A":
        return squarefree_part(tau).monic(), False
    return squarefree_part(tau.reversed()).monic(), tau.eval(0) == 0


def union_zero_data(acc: Optional[tuple[UniPoly, bool]],
                    new: tuple[UniPoly, bool]) -> tuple[UniPoly, bool]:
    if acc is None:
        return (new[0].monic(), new[1])
    return (_sqfree_lcm(acc[0], new[0]).monic(), acc[1] or new[1])


def zero_count(data: Optional[tuple[UniPoly, bool]]) -> int:
    if data is None:
        return 0
    poly, inf = data
    return max(poly.degree(), 0) + (1 if inf else 0)


def point_zero_data(pm: PointMap) -> tuple[UniPoly, bool]:
    """Zero data consisting of the single point at parameter t = 0."""
    birth = pm.to_birth(Fraction(0))
    if birth is None:
        return UniPoly.const(1), True
    return UniPoly([-birth, 1]), False


def carrier_intersections(
    state: ChartState,
) -> dict[tuple[str, str], tuple[UniPoly, bool]]:
    """Birth-coordinate zero data of every carrier on every exceptional
    divisor it meets."""
    out: dict[tuple[str, str], tuple[UniPoly, bool]] = {}
    for occ in state.occurrences():
        for c, sigma in occ.carrier_restrictions():
            data = occ.owned_zeros(sigma)
            if data is not None:
                key = (c, occ.ident)
                out[key] = union_zero_data(out.get(key), data)
    return out


def restrict_residual_to(
    state: ChartState, ident: str, coeffs: list[Fraction],
) -> list[tuple[Occurrence, UniPoly]]:
    """Restrictions of sum(coeffs_i * residual_i) to an exceptional divisor,
    one per occurrence of it."""
    if not state.complete:
        raise ResidualNotUnit("principalization is not complete")
    if all(Fraction(c) == 0 for c in coeffs):
        raise DegenerateLambda("all combination coefficients are zero")
    pieces = []
    for occ in state.occurrences():
        if occ.ident != ident:
            continue
        combo = BiPoly.zero()
        for c, r in zip(coeffs, occ.chart.residual):
            combo = combo + r.scale(c)
        pieces.append((occ, occ.chart.restrict(combo, occ.axis)))
    if not pieces:
        raise KeyError(f"divisor {ident} not visible in any leaf chart")
    return pieces
