"""Generic members of the linear system spanned by the generators.

A general combination lambda_1 f_1 + ... + lambda_l f_l shares the numerical
data of the principalization: its vanishing order along every divisor is the
minimum of the generators' orders, and its strict transform crosses each
exceptional curve in n simple points away from the existing diagram points.
Genericity of a concrete sample is certified, not assumed: a failed check
triggers a deterministic resample within a fixed budget.

The certified counts feed two exact identities per exceptional curve E with
m diagram neighbors and ratio nu/N:

    sum(alpha_i) + n (1 - nu/N) = m + n - 2
    sum(alpha_i) = m - 2 + nu n / N

They are one identity: moving n (1 - nu/N) to the right of the first gives
the second.  So one comparison checks both, the second, on integers times N
from the numerators `alpha_nums`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .blowup import (
    ChartState,
    carrier_intersections,
    divisor_order_of,
    divisor_orders,
    restrict_residual_to,
    union_zero_data,
    zero_count,
)
from .diagram import alpha_nums
from .errors import DegenerateLambda, InternalInvariantError, RetriesExhausted
from .poly import BiPoly, _expand, _Product, _typed, _zhorner, combination, \
    row_gcd
from .principalize import PrincipalizationResult

RETRY_BUDGET = 16


def sample_lambda(count: int, seed: int, attempt: int) -> list[Fraction]:
    """Deterministic nonzero coefficients; attempt 0 is all ones."""
    if count < 2:
        raise ValueError("a combination needs at least two coefficients")
    if attempt == 0:
        return [Fraction(1)] * count
    rng = random.Random(f"{seed}:{attempt}")
    return [Fraction(rng.randint(1, 9)) for _ in range(count)]


class DivisorCheck:
    def __init__(self, ident: str, N_from_generic: int, N_min: int,
                 n: int | None = None):  # n is None for strict branches
        self.ident, self.N_min, self.n = ident, N_min, n
        self.N_from_generic = N_from_generic

    @property
    def min_property_ok(self) -> bool:
        return self.N_from_generic == self.N_min


class GenericCheckReport:
    def __init__(self, lam: list[Fraction], retries: int,
                 per_divisor: dict[str, DivisorCheck] | None = None):
        self.lam, self.retries = lam, retries
        self.per_divisor = {} if per_divisor is None else per_divisor

    def n_table(self) -> dict[str, int]:
        return {d: c.n for d, c in self.per_divisor.items()
                if c.n is not None}


def _min_orders(result: PrincipalizationResult) -> dict[str, int]:
    """N_min of every divisor and strict branch through the origin: the
    minimum order over the generators, which no sample changes.  The walks
    are bounded by the largest engine N; only when every generator's order
    along some divisor is past it is each generator walked once more, with
    no bound.  Carriers are read by `divisor_order_of`."""
    state, gens = result.state, result.gens
    bound = max((state.divisors[d].N for d in state.divisor_order),
                default=0)
    walks = [divisor_orders(state, g, bound) for g in gens]
    if any(all(w[d] is None for w in walks) for d in state.divisor_order):
        walks = [divisor_orders(state, g) for g in gens]
    return {d: min([w[d] for w in walks if w.get(d) is not None] or
                   [divisor_order_of(state, g, d) for g in gens])
            for d in state.divisor_order + [
                c.ident for c in state.carriers if c.through_origin]}


def _member(lam: list[Fraction], gens: list[BiPoly]) -> BiPoly:
    """sum(lam_i g_i), up to a positive factor, typed as a product: the
    bases every generator is typed with, to their least exponents, times
    the combination of the cofactors, which alone expands."""
    if not all(isinstance(g, _Product) for g in gens):
        return combination(lam, gens)
    typed = []
    for g in gens:
        exps: dict[BiPoly, int] = {}
        for b, e in g.factors:
            exps[b] = exps.get(b, 0) + e
        typed.append((g.const, exps))
    shared = {b: k for b in typed[0][1]
              if (k := min(x.get(b, 0) for _, x in typed))}
    if not shared:
        return combination(lam, gens)
    rest = combination(lam, [_expand(c, [
        (b, e - shared.get(b, 0)) for b, e in x.items()
        if e > shared.get(b, 0)]) for c, x in typed])
    if rest.is_zero() or rest.is_constant():
        return rest if rest.is_zero() else _typed(
            rest.terms[(0, 0)], list(shared.items()))
    return _typed(1, [*shared.items(), (rest, 1)])


def _verify_min_property(result: PrincipalizationResult, lam: list[Fraction],
                         n_min: dict[str, int]) -> dict[str, DivisorCheck]:
    """Order of the combination along each divisor versus the minimum over
    generators; inequality marks the sample as degenerate.  The member's
    orders come in one walk bounded by the largest N_min; an order past it
    is a mismatch, read in one more walk with no bound."""
    state = result.state
    member = _member(lam, result.gens)
    if member.is_zero():
        raise DegenerateLambda("combination is identically zero")
    orders = divisor_orders(state, member, max(
        (n_min[d] for d in state.divisor_order), default=0))
    if None in orders.values():
        orders = divisor_orders(state, member)
    return {d: DivisorCheck(ident=d, N_min=want, N_from_generic=(
                orders[d] if d in orders else
                divisor_order_of(state, member, d)))
            for d, want in n_min.items()}


def _branch_points(state: ChartState) -> dict[str, list]:
    """Branch-point zero data on every exceptional curve, from the carrier
    intersections the diagram read of the completed state
    (`ChartState.kept`)."""
    branches: dict[str, list] = {d: [] for d in state.divisor_order}
    for (_, d), data in state.kept(carrier_intersections).items():
        branches[d].append(data)
    return branches


def _count_n(state: ChartState, lam: list[Fraction], ident: str,
             branches: dict[str, list]) -> int:
    """Distinct crossings of the generic member's strict transform with one
    exceptional curve, deduplicated across the atlas.

    Certifies along the way that every restriction is squarefree and that
    no crossing sits at an existing diagram point; violations raise
    DegenerateLambda so the caller can resample.
    """
    data, rows = None, restrict_residual_to(state, ident, lam)
    for occ, row in rows:
        if not row:
            raise DegenerateLambda(
                f"combination vanishes along {ident}")
        # a repeated zero is a common zero of the row and its derivative
        if occ.owned_zeros(row_gcd(
                [row, [i * v for i, v in enumerate(row)][1:]])) is not None:
            raise DegenerateLambda(
                f"restriction to {ident} is not squarefree")
        zeros = occ.owned_zeros(row)
        if zeros is not None:
            data = union_zero_data(data, zeros)
    if data is None:
        return 0
    crossings, inf = data
    # the divisor's corners, each read in the occurrence that owns it
    corners = {occ.pm.to_birth(t) for occ, _ in rows for t, _ in occ.corners}
    if any(lam0 is not None and _zhorner(
            crossings, lam0.numerator, lam0.denominator) == 0
           for lam0 in corners):
        raise DegenerateLambda(f"crossing at a corner of {ident}")
    for brow, binf in branches[ident]:
        if len(row_gcd([crossings, brow])) > 1:
            raise DegenerateLambda(
                f"crossing at a branch point of {ident}")
        if inf and binf:
            raise DegenerateLambda(
                f"crossing at the infinite branch point of {ident}")
    if inf and None in corners:
        raise DegenerateLambda(
            f"crossing at the infinite corner of {ident}")
    return zero_count(data)


def _verify_relations(result: PrincipalizationResult, lam: list[Fraction],
                      branches: dict[str, list],
                      n_min: dict[str, int]) -> GenericCheckReport:
    """Both identities, exactly, for every exceptional divisor.

    A mismatch here is an engine bug, not sample degeneracy: the counts were
    already certified.
    """
    checks = _verify_min_property(result, lam, n_min)
    for ident, c in checks.items():
        if not c.min_property_ok:
            raise DegenerateLambda(
                f"order along {ident}: {c.N_from_generic} != min "
                f"{c.N_min}")
    diagram = result.diagram
    for v in diagram.exceptional():
        n = _count_n(result.state, lam, v.ident, branches)
        table = alpha_nums(diagram, v.ident)
        m, N, nu = len(table), v.N, v.nu
        total = sum(a for _, a in table)  # N sum(alpha)
        rhs = N * (m - 2) + nu * n
        if total != rhs:
            raise InternalInvariantError(
                f"numerical-data relation fails at {v.ident}: "
                f"sum(alpha) = {Fraction(total, N)}, m = {m}, n = {n}, "
                f"ratio = {diagram.ratio(v.ident)}")
        checks[v.ident].n = n
    return GenericCheckReport(lam=list(lam), retries=0, per_divisor=checks)


def certify_generic(result: PrincipalizationResult,
                    seed: int = 0) -> GenericCheckReport:
    """First accepted sample within the retry budget, with its full report."""
    l = len(result.gens)
    branches = _branch_points(result.state)
    n_min = _min_orders(result)
    last = None
    for attempt in range(RETRY_BUDGET):
        lam = sample_lambda(l, seed, attempt)
        try:
            report = _verify_relations(result, lam, branches, n_min)
            report.retries = attempt
            return report
        except DegenerateLambda as exc:
            last = exc
    raise RetriesExhausted(
        f"no generic sample within {RETRY_BUDGET} attempts: {last}")
