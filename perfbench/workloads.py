"""Workload definitions and output checks for the zp benchmark.

A workload is a list of strata, each a list of alternative ideals.  The
seed picks one alternative per stratum, the order of each picked ideal's
generators, and the order of the operations.  Only the corpus pool has
strata with more than one alternative, and those are cost-sorted, so the
work in one pass stays nearly constant across seeds.  Generator order leaves
every report byte-identical.  Swapping x and y is not used: it changes some
costs by more than 2x (see README.md).  Every operation any seed can draw
has its exit code and stdout digest recorded in ``expected.json``.

One operation is one argv for ``topzeta.cli.main``.  Its checks are the
expected exit code, the recorded stdout digest, and, where one exists, a
closed form that does not come from the engine.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

#: One check on (exit code, stdout, stderr); returns a failure text or None.
Check = Callable[[int, str, str], "str | None"]

ZETA_CHECK = ("zeta", "--json", "--check")
CLASSIFY = ("classify", "--json")
VERIFY = ("verify",)
ZETA = ("zeta", "--json")
PRINCIPALIZE_CHECK = ("principalize", "--json", "--check")

GOLDEN = ("x^4*y", "x^7 + x*y^4")
GOLDEN_Z = "(5*s^2 + 16*s + 8)/((2+5s)(4+7s)(1+s))"

#: Commands run on every corpus ideal, and on every expected refusal.
CORPUS_COMMANDS = (ZETA_CHECK, CLASSIFY, VERIFY)
#: Size of one corpus-pool stratum, and the pool size kept at record time.
POOL_STRATUM = 8
POOL_SIZE = 240


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    checks: tuple[Check, ...] = ()

    @property
    def key(self) -> str:
        return json.dumps(list(self.argv))


@dataclass(frozen=True)
class Ideal:
    gens: tuple[str, ...]
    commands: tuple[tuple[str, ...], ...]
    #: extra checks per command, keyed by the command tuple
    closed_forms: dict = field(default_factory=dict, compare=False)

    def presentations(self) -> list[tuple[str, ...]]:
        rev = self.gens[::-1]
        return [self.gens] if rev == self.gens else [self.gens, rev]

    def ops(self, gens: tuple[str, ...]) -> list[Op]:
        return [Op(cmd + ("--",) + gens,
                   tuple(self.closed_forms.get(cmd, ())))
                for cmd in self.commands]


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[tuple[Ideal, ...], ...]
    #: layers (module.function) every traced pass must record spans for
    layers: tuple[str, ...]
    #: argv of the operation ``--smoke`` runs
    smoke: tuple[str, ...]

    def universe(self) -> list[Op]:
        """Every operation any seed can draw."""
        return [op for stratum in self.strata for ideal in stratum
                for gens in ideal.presentations() for op in ideal.ops(gens)]

    def draw(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for stratum in self.strata:
            ideal = rng.choice(stratum)
            ops += ideal.ops(rng.choice(ideal.presentations()))
        rng.shuffle(ops)
        return ops


# --- closed forms ------------------------------------------------------------

def _eval_zeta(z: dict, s: Fraction) -> Fraction:
    num = sum(Fraction(c) * s ** i for i, c in enumerate(z["num"]))
    den = Fraction(1)
    for nu, n, mult in z["den"]:
        den *= (nu + n * s) ** mult
    return num / den


_SAMPLE_S = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-7, 5))


def zeta_equals(closed: Callable[[Fraction], Fraction], label: str) -> Check:
    """The JSON zeta report agrees with a closed form at sample points."""
    def check(code, stdout, stderr):
        z = json.loads(stdout)["zeta"]
        for s in _SAMPLE_S:
            if _eval_zeta(z, s) != closed(s):
                return f"Z({s}) differs from {label}"
        return None
    return check


def golden_text(code, stdout, stderr):
    first = stdout.splitlines()[0] if stdout else ""
    if first != f"Z = {GOLDEN_Z}":
        return f"golden line {first!r} is not 'Z = {GOLDEN_Z}'"
    return None


def golden_closed(s: Fraction) -> Fraction:
    return (5 * s * s + 16 * s + 8) / ((2 + 5 * s) * (4 + 7 * s) * (1 + s))


def chain_form(a: int, b: int) -> Check:
    """build(a, b) has the chain (b+i, i+1), i = 1..a-b, and a pole at
    -(a-b+1)/a."""
    def check(code, stdout, stderr):
        rep = json.loads(stdout)
        got = {Fraction(c) for c in rep["candidates"]}
        want = {Fraction(-(i + 1), b + i) for i in range(1, a - b + 1)}
        if got != want:
            return f"candidates of build({a},{b}) are not the chain's"
        pole = Fraction(-(a - b + 1), a)
        if not any(Fraction(p["s"]) == pole for p in rep["poles"]):
            return f"build({a},{b}) lacks the pole {pole}"
        return None
    return check


def monomial_curve_form(m: int, n: int) -> Check:
    """x^m y^n times a unit at the origin: Z = 1/((1+ms)(1+ns)), with a
    factor dropped when its exponent is 0."""
    def closed(s):
        out = Fraction(1)
        for e in (m, n):
            if e:
                out /= 1 + e * s
        return out
    return zeta_equals(closed, f"1/((1+{m}s)(1+{n}s))")


def verify_all_pass(code, stdout, stderr):
    bad = [ln for ln in stdout.splitlines() if "FAIL" in ln]
    return f"verify reports {bad[0]!r}" if bad else None


def refusal(exit_code: int, prefix: str) -> Check:
    """A documented refusal: exit code and the start of the stderr line."""
    def check(code, stdout, stderr):
        if code != exit_code:
            return f"exit code {code}, documented refusal is {exit_code}"
        if not stderr.startswith(prefix):
            return f"stderr {stderr[:60]!r} does not start with {prefix!r}"
        return None
    return check


# --- text helpers ------------------------------------------------------------

def mono(a: int, b: int) -> str:
    parts = [f"{v}^{e}" if e > 1 else v
             for v, e in (("x", a), ("y", b)) if e]
    return "*".join(parts) or "1"


def family(a: int, b: int) -> tuple[str, str]:
    """The generators of build(a, b): (x^b y, x^a + y^(b+1))."""
    return (mono(b, 1), f"x^{a} + y^{b + 1}")


def _chain_ideal(a: int, b: int, commands) -> Ideal:
    forms = {cmd: (chain_form(a, b),) for cmd in commands if cmd[0] == "zeta"}
    forms[VERIFY] = (verify_all_pass,)
    return Ideal(family(a, b), tuple(commands), forms)


# --- corpus ------------------------------------------------------------------

MIXED = [
    ("y^2 - x^2", "x^5"), ("y^2 - x^2", "y^5"), ("y^2 - x^3", "x*y"),
    ("y^2 - x^3", "y^3 - x^4"), ("x*y", "y^2 - x^3 - x^2"),
    ("y^3", "x^4 + x*y^2"), ("x^2*y + y^4", "x^3"), ("(x + y)^2*y", "x^3"),
    ("y^2 - x^4", "x^6"), ("x^3 - y^3", "x*y^2"), ("x^4 - y^4", "x*y^3"),
    ("(y^2 - x^3)*x", "(y^2 - x^3)*y"), ("(x^2 + y^2)*x^2", "(x^2 + y^2)*y^2"),
    ("y*(y - x)*(y + x)", "x^4"), ("x*y^2", "(x + y)^3"),
    ("x^2*y^2", "x^5 + y^5"), ("x^2 + 2*x*y", "y^2"),
    ("x^3", "x*y^2", "y^4"), ("x^2*y", "x*y^2", "x^4 + y^4"),
]
CURVES = [
    ("x",), ("x^2",), ("x^2*y^3",), ("y^2 - x^3",), ("y^2 - x^2 - x^3",),
    ("x^2 + y^2",), ("(y - x^2)*(y + x^2)",), ("y^3 - x^5",), ("x*y*(x - y)",),
]
#: Expected refusals: (generators, exit code, stderr prefix).
REFUSALS = [
    (("x^3", "y^2 - 2*x^2"), 3, "unsupported:"),
    (("y^2 + x^2", "x^5"), 3, "unsupported:"),
    (("2x", "y"), 2, "error:"),
    (("x^2 +", "y"), 2, "error:"),
    (("x^2 + 0.5*y", "y"), 2, "error:"),
    (("x*z", "y"), 2, "error:"),
    (("1 + x", "y"), 2, "error:"),
]


def _monomial_quads():
    quads = [(a, b, c, d)
             for a in range(3) for b in range(3)
             for c in range(3) for d in range(3)
             if a + b >= 1 and c + d >= 1 and (a, b) < (c, d)]
    return quads + [
        (6, 1, 0, 5), (5, 0, 2, 3), (6, 6, 1, 1), (4, 2, 2, 4),
        (0, 6, 6, 0), (6, 0, 0, 6), (3, 6, 6, 3), (1, 4, 6, 2),
    ]


def pool_candidates() -> list[tuple[str, ...]]:
    """Seeded small random ideals; ``--record`` keeps the cheapest
    ``POOL_SIZE`` that finish without an internal error."""
    rng = random.Random("corpus-pool")
    coeffs = (1, -1, 2, -2, 3)
    monos = [(i, j) for i in range(7) for j in range(7) if 1 <= i + j <= 6]
    out = []
    while len(out) < 2 * POOL_SIZE:
        gens = []
        for _ in range(rng.choice((2, 2, 2, 3))):
            terms = rng.sample(monos, rng.randint(1, 3))
            text = " + ".join(f"{rng.choice(coeffs)}*{mono(i, j)}"
                              for i, j in terms)
            gens.append(text.replace("+ -", "- "))
        out.append(tuple(gens))
    return out


def corpus(pool: list[tuple[str, ...]]) -> Workload:
    fixed: list[Ideal] = [Ideal(GOLDEN, CORPUS_COMMANDS + (("zeta",),), {
        ZETA_CHECK: (zeta_equals(golden_closed, GOLDEN_Z),),
        ("zeta",): (golden_text,),
        VERIFY: (verify_all_pass,),
    })]
    fixed += [Ideal(g, CORPUS_COMMANDS, {VERIFY: (verify_all_pass,)})
              for g in MIXED]
    fixed += [_chain_ideal(a, b, CORPUS_COMMANDS)
              for b in range(10) for a in range(b + 1, 11)]
    fixed += [Ideal((mono(a, b), mono(c, d)), CORPUS_COMMANDS,
                    {VERIFY: (verify_all_pass,)})
              for a, b, c, d in _monomial_quads()]
    fixed += [Ideal(g, CORPUS_COMMANDS, {VERIFY: (verify_all_pass,)})
              for g in CURVES]
    fixed += [Ideal(g, CORPUS_COMMANDS,
                    {cmd: (refusal(code, prefix),) for cmd in CORPUS_COMMANDS})
              for g, code, prefix in REFUSALS]
    drawn = [tuple(Ideal(g, CORPUS_COMMANDS) for g in pool[i:i + POOL_STRATUM])
             for i in range(0, len(pool), POOL_STRATUM)]
    return Workload("corpus", tuple((i,) for i in fixed) + tuple(drawn),
                    ALL_LAYERS, ZETA_CHECK + ("--",) + GOLDEN)


# --- heavy workloads ---------------------------------------------------------

ALL_LAYERS = (
    "cli.main", "poly.parse_poly", "blowup.initial_state", "blowup.blow_up",
    "principalize.find_bad_points", "principalize.principalize",
    "principalize.verify_minimality", "diagram.diagram_from_state",
    "diagram.validate_all", "zeta.pole_report", "ratfunc.rf_sum_of_terms",
    "criterion.cross_check", "criterion.classify", "generic.certify_generic",
)
ZETA_LAYERS = (
    "cli.main", "poly.parse_poly", "blowup.initial_state", "blowup.blow_up",
    "principalize.find_bad_points", "principalize.principalize",
    "diagram.diagram_from_state", "zeta.pole_report",
    "ratfunc.rf_sum_of_terms",
)

#: build(a, b) pairs: one long chain for the heavy tail, several b, and
#: enough short chains that a run has 100 latency samples.
CHAIN = ((40, 0), (34, 3), (28, 2), (23, 0), (19, 3), (16, 1), (13, 2),
         (11, 0), (9, 3), (8, 1), (7, 2), (6, 0), (5, 3), (4, 1), (3, 0),
         (2, 1))


def chain() -> Workload:
    strata = tuple((_chain_ideal(a, b, (ZETA_CHECK, VERIFY)),)
                   for a, b in CHAIN)
    return Workload("chain", strata, ALL_LAYERS,
                    ZETA_CHECK + ("--",) + family(3, 0))


SWELL_BRANCH = "((y^2 - x^3)^2 - 4*x^5*y - x^7)"
#: (second branch, K) for the ideals (SWELL_BRANCH * branch, x^K).  Each
#: second branch makes later centres nonzero, so charts are translated and
#: the residuals densify as K grows.
SWELL = (("y - x^2", 11), ("y + x^2", 10), ("y - 2*x^2", 9),
         ("y - 3*x^2", 8), ("y - x^2", 8), ("y + x^2", 7), ("y - x^2", 6),
         ("y - 2*x^2", 5), ("y - x^2", 4), ("y + x^2", 3), ("y - x^2", 2),
         ("y - 3*x^2", 2))


def swell() -> Workload:
    strata = tuple(
        (Ideal((f"{SWELL_BRANCH}*({p})", f"x^{k}"),
               (PRINCIPALIZE_CHECK, ZETA)),)
        for p, k in SWELL)
    return Workload("swell", strata, (
        "cli.main", "poly.parse_poly", "blowup.initial_state",
        "blowup.blow_up", "principalize.find_bad_points",
        "principalize.principalize", "principalize.verify_minimality",
        "diagram.diagram_from_state", "zeta.pole_report",
        "ratfunc.rf_sum_of_terms"),
        PRINCIPALIZE_CHECK + ("--", f"{SWELL_BRANCH}*(y - x^2)", "x^6"))


#: Units at the origin; a curve part x^m y^n * unit^k has the toric zeta
#: 1/((1+ms)(1+ns)) whatever the unit.
UNITS = ("(1 + x + y)", "(1 - x + y)", "(1 + x - y)", "(1 - x - y)")
#: (m, n, k) for the principal ideals x^m y^n * unit^k.
UNIT_CURVES = ((1, 0, 24), (1, 0, 20), (2, 0, 16), (1, 1, 14), (1, 2, 12),
               (1, 0, 8), (2, 1, 6), (1, 0, 4), (3, 0, 4), (1, 3, 3),
               (2, 2, 2), (1, 1, 1))


def curvepart() -> Workload:
    ideals = [
        Ideal((f"{mono(m, n)}*{UNITS[i % 4]}^{k}",), (ZETA,),
              {ZETA: (monomial_curve_form(m, n),)})
        for i, (m, n, k) in enumerate(UNIT_CURVES)]
    ideals += [
        Ideal(("(y^2 - x^3)^12*x", "(y^2 - x^3)^12*y"), (ZETA,)),
        Ideal(("(y^2 - x^3)^4*x", "(y^2 - x^3)^4*y"), (ZETA,)),
        Ideal(("(y + x + x*y)^16*x", "(y + x + x*y)^16*y^2"), (ZETA,)),
        Ideal(("(x^3 + y^2 + x*y)^8",), (ZETA,)),
        # crosses the degree cap only after expanding: ROADMAP 4(c)
        Ideal(("(1 + x + y)^20*(1 + x)^45", "y"), (ZETA,),
              {ZETA: (refusal(2, "error: total degree 65"),)}),
    ]
    return Workload("curvepart", tuple((i,) for i in ideals), ZETA_LAYERS,
                    ZETA + ("--", f"x^2*y*{UNITS[2]}^6"))


def workloads(pool: list[tuple[str, ...]]) -> dict[str, Workload]:
    return {w.name: w for w in (corpus(pool), chain(), swell(), curvepart())}


# --- checking ----------------------------------------------------------------

def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def check_op(op: Op, expected: dict, code: int, stdout: str,
             stderr: str) -> str | None:
    """First failure of an operation's checks, or None when all pass."""
    want = expected.get(op.key)
    if want is None:
        return "no recorded output for this operation"
    if code != want[0]:
        return f"exit code {code}, expected {want[0]}"
    if digest(stdout) != want[1]:
        return "stdout differs from the recorded digest"
    for check in op.checks:
        try:
            failure = check(code, stdout, stderr)
        except (ValueError, KeyError, IndexError, TypeError,
                ZeroDivisionError) as exc:
            failure = f"closed-form check raised {exc!r}"
        if failure:
            return failure
    return None
