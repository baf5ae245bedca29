"""Decorated intersection diagrams and their structural validators.

Vertices are the components of the total-transform support over the origin
with numerical data (N, nu); edges are intersection points.  The degenerate
case where no blow-up is needed is stored explicitly (origin_case) because
the zeta function needs the branches through the origin there.

Validators check the known constraints on the numerical data of a minimal
principalization: bounds on alpha = nu_i - (nu/N) N_i, the sign pattern of
the alphas, the ordered-tree property of the ratios nu/N, and nu <= N + 1.
They compare integers only: an alpha as its numerator N nu_i - nu N_i over
N >= 1 (`alpha_nums`), and two ratios by cross-multiplication (`_below`).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional, Sequence

from .blowup import ChartState, Vertex, carrier_intersections, zero_count
from .errors import InternalInvariantError, MalformedDiagram
from .poly import _zhorner, frac_str

_ID = re.compile(r"([A-Za-z]+)(\d+)")


def _id_key(ident: str) -> tuple:
    m = _ID.fullmatch(ident)
    if m:
        return (m.group(1), int(m.group(2)))
    return (ident, 0)


class IntersectionDiagram:
    """A diagram never changes after it is built, so the constructor
    derives once the tables that every query reads: the canonical edge
    pairs (``edge_pairs``, in id order), each vertex's neighbours in id
    order, and the vertices grouped by candidate ``-nu/N``
    (``by_candidate``, candidates ascending, vertices in id order).  The
    alpha table of an exceptional vertex is kept on its first read
    (``alpha_nums``)."""

    def __init__(self, vertices: list[Vertex], edges: set[frozenset],
                 origin_case: Optional[list[str]] = None,  # branch vertex ids
                 minimal: bool = False):
        self.edges, self.origin_case = edges, origin_case
        self.minimal = minimal
        self.vertices = sorted(vertices, key=lambda v: _id_key(v.ident))
        self._by_id = {v.ident: v for v in self.vertices}
        if len(self._by_id) != len(self.vertices):
            raise MalformedDiagram("duplicate vertex identifiers")
        for e in self.edges:
            if len(e) != 2:
                raise MalformedDiagram(f"edge {set(e)} is not a pair")
            for v in e:
                if v not in self._by_id:
                    raise MalformedDiagram(f"edge endpoint {v} is unknown")
        for b in self.origin_case or ():
            if b not in self._by_id:
                raise MalformedDiagram(f"origin branch {b} is unknown")
        rank = {ident: i for i, ident in enumerate(self._by_id)}
        pairs = (tuple(sorted(e, key=rank.get)) for e in self.edges)
        self.edge_pairs = sorted(pairs, key=lambda p: (rank[p[0]], rank[p[1]]))
        # from the sorted pairs, each neighbour list comes out in id order
        self._neighbors = {ident: [] for ident in self._by_id}
        for a, b in self.edge_pairs:
            self._neighbors[a].append(b)
            self._neighbors[b].append(a)
        groups: dict[Fraction, list[Vertex]] = {}
        for v in self.vertices:
            groups.setdefault(Fraction(-v.nu, v.N), []).append(v)
        self.by_candidate = dict(sorted(groups.items()))
        self._alpha_nums: dict[str, tuple[tuple[str, int], ...]] = {}

    # -- queries --

    def vertex(self, ident: str) -> Vertex:
        return self._by_id[ident]

    def exceptional(self) -> list[Vertex]:
        return [v for v in self.vertices if v.kind == "exceptional"]

    def strict_branches(self) -> list[Vertex]:
        return [v for v in self.vertices if v.kind == "strict-branch"]

    def neighbors(self, ident: str) -> list[str]:
        return list(self._neighbors.get(ident, ()))

    def degree(self, ident: str) -> int:
        return len(self._neighbors.get(ident, ()))

    def ratio(self, ident: str) -> Fraction:
        v = self._by_id[ident]
        return Fraction(v.nu, v.N)


# --- construction from a completed state -------------------------------------

def diagram_from_state(state: ChartState) -> IntersectionDiagram:
    """Derive the dual graph of a (completed) run.

    Strict-branch vertices are the intersection points of the carriers'
    strict transforms with the fiber over the origin; the carrier exponent
    supplies their N.  Conjugate points each count as a vertex.
    """
    if not state.log:
        branches = [rec._replace(ident=f"S{i + 1}")
                    for i, rec in enumerate(state.strict_records)]
        edges: set[frozenset] = set()
        if len(branches) == 2:
            edges.add(frozenset((branches[0].ident, branches[1].ident)))
        elif len(branches) > 2:
            raise InternalInvariantError(
                "degenerate case with more than two branches")
        return IntersectionDiagram(
            vertices=branches, edges=edges,
            origin_case=[b.ident for b in branches], minimal=True)

    vertices = [state.divisors[d] for d in state.divisor_order]
    edges = set(state.adjacency)

    corners = None  # read only where a branch meets a divisor
    hits = state.kept(carrier_intersections)
    serial = 0
    for c in state.carriers:
        for d in state.divisor_order:
            data = hits.get((c.ident, d))
            count = zero_count(data)
            if not count:
                continue
            row, inf = data
            if corners is None:
                corners = state.kept(ChartState.corner_registry)
            if any(inf if lam is None else
                   _zhorner(row, lam.numerator, lam.denominator) == 0
                   for lam in corners[d]):
                raise InternalInvariantError(
                    f"branch of {c.ident} at a corner of {d}")
            for _ in range(count):
                serial += 1
                ident = f"S{serial}"
                vertices.append(Vertex(ident, "strict-branch",
                                       c.exponent, 1))
                edges.add(frozenset((ident, d)))
    return IntersectionDiagram(vertices=vertices, edges=edges,
                               origin_case=None, minimal=True)


# --- alpha table -------------------------------------------------------------

def alpha_nums(diagram: IntersectionDiagram,
               ident: str) -> tuple[tuple[str, int], ...]:
    """The alphas of an exceptional vertex as integer numerators over its N:
    a_i = N nu_i - nu N_i, so alpha_i = a_i / N, per neighbor sorted by
    neighbor identity; the diagram's own table."""
    table = diagram._alpha_nums.get(ident)
    if table is None:
        v = diagram.vertex(ident)
        if v.kind != "exceptional":
            raise MalformedDiagram(f"{ident} is not an exceptional vertex")
        table = diagram._alpha_nums[ident] = tuple(
            (w.ident, v.N * w.nu - v.nu * w.N)
            for w in map(diagram.vertex, diagram._neighbors[ident]))
    return table


def alphas(diagram: IntersectionDiagram,
           ident: str) -> list[tuple[str, Fraction]]:
    """alpha_i = nu_i - (nu/N) N_i per neighbor of an exceptional vertex,
    sorted by neighbor identity: `alpha_nums` as fractions."""
    N = diagram.vertex(ident).N
    return [(n, Fraction(a, N)) for n, a in alpha_nums(diagram, ident)]


def _below(v: Vertex, w: Vertex) -> bool:
    """Whether nu/N of v is less than that of w (both N >= 1)."""
    return v.nu * w.N < w.nu * v.N


class Report(NamedTuple):
    name: str
    passed: bool
    failures: Sequence[str] = ()

    def __bool__(self) -> bool:
        return self.passed


def _report(name: str, failures: list[str]) -> Report:
    return Report(name=name, passed=not failures, failures=failures)


# --- validators ---------------------------------------------------------------

def validate_alpha_bounds(diagram: IntersectionDiagram) -> Report:
    """-1 <= alpha_i < 1 for every neighbor of every exceptional vertex;
    alpha_i = -1 only with a single neighbor."""
    failures = []
    for v in diagram.exceptional():
        table, N = alpha_nums(diagram, v.ident), v.N
        m = len(table)
        for n, a in table:
            if not (-N <= a < N):
                failures.append(f"{v.ident}: alpha toward {n} is "
                                f"{frac_str(Fraction(a, N))}")
            if a == -N and m != 1:
                failures.append(
                    f"{v.ident}: alpha = -1 with {m} neighbors")
    return _report("alpha-bounds", failures)


def validate_alpha_signs(diagram: IntersectionDiagram) -> Report:
    """Sign pattern of the alphas: at most one negative; for three or more
    neighbors at most one nonpositive; for two neighbors the ratio nu/N sits
    below the larger neighbor ratio whenever it sits above the smaller."""
    failures = []
    for v in diagram.exceptional():
        table = alpha_nums(diagram, v.ident)
        m = len(table)
        neg = [n for n, a in table if a < 0]
        if len(neg) > 1:
            failures.append(f"{v.ident}: several negative alphas {neg}")
        if m >= 3:
            nonpos = [n for n, a in table if a <= 0]
            if len(nonpos) > 1:
                failures.append(
                    f"{v.ident}: several nonpositive alphas {nonpos}")
        if m == 2:
            w1, w2 = (diagram.vertex(n) for n, _ in table)
            for a, b in ((w1, w2), (w2, w1)):
                if _below(a, v) and not _below(v, b):
                    failures.append(f"{v.ident}: ratio not between "
                                    f"neighbors {a.ident}, {b.ident}")
    return _report("two-neighbor-ordering", failures)


def _connected(diagram: IntersectionDiagram, part: list[str]) -> bool:
    """Whether a nonempty set of vertices spans a connected subgraph: a
    depth-first search inside it from its first vertex reaches it all."""
    inside = set(part)
    seen = {part[0]}
    stack = [part[0]]
    while stack:
        for n in diagram._neighbors[stack.pop()]:
            if n in inside and n not in seen:
                seen.add(n)
                stack.append(n)
    return seen == inside


def validate_ordered_tree(diagram: IntersectionDiagram) -> Report:
    """The minimal-ratio part is connected and ratios strictly increase along
    any path leaving it."""
    failures = []
    if not diagram.vertices:
        return _report("ordered-tree", failures)
    # the last candidate group has the least ratio, vertices in id order
    core = [v.ident for v in next(reversed(diagram.by_candidate.values()))]
    if not _connected(diagram, core):
        failures.append(f"minimal-ratio part disconnected: {sorted(core)}")
    # strict increase outward (breadth-first from the core)
    seen = set(core)
    frontier = core
    while frontier:
        nxt = []
        for cur in frontier:
            for n in diagram._neighbors[cur]:
                if n in seen:
                    continue
                if not _below(diagram.vertex(cur), diagram.vertex(n)):
                    failures.append(
                        f"ratio does not increase from {cur} to {n}")
                seen.add(n)
                nxt.append(n)
        frontier = nxt
    return _report("ordered-tree", failures)


def validate_nu_bound(diagram: IntersectionDiagram) -> Report:
    """nu <= N + 1 on every exceptional vertex."""
    failures = [
        f"{v.ident}: nu = {v.nu} > N + 1 = {v.N + 1}"
        for v in diagram.exceptional() if v.nu > v.N + 1
    ]
    return _report("nu-bound", failures)


def validate_tree_shape(diagram: IntersectionDiagram) -> Report:
    """Exceptional subgraph is a tree; each strict branch hangs off it by
    exactly one edge (unless the origin case carries the branches)."""
    failures = []
    exc = [v.ident for v in diagram.exceptional()]
    inside = set(exc)
    exc_edges = [e for e in diagram.edges if e <= inside]
    if exc:
        if len(exc_edges) != len(exc) - 1:
            failures.append(
                f"{len(exc_edges)} edges among {len(exc)} exceptional vertices")
        if not _connected(diagram, exc):
            failures.append("exceptional subgraph disconnected")
    for v in diagram.strict_branches():
        degree = diagram.degree(v.ident)
        if diagram.origin_case is None and degree != 1:
            failures.append(f"strict branch {v.ident} " + (
                f"meets {degree} curves" if degree else "is isolated"))
        if v.nu != 1:
            failures.append(f"strict branch {v.ident} has nu = {v.nu}")
    if diagram.origin_case is None:
        for e in diagram.edge_pairs:
            if all(diagram.vertex(v).kind == "strict-branch" for v in e):
                failures.append(f"strict branches meet: {sorted(e)}")
    return _report("tree-shape", failures)


def validate_all(diagram: IntersectionDiagram) -> list[Report]:
    return [
        validate_alpha_bounds(diagram),
        validate_alpha_signs(diagram),
        validate_ordered_tree(diagram),
        validate_nu_bound(diagram),
        validate_tree_shape(diagram),
    ]


# --- serialization ------------------------------------------------------------

def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, in one recursive pass:
    CPython's C encoder serves only ``indent=None``, and its Python encoder
    pays for options no report uses.  Takes str, int, bool, None, lists,
    tuples and dicts with str keys; anything else, a float or a Fraction
    among them, raises TypeError."""
    return _json_text(obj, "\n")


def _json_text(obj, newline: str) -> str:
    """obj at the level whose line break and indent is `newline`."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_json_text(v, inner) for v in obj]) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is no str
        return "{" + inner + ("," + inner).join(
            [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
             for k, v in obj.items()]) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def export_json(diagram: IntersectionDiagram) -> str:
    return json_text(diagram_payload(diagram))


def diagram_payload(diagram: IntersectionDiagram) -> dict:
    """The JSON object of `export_json`, as plain lists and dicts."""
    return {
        "vertices": [
            {"id": v.ident, "kind": v.kind, "N": v.N, "nu": v.nu}
            for v in diagram.vertices
        ],
        "edges": [list(pair) for pair in diagram.edge_pairs],
        "origin_case": (
            None if diagram.origin_case is None else {
                "branches": [
                    {"id": b, "N": diagram.vertex(b).N}
                    for b in sorted(diagram.origin_case, key=_id_key)
                ]
            }
        ),
    }


def _checked_vertex(v: dict) -> Vertex:
    """A vertex read from JSON; checked before the diagram divides by N."""
    vertex = Vertex(v["id"], v["kind"], v["N"], v["nu"])
    if not (isinstance(vertex.ident, str)
            and vertex.kind in ("exceptional", "strict-branch")
            and all(type(n) is int and n >= 1 for n in (vertex.N, vertex.nu))):
        raise MalformedDiagram(
            f"vertex {json.dumps(v)} needs a string id, kind exceptional or "
            "strict-branch, and integers N, nu >= 1")
    return vertex


def load_json(text: str) -> IntersectionDiagram:
    try:
        payload = json.loads(text)
        vertices = [_checked_vertex(v) for v in payload["vertices"]]
        edges = {frozenset(e) for e in payload["edges"]}
        oc = payload.get("origin_case")
        origin = None if oc is None else [b["id"] for b in oc["branches"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDiagram(f"cannot parse diagram JSON: {exc}") from exc
    return IntersectionDiagram(vertices=vertices, edges=edges,
                               origin_case=origin, minimal=False)


def export_dot(diagram: IntersectionDiagram) -> str:
    lines = ["graph principalization {"]
    for v in diagram.vertices:
        shape = "ellipse" if v.kind == "exceptional" else "box"
        lines.append(
            f'  "{v.ident}" [shape={shape}, label="{v.ident} ({v.N},{v.nu})"];'
        )
    for a, b in diagram.edge_pairs:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
