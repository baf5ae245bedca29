"""The diagram's tables (neighbour lists, candidate groups, edge pairs) and
the validators, zeta terms and residues that read them, against the
per-call scans they replaced; and the integer alpha tables, validators and
pole criterion against the Fraction code they replaced.

Each ``_reference_*`` function is the earlier code, kept verbatim as the
oracle except that it calls the other references instead of the tables.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topzeta.criterion import ConditionHit, Verdict, classify
from topzeta.diagram import (
    IntersectionDiagram,
    Vertex,
    _id_key,
    _report,
    alpha_nums,
    alphas,
    diagram_from_state,
    export_dot,
    export_json,
    load_json,
    validate_alpha_bounds,
    validate_alpha_signs,
    validate_ordered_tree,
    validate_tree_shape,
)
from topzeta.errors import (
    InternalInvariantError,
    MalformedDiagram,
    NotACandidate,
    OrderTwoCandidate,
)
from topzeta.family import build
from topzeta.poly import frac_str
from topzeta.principalize import principalize
from topzeta.zeta import candidate_poles, residue_contribution, zeta_terms


# --- references: the per-call scans --------------------------------------

def _reference_neighbors(diagram, ident):
    out = [next(iter(e - {ident})) for e in diagram.edges if ident in e]
    return sorted(out, key=_id_key)


def _reference_degree(diagram, ident):
    return sum(1 for e in diagram.edges if ident in e)


def _reference_candidate_poles(diagram):
    return sorted({Fraction(-v.nu, v.N) for v in diagram.vertices})


def _reference_components(diagram, s0):
    """The per-vertex filter of classify and pole_report."""
    out = []
    for v in diagram.vertices:
        if Fraction(-v.nu, v.N) != s0:
            continue
        out.append(v)
    return out


def _reference_zeta_edge_order(diagram):
    out = []
    for e in sorted(diagram.edges, key=lambda e: sorted(map(_id_key, e))):
        a, b = sorted(e, key=_id_key)
        out.append((a, b))
    return out


def _reference_json_edges(diagram):
    return sorted(
        (sorted(e, key=_id_key) for e in diagram.edges),
        key=lambda pair: (_id_key(pair[0]), _id_key(pair[1])),
    )


def _reference_export_dot(diagram):
    lines = ["graph principalization {"]
    for v in diagram.vertices:
        shape = "ellipse" if v.kind == "exceptional" else "box"
        lines.append(
            f'  "{v.ident}" [shape={shape}, label="{v.ident} ({v.N},{v.nu})"];'
        )
    for e in sorted(
        (sorted(e, key=_id_key) for e in diagram.edges),
        key=lambda pair: (_id_key(pair[0]), _id_key(pair[1])),
    ):
        lines.append(f'  "{e[0]}" -- "{e[1]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _reference_alphas(diagram, ident):
    v = diagram.vertex(ident)
    if v.kind != "exceptional":
        raise MalformedDiagram(f"{ident} is not an exceptional vertex")
    r = diagram.ratio(ident)
    out = []
    for n in _reference_neighbors(diagram, ident):
        w = diagram.vertex(n)
        out.append((n, Fraction(w.nu) - r * w.N))
    return out


def _reference_zeta_terms(diagram):
    terms = []
    for v in diagram.vertices:
        deg = _reference_degree(diagram, v.ident)
        if v.kind == "exceptional":
            chi = 2 - deg
        else:
            # the branch meets the fiber away from its crossings only when
            # no blow-up happened at all
            chi = 1 if (diagram.origin_case is not None and deg == 0) else 0
        if chi:
            terms.append((chi, [(v.nu, v.N)]))
    for e in sorted(diagram.edges, key=lambda e: sorted(map(_id_key, e))):
        a, b = sorted(e, key=_id_key)
        va, vb = diagram.vertex(a), diagram.vertex(b)
        terms.append((1, [(va.nu, va.N), (vb.nu, vb.N)]))
    return terms


def _reference_residue_contribution(diagram, ident, s0):
    v = diagram.vertex(ident)
    s0 = Fraction(s0)
    if Fraction(-v.nu, v.N) != s0:
        raise ValueError(f"{ident} does not attain the candidate {s0}")
    if v.kind == "exceptional":
        table = _reference_alphas(diagram, ident)
        m = len(table)
        total = Fraction(2 - m)
        for n, a in table:
            if a == 0:
                raise OrderTwoCandidate(
                    f"alpha toward {n} vanishes at {frac_str(s0)}")
            total += Fraction(1) / a
        return total / v.N
    neighbors = _reference_neighbors(diagram, ident)
    if not neighbors:
        if diagram.origin_case is None:
            raise MalformedDiagram(f"isolated strict branch {ident}")
        return Fraction(1, v.N)
    (n,) = neighbors
    w = diagram.vertex(n)
    a = Fraction(w.nu) - Fraction(v.nu, v.N) * w.N
    if a == 0:
        raise OrderTwoCandidate(
            f"alpha toward {n} vanishes at {frac_str(s0)}")
    return Fraction(1, v.N) / a


def _reference_validate_ordered_tree(diagram):
    failures = []
    if not diagram.vertices:
        return _report("ordered-tree", failures)
    rmin = min(diagram.ratio(v.ident) for v in diagram.vertices)
    core = {v.ident for v in diagram.vertices if diagram.ratio(v.ident) == rmin}
    # connectivity of the core
    start = sorted(core, key=_id_key)[0]
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for n in _reference_neighbors(diagram, cur):
            if n in core and n not in seen:
                seen.add(n)
                stack.append(n)
    if seen != core:
        failures.append(f"minimal-ratio part disconnected: {sorted(core)}")
    # strict increase outward (breadth-first from the core)
    dist = {v: 0 for v in core}
    frontier = sorted(core, key=_id_key)
    while frontier:
        nxt = []
        for cur in frontier:
            for n in _reference_neighbors(diagram, cur):
                if n in dist:
                    continue
                if not diagram.ratio(n) > diagram.ratio(cur):
                    failures.append(
                        f"ratio does not increase from {cur} to {n}")
                dist[n] = dist[cur] + 1
                nxt.append(n)
        frontier = nxt
    return _report("ordered-tree", failures)


def _reference_validate_tree_shape(diagram):
    failures = []
    exc = {v.ident for v in diagram.exceptional()}
    exc_edges = [e for e in diagram.edges if e <= exc]
    if exc:
        if len(exc_edges) != len(exc) - 1:
            failures.append(
                f"{len(exc_edges)} edges among {len(exc)} exceptional vertices")
        start = sorted(exc, key=_id_key)[0]
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for n in _reference_neighbors(diagram, cur):
                if n in exc and n not in seen:
                    seen.add(n)
                    stack.append(n)
        if seen != exc:
            failures.append("exceptional subgraph disconnected")
    for v in diagram.strict_branches():
        if _reference_degree(diagram, v.ident) < 1 \
                and diagram.origin_case is None:
            failures.append(f"strict branch {v.ident} is isolated")
        if v.nu != 1:
            failures.append(f"strict branch {v.ident} has nu = {v.nu}")
    if diagram.origin_case is None:
        for e in diagram.edges:
            if all(diagram.vertex(v).kind == "strict-branch" for v in e):
                failures.append(f"strict branches meet: {sorted(e)}")
    return _report("tree-shape", failures)


def _reference_validate_alpha_bounds(diagram):
    failures = []
    for v in diagram.exceptional():
        table = _reference_alphas(diagram, v.ident)
        m = len(table)
        for n, a in table:
            if not (-1 <= a < 1):
                failures.append(
                    f"{v.ident}: alpha toward {n} is {frac_str(a)}")
            if a == -1 and m != 1:
                failures.append(
                    f"{v.ident}: alpha = -1 with {m} neighbors")
    return _report("alpha-bounds", failures)


def _reference_validate_alpha_signs(diagram):
    failures = []
    for v in diagram.exceptional():
        table = _reference_alphas(diagram, v.ident)
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
            r = diagram.ratio(v.ident)
            (n1, _), (n2, _) = table
            for a, b in ((n1, n2), (n2, n1)):
                if diagram.ratio(a) < r and not r < diagram.ratio(b):
                    failures.append(
                        f"{v.ident}: ratio not between neighbors {a}, {b}")
    return _report("two-neighbor-ordering", failures)


def _reference_classify(diagram, s0):
    s0 = Fraction(s0)
    components = _reference_components(diagram, s0)
    if not components:
        raise NotACandidate(f"{frac_str(s0)} is not a candidate pole")
    hits = []
    for v in components:
        if v.kind == "strict-branch":
            hits.append(ConditionHit(1, v.ident))
            continue
        table = _reference_alphas(diagram, v.ident)
        m = len(table)
        if m == 0:
            hits.append(ConditionHit(2, v.ident))
        elif m == 1 and table[0][1] != -1:
            hits.append(ConditionHit(3, v.ident))
        elif m == 2 and table[0][1] + table[1][1] != 0:
            hits.append(ConditionHit(4, v.ident))
        elif m >= 3:
            hits.append(ConditionHit(5, v.ident))
    return Verdict(s0=s0, is_pole=bool(hits), hits=hits)


# --- comparison ----------------------------------------------------------

MEET = "strict branches meet: "


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MalformedDiagram, NotACandidate, OrderTwoCandidate,
            ValueError) as exc:
        return type(exc).__name__


def _assert_integer_checks_match(d: IntersectionDiagram) -> None:
    """The integer alpha tables, alpha validators and criterion give the
    Fraction references' tables, reports, failure texts and verdicts."""
    for v in d.exceptional():
        assert [(n, Fraction(a, v.N)) for n, a in alpha_nums(d, v.ident)] \
            == _reference_alphas(d, v.ident)
    assert validate_alpha_bounds(d) == _reference_validate_alpha_bounds(d)
    assert validate_alpha_signs(d) == _reference_validate_alpha_signs(d)
    # the criterion reads a replayed or drawn diagram as if minimal
    marked = IntersectionDiagram(d.vertices, d.edges, d.origin_case,
                                 minimal=True)
    for s0 in [*d.by_candidate, Fraction(1, 2)]:
        verdict = _outcome(classify, marked, s0)
        assert verdict == _outcome(_reference_classify, d, s0), s0
        if s0.denominator == 1:  # an int is read as its Fraction
            assert classify(marked, int(s0)) == verdict
            assert type(classify(marked, int(s0)).s0) is Fraction


def _assert_tables_match(d: IntersectionDiagram) -> None:
    ids = [v.ident for v in d.vertices]
    for ident in ids + ["X99"]:
        assert d.neighbors(ident) == _reference_neighbors(d, ident), ident
        assert d.degree(ident) == _reference_degree(d, ident), ident
    assert candidate_poles(d) == _reference_candidate_poles(d)
    assert list(d.by_candidate) == _reference_candidate_poles(d)
    for s0, group in d.by_candidate.items():
        assert list(group) == _reference_components(d, s0), s0
    pairs = [tuple(p) for p in _reference_zeta_edge_order(d)]
    assert list(d.edge_pairs) == pairs
    assert [tuple(p) for p in _reference_json_edges(d)] == pairs
    assert json.loads(export_json(d))["edges"] == _reference_json_edges(d)
    assert export_dot(d) == _reference_export_dot(d)
    if d.vertices:
        assert zeta_terms(d) == _reference_zeta_terms(d)
    for v in d.exceptional():
        assert alphas(d, v.ident) == _reference_alphas(d, v.ident)
    _assert_integer_checks_match(d)
    for v in d.vertices:
        if v.kind == "strict-branch" and d.degree(v.ident) > 1:
            continue  # the reference failed to unpack; see CHANGES.md
        s0 = Fraction(-v.nu, v.N)
        assert _outcome(residue_contribution, d, v.ident, s0) == \
            _outcome(_reference_residue_contribution, d, v.ident, s0), v
    assert validate_ordered_tree(d) == _reference_validate_ordered_tree(d)
    new, old = validate_tree_shape(d), _reference_validate_tree_shape(d)
    # the reference let a strict branch meet several curves; see CHANGES.md
    several = [f"strict branch {v.ident} meets {d.degree(v.ident)} curves"
               for v in d.strict_branches()
               if d.origin_case is None and d.degree(v.ident) > 1]
    assert [f for f in new.failures if f.endswith(" curves")] == several
    assert new.passed == (old.passed and not several)
    # the reference lists meeting strict branches in edge-set order, which
    # varies with the string hash seed; the table lists them in id order
    assert [f for f in new.failures
            if not f.startswith(MEET) and f not in several] == \
        [f for f in old.failures if not f.startswith(MEET)]
    meets = [f for f in new.failures if f.startswith(MEET)]
    assert sorted(meets) == sorted(f for f in old.failures
                                   if f.startswith(MEET))
    assert meets == [f"{MEET}{sorted(p)}" for p in d.edge_pairs
                     if d.origin_case is None
                     and all(d.vertex(i).kind == "strict-branch" for i in p)]


def test_tables_match_references_on_corpus_replay(corpus_results,
                                                  replay_states):
    seen = 0
    for name, result in corpus_results:
        for state in replay_states(result):
            try:
                d = diagram_from_state(state)
            except InternalInvariantError:
                continue  # a branch through a corner before the last step
            _assert_tables_match(d)
            seen += 1
    assert seen > 400


def test_tables_match_references_on_long_chain():
    d = principalize(build(40, 0)).diagram
    assert [v.ident for v in d.vertices][8:11] == ["E9", "E10", "E11"]
    _assert_tables_match(d)


@st.composite
def drawn_diagrams(draw):
    """At least ten vertices, so that E10 sorts apart as a string and by
    id; trees, forests and graphs with cycles, strict branches hanging
    anywhere (on each other too) or nowhere, in shuffled input order."""
    n_exc = draw(st.integers(10, 14))
    n_str = draw(st.integers(0, 4))
    data = st.tuples(st.integers(1, 6), st.integers(1, 8))
    vertices = [Vertex(f"E{i + 1}", "exceptional", *draw(data))
                for i in range(n_exc)]
    vertices += [Vertex(f"S{j + 1}", "strict-branch",
                        draw(st.integers(1, 4)),
                        draw(st.sampled_from([1, 1, 1, 2])))
                 for j in range(n_str)]
    ids = [v.ident for v in vertices]
    edges = set()
    for i in range(1, n_exc):  # a random tree, some of its edges cut
        if draw(st.integers(0, 9)):
            edges.add(frozenset((ids[i], ids[draw(st.integers(0, i - 1))])))
    for j in range(n_exc, len(ids)):  # branches on any vertex, or none
        k = draw(st.integers(-1, len(ids) - 1))
        if k >= 0 and k != j:
            edges.add(frozenset((ids[j], ids[k])))
    index = st.integers(0, len(ids) - 1)
    for a, b in draw(st.lists(st.tuples(index, index), max_size=4)):
        if a != b:  # extra edges close cycles
            edges.add(frozenset((ids[a], ids[b])))
    strict = ids[n_exc:]
    origin = draw(st.sampled_from([None, None, None, strict]))
    return IntersectionDiagram(vertices=draw(st.permutations(vertices)),
                               edges=edges, origin_case=origin, minimal=True)


@given(drawn_diagrams())
@settings(max_examples=200, deadline=None)
def test_tables_match_references_on_drawn_diagrams(d):
    _assert_tables_match(d)


@given(drawn_diagrams())
@settings(max_examples=200, deadline=None)
def test_integer_checks_match_references_on_loaded_diagrams(drawn):
    """Through the JSON reader, as `zp verify --diagram-json` takes them."""
    d = load_json(export_json(drawn))
    assert not d.minimal
    _assert_integer_checks_match(d)


def _integer_check_features(d):
    """The failure kinds and criterion branches a diagram reaches."""
    for f in validate_alpha_bounds(d).failures + \
            validate_alpha_signs(d).failures:
        yield next((k for k in (
            "alpha toward", "alpha = -1 with", "several negative",
            "several nonpositive", "ratio not between") if k in f), f)
    for s0 in d.by_candidate:
        for hit in classify(d, s0).hits:
            yield f"condition {hit.condition}"
        for v in d.by_candidate[s0]:
            if v.kind == "exceptional" and len(d.neighbors(v.ident)) in (1, 2):
                nums = alpha_nums(d, v.ident)
                if sum(a for _, a in nums) == -v.N * (2 - len(nums)):
                    yield f"no pole with {len(nums)} neighbors"


def test_drawn_diagrams_cover_the_integer_checks():
    """The strategy reaches every failure line of the alpha validators,
    every condition, and the equalities that make one or two neighbors no
    pole (alpha = -1, alpha_1 + alpha_2 = 0)."""
    found = set()

    @given(drawn_diagrams())
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    def collect(d):
        found.update(_integer_check_features(d))

    collect()
    assert found == {
        "alpha toward", "alpha = -1 with", "several negative",
        "several nonpositive", "ratio not between",
        *(f"condition {i}" for i in range(1, 6)),
        "no pole with 1 neighbors", "no pole with 2 neighbors"}, found


def test_drawn_diagrams_cover_the_validator_failures():
    """The strategy reaches every failure line the rewritten searches and
    edge order produce."""
    found = set()

    @given(drawn_diagrams())
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    def collect(d):
        for f in (validate_tree_shape(d).failures
                  + validate_ordered_tree(d).failures):
            found.add(next((k for k in (
                "exceptional subgraph disconnected", "edges among",
                MEET, "minimal-ratio part disconnected",
                "ratio does not increase", " curves") if k in f), f))

    collect()
    assert {"exceptional subgraph disconnected", "edges among", MEET,
            "minimal-ratio part disconnected",
            "ratio does not increase", " curves"} <= found


def test_neighbor_lists_sort_by_id_not_string():
    d = principalize(build(12, 0)).diagram
    assert d.neighbors("E10") == ["E9", "E11"]
    assert d.edge_pairs[-3:] == [("E9", "E10"), ("E10", "E11"),
                                 ("E11", "E12")]
    assert list(d.by_candidate)[:2] == [Fraction(-2), Fraction(-3, 2)]
    assert [v.ident for v in d.by_candidate[Fraction(-13, 12)]] == ["E12"]


def test_neighbors_returns_a_copy():
    d = principalize(build(12, 0)).diagram
    d.neighbors("E10").append("E1")
    assert d.neighbors("E10") == ["E9", "E11"]
    assert d.degree("E10") == 2


def test_empty_diagram_has_no_zeta_terms():
    d = IntersectionDiagram(vertices=[], edges=set())
    with pytest.raises(MalformedDiagram):
        zeta_terms(d)
