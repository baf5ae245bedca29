"""Diagram structure, alpha tables, validators, serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topzeta.diagram import (
    IntersectionDiagram,
    Vertex,
    alphas,
    export_dot,
    export_json,
    json_text,
    load_json,
    validate_alpha_bounds,
    validate_alpha_signs,
    validate_nu_bound,
    validate_ordered_tree,
    validate_tree_shape,
)
from topzeta.errors import MalformedDiagram
from topzeta.poly import parse_poly
from topzeta.principalize import principalize

GOLDEN = [parse_poly("x^4*y"), parse_poly("x^7 + x*y^4")]


@pytest.fixture(scope="module")
def golden():
    return principalize(GOLDEN).diagram


def chain(*data, strict=()):
    """Path graph of exceptional vertices plus dangling strict branches."""
    vertices = [Vertex(f"E{i+1}", "exceptional", N, nu)
                for i, (N, nu) in enumerate(data)]
    edges = {frozenset((f"E{i+1}", f"E{i+2}")) for i in range(len(data) - 1)}
    for j, (attach, N) in enumerate(strict):
        vertices.append(Vertex(f"S{j+1}", "strict-branch", N, 1))
        edges.add(frozenset((f"S{j+1}", attach)))
    return IntersectionDiagram(vertices=vertices, edges=edges, minimal=True)


def test_alphas_middle_vertex(golden):
    table = alphas(golden, "E2")
    assert table == [("E1", Fraction(-1, 2)), ("E3", Fraction(1, 2))]


def test_alphas_end_vertex(golden):
    assert alphas(golden, "E3") == [("E2", Fraction(-3, 7))]


def test_alphas_isolated_vertex():
    d = chain((1, 2))
    assert alphas(d, "E1") == []


def test_alphas_rejects_strict(golden):
    with pytest.raises(MalformedDiagram):
        alphas(golden, "S1")


def test_alpha_values_golden(golden):
    values = []
    for v in golden.exceptional():
        values += [a for _, a in alphas(golden, v.ident)]
    assert sorted(values) == sorted([
        Fraction(3, 5), Fraction(3, 5), Fraction(-1, 2), Fraction(1, 2),
        Fraction(-3, 7)])


def test_alpha_bounds_golden(golden):
    assert validate_alpha_bounds(golden).passed


def test_alpha_bounds_negative_control():
    d = chain((2, 5), strict=(("E1", 1),))
    # alpha toward the strict branch: 1 - (5/2)*1 = -3/2 < -1
    rep = validate_alpha_bounds(d)
    assert not rep.passed


def test_alpha_bounds_single_vertex_vacuous():
    assert validate_alpha_bounds(chain((1, 2))).passed


def test_alpha_signs_golden(golden):
    assert validate_alpha_signs(golden).passed


def test_alpha_signs_family_chain():
    from topzeta.family import build
    d = principalize(build(7, 4)).diagram
    assert validate_alpha_signs(d).passed


def test_alpha_signs_negative_control():
    # middle vertex ratio above both neighbors violates the implication
    d = chain((2, 1), (1, 1), (2, 1))
    rep = validate_alpha_signs(d)
    assert not rep.passed


def test_ordered_tree_golden(golden):
    assert validate_ordered_tree(golden).passed


def test_ordered_tree_negative_control():
    d = chain((2, 1), (3, 1), (2, 1), (3, 1))  # 1/2, 1/3, 1/2, 1/3
    assert not validate_ordered_tree(d).passed


def test_ordered_tree_single_vertex():
    assert validate_ordered_tree(chain((1, 2))).passed


def test_nu_bound_golden(golden):
    assert validate_nu_bound(golden).passed


def test_nu_bound_negative_control():
    assert not validate_nu_bound(chain((2, 4))).passed


def test_tree_shape_golden(golden):
    assert validate_tree_shape(golden).passed


def test_tree_shape_rejects_cycle():
    vertices = [Vertex(f"E{i}", "exceptional", 2, 2) for i in (1, 2, 3)]
    edges = {frozenset(("E1", "E2")), frozenset(("E2", "E3")),
             frozenset(("E1", "E3"))}
    d = IntersectionDiagram(vertices=vertices, edges=edges)
    assert not validate_tree_shape(d).passed


def test_json_roundtrip(golden):
    text = export_json(golden)
    again = load_json(text)
    assert (again.vertices, again.edges, again.origin_case) == \
        (golden.vertices, golden.edges, golden.origin_case)
    assert export_json(again) == text


@pytest.mark.parametrize("gens", [
    GOLDEN, [parse_poly("y^2 - x^2"), parse_poly("x^5")],
    [parse_poly("(y^2 - x^3)*x"), parse_poly("(y^2 - x^3)*y")],
], ids=["golden", "two-lines-deep", "shared-cusp"])
def test_loaded_diagram_keeps_its_tables(gens):
    """The ratio and alpha tables of a diagram read from JSON: each alpha
    read equals the last and the recomputed table, a returned list is the
    caller's to change, and every ratio is nu/N."""
    d = load_json(export_json(principalize(gens).diagram))
    for v in d.vertices:
        assert d.ratio(v.ident) == Fraction(v.nu, v.N)
    for v in d.exceptional():
        want = [(w, d.vertex(w).nu - d.ratio(v.ident) * d.vertex(w).N)
                for w in d.neighbors(v.ident)]
        first = alphas(d, v.ident)
        assert first == want
        first.append(("X", Fraction(9)))
        assert alphas(d, v.ident) == want
        first.clear()
        assert alphas(d, v.ident) == alphas(d, v.ident) == want
        assert alphas(d, v.ident) is not alphas(d, v.ident)
    for v in d.strict_branches():
        with pytest.raises(MalformedDiagram):
            alphas(d, v.ident)


def test_json_origin_case():
    result = principalize([parse_poly("x^2")])
    text = export_json(result.diagram)
    assert '"origin_case"' in text
    again = load_json(text)
    assert again.origin_case == ["S1"]
    assert again.vertices == result.diagram.vertices


def test_json_field_shape(golden):
    payload = json.loads(export_json(golden))
    assert list(payload) == ["vertices", "edges", "origin_case"]
    assert list(payload["vertices"][0]) == ["id", "kind", "N", "nu"]
    assert payload["origin_case"] is None
    ids = [v["id"] for v in payload["vertices"]]
    assert ids == sorted(ids, key=lambda s: (s[0], int(s[1:])))


#: Text that json.dumps escapes: non-ASCII (astral planes and lone
#: surrogates among it), quotes, backslashes and control characters.
_json_strings = st.text(st.one_of(
    st.characters(blacklist_categories=()),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028')))
_json_scalars = st.one_of(
    st.none(), st.booleans(), _json_strings,
    st.integers(), st.integers(-10 ** 200, 10 ** 200))
_json_values = st.recursive(_json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_json_strings, inner, max_size=4)), max_leaves=20)


@given(_json_values)
@settings(max_examples=200, deadline=None)
def test_json_text_is_json_dumps_indent_2(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    0.5, Fraction(1, 2), {1: "x"}, [{"a": [1.0]}], {"a": {(1, 2): None}},
    {True: 1}, b"x", {"a", "b"},
])
def test_json_text_refuses_what_reports_never_hold(obj):
    with pytest.raises(TypeError):
        json_text(obj)


def test_dot_output(golden):
    dot = export_dot(golden)
    assert '"E1" [shape=ellipse, label="E1 (5,2)"]' in dot
    assert '"S1" [shape=box, label="S1 (1,1)"]' in dot
    assert '"E1" -- "E2";' in dot
    assert dot == export_dot(load_json(export_json(golden)))


def test_malformed_diagram_rejected():
    with pytest.raises(MalformedDiagram):
        IntersectionDiagram(
            vertices=[Vertex("E1", "exceptional", 1, 2)],
            edges={frozenset(("E1", "E9"))})


def test_validators_pass_on_corpus(corpus_results):
    from topzeta.diagram import validate_all
    for name, result in corpus_results:
        for rep in validate_all(result.diagram):
            assert rep.passed, f"{name} {rep.name}: {rep.failures}"
