from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expanderseq.grower import graph_at, initial_graph
from expanderseq.multigraph import (
    WeightedMultigraph,
    adjacency_matrix,
    edge_key,
    expansion_cost,
    graph_from_text,
    graph_to_text,
    graphs_equal,
    weighted_degree,
)
from expanderseq.names import VertexName, format_name, parse_name


def k4_doubled():
    return initial_graph(6)


def test_rejects_bad_degree_target():
    with pytest.raises(ValueError):
        WeightedMultigraph(5, [VertexName(0)], {})
    with pytest.raises(ValueError):
        WeightedMultigraph(4, [VertexName(0)], {})


def test_rejects_self_loop_and_bad_weight():
    a, b = VertexName(0), VertexName(1)
    with pytest.raises(ValueError):
        edge_key(a, a)
    with pytest.raises(ValueError):
        WeightedMultigraph(6, [a, b], {(a, b): 0})


def test_rejects_duplicate_edge_and_unknown_vertex():
    a, b, c = VertexName(0), VertexName(1), VertexName(2)
    with pytest.raises(ValueError, match=r"duplicate edge \{0:, 1:\}"):
        WeightedMultigraph(6, [a, b], {(a, b): 1, (b, a): 1})
    with pytest.raises(ValueError, match=r"edge \{0:, 2:\} uses an unknown vertex"):
        WeightedMultigraph(6, [a, b], {(a, b): 1, (c, a): 1})


def test_weighted_degree_doubled_k4():
    g = k4_doubled()
    for v in g.vertices:
        assert weighted_degree(g, v) == 6


def test_weighted_degree_single_edge():
    a, b = VertexName(0), VertexName(1)
    g = WeightedMultigraph(6, [a, b], {edge_key(a, b): 5})
    assert weighted_degree(g, a) == 5


def test_weighted_degree_unknown_vertex():
    g = k4_doubled()
    with pytest.raises(KeyError, match="9:"):
        weighted_degree(g, VertexName(9))


def test_degrees_after_one_split():
    g = graph_at(6, 5, 1)
    assert all(weighted_degree(g, v) == 6 for v in g.vertices)


def test_adjacency_matrix_doubled_k4():
    g = k4_doubled()
    a = adjacency_matrix(g)
    assert a.shape == (4, 4)
    assert (a == 2 * (np.ones((4, 4)) - np.eye(4))).all()


def test_adjacency_zero_matrix():
    names = [VertexName(i) for i in range(3)]
    g = WeightedMultigraph(6, names, {})
    assert (adjacency_matrix(g) == 0).all()


def test_adjacency_split_pair_weight():
    g = graph_at(6, 5, 1)
    assert g.weight(VertexName(0, (0,)), VertexName(0, (1,))) == 3


def test_adjacency_row_sums_are_degrees():
    g = graph_at(6, 7, 1)
    a = adjacency_matrix(g)
    order = sorted(g.vertices)
    for i, v in enumerate(order):
        assert a[i].sum() == weighted_degree(g, v)


def test_expansion_cost_identity():
    g = graph_at(6, 6, 1)
    assert expansion_cost(g, g) == 0


def test_expansion_cost_first_split_is_nine():
    assert expansion_cost(graph_at(6, 4, 1), graph_at(6, 5, 1)) == 9


def test_expansion_cost_last_split_is_five_halves_d():
    assert expansion_cost(graph_at(6, 7, 1), graph_at(6, 8, 1)) == 15


def test_identity_collision_names_the_smallest_edge():
    names = {t: parse_name(t) for t in ("0:", "1:", "1:0", "2:", "2:0")}
    pairs = [("0:", "2:0"), ("0:", "2:"), ("0:", "1:0"), ("0:", "1:")]
    g = WeightedMultigraph(
        6, names.values(), {(names[a], names[b]): 1 for a, b in pairs}
    )
    with pytest.raises(ValueError, match=r"identity collision on edge \{0:, 1:\}$"):
        expansion_cost(g, g)


def test_graphs_equal():
    g = graph_at(6, 5, 1)
    assert graphs_equal(g, g)
    assert not graphs_equal(graph_at(6, 4, 1), g)
    # the same edges and one isolated vertex more make a different graph
    extra = WeightedMultigraph(6, [*g.vertices, VertexName(9)], g.weights)
    assert extra.n == g.n + 1
    assert not graphs_equal(g, extra) and not graphs_equal(extra, g)


simple_names = st.builds(
    VertexName,
    base=st.integers(min_value=0, max_value=3),
    bits=st.sampled_from([(), (1,), (0, 1), (1, 1)]),
)


@st.composite
def small_graphs(draw):
    names = draw(st.sets(simple_names, min_size=2, max_size=6))
    names = sorted(names)
    weights = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            w = draw(st.integers(min_value=0, max_value=3))
            if w:
                weights[edge_key(names[i], names[j])] = w
    return WeightedMultigraph(6, names, weights)


@given(small_graphs(), small_graphs(), small_graphs())
def test_expansion_cost_metric_axioms(g1, g2, g3):
    # names above carry no trailing zeros, so identity matching is the
    # literal weight map and the metric axioms hold exactly
    assert expansion_cost(g1, g2) >= 0
    assert expansion_cost(g1, g2) == expansion_cost(g2, g1)
    same_vertices = g1.vertices == g2.vertices
    if same_vertices:
        assert (expansion_cost(g1, g2) == 0) == graphs_equal(g1, g2)
    assert expansion_cost(g1, g3) <= expansion_cost(g1, g2) + expansion_cost(g2, g3)


def test_serialization_roundtrip_sequence_graphs():
    for d in (6, 8, 10, 12):
        for n in range(d // 2 + 1, 131):
            g = graph_at(d, n, 1)
            assert graphs_equal(graph_from_text(graph_to_text(g)), g)


@st.composite
def weighted_graphs(draw):
    """A graph on at most 12 names and the canonical weight map it was built
    from; each edge is passed to the constructor in a random orientation."""
    names = sorted(draw(st.sets(
        st.builds(
            VertexName,
            base=st.integers(min_value=0, max_value=5),
            bits=st.lists(st.integers(0, 1), max_size=3).map(tuple),
        ),
        min_size=1,
        max_size=12,
    )))
    given_weights, canon = {}, {}
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            w = draw(st.integers(min_value=0, max_value=3))
            if w:
                given_weights[(u, v) if draw(st.booleans()) else (v, u)] = w
                canon[(u, v)] = w
    return WeightedMultigraph(6, names, given_weights), canon


@given(weighted_graphs())
def test_edge_views_agree(case):
    g, canon = case
    edges = list(g.edges())
    assert all(u < v for u, v, _ in edges)
    assert sorted(edges) == g.sorted_edges() == sorted(
        (u, v, w) for (u, v), w in canon.items()
    )
    assert g.weights == canon
    for u in g.vertices:
        incident = {}
        for (a, b), w in canon.items():
            if u in (a, b):
                incident[b if a == u else a] = w
        assert g.neighbors(u) == incident
        assert weighted_degree(g, u) == sum(incident.values())
        for v in g.vertices:
            assert g.weight(u, v) == incident.get(v, 0)
    if all(g.neighbors(v) for v in g.vertices):
        assert graphs_equal(graph_from_text(graph_to_text(g)), g)
    else:
        with pytest.raises(ValueError, match="isolated"):
            graph_to_text(g)


@given(small_graphs())
def test_serialization_roundtrip_random(g):
    if any(not g.neighbors(v) for v in g.vertices):
        return  # the format cannot carry isolated vertices
    assert graphs_equal(graph_from_text(graph_to_text(g)), g)


def test_serialization_is_canonical_and_lf():
    text = graph_to_text(graph_at(6, 5, 1))
    assert text.endswith("\n") and "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "6 5"

    def line_key(s):
        a, b, _ = s.split()
        return (parse_name(a), parse_name(b))

    assert lines[1:] == sorted(lines[1:], key=line_key)


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        graph_from_text("6\n")
    with pytest.raises(ValueError):
        graph_from_text("6 2\n0: 1: x\n")
    with pytest.raises(ValueError):
        graph_from_text("6 3\n0: 1: 2\n")  # vertex count mismatch
    with pytest.raises(ValueError):
        graph_from_text("6 2\n0: 1: 2\n0: 1: 1\n")  # duplicate edge
    # names and numbers are read only in the spelling graph_to_text writes
    for line in ("0: +1: 6", "0: 01: 6", "0: \u0661: 6", "0: 1_0: 6",
                 "0: 1: +6", "0: 1: 0_6", "0: 1: 06", "0: 1:", "0: 1: 6 7"):
        with pytest.raises(ValueError, match="^line 2: "):
            graph_from_text(f"6 2\n{line}\n")
    for header in ("+6 2", "6 02", "6 \u0662"):
        with pytest.raises(ValueError, match="^line 1: "):
            graph_from_text(f"{header}\n0: 1: 6\n")


def test_write_rejects_isolated_vertex():
    names = [VertexName(0), VertexName(1), VertexName(2)]
    g = WeightedMultigraph(6, names, {edge_key(names[0], names[1]): 1})
    with pytest.raises(ValueError):
        graph_to_text(g)


def derivation_error(g, weights, **changes):
    with pytest.raises(ValueError) as err:
        g.with_edges(weights, **changes)
    return str(err.value)


def constructor_error(g, weights):
    with pytest.raises(ValueError) as err:
        WeightedMultigraph(g.d, g.vertices, weights)
    return str(err.value)


def test_with_edges_rejects_what_the_constructor_rejects():
    g = graph_at(6, 6, 1)
    rows = {v: dict(g.neighbors(v)) for v in g.vertices}
    u = min(g.vertices)
    x = min(g.neighbors(u))
    assert (format_name(u), format_name(x)) == ("2:", "3:")
    for bad in (-1, 1.0, "1"):
        assert derivation_error(g, {(u, x): bad}) == (
            constructor_error(g, {**g.weights, edge_key(u, x): bad})
        )
    stranger = VertexName(9)
    assert derivation_error(g, {(u, stranger): 1}) == (
        constructor_error(g, {**g.weights, edge_key(u, stranger): 1})
    ) == "edge {2:, 9:} uses an unknown vertex"
    assert derivation_error(g, {(u, u): 1}) == (
        constructor_error(g, {**g.weights, (u, u): 1})
    ) == "self-loop 2: is not allowed"
    # the dropped vertex is gone before the edges are set
    assert derivation_error(g, {(x, u): 1}, drop=u) == (
        "edge {2:, 3:} uses an unknown vertex"
    )
    assert derivation_error(g, {}, drop=stranger) == "vertex 9: not in graph"
    # a new vertex comes after every vertex present, so no path re-sorts
    assert derivation_error(g, {}, add=[stranger]) == (
        "new vertex 9: is not greater than every vertex"
    )
    assert derivation_error(g, {}, add=[VertexName(0, (1, 1)), u.child(0)]) == (
        "new vertex 2:0 is not greater than every vertex"
    )
    # a rejected derivation leaves the graph and its rows as they were
    assert {v: dict(g.neighbors(v)) for v in g.vertices} == rows


def test_with_edges_shares_the_rest_and_copies_what_it_touches():
    g = graph_at(6, 6, 1)
    u = min(g.vertices)
    x = min(g.neighbors(u))
    w = g.weight(u, x)
    h = g.with_edges({(x, u): w + 1})
    bumped = {**g.weights, edge_key(u, x): w + 1}
    assert graphs_equal(h, WeightedMultigraph(6, g.vertices, bumped))
    assert all(h.neighbors(v) is g.neighbors(v) for v in g.vertices - {u, x})
    assert g.weight(u, x) == g.weight(x, u) == w  # touched rows are copies
    # weight 0 removes the edge at both ends
    h = g.with_edges({(u, x): 0})
    assert x not in h.neighbors(u) and u not in h.neighbors(x)
    # a dropped vertex is gone from every former neighbour's row, and the
    # rows of the rest are shared
    h = g.with_edges({}, drop=u)
    rest = {e: wt for e, wt in g.weights.items() if u not in e}
    assert graphs_equal(h, WeightedMultigraph(6, g.vertices - {u}, rest))
    assert all(h.neighbors(v) is g.neighbors(v)
               for v in h.vertices - g.neighbors(u).keys())
    assert u in g.vertices and all(u in g.neighbors(v) for v in g.neighbors(u))


def sorting_writer(g):
    """The reference for ``graph_to_text``: every vertex sorted and every
    row formatted afresh."""
    lines = [f"{g.d} {g.n}\n"]
    for u in sorted(g.vertices):
        row = g.neighbors(u)
        lines += [f"{format_name(u)} {format_name(v)} {row[v]}\n"
                  for v in sorted(row) if v > u]
    return "".join(lines)


def assert_canonical(g):
    """The map iterates canonically, and every reader of that order agrees
    with a reader that sorts."""
    assert list(g.vertices) == sorted(g.vertices)
    assert g.sorted_edges() == sorted(g.edges())
    assert graphs_equal(g, WeightedMultigraph(g.d, g.vertices, g.weights))
    if all(g.neighbors(v) for v in g.vertices):
        assert graph_to_text(g) == graph_to_text(g) == sorting_writer(g)


# every name of base < 6 and at most 3 bits, in canonical order
ALL_NAMES = sorted(
    VertexName(b, bits) for b in range(6) for k in range(4)
    for bits in product((0, 1), repeat=k)
)


@given(weighted_graphs(), st.data())
def test_every_construction_keeps_canonical_order(case, data):
    """The constructor, ``replace``, ``graph_from_text`` and chains of
    ``with_edges`` that drop a vertex, add names and set weights all leave
    the map canonical and equal to the graph built from scratch."""
    g, canon = case
    assert_canonical(g)
    assert_canonical(g.replace(dict(reversed(list(g.weights.items())))))
    if all(g.neighbors(v) for v in g.vertices):
        assert_canonical(graph_from_text(graph_to_text(g)))
    vertices = set(g.vertices)
    below = [x for x in ALL_NAMES if x < max(vertices) and x not in vertices]
    if below:
        with pytest.raises(ValueError, match="is not greater than"):
            g.with_edges({}, add=[data.draw(st.sampled_from(below))])
    for _ in range(data.draw(st.integers(1, 5))):
        drop = data.draw(st.sampled_from([None, *sorted(vertices)]))
        if drop is not None:
            vertices.discard(drop)
            canon = {e: w for e, w in canon.items() if drop not in e}
        above = [x for x in ALL_NAMES if not vertices or x > max(vertices)]
        add = sorted(data.draw(st.sets(st.sampled_from(above), max_size=2))
                     if above else ())
        vertices.update(add)
        pairs = list(combinations(sorted(vertices), 2))
        weights = {}
        for a, b in data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                       max_size=6) if pairs else st.just([])):
            w = data.draw(st.integers(0, 3))
            weights[(a, b) if data.draw(st.booleans()) else (b, a)] = w
            canon.pop((a, b), None)
            if w:
                canon[a, b] = w
        g = g.with_edges(weights, drop=drop, add=add)
        assert set(g.vertices) == vertices and g.weights == canon
        assert_canonical(g)


def test_sorted_edges_on_sequence_graphs():
    for n in range(4, 131):
        g = graph_at(6, n, 1)
        assert g.sorted_edges() == sorted(g.edges())
