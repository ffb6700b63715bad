"""Integer-weighted undirected multigraphs without self-loops.

A multigraph is stored as a weighted simple graph: a map from unordered
vertex pairs to a positive integer weight (the number of parallel edges).
Absent pairs mean weight zero and weight-zero entries are never stored, so
the weight map doubles as a multiset of edges and symmetric differences are
well defined.  Every graph carries its target degree ``d`` (even, >= 6);
actual regularity is a property of grower output, not of the type.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .names import VertexName, format_name, parse_name, strip_identity

Edge = tuple[VertexName, VertexName]
# the largest weight a graph file may carry, so that the int64 cut and
# adjacency kernels cannot overflow on any sum of a file's weights
MAX_FILE_WEIGHT = 2**31 - 1


def edge_key(u: VertexName, v: VertexName) -> Edge:
    """Unordered pair in canonical order."""
    if u == v:
        raise ValueError(f"self-loop {format_name(u)} is not allowed")
    return (u, v) if u < v else (v, u)


class WeightedMultigraph:
    """Immutable weighted multigraph on split-history names."""

    __slots__ = ("d", "_vertices", "_weights", "_adj")

    def __init__(
        self,
        d: int,
        vertices: Iterable[VertexName],
        weights: Mapping[Edge, int],
    ):
        if d < 6 or d % 2 != 0:
            raise ValueError(f"degree target must be an even integer >= 6, got {d}")
        self.d = d
        self._vertices = frozenset(vertices)
        canon: dict[Edge, int] = {}
        adj: dict[VertexName, dict[VertexName, int]] = {v: {} for v in self._vertices}
        for (u, v), w in weights.items():
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"edge weight must be a positive integer, got {w!r}")
            k = edge_key(u, v)
            if k in canon:
                raise ValueError(f"duplicate edge {_fmt_edge(k)}")
            if u not in self._vertices or v not in self._vertices:
                raise ValueError(f"edge {_fmt_edge(k)} uses an unknown vertex")
            canon[k] = w
            adj[u][v] = w
            adj[v][u] = w
        self._weights = canon
        self._adj = adj

    @property
    def vertices(self) -> frozenset[VertexName]:
        return self._vertices

    @property
    def weights(self) -> Mapping[Edge, int]:
        return self._weights

    @property
    def n(self) -> int:
        return len(self._vertices)

    def weight(self, u: VertexName, v: VertexName) -> int:
        return self._adj.get(u, {}).get(v, 0)

    def neighbors(self, v: VertexName) -> Mapping[VertexName, int]:
        if v not in self._vertices:
            raise KeyError(f"vertex {format_name(v)} not in graph")
        return self._adj[v]

    def __contains__(self, v: VertexName) -> bool:
        return v in self._vertices

    def edges(self) -> Iterator[tuple[VertexName, VertexName, int]]:
        for (u, v), w in self._weights.items():
            yield u, v, w

    def sorted_edges(self) -> list[tuple[VertexName, VertexName, int]]:
        return sorted((u, v, w) for (u, v), w in self._weights.items())

    def replace(
        self,
        vertices: Iterable[VertexName] | None = None,
        weights: Mapping[Edge, int] | None = None,
    ) -> "WeightedMultigraph":
        return WeightedMultigraph(
            self.d,
            self._vertices if vertices is None else vertices,
            self._weights if weights is None else weights,
        )


def _fmt_edge(e: Edge) -> str:
    return f"{{{format_name(e[0])}, {format_name(e[1])}}}"


def vertex_order(g: WeightedMultigraph) -> list[VertexName]:
    """Canonical vertex order (see ``names``)."""
    return sorted(g.vertices)


def weighted_degree(g: WeightedMultigraph, v: VertexName) -> int:
    """Sum of edge weights incident to ``v``."""
    return sum(g.neighbors(v).values())


def adjacency_matrix(
    g: WeightedMultigraph, order: Sequence[VertexName] | None = None
) -> np.ndarray:
    """Symmetric integer adjacency matrix; entry (i, j) is the edge weight.

    ``order`` defaults to the canonical vertex order and must cover the whole
    vertex set.
    """
    names = vertex_order(g) if order is None else list(order)
    if set(names) != set(g.vertices) or len(names) != g.n:
        raise ValueError("order must enumerate exactly the graph's vertices")
    index = {v: i for i, v in enumerate(names)}
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v, w in g.edges():
        i, j = index[u], index[v]
        a[i, j] = w
        a[j, i] = w
    return a


def bfs_distances(
    neighbors: Callable[[VertexName], Iterable[VertexName]],
    source: VertexName,
    blocked: Callable[[VertexName], bool] = lambda v: False,
) -> dict[VertexName, int]:
    """Hop distances from ``source`` to every vertex it reaches.

    ``neighbors(v)`` lists the vertices adjacent to ``v`` (``g.neighbors``
    for a multigraph ``g``).  A vertex for which ``blocked`` is true is never
    entered; the source itself is not tested.
    """
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in dist and not blocked(w):
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def expansion_cost(g1: WeightedMultigraph, g2: WeightedMultigraph) -> int:
    """Total weight change between the two graphs' edge multisets.

    Vertices are matched by persistent identity (trailing 0 bits stripped),
    so a graph and its successor in the growth sequence compare edge-for-edge
    even though the split vertex's raw name gained a 0 bit.
    """
    m1 = _identity_weights(g1)
    m2 = _identity_weights(g2)
    cost = 0
    for e, w in m1.items():
        cost += abs(w - m2.get(e, 0))
    for e, w in m2.items():
        if e not in m1:
            cost += w
    return cost


def _identity_weights(g: WeightedMultigraph) -> dict[Edge, int]:
    out: dict[Edge, int] = {}
    for u, v, w in g.edges():
        k = edge_key(strip_identity(u), strip_identity(v))
        if k in out:
            raise ValueError(f"identity collision on edge {_fmt_edge(k)}")
        out[k] = w
    return out


def graphs_equal(g1: WeightedMultigraph, g2: WeightedMultigraph) -> bool:
    """Exact equality of vertex sets and weight maps (raw names)."""
    return g1.vertices == g2.vertices and dict(g1.weights) == dict(g2.weights)


def write_graph(g: WeightedMultigraph, fp: TextIO) -> None:
    """Write the interchange format: ``d n`` then ``NAME1 NAME2 W`` lines.

    Edges are sorted canonically and lines end with LF.  Isolated vertices
    cannot be represented and are rejected.
    """
    for v in g.vertices:
        if not g.neighbors(v):
            raise ValueError(
                f"vertex {format_name(v)} has no edges; the file format "
                "cannot represent isolated vertices"
            )
    fp.write(f"{g.d} {g.n}\n")
    for u, v, w in g.sorted_edges():
        fp.write(f"{format_name(u)} {format_name(v)} {w}\n")


def graph_to_text(g: WeightedMultigraph) -> str:
    import io

    buf = io.StringIO()
    write_graph(g, buf)
    return buf.getvalue()


def read_graph(fp: TextIO) -> WeightedMultigraph:
    header = fp.readline()
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"bad header {header!r}: expected 'd n'")
    try:
        d, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"bad header {header!r}: expected integers") from None
    weights: dict[Edge, int] = {}
    vertices: set[VertexName] = set()
    for lineno, line in enumerate(fp, start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'NAME1 NAME2 W'")
        u = parse_name(fields[0])
        v = parse_name(fields[1])
        try:
            w = int(fields[2])
        except ValueError:
            raise ValueError(f"line {lineno}: bad weight {fields[2]!r}") from None
        if not 1 <= w <= MAX_FILE_WEIGHT:
            raise ValueError(
                f"line {lineno}: weight must be in [1, {MAX_FILE_WEIGHT}], got {w}"
            )
        k = edge_key(u, v)
        if k in weights:
            raise ValueError(f"line {lineno}: duplicate edge {_fmt_edge(k)}")
        weights[k] = w
        vertices.add(u)
        vertices.add(v)
    if len(vertices) != n:
        raise ValueError(
            f"header claims {n} vertices but edges cover {len(vertices)}"
        )
    return WeightedMultigraph(d, vertices, weights)


def graph_from_text(text: str) -> WeightedMultigraph:
    import io

    return read_graph(io.StringIO(text))
