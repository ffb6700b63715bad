"""Integer-weighted undirected multigraphs without self-loops.

A multigraph is stored as a weighted simple graph: one adjacency map holds
the positive integer weight of each unordered vertex pair (the number of
parallel edges) under both endpoints.  Absent pairs mean weight zero and
weight-zero entries are never stored, so the weights double as a multiset of
edges and symmetric differences are well defined.  The map's keys are the
vertex set (an isolated vertex keeps an empty row), so the vertex set, ``n``
and the canonical weight map are all read from it.  Every graph carries its
target degree ``d`` (even, >= 6); actual regularity is a property of grower
output, not of the type.

The map iterates its vertices in canonical order: the constructor sorts
them once, and ``with_edges`` drops a vertex in place and appends new ones,
each of which must be greater than every vertex present.  No path re-sorts
the map.  So ``g.vertices`` is canonical, its first key is the smallest
vertex, and no reader sorts the vertex set.

A graph is immutable, and so is each of its rows: ``with_edges`` derives a
graph from edge changes, copying only the rows they touch and writing both
ends of each edge, so rows are symmetric by construction and the graphs of
the growth sequence share their untouched rows.  A row must never be
mutated, and a row belongs to one vertex, so ``graph_to_text`` memoises each
row's text on the row and formats only the rows no earlier call has seen.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, KeysView, Mapping

import numpy as np

from .names import VertexName, format_name, parse_name, strip_identity

Edge = tuple[VertexName, VertexName]
# the largest weight a graph file may carry: a file of n <= 26 vertices
# (analysis.MAX_EXACT_N) then weighs W <= MAX_FILE_WEIGHT * C(26, 2), and
# W * lcm(1..13) < 2^63 keeps the int64 cut kernel and the ratio keys of its
# minimum in range (analysis._cut_chunks refuses any larger W)
MAX_FILE_WEIGHT = 2**31 - 1


class _Row(dict):
    """One vertex's neighbour weights; ``text`` is its memoised file text,
    ``None`` until ``graph_to_text`` first writes the row."""

    __slots__ = ("text",)


def _new_row(weights: Mapping[VertexName, int]) -> _Row:
    """A row holding a copy of ``weights``, with no text memoised yet (a
    plain function: a Python ``__init__`` would double the cost of a row)."""
    row = _Row(weights)
    row.text = None
    return row


def edge_key(u: VertexName, v: VertexName) -> Edge:
    """Unordered pair in canonical order."""
    if u == v:
        raise ValueError(f"self-loop {format_name(u)} is not allowed")
    return (u, v) if u < v else (v, u)


class WeightedMultigraph:
    """Immutable weighted multigraph on split-history names."""

    __slots__ = ("d", "_adj")

    def __init__(
        self,
        d: int,
        vertices: Iterable[VertexName],
        weights: Mapping[Edge, int],
    ):
        if d < 6 or d % 2 != 0:
            raise ValueError(f"degree target must be an even integer >= 6, got {d}")
        self.d = d
        adj: dict[VertexName, _Row] = {v: _new_row({}) for v in sorted(vertices)}
        for (u, v), w in weights.items():
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"edge weight must be a positive integer, got {w!r}")
            nu, nv = adj.get(u), adj.get(v)
            if nu is None or nv is None or u == v or v in nu:
                k = edge_key(u, v)  # raises on a self-loop
                if nu is None or nv is None:
                    raise ValueError(f"edge {_fmt_edge(k)} uses an unknown vertex")
                raise ValueError(f"duplicate edge {_fmt_edge(k)}")
            nu[v] = w
            nv[u] = w
        self._adj = adj

    @property
    def vertices(self) -> KeysView[VertexName]:
        return self._adj.keys()

    @property
    def weights(self) -> dict[Edge, int]:
        """A fresh canonical map from ``(u, v)`` with ``u < v`` to the weight."""
        return {(u, v): w for u, v, w in self.edges()}

    @property
    def n(self) -> int:
        return len(self._adj)

    def weight(self, u: VertexName, v: VertexName) -> int:
        return self._adj.get(u, {}).get(v, 0)

    def neighbors(self, v: VertexName) -> Mapping[VertexName, int]:
        """The row of ``v`` itself, which other graphs may share: read only."""
        try:
            return self._adj[v]
        except KeyError:
            raise KeyError(f"vertex {format_name(v)} not in graph") from None

    def edges(self) -> Iterator[tuple[VertexName, VertexName, int]]:
        """Each edge once as ``(u, v, w)`` with ``u < v``, in no fixed order."""
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    def sorted_edges(self) -> list[tuple[VertexName, VertexName, int]]:
        """Each edge once as ``(u, v, w)`` with ``u < v``, in canonical order."""
        return [
            (u, v, nbrs[v])
            for u, nbrs in self._adj.items()
            for v in sorted(nbrs)
            if u < v
        ]

    def replace(self, weights: Mapping[Edge, int]) -> "WeightedMultigraph":
        """The graph on the same vertices with ``weights`` as its edges."""
        return WeightedMultigraph(self.d, self._adj, weights)

    def with_edges(
        self,
        weights: Mapping[Edge, int],
        drop: VertexName | None = None,
        add: Iterable[VertexName] = (),
    ) -> "WeightedMultigraph":
        """The graph without ``drop`` and its edges, with the vertices of
        ``add`` appended, and with weight ``weights[a, b]`` on each given
        edge (0 removes it), sharing every row it does not touch.

        Both ends of each edge are written, so the rows stay symmetric.  The
        given edges are checked in O(their number) by the constructor's
        rules and messages, except that a weight may be 0.  A new vertex
        must be greater than every vertex present, so the map stays in
        canonical order with no sort.
        """
        old = self._adj
        adj = old.copy()
        if drop is not None:
            if drop not in adj:
                raise ValueError(f"vertex {format_name(drop)} not in graph")
            for x in adj.pop(drop):
                adj[x] = row = _new_row(adj[x])
                del row[drop]
        for v in add:
            if adj and not next(reversed(adj)) < v:
                raise ValueError(
                    f"new vertex {format_name(v)} is not greater than every vertex"
                )
            adj[v] = _new_row({})
        for (a, b), w in weights.items():
            if not isinstance(w, int) or w < 0:
                raise ValueError(f"edge weight must be a positive integer, got {w!r}")
            ra, rb = adj.get(a), adj.get(b)
            if ra is None or rb is None or a == b:
                k = edge_key(a, b)  # raises on a self-loop
                raise ValueError(f"edge {_fmt_edge(k)} uses an unknown vertex")
            # a row still shared with this graph is copied before its first write
            if ra is old.get(a):
                adj[a] = ra = _new_row(ra)
            if rb is old.get(b):
                adj[b] = rb = _new_row(rb)
            if w:
                ra[b] = rb[a] = w
            else:
                ra.pop(b, None)
                rb.pop(a, None)
        g = WeightedMultigraph.__new__(WeightedMultigraph)
        g.d, g._adj = self.d, adj
        return g


def _fmt_edge(e: Edge) -> str:
    return f"{{{format_name(e[0])}, {format_name(e[1])}}}"


def weighted_degree(g: WeightedMultigraph, v: VertexName) -> int:
    """Sum of edge weights incident to ``v``."""
    return sum(g.neighbors(v).values())


def adjacency_matrix(g: WeightedMultigraph) -> np.ndarray:
    """Symmetric adjacency matrix of edge weights, in canonical vertex order."""
    index = {v: i for i, v in enumerate(g.vertices)}
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
    collisions = []
    for u, v, w in g.edges():
        k = edge_key(strip_identity(u), strip_identity(v))
        if k in out:
            collisions.append(k)
        out[k] = w
    if collisions:
        raise ValueError(f"identity collision on edge {_fmt_edge(min(collisions))}")
    return out


def graphs_equal(g1: WeightedMultigraph, g2: WeightedMultigraph) -> bool:
    """Exact equality of vertex sets and weight maps (raw names)."""
    return g1._adj == g2._adj


def graph_to_text(g: WeightedMultigraph) -> str:
    """The interchange format: ``d n`` then ``NAME1 NAME2 W`` lines.

    Edges are sorted canonically and lines end with LF: row by row in
    canonical vertex order (the map's own), each row's edges to greater
    names in canonical order.  Only rows with no memoised text are
    formatted.  Isolated vertices cannot be represented and are rejected.
    """
    parts = [f"{g.d} {g.n}\n"]
    parts += [
        _row_text(u, row) if row.text is None else row.text
        for u, row in g._adj.items()
    ]
    return "".join(parts)


def _row_text(u: VertexName, row: _Row) -> str:
    """The file lines of ``u``'s edges to greater names, in canonical order,
    memoised on the row."""
    if not row:
        raise ValueError(
            f"vertex {format_name(u)} has no edges; the file format "
            "cannot represent isolated vertices"
        )
    lu = format_name(u)
    lines = [f"{lu} {format_name(v)} {row[v]}\n" for v in sorted(row) if v > u]
    row.text = "".join(lines)
    return row.text


def _numeral(field: str) -> int | None:
    """``int(field)`` when ``graph_to_text`` spells that integer ``field``."""
    try:
        value = int(field)
    except ValueError:
        return None
    return value if str(value) == field else None


def graph_from_text(text: str) -> WeightedMultigraph:
    """Parse the interchange format, accepting names and numbers only in the
    spelling ``graph_to_text`` writes."""
    header, _, body = text.partition("\n")
    parts = [_numeral(x) for x in header.split()]
    if len(parts) != 2 or None in parts:
        raise ValueError(f"line 1: bad header {header!r}: expected integers 'd n'")
    d, n = parts
    weights: dict[Edge, int] = {}
    for lineno, line in enumerate(body.split("\n"), start=2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'NAME1 NAME2 W'")
        try:
            k = edge_key(parse_name(fields[0]), parse_name(fields[1]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        w = _numeral(fields[2])
        if w is None or not 1 <= w <= MAX_FILE_WEIGHT:
            raise ValueError(
                f"line {lineno}: weight must be in [1, {MAX_FILE_WEIGHT}], "
                f"got {fields[2]!r}"
            )
        if k in weights:
            raise ValueError(f"line {lineno}: duplicate edge {_fmt_edge(k)}")
        weights[k] = w
    vertices = {x for e in weights for x in e}
    if len(vertices) != n:
        raise ValueError(
            f"header claims {n} vertices but edges cover {len(vertices)}"
        )
    return WeightedMultigraph(d, vertices, weights)
