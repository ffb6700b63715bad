"""One-vertex-at-a-time growth between consecutive doubled expanders.

Each cycle starts from a doubled expander (all weights 2), fixes the next
doubled 2-lift as the target, and splits one vertex per step until every
vertex has split, at which point the graph equals the target exactly.  A
split of ``u`` into ``u.0`` and ``u.1`` rewires edges so that all weighted
degrees stay ``d`` and every edge weight stays in {1, 2} apart from the
shrinking edge between split partners.

The next vertex to split is the canonically smallest unsplit one, so the
depth-k name ``u`` is the split that produces G_n with n = ``split_n(d, u)``,
and the whole sequence is a deterministic function of (d, seed).  Each
split's ``ChangeLog`` records its neighbourhood and weight changes; readers
take the split rule from the log instead of re-deriving it.  The state a
split produces carries that log, so a state, keyed by (d, n, seed), is G_n,
its target and the split that made it.

States are held in memory linear in n: one checkpoint per cycle, the state
of its first split, which fixes the cycle's target, so no signing search
runs twice; and a window of the ``WINDOW`` most recently read states.  Any
other G_n is replayed by ``split_next`` from the largest held state below
it, which within n's cycle is at least its checkpoint.

A split is a set of edge changes: ``split_next`` records each one once, as a
G_n edge for ``WeightedMultigraph.with_edges`` and as a persistent-identity
edge for the log.  The derivation drops u, appends its two halves, which
outrank every name present (splits follow canonical order), and copies only
the rows the changes touch: the halves, the unsplit neighbours and both
halves of each split neighbour.  Every other row is shared with G_{n-1}, and
the vertex to split is the first key of the graph's canonically ordered map.
So a split does O(d) Python work, the held graphs of a cycle hold each
untouched row once, and a row's memoised file text serves every later graph
that shares it: writing G_n after G_{n-1} formats only the split's new rows.
What stays O(n) per step is the copy of the adjacency map and the join of
the file text, both in C.  A cycle starts from its target lift, whose rows
are fresh, so the graph of its first split is formatted whole, once per
cycle; a replayed graph's new rows are formatted afresh.  No reader may
mutate a row.
"""

from __future__ import annotations

from collections.abc import Iterator, Set
from dataclasses import dataclass
from functools import cached_property

from .lifts import next_bl_expander
from .multigraph import (
    Edge,
    WeightedMultigraph,
    edge_key,
    expansion_cost,
    graphs_equal,
    weighted_degree,
)
from .names import VertexName, format_name, partner, strip_identity


class CycleComplete(Exception):
    """Raised by split_next when every vertex of the cycle has split."""


class ConstructionError(RuntimeError):
    """An internal growth invariant failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class ChangeLog:
    """One split: its neighbourhood and its weight changes.

    Only what ``split_next`` decides is stored.  ``halves`` pairs, per split
    neighbour, the half the 0 copy keeps with the half the new vertex takes.
    ``changes`` lists the exact weight transitions on persistent-identity
    edges.  Every vertex tuple is in canonical order.  The new vertex, the
    cost and the neighbour counts are derived from these.
    """

    split_vertex: VertexName
    changes: tuple[tuple[Edge, int, int], ...]
    unsplit_neighbors: tuple[VertexName, ...]
    halves: tuple[tuple[VertexName, VertexName], ...]

    new_vertex = property(lambda log: log.split_vertex.child(1))
    n_unsplit_neighbors = property(lambda log: len(log.unsplit_neighbors))
    n_split_neighbors = property(lambda log: 2 * len(log.halves))
    lost_halves = property(lambda log: tuple(lost for _, lost in log.halves))

    @property
    def new_neighbors(self) -> tuple[VertexName, ...]:
        """The new vertex's neighbours in G_n, in canonical order."""
        pair = (self.split_vertex.child(0),) if self.unsplit_neighbors else ()
        return tuple(sorted(self.unsplit_neighbors + self.lost_halves + pair))

    @property
    def cost(self) -> int:
        """Total weight change of the split: the sum of |new - old|."""
        return sum(abs(new - old) for _, old, new in self.changes)

    @property
    def topology_changes(self) -> int:
        """Edges whose presence flips: the change of the unweighted graph."""
        return sum((old > 0) != (new > 0) for _, old, new in self.changes)


@dataclass(frozen=True)
class GrowthState:
    """Mid-cycle snapshot: the current graph, the target lift it grows to
    and the log of the split that produced it (``None`` at a cycle's start).

    A vertex has split this cycle when its name is as deep as the target's
    names (S); the rest are one bit shallower and still unsplit (U).  Both
    sets are derived from the names of ``current``.
    """

    current: WeightedMultigraph
    target: WeightedMultigraph
    log: ChangeLog | None = None

    @cached_property
    def split(self) -> frozenset[VertexName]:
        depth = next(iter(self.target.vertices)).depth
        return frozenset(v for v in self.current.vertices if v.depth == depth)

    @cached_property
    def unsplit(self) -> frozenset[VertexName]:
        return frozenset(self.current.vertices - self.split)


def split_n(d: int, u: VertexName) -> int:
    """The n of the G_n that the split of ``u`` produces (the split order)."""
    k = u.depth
    bits = int("0" + "".join(map(str, u.bits)), 2)
    return ((d // 2 + 1) << k) + (u.base << k) + bits + 1


def initial_graph(d: int) -> WeightedMultigraph:
    """The doubled complete graph on d/2 + 1 vertices (the sequence's seed)."""
    if d < 6 or d % 2 != 0:
        raise ValueError(f"degree must be an even integer >= 6, got {d}")
    names = [VertexName(b) for b in range(d // 2 + 1)]
    weights = {
        edge_key(names[i], names[j]): 2
        for i in range(len(names))
        for j in range(i + 1, len(names))
    }
    return WeightedMultigraph(d, names, weights)


def _cycle_seed(seed: int, cycle_index: int) -> int:
    return seed * 1_000_003 + cycle_index


def begin_cycle(g_star: WeightedMultigraph, seed: int = 0) -> GrowthState:
    """Start a cycle at a doubled expander: S empty, U everything."""
    depths = {v.depth for v in g_star.vertices}
    if len(depths) != 1:
        raise ValueError("cycle base must have uniform name depth")
    target = next_bl_expander(g_star, seed=_cycle_seed(seed, depths.pop()))
    return GrowthState(current=g_star, target=target)


def split_next(state: GrowthState) -> GrowthState:
    """Split the next unsplit vertex, returning the new state with its log.

    Unsplit names are the shallower ones, so the canonically smallest vertex,
    the graph's first, is the next to split, and its split neighbours are
    the deeper names.
    """
    g = state.current
    h = state.target
    if g.n == h.n:
        raise CycleComplete("every vertex of the cycle has split")
    u = next(iter(g.vertices))
    u0, u1 = u.child(0), u.child(1)
    nbrs = g.neighbors(u)
    unsplit_nbrs = tuple(sorted(v for v in nbrs if v.depth == u.depth))
    split_nbrs = sorted(v for v in nbrs if v.depth > u.depth)

    edges: dict[Edge, int] = {}
    changes: list[tuple[Edge, int, int]] = []

    def put(a: VertexName, b: VertexName, old: int, new: int) -> None:
        """Set the G_n weight of a-b and log it on the persistent-identity edge."""
        edges[a, b] = new
        changes.append((edge_key(strip_identity(a), strip_identity(b)), old, new))

    for v in unsplit_nbrs:
        if nbrs[v] != 2:
            raise ConstructionError(
                f"edge to unsplit {format_name(v)} has weight {nbrs[v]}, expected 2"
            )
        put(u0, v, 2, 1)
        put(u1, v, 0, 1)

    parents = sorted({v.parent() for v in split_nbrs})
    if 2 * len(parents) != len(split_nbrs):
        raise ConstructionError(
            f"split neighbors of {format_name(u)} do not decompose into pairs"
        )
    halves = []
    for p in parents:
        v0, v1 = p.child(0), p.child(1)
        if v0 not in nbrs or v1 not in nbrs or nbrs[v0] != 1 or nbrs[v1] != 1:
            raise ConstructionError(
                f"expected weight-1 edges to both halves of {format_name(p)}"
            )
        old_pair = g.weight(v0, v1)
        if old_pair < 1:
            raise ConstructionError(
                f"partner edge {format_name(v0)}-{format_name(v1)} missing"
            )
        put(v0, v1, old_pair, old_pair - 1)
        to_u0 = h.weight(u0, v0) > 0
        if to_u0 == (h.weight(u0, v1) > 0):
            raise ConstructionError(
                f"target matching between {format_name(u)} and {format_name(p)} "
                "is not a perfect matching"
            )
        kept, lost = (v0, v1) if to_u0 else (v1, v0)
        put(u0, kept, 1, 2)
        put(u0, lost, 1, 0)
        put(u1, lost, 0, 2)
        halves.append((kept, lost))

    if unsplit_nbrs:
        put(u0, u1, 0, len(unsplit_nbrs))

    new_graph = g.with_edges(edges, drop=u, add=(u0, u1))
    log = ChangeLog(
        split_vertex=u,
        changes=tuple(changes),
        unsplit_neighbors=unsplit_nbrs,
        halves=tuple(halves),
    )
    n_u, n_s = len(unsplit_nbrs), len(split_nbrs)
    if log.cost != 3 * n_u + 5 * n_s // 2:
        raise ConstructionError(
            f"cost {log.cost} != 3*{n_u} + 5*{n_s}/2 at {format_name(u)}"
        )
    if 2 * n_u + n_s != g.d:
        raise ConstructionError(
            f"2|U(u)| + |S(u)| = {2 * n_u + n_s} != d at {format_name(u)}"
        )
    return GrowthState(current=new_graph, target=h, log=log)


def finalize_cycle(state: GrowthState) -> WeightedMultigraph:
    """End-of-cycle check: the grown graph must equal the doubled lift exactly."""
    if state.current.n != state.target.n:
        raise ValueError(
            f"{state.target.n - state.current.n} vertices have not split yet"
        )
    if not graphs_equal(state.current, state.target):
        raise ConstructionError(
            "end-of-cycle graph differs from the doubled lift: "
            + _diff_graphs(state.current, state.target)
        )
    return state.target


def _diff_graphs(a: WeightedMultigraph, b: WeightedMultigraph) -> str:
    missing = sorted(format_name(v) for v in a.vertices ^ b.vertices)
    edge_diff = []
    wa, wb = a.weights, b.weights
    for k in wa.keys() | wb.keys():
        x, y = wa.get(k, 0), wb.get(k, 0)
        if x != y:
            edge_diff.append(f"{format_name(k[0])}-{format_name(k[1])}: {x} vs {y}")
    return f"vertex diff {missing}; edge diff {sorted(edge_diff)[:20]}"


# Recent states kept besides the checkpoints.  A sweep reads G_{n-1} before
# G_n, and a churn script reads G_n near its last reads, so a few serve them.
WINDOW = 16

# Every state held: one checkpoint per reached cycle of each (d, seed), the
# state of its first split, which fixes the cycle's target; and at most
# WINDOW others, the least recently read evicted first.
_STATE_CACHE: dict[tuple[int, int, int], GrowthState] = {}
# the keys of the window's states, least recently read first
_WINDOW: dict[tuple[int, int, int], None] = {}


def clear_caches() -> None:
    _STATE_CACHE.clear()
    _WINDOW.clear()


def _is_first_split(d: int, n: int) -> bool:
    """Whether G_n comes from a cycle's first split (n = split_n(d, 0:0...0))."""
    doubling, rest = divmod(n - 1, d // 2 + 1)
    return rest == 0 and doubling & (doubling - 1) == 0


def _keep(key: tuple[int, int, int], st: GrowthState) -> GrowthState:
    """Hold a new state: as a checkpoint if it is a cycle's first split,
    else as the window's most recent state, evicting the least recent one."""
    _STATE_CACHE[key] = st
    if not _is_first_split(key[0], key[1]):
        _WINDOW[key] = None
        if len(_WINDOW) > WINDOW:
            oldest = next(iter(_WINDOW))
            del _WINDOW[oldest]
            _STATE_CACHE.pop(oldest, None)
    return st


def bl_expander(d: int, i: int, seed: int = 0) -> WeightedMultigraph:
    """The i-th doubled expander in the deterministic sequence (i = 0 is the clique)."""
    if i < 0:
        raise ValueError("index must be >= 0")
    if i == 0:
        return initial_graph(d)
    # the target of cycle i - 1, held by the checkpoint of its first split
    return state_at(d, split_n(d, VertexName(0, (0,) * (i - 1))), seed).target


def state_at(d: int, n: int, seed: int = 0) -> GrowthState:
    """The growth state when the graph first reaches ``n`` vertices.

    For n at a cycle boundary (other than the starting clique) this is the
    end-of-cycle state with every vertex split.  Replays ``split_next`` from
    the largest held state below n: within n's cycle, its checkpoint or a
    later window state, so no signing search runs twice.  A
    ``ConstructionError`` of growth re-raises, same type, prefixed with d, n
    and the cycle.
    """
    base_n = d // 2 + 1
    if n < base_n:
        raise ValueError(f"n must be at least d/2 + 1 = {base_n}")
    key = (d, n, seed)
    st = _STATE_CACHE.get(key)
    if st is not None:
        if key in _WINDOW:  # the most recently read state now
            del _WINDOW[key]
            _WINDOW[key] = None
        return st
    if n == base_n:
        first = _STATE_CACHE.get((d, base_n + 1, seed))
        if first is None:
            return _keep(key, begin_cycle(initial_graph(d), seed))
        return _keep(key, GrowthState(current=initial_graph(d), target=first.target))
    start = max(
        (m for dd, m, s in _STATE_CACHE if dd == d and s == seed and m < n),
        default=base_n,
    )
    st = state_at(d, start, seed)
    for m in range(start + 1, n + 1):
        try:
            if st.current.n == st.target.n:
                st = begin_cycle(finalize_cycle(st), seed)
            st = split_next(st)
        except ConstructionError as exc:
            cycle = next(iter(st.target.vertices)).depth - 1
            raise type(exc)(f"d = {d}, n = {m}, cycle {cycle}: {exc}") from exc
        _keep((d, m, seed), st)
    return st


def graph_at(d: int, n: int, seed: int = 0) -> WeightedMultigraph:
    """The unique n-vertex graph of the deterministic sequence."""
    if n == d // 2 + 1:
        return initial_graph(d)
    return state_at(d, n, seed).current


def changelog_at(d: int, n: int, seed: int = 0) -> ChangeLog:
    """The audit log of the split that produced G_n from G_{n-1}."""
    if n <= d // 2 + 1:
        raise ValueError("the starting clique has no predecessor")
    return state_at(d, n, seed).log


def check_state_invariants(state: GrowthState) -> None:
    """Assert every rule of ``structure_violations`` on a mid-cycle state."""
    for problem in structure_violations(state.current, state.split):
        raise ConstructionError(problem)


def structure_violations(
    g: WeightedMultigraph, split: Set[VertexName]
) -> Iterator[str]:
    """Each broken growth invariant of ``g`` whose split vertices are ``split``.

    The rules: uniform name depths within S and within U, with S one bit
    deeper; partner-edge weights equal to the count of unsplit neighbors of
    the shared parent; the {1, 2} weight classes by endpoint split status;
    and weighted degree d everywhere.  Each message starts with the rule's
    name; within a rule, messages follow the canonical order of vertices and
    edges.  A depth violation ends the check, since the other rules read the
    split status from the depths.
    """
    depths_s = {v.depth for v in split}
    depths_u = {v.depth for v in g.vertices - split}
    if len(depths_s) > 1 or len(depths_u) > 1 or (
        depths_s and depths_u and min(depths_s) != min(depths_u) + 1
    ):
        yield (
            f"name depths invariant: split depths {sorted(depths_s)}, "
            f"unsplit depths {sorted(depths_u)}"
        )
        return

    for v in sorted(split):
        w = partner(v)
        if w not in g.vertices:
            yield f"partner edges: {format_name(v)} split without partner"
            continue
        if v > w:
            continue
        expected = sum(1 for x in g.neighbors(v) if x not in split)
        other = sum(1 for x in g.neighbors(w) if x not in split)
        if expected != other:
            yield (
                f"partner edges: halves of {format_name(v.parent())} disagree "
                f"on unsplit neighbors ({expected} vs {other})"
            )
        elif g.weight(v, w) != expected:
            yield (
                f"partner edges: edge {format_name(v)}-{format_name(w)} has "
                f"weight {g.weight(v, w)}, expected {expected}"
            )

    for a, b, w in g.sorted_edges():
        if a in split and b in split and partner(a) == b:
            continue
        expected = 2 if (a in split) == (b in split) else 1
        if w != expected:
            yield (
                f"weight classes: edge {format_name(a)}-{format_name(b)} has "
                f"weight {w}, expected {expected}"
            )

    for v in g.vertices:
        deg = weighted_degree(g, v)
        if deg != g.d:
            yield (
                f"degree invariant: vertex {format_name(v)} has weighted "
                f"degree {deg}, expected {g.d}"
            )


def check_split_cost(
    prev: WeightedMultigraph, new: WeightedMultigraph, log: ChangeLog
) -> None:
    """Assert the per-step cost bound and its agreement with the weight diff."""
    d = prev.d
    actual = expansion_cost(prev, new)
    if actual != log.cost:
        raise ConstructionError(
            f"logged cost {log.cost} differs from weight diff {actual}"
        )
    if log.cost > 5 * d // 2:
        raise ConstructionError(f"cost {log.cost} exceeds 5d/2 = {5 * d // 2}")
