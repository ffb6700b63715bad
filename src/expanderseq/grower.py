"""One-vertex-at-a-time growth between consecutive doubled expanders.

Each cycle starts from a doubled expander (all weights 2), fixes the next
doubled 2-lift as the target, and splits one vertex per step until every
vertex has split, at which point the graph equals the target exactly.  A
split of ``u`` into ``u.0`` and ``u.1`` rewires edges so that all weighted
degrees stay ``d`` and every edge weight stays in {1, 2} apart from the
shrinking edge between split partners.

The split order is the canonical name order over the unsplit set, fixed at
the start of the cycle, which makes the whole sequence a deterministic
function of (d, seed).
"""

from __future__ import annotations

from collections.abc import Iterator, Set
from dataclasses import dataclass

from .lifts import DEFAULT_SEARCH_BUDGET, next_bl_expander
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
    """Exact weight transitions of one split, on persistent-identity edges."""

    split_vertex: VertexName
    new_vertex: VertexName
    changes: tuple[tuple[Edge, int, int], ...]
    cost: int
    n_unsplit_neighbors: int
    n_split_neighbors: int

    @property
    def topology_changes(self) -> int:
        """Edges whose presence flips: the change of the unweighted graph."""
        return sum((old > 0) != (new > 0) for _, old, new in self.changes)


@dataclass(frozen=True)
class GrowthState:
    """Mid-cycle snapshot: current graph plus the split bookkeeping."""

    current: WeightedMultigraph
    cycle_index: int
    base: WeightedMultigraph
    target: WeightedMultigraph
    split: frozenset[VertexName]
    unsplit: frozenset[VertexName]
    split_order: tuple[VertexName, ...]
    next_split: int


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


def begin_cycle(
    g_star: WeightedMultigraph,
    seed: int = 0,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> GrowthState:
    """Start a cycle at a doubled expander: S empty, U everything."""
    depths = {v.depth for v in g_star.vertices}
    if len(depths) != 1:
        raise ValueError("cycle base must have uniform name depth")
    i = depths.pop()
    target = next_bl_expander(
        g_star, seed=_cycle_seed(seed, i), search_budget=search_budget
    )
    order = tuple(sorted(g_star.vertices, key=lambda v: v.key()))
    return GrowthState(
        current=g_star,
        cycle_index=i,
        base=g_star,
        target=target,
        split=frozenset(),
        unsplit=frozenset(g_star.vertices),
        split_order=order,
        next_split=0,
    )


def split_next(state: GrowthState) -> tuple[GrowthState, ChangeLog]:
    """Split the next unsplit vertex, returning the new state and its audit log."""
    if not state.unsplit:
        raise CycleComplete(f"cycle {state.cycle_index} has no unsplit vertices")
    g = state.current
    h = state.target
    u = state.split_order[state.next_split]
    if u not in state.unsplit:
        raise ConstructionError(f"split order desync at {format_name(u)}")
    u0, u1 = u.child(0), u.child(1)
    nbrs = g.neighbors(u)
    unsplit_nbrs = sorted((v for v in nbrs if v in state.unsplit), key=lambda v: v.key())
    split_nbrs = sorted((v for v in nbrs if v in state.split), key=lambda v: v.key())
    if len(unsplit_nbrs) + len(split_nbrs) != len(nbrs):
        raise ConstructionError("S/U does not partition the neighborhood")

    weights: dict[Edge, int] = {
        e: w for e, w in g.weights.items() if u not in e
    }
    changes: list[tuple[Edge, int, int]] = []

    def ident(x: VertexName) -> VertexName:
        return strip_identity(x)

    for v in unsplit_nbrs:
        if nbrs[v] != 2:
            raise ConstructionError(
                f"edge to unsplit {format_name(v)} has weight {nbrs[v]}, expected 2"
            )
        weights[edge_key(u0, v)] = 1
        weights[edge_key(u1, v)] = 1
        changes.append((edge_key(ident(u), ident(v)), 2, 1))
        changes.append((edge_key(ident(u1), ident(v)), 0, 1))

    parents = sorted({v.parent() for v in split_nbrs}, key=lambda p: p.key())
    if 2 * len(parents) != len(split_nbrs):
        raise ConstructionError("split neighbors do not decompose into pairs")
    for p in parents:
        v0, v1 = p.child(0), p.child(1)
        if v0 not in nbrs or v1 not in nbrs or nbrs[v0] != 1 or nbrs[v1] != 1:
            raise ConstructionError(
                f"expected weight-1 edges to both halves of {format_name(p)}"
            )
        pk = edge_key(v0, v1)
        old_pair = weights.get(pk, 0)
        if old_pair < 1:
            raise ConstructionError(
                f"partner edge {format_name(v0)}-{format_name(v1)} missing"
            )
        if old_pair == 1:
            del weights[pk]
        else:
            weights[pk] = old_pair - 1
        changes.append((edge_key(ident(v0), ident(v1)), old_pair, old_pair - 1))
        to_u0 = h.weight(u0, v0) > 0
        crossed = h.weight(u0, v1) > 0
        if to_u0 == crossed:
            raise ConstructionError(
                f"target matching between {format_name(u)} and {format_name(p)} "
                "is not a perfect matching"
            )
        kept, lost = (v0, v1) if to_u0 else (v1, v0)
        weights[edge_key(u0, kept)] = 2
        weights[edge_key(u1, lost)] = 2
        changes.append((edge_key(ident(u), ident(kept)), 1, 2))
        changes.append((edge_key(ident(u), ident(lost)), 1, 0))
        changes.append((edge_key(ident(u1), ident(lost)), 0, 2))

    if unsplit_nbrs:
        weights[edge_key(u0, u1)] = len(unsplit_nbrs)
        changes.append((edge_key(ident(u), ident(u1)), 0, len(unsplit_nbrs)))

    vertices = (set(g.vertices) - {u}) | {u0, u1}
    new_graph = WeightedMultigraph(g.d, vertices, weights)
    cost = sum(abs(new - old) for _, old, new in changes)
    n_u, n_s = len(unsplit_nbrs), len(split_nbrs)
    if n_s % 2 != 0:
        raise ConstructionError(f"|S(u)| = {n_s} is odd")
    if cost != 3 * n_u + 5 * n_s // 2:
        raise ConstructionError(
            f"cost {cost} != 3*{n_u} + 5*{n_s}/2 at {format_name(u)}"
        )
    if 2 * n_u + n_s != g.d:
        raise ConstructionError(f"2|U(u)| + |S(u)| = {2 * n_u + n_s} != d")
    log = ChangeLog(
        split_vertex=u,
        new_vertex=u1,
        changes=tuple(changes),
        cost=cost,
        n_unsplit_neighbors=n_u,
        n_split_neighbors=n_s,
    )
    new_state = GrowthState(
        current=new_graph,
        cycle_index=state.cycle_index,
        base=state.base,
        target=state.target,
        split=state.split | {u0, u1},
        unsplit=state.unsplit - {u},
        split_order=state.split_order,
        next_split=state.next_split + 1,
    )
    return new_state, log


def finalize_cycle(state: GrowthState) -> WeightedMultigraph:
    """End-of-cycle check: the grown graph must equal the doubled lift exactly."""
    if state.unsplit:
        raise ValueError(f"{len(state.unsplit)} vertices have not split yet")
    if not graphs_equal(state.current, state.target):
        raise ConstructionError(
            "end-of-cycle graph differs from the doubled lift: "
            + _diff_graphs(state.current, state.target)
        )
    return state.target


def _diff_graphs(a: WeightedMultigraph, b: WeightedMultigraph) -> str:
    missing = sorted(
        format_name(v) for v in a.vertices.symmetric_difference(b.vertices)
    )
    edge_diff = []
    keys = set(a.weights) | set(b.weights)
    for k in keys:
        wa, wb = a.weights.get(k, 0), b.weights.get(k, 0)
        if wa != wb:
            edge_diff.append(
                f"{format_name(k[0])}-{format_name(k[1])}: {wa} vs {wb}"
            )
    return f"vertex diff {missing}; edge diff {sorted(edge_diff)[:20]}"


_STATE_CACHE: dict[tuple[int, int, int], GrowthState] = {}
_LOG_CACHE: dict[tuple[int, int, int], ChangeLog] = {}


def clear_caches() -> None:
    _STATE_CACHE.clear()
    _LOG_CACHE.clear()


def bl_expander(d: int, i: int, seed: int = 0) -> WeightedMultigraph:
    """The i-th doubled expander in the deterministic sequence (i = 0 is the clique)."""
    if i < 0:
        raise ValueError("index must be >= 0")
    if i == 0:
        return initial_graph(d)
    # the target of cycle i - 1, fixed by the state of its first split
    return state_at(d, (d // 2 + 1) * (1 << (i - 1)) + 1, seed).target


def state_at(d: int, n: int, seed: int = 0) -> GrowthState:
    """The growth state when the graph first reaches ``n`` vertices.

    For n at a cycle boundary (other than the starting clique) this is the
    end-of-cycle state with every vertex split.
    """
    base_n = d // 2 + 1
    if n < base_n:
        raise ValueError(f"n must be at least d/2 + 1 = {base_n}")
    key = (d, n, seed)
    if key in _STATE_CACHE:
        return _STATE_CACHE[key]
    start = n
    while start > base_n and (d, start, seed) not in _STATE_CACHE:
        start -= 1
    if start == base_n:
        st = begin_cycle(initial_graph(d), seed)
        _STATE_CACHE[(d, base_n, seed)] = st
    else:
        st = _STATE_CACHE[(d, start, seed)]
    for m in range(start + 1, n + 1):
        if not st.unsplit:
            st = begin_cycle(finalize_cycle(st), seed)
        st, log = split_next(st)
        _STATE_CACHE[(d, m, seed)] = st
        _LOG_CACHE[(d, m, seed)] = log
    return _STATE_CACHE[key]


def graph_at(d: int, n: int, seed: int = 0) -> WeightedMultigraph:
    """The unique n-vertex graph of the deterministic sequence."""
    if n == d // 2 + 1:
        return initial_graph(d)
    return state_at(d, n, seed).current


def changelog_at(d: int, n: int, seed: int = 0) -> ChangeLog:
    """The audit log of the split that produced G_n from G_{n-1}."""
    if n <= d // 2 + 1:
        raise ValueError("the starting clique has no predecessor")
    state_at(d, n, seed)
    return _LOG_CACHE[(d, n, seed)]


def check_state_invariants(state: GrowthState) -> None:
    """Assert the structural invariants of a mid-cycle state.

    Covers the S/U partition and every rule of ``structure_violations``.
    """
    if state.split | state.unsplit != state.current.vertices or (
        state.split & state.unsplit
    ):
        raise ConstructionError("S and U do not partition the vertex set")
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
    name.  A depth violation ends the check, since the other rules read the
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

    for v in split:
        w = partner(v)
        if w not in g.vertices:
            yield f"partner edges: {format_name(v)} split without partner"
            continue
        if v.key() > w.key():
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

    for a, b, w in g.edges():
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
