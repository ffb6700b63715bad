"""Synchronous message-passing simulator for the self-healing overlay.

The network maintains the unweighted projection of the deterministic growth
sequence.  Nodes know only their own name, their neighbors' names and ids,
and (for neighbors of the all-zeros coordinator) a replica of the
coordinator's vertex count; everything else is recomputed locally from the
deterministic reference topology, which costs no messages in this model.

Rounds are synchronous: each link carries at most one message per direction
per round, every message is charged a bit size that must stay within the
logarithmic cap, and all processing orders are canonical, so two runs of the
same script are identical, including the report digest.

Recovery flows:

* insertion: the new node reaches the coordinator through an attach
  neighbor, learns the vertex count, deduces which vertex splits and becomes
  its 1-copy; the splitting vertex renames to its 0 copy and notifies its
  neighbors, which build their own edges to the new node directly.
* deletion: the neighbor elected by the canonical shortest path reports to
  the coordinator, which routes a takeover to the newest vertex; that vertex
  first wires itself into the deleted slot, then undoes its own insertion
  (its split partner renames back and reclaims the merged edges) and assumes
  the deleted name, pulling the coordinator state if the coordinator died.
  When the newest vertex itself was deleted, the takeover goes to its split
  partner, which performs the undo alone.

Every message carries one body: the body's type selects its handler, and
its fields determine the bits it is charged, with ``name(v)`` = 9 + depth
of v and ``int(k)`` = bit length of k + 1.  An ``old`` name is implied by
a rename and costs nothing, ``n`` in the ADD_NOTIFY bodies is the harness's
vertex count, and a relay leg costs what the leg it relays costs.

===============  =================================  ================================
body             fields                             bits
===============  =================================  ================================
AddNotify        new_ext, n                         int(n) + 8
AddRelay         new_ext, n, via                    int(n) + name(via) + 16
NReply           n, new_ext                         int(n) + 16
NRelay           n                                  int(n) + 8
SplitReq         new_ext, new_name, target          2 name(new_name) + 16
SplitRelay       as SplitReq, plus via              as SplitReq
NeighborEntry    name, ext, new_ext                 name(name) + 24
NeighborRelay    as NeighborEntry                   as NeighborEntry
PartnerAnnounce  name, ext                          name(name) + 16
PartnerReply     name, ext                          name(name) + 16
Wire             name, ext                          name(name) + 16
Ack              name, ext                          name(name) + 16
Bind             name, ext, old (optional)          name(name) + 16
BindLink         name, ext, old, new_name, new_ext  name(name) + name(new_name) + 24
DropLink         old, new_name, new_ext             name(new_name) + 24
DropAttach       ext                                16
PairDrop         (none)                             8
DelNotify        deleted                            name(deleted) + 8
Takeover         deleted, n, coord_died             name(deleted) + int(n) + 16
ReconnectVia     half, name, ext                    name(name) + name(half) + 16
Reconnect        as ReconnectVia                    as ReconnectVia
DropName         name                               name(name) + 8
Unsplit          drop, halves, total                32 + (32 + drop depth) per half
StateXfer        n                                  int(n) + 8
ReplicaSync      n                                  int(n) + 8
===============  =================================  ================================

Within a round, deliveries are ordered by the receiver's name, then by the
body's ``rank``, then by send order.  The rank is the position of the body's
kind in ADD_NOTIFY, N_REPLY, SPLIT_REQ, NEIGHBOR_LIST, EDGE_MAKE, EDGE_DROP,
DEL_NOTIFY, TAKEOVER, UNDO_STEP, STATE_XFER, REPLICA_SYNC; the table lists
the bodies in that order, and the bodies of one kind share its rank.

Beyond its name and neighbor table, a node holds one record per role it is
playing, each ``None`` when idle: ``Joining`` while a new node is wired in,
``TakeoverJob`` while the newest vertex moves into a deleted slot, and
``Handover`` while its split partner collects the ``Unsplit`` chunks.  A
coordinator neighbor keeps ``replica_n``, its copy of the vertex count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import deque
from dataclasses import dataclass, field
from functools import cache, singledispatchmethod
from typing import Iterable

from .grower import bl_expander, changelog_at, graph_at
from .multigraph import WeightedMultigraph, bfs_distances, edge_key, graph_to_text
from .multigraph import expansion_cost  # noqa: F401  perfbench's tracer binds it
from .names import VertexName, format_name, is_all_zeros, partner, strip_identity

MSG_BIT_CAP_FACTOR = 64


class ProtocolError(RuntimeError):
    """The simulated protocol reached a state the design rules out."""


class ScriptError(ValueError):
    """An adversary script event is invalid at the time it fires."""


def _name_bits(name: VertexName) -> int:
    return 9 + name.depth


def _int_bits(value: int) -> int:
    return max(1, value.bit_length()) + 1


# Message kinds, in delivery priority within a round.
(ADD_NOTIFY, N_REPLY, SPLIT_REQ, NEIGHBOR_LIST, EDGE_MAKE, EDGE_DROP,
 DEL_NOTIFY, TAKEOVER, UNDO_STEP, STATE_XFER, REPLICA_SYNC) = range(11)


class Body:
    """A message body: ``rank`` is its kind, ``bits`` its charged size."""

    rank: int
    bits: int


@dataclass(frozen=True)
class AddNotify(Body):
    """New node -> attach neighbor: please announce me to the coordinator."""

    new_ext: str
    n: int
    rank = ADD_NOTIFY
    bits = property(lambda b: _int_bits(b.n) + 8)


@dataclass(frozen=True)
class AddRelay(Body):
    """Attach neighbor -> coordinator (routed): a node is joining via me."""

    new_ext: str
    n: int
    via: VertexName
    rank = ADD_NOTIFY
    bits = property(lambda b: _int_bits(b.n) + _name_bits(b.via) + 16)


@dataclass(frozen=True)
class NReply(Body):
    """Coordinator -> attach neighbor (routed): the new vertex count."""

    n: int
    new_ext: str
    rank = N_REPLY
    bits = property(lambda b: _int_bits(b.n) + 16)


@dataclass(frozen=True)
class NRelay(Body):
    """Attach neighbor -> new node: the new vertex count."""

    n: int
    rank = N_REPLY
    bits = property(lambda b: _int_bits(b.n) + 8)


@dataclass(frozen=True)
class SplitReq(Body):
    """New node -> attach neighbor: ask ``target`` to split for me."""

    new_ext: str
    new_name: VertexName
    target: VertexName
    rank = SPLIT_REQ
    bits = property(lambda b: _name_bits(b.new_name) * 2 + 16)


@dataclass(frozen=True)
class SplitRelay(SplitReq):
    """Attach neighbor -> splitting vertex (routed)."""

    via: VertexName


@dataclass(frozen=True)
class NeighborEntry(Body):
    """Splitting vertex -> attach neighbor (routed): one neighbor-table entry."""

    name: VertexName
    ext: str
    new_ext: str
    rank = NEIGHBOR_LIST
    bits = property(lambda b: _name_bits(b.name) + 24)


class NeighborRelay(NeighborEntry):
    """Attach neighbor -> new node: the entry, pushed over the attach link."""


@dataclass(frozen=True)
class EdgeMake(Body):
    """An edge-making body: a name and the ext id it belongs to."""

    name: VertexName
    ext: str
    rank = EDGE_MAKE
    bits = property(lambda b: _name_bits(b.name) + 16)


class PartnerAnnounce(EdgeMake):
    """Routed to my split sibling: my id, so the pair edge can be managed."""


class PartnerReply(EdgeMake):
    """Split sibling -> announcer: my id in return."""


class Wire(EdgeMake):
    """Takeover node -> slot neighbor (routed): bind me under ``name``."""


class Ack(EdgeMake):
    """Slot neighbor -> takeover node: bound; here is my name."""


@dataclass(frozen=True)
class Bind(EdgeMake):
    """Bind ``name`` to ``ext``, replacing ``old`` (implied by a rename)."""

    old: VertexName | None = None


@dataclass(frozen=True)
class BindLink(Body):
    """Splitting vertex -> unsplit neighbor: rebind me, link to my new half."""

    name: VertexName
    ext: str
    old: VertexName
    new_name: VertexName
    new_ext: str
    rank = EDGE_MAKE
    bits = property(lambda b: _name_bits(b.name) + _name_bits(b.new_name) + 24)


@dataclass(frozen=True)
class DropLink(Body):
    """Splitting vertex -> lost split neighbor: drop me, link to my new half."""

    old: VertexName
    new_name: VertexName
    new_ext: str
    rank = EDGE_DROP
    bits = property(lambda b: _name_bits(b.new_name) + 24)


@dataclass(frozen=True)
class DropAttach(Body):
    """Wired new node -> attach neighbor: our attach link is not an edge."""

    ext: str
    rank = EDGE_DROP
    bits = 16


@dataclass(frozen=True)
class PairDrop(Body):
    """0 half -> 1 half: the pair edge goes away."""

    rank = EDGE_DROP
    bits = 8


@dataclass(frozen=True)
class DelNotify(Body):
    """Elected ex-neighbor -> coordinator (routed): ``deleted`` is gone."""

    deleted: VertexName
    rank = DEL_NOTIFY
    bits = property(lambda b: _name_bits(b.deleted) + 8)


@dataclass(frozen=True)
class Takeover(Body):
    """Coordinator (or elected holder) -> newest vertex or its partner."""

    deleted: VertexName
    n: int
    coord_died: bool
    rank = TAKEOVER
    bits = property(lambda b: _name_bits(b.deleted) + _int_bits(b.n) + 16)


@dataclass(frozen=True)
class ReconnectVia(Body):
    """Renaming partner -> a relay next to ``half`` (routed): reconnect us."""

    half: VertexName
    name: VertexName
    ext: str
    rank = UNDO_STEP
    bits = property(lambda b: _name_bits(b.name) + _name_bits(b.half) + 16)


class Reconnect(ReconnectVia):
    """Relay -> lost half: bind the renamed partner."""


@dataclass(frozen=True)
class DropName(Body):
    """Undoing vertex -> neighbor: forget ``name``."""

    name: VertexName
    rank = UNDO_STEP
    bits = property(lambda b: _name_bits(b.name) + 8)


@dataclass(frozen=True)
class Unsplit(Body):
    """Undoing vertex -> split partner: one of ``total`` handover chunks."""

    drop: VertexName
    halves: tuple[tuple[VertexName, str], ...]
    total: int
    rank = UNDO_STEP
    bits = property(lambda b: 32 + (32 + b.drop.depth) * len(b.halves))


@dataclass(frozen=True)
class StateXfer(Body):
    """Elected replica holder -> new coordinator (routed): the vertex count."""

    n: int
    rank = STATE_XFER
    bits = property(lambda b: _int_bits(b.n) + 8)


@dataclass(frozen=True)
class ReplicaSync(Body):
    """Coordinator -> neighbor: the current vertex count."""

    n: int
    rank = REPLICA_SYNC
    bits = property(lambda b: _int_bits(b.n) + 8)


@dataclass
class Message:
    """A body in flight.

    With ``dst`` set the body is routed hop by hop toward that name;
    otherwise it crosses a single link.  The other fields are the harness's
    routing state: the names to avoid, the vertex count that pins the exact
    topology (``n_hint``), the reference level, and escape-hop bookkeeping.
    """

    body: Body
    dst: VertexName | None = None
    exclude: frozenset[VertexName] = frozenset()
    n_hint: int | None = None
    route_level: int | None = None
    seq: int = 0
    hops: int = 0
    last: VertexName | None = None


@dataclass
class Joining:
    """A new node until it is wired: its relay and the entries it awaits."""

    relay_ext: str
    expected_neighbors: frozenset[VertexName] = frozenset()
    entries: int = 0
    entries_expected: int | None = None


@dataclass
class TakeoverJob:
    """The newest vertex moving into the slot of the deleted vertex ``dead``."""

    dead: VertexName
    slot: VertexName
    absorb: bool
    n_pre: int
    coord_died: bool
    # the slot's neighbors under their current names; each acks once
    targets_cur: frozenset[VertexName]
    acks: int = 0
    partner_done: bool = False


@dataclass
class Handover:
    """A split partner collecting the lost halves of ``chunks_left`` chunks."""

    chunks_left: int
    halves: list[tuple[VertexName, str]] = field(default_factory=list)


@dataclass
class NodeState:
    ext_id: str
    name: VertexName | None
    neighbor_table: dict[VertexName, str] = field(default_factory=dict)
    replica_n: int | None = None
    known_n: int | None = None
    partner_ext: str | None = None
    # adversarial attach links (by ext id) that are not yet, or never, edges
    attach_links: set[str] = field(default_factory=set)
    joining: Joining | None = None
    takeover: TakeoverJob | None = None
    handover: Handover | None = None
    # partner name known dead this event; suppresses pair re-adds until recovery
    pair_hold: VertexName | None = None
    announce_inflight: bool = False

    @property
    def is_coordinator(self) -> bool:
        return self.name is not None and is_all_zeros(self.name)

    def is_partner_of(self, name: VertexName) -> bool:
        return (
            self.name is not None and self.name.depth > 0
            and partner(self.name) == name
        )


@dataclass(frozen=True)
class InsertEvent:
    ext_id: str
    attach: tuple[str, ...]


@dataclass(frozen=True)
class DeleteEvent:
    ext_id: str


AdversaryEvent = InsertEvent | DeleteEvent


@dataclass
class SimReport:
    d: int
    seed: int
    events: list[dict]
    final_graph_text: str
    digest: str


def parse_script(text: str) -> list[AdversaryEvent]:
    """Parse the JSON script format: a list of insert/delete operations."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScriptError(f"script is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ScriptError("script must be a JSON array")
    events: list[AdversaryEvent] = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "op" not in item:
            raise ScriptError(f"event {i}: expected an object with an 'op'")
        op = item["op"]
        if op == "insert":
            attach = item.get("attach", [])
            if not isinstance(attach, list) or not all(
                isinstance(a, str) for a in attach
            ):
                raise ScriptError(f"event {i}: 'attach' must be a string list")
            if "id" not in item:
                raise ScriptError(f"event {i}: insert needs an 'id'")
            events.append(InsertEvent(str(item["id"]), tuple(attach)))
        elif op == "delete":
            if "id" not in item:
                raise ScriptError(f"event {i}: delete needs an 'id'")
            events.append(DeleteEvent(str(item["id"])))
        else:
            raise ScriptError(f"event {i}: unknown op {op!r}")
    return events


def _closest(
    candidates: Iterable[VertexName], dist: dict[VertexName, int], here: int | None
) -> VertexName | None:
    """The smallest-named candidate one step nearer than ``here``.

    When ``here`` is unknown (the node's own vertex is excluded), the nearest
    reachable candidate instead.
    """
    steps = [
        w for w in candidates if w in dist and (here is None or dist[w] == here - 1)
    ]
    return min(steps, key=lambda w: (dist[w], w.key()), default=None)


def _covers(name: VertexName, ref_vertex: VertexName, level: int) -> bool:
    """Whether the node named ``name`` stands for ``ref_vertex`` at ``level``.

    A deeper name stands for its level-``level`` ancestor; a shallower
    (unsplit) name stands for every descendant.
    """
    if name.base != ref_vertex.base:
        return False
    if name.depth >= level:
        return name.bits[:level] == ref_vertex.bits
    return ref_vertex.bits[: name.depth] == name.bits


# The routing tables below are deterministic functions of their arguments,
# memoized across networks.


@cache
def _ref_adj(d: int, i: int, seed: int) -> dict[VertexName, list[VertexName]]:
    """Sorted adjacency lists of the i-th doubled reference graph."""
    g = bl_expander(d, i, seed)
    return {v: sorted(g.neighbors(v), key=VertexName.key) for v in g.vertices}


@cache
def _ref_dist(
    d: int, i: int, seed: int, target: VertexName, exclude: frozenset[VertexName]
) -> dict[VertexName, int]:
    """BFS distance to ``target`` in the i-th reference graph.

    ``exclude`` removes vertices whose identity matches a dead name.
    """
    return bfs_distances(
        _ref_adj(d, i, seed).__getitem__,
        target,
        lambda w: any(_covers(x, w, i) for x in exclude),
    )


@cache
def _by_identity(d: int, seed: int, n: int) -> dict[VertexName, VertexName]:
    """The exact n-vertex graph's vertices, keyed by persistent identity."""
    return {strip_identity(v): v for v in graph_at(d, n, seed).vertices}


@cache
def _true_dist(
    d: int, seed: int, n: int, dst: VertexName, exclude: frozenset[VertexName]
) -> dict[VertexName, int]:
    """BFS distances to ``dst``'s identity in the exact n-vertex graph.

    Available to any holder of the authoritative vertex count: knowing n
    pins the whole deterministic topology, including the shrinking edges
    between split partners that the doubled references do not contain.
    """
    dead = {strip_identity(x) for x in exclude}
    return bfs_distances(
        graph_at(d, n, seed).neighbors,
        _by_identity(d, seed, n)[strip_identity(dst)],
        lambda w: strip_identity(w) in dead,
    )


def clear_route_cache() -> None:
    for table in (_ref_adj, _ref_dist, _by_identity, _true_dist):
        table.cache_clear()


class SimNetwork:
    """The harness: node states, per-edge message queues, and round loop."""

    def __init__(self, d: int, seed: int = 0):
        self.d = d
        self.seed = seed
        self.nodes: dict[str, NodeState] = {}
        self.n = d // 2 + 1
        self._queues: dict[tuple[str, str], deque[Message]] = {}
        self._seq = 0
        self._defer_pair_drops = False
        self._deferred_drops: set[str] = set()
        self.reset_counters()
        base = graph_at(d, self.n, seed)
        ids = {}
        for v in sorted(base.vertices, key=VertexName.key):
            ext = f"g{v.base}"
            ids[v] = ext
            self.nodes[ext] = NodeState(ext_id=ext, name=v)
        for u, v, _ in base.edges():
            self.nodes[ids[u]].neighbor_table[v] = ids[v]
            self.nodes[ids[v]].neighbor_table[u] = ids[u]
        coord = self._coordinator()
        coord.known_n = self.n
        for nb_ext in coord.neighbor_table.values():
            self.nodes[nb_ext].replica_n = self.n

    # -- bookkeeping ------------------------------------------------------

    def _coordinator(self) -> NodeState:
        coords = [x for x in self.nodes.values() if x.is_coordinator]
        if len(coords) != 1:
            raise ProtocolError(
                f"expected exactly one coordinator, found {len(coords)}"
            )
        return coords[0]

    def reset_counters(self) -> None:
        self.rounds = 0
        self.messages = 0
        self.bits = 0

    def _bit_cap(self) -> int:
        return MSG_BIT_CAP_FACTOR * max(1, math.ceil(math.log2(max(self.n, 2))))

    def _send(self, src_ext: str, dst_ext: str, msg: Message) -> None:
        if msg.body.bits > self._bit_cap():
            raise ProtocolError(
                f"{type(msg.body).__name__} body of {msg.body.bits} bits "
                f"exceeds the cap {self._bit_cap()}"
            )
        if src_ext == dst_ext:
            self._handle(self.nodes[dst_ext], msg, src_ext)
            return
        self._seq += 1
        msg.seq = self._seq
        self._queues.setdefault((src_ext, dst_ext), deque()).append(msg)

    def _direct(self, node: NodeState, dst_ext: str, body: Body) -> None:
        """Send ``body`` over the single link to ``dst_ext``."""
        self._send(node.ext_id, dst_ext, Message(body))

    def _route(
        self,
        node: NodeState,
        body: Body,
        dst: VertexName,
        exclude: frozenset[VertexName] = frozenset(),
        n_hint: int | None = None,
    ) -> None:
        """Send ``body`` hop by hop toward the node named ``dst``."""
        self._send_routed(node.ext_id, Message(body, dst, exclude, n_hint))

    def _send_routed(self, src_ext: str, msg: Message) -> None:
        """Deliver here if this node is ``msg.dst``, else forward one hop.

        The hop follows the canonical shortest path: in the exact graph when
        the message carries the vertex count, else in the reference level
        its first forwarder chose.  A node with no such hop escapes.
        """
        node = self.nodes[src_ext]
        if strip_identity(node.name) == strip_identity(msg.dst):
            self._on(msg.body, node, src_ext)
            return
        try:
            if msg.n_hint is not None:
                hop = self._exact_next_hop(node, msg.dst, msg.n_hint, msg.exclude)
            else:
                if msg.route_level is None:
                    msg.route_level = self._working_level(node)
                hop = self.route_next_hop(node, msg.dst, msg.exclude, msg.route_level)
        except ProtocolError:
            hop = self._escape_hop(node, msg)
        self._send(src_ext, node.neighbor_table[hop], msg)

    def _escape_hop(self, node: NodeState, msg: Message) -> VertexName:
        """Deterministic last resort when the reference level is stuck.

        Removing a dead vertex's images can separate a node from its own
        split sibling in every reference graph even though the physical
        graph stays connected through partner edges.  Hand the message to
        the smallest neighbor other than the last carrier; the hop budget
        turns a genuine routing bug into a hard error instead of a livelock.
        """
        msg.hops += 1
        if msg.hops > 16 * (node.name.depth + 4):
            raise ProtocolError(f"hop budget exhausted toward {format_name(msg.dst)}")
        choices = sorted(node.neighbor_table, key=VertexName.key)
        pick = next((x for x in choices if x != msg.last), choices[0])
        msg.last = node.name
        return pick

    # -- routing ----------------------------------------------------------

    @staticmethod
    def _image_in_level(name: VertexName, i: int) -> VertexName:
        """The level-i vertex carrying this name's identity (pad 0s or project)."""
        return VertexName(name.base, (name.bits + (0,) * i)[:i])

    @staticmethod
    def _locus(name: VertexName, level: int) -> set[VertexName]:
        """All level-``level`` vertices this physical node stands for.

        A deeper name projects to its ancestor; a shallower (unsplit) name
        covers every descendant, since the node is the contraction of its
        future copies.
        """
        if name.depth >= level:
            return {VertexName(name.base, name.bits[:level])}
        out = {name}
        for _ in range(level - name.depth):
            out = {v.child(b) for v in out for b in (0, 1)}
        return out

    def _exact_next_hop(
        self,
        node: NodeState,
        dst: VertexName,
        n: int,
        exclude: frozenset[VertexName],
    ) -> VertexName:
        """Next hop on the true shortest path in the exact n-vertex graph."""
        dist = _true_dist(self.d, self.seed, n, dst, exclude)
        pos = _by_identity(self.d, self.seed, n)[strip_identity(node.name)]
        w = _closest(graph_at(self.d, n, self.seed).neighbors(pos), dist, dist.get(pos))
        if w is None:
            raise ProtocolError(
                f"no exact hop from {format_name(node.name)} to {format_name(dst)}"
            )
        return self._match_binding(node, w, w.depth)

    def _working_level(self, node: NodeState) -> int:
        """Reference level per the local rule: one up if a neighbor is deeper."""
        level = node.name.depth
        if any(nb.depth > level for nb in node.neighbor_table):
            level += 1
        return level

    def route_next_hop(
        self,
        node: NodeState,
        dst: VertexName,
        exclude: frozenset[VertexName] = frozenset(),
        level: int | None = None,
    ) -> VertexName | None:
        """Next hop toward ``dst``, or None when ``dst`` is this node.

        The working reference level is the node's own unless a neighbor has a
        deeper name (then one level up, with the node standing for both of
        its future copies).  A message pins the level chosen by its source so
        every forwarder measures progress in the same reference graph, which
        makes delivery monotone; ties break toward the smallest name.
        """
        if node.name is None:
            raise ProtocolError(f"{node.ext_id} is not named yet")
        if strip_identity(dst) == strip_identity(node.name):
            return None
        for nb in sorted(node.neighbor_table, key=VertexName.key):
            if strip_identity(nb) == strip_identity(dst):
                return nb
        if level is None:
            level = self._working_level(node)
        dist = _ref_dist(
            self.d, level, self.seed, self._image_in_level(dst, level), exclude
        )
        adjacency = _ref_adj(self.d, level, self.seed)
        locus = self._locus(node.name, level)
        candidates = set().union(*(adjacency[v] for v in locus)) - locus
        here = min((dist[v] for v in locus if v in dist), default=None)
        best = _closest(candidates, dist, here)
        if best is None:
            raise ProtocolError(
                f"no hop from {format_name(node.name)} to {format_name(dst)} "
                f"at level {level}"
            )
        return self._match_binding(node, best, level)

    @staticmethod
    def _match_binding(
        node: NodeState, ref_vertex: VertexName, level: int
    ) -> VertexName:
        """The physical neighbor name carrying a reference vertex."""
        for nb in sorted(node.neighbor_table, key=VertexName.key):
            if _covers(nb, ref_vertex, level):
                return nb
        raise ProtocolError(
            f"{node.ext_id} has no physical neighbor matching "
            f"{format_name(ref_vertex)}"
        )

    # -- round loop -------------------------------------------------------

    def run_to_quiescence(self, round_limit: int = 100_000) -> None:
        while self._queues:
            self.rounds += 1
            if self.rounds > round_limit:
                raise ProtocolError("round limit exceeded; protocol livelock")
            deliveries: list[tuple[str, str, Message]] = []
            for (src, dst), q in list(self._queues.items()):
                deliveries.append((dst, src, q.popleft()))
                if not q:
                    del self._queues[(src, dst)]

            def order(item: tuple[str, str, Message]) -> tuple:
                dst, _src, msg = item
                name = self.nodes[dst].name if dst in self.nodes else None
                name_key = (2, ()) if name is None else (1, name.key())
                return (name_key, msg.body.rank, msg.seq)

            for dst, src, msg in sorted(deliveries, key=order):
                if dst not in self.nodes:
                    continue
                self.messages += 1
                self.bits += msg.body.bits
                self._handle(self.nodes[dst], msg, src)

    def _handle(self, node: NodeState, msg: Message, src_ext: str) -> None:
        if msg.dst is None:
            self._on(msg.body, node, src_ext)
        else:
            self._send_routed(node.ext_id, msg)

    @singledispatchmethod
    def _on(self, body: Body, node: NodeState, src: str) -> None:
        raise ProtocolError(f"no handler for {type(body).__name__}")

    def _after_table_change(self, node: NodeState) -> None:
        self._recheck_pair_edge(node)
        if node.replica_n is not None and not any(
            is_all_zeros(strip_identity(nb)) for nb in node.neighbor_table
        ):
            node.replica_n = None
        if node.is_coordinator and node.known_n is not None:
            self._sync_replicas(node)

    def _bind(self, node: NodeState, name: VertexName, ext: str) -> None:
        node.neighbor_table[name] = ext
        node.attach_links.discard(ext)
        if node.is_partner_of(name):
            node.partner_ext = ext

    def _link(self, node: NodeState, name: VertexName, ext: str) -> None:
        """Bind ``name`` and ask it to bind this node back."""
        self._bind(node, name, ext)
        self._direct(node, ext, Bind(node.name, node.ext_id))

    # -- insertion ---------------------------------------------------------

    def insert(self, ext_id: str, attach: Iterable[str]) -> None:
        attach = tuple(attach)
        if ext_id in self.nodes:
            raise ScriptError(f"ext id {ext_id!r} already present")
        if not attach:
            raise ScriptError("attach set must be nonempty")
        missing = [a for a in attach if a not in self.nodes]
        if missing:
            raise ScriptError(f"attach targets do not exist: {missing}")
        node = NodeState(ext_id, None, attach_links=set(attach))
        node.joining = Joining(relay_ext=min(attach))
        self.nodes[ext_id] = node
        for a in node.attach_links:
            self.nodes[a].attach_links.add(ext_id)
        self._direct(node, node.joining.relay_ext, AddNotify(ext_id, self.n))
        self.run_to_quiescence()
        for node in self.nodes.values():
            node.announce_inflight = False
        self._common_checks()

    @_on.register
    def _on_add_notify(self, body: AddNotify, node: NodeState, src: str) -> None:
        self._route(node, AddRelay(body.new_ext, self.n, node.name), VertexName(0))

    @_on.register
    def _on_add_relay(self, body: AddRelay, node: NodeState, src: str) -> None:
        if not node.is_coordinator:
            raise ProtocolError("ADD_NOTIFY reached a non-coordinator")
        node.known_n += 1
        self.n = node.known_n
        self._sync_replicas(node)
        self._route(node, NReply(node.known_n, body.new_ext), body.via)

    @_on.register
    def _on_n_reply(self, body: NReply, node: NodeState, src: str) -> None:
        self._direct(node, body.new_ext, NRelay(body.n))

    @_on.register
    def _on_n_relay(self, body: NRelay, node: NodeState, src: str) -> None:
        """The new node learns n, hence its name and the vertex that splits."""
        log = changelog_at(self.d, body.n, self.seed)
        node.name = log.new_vertex
        joining = node.joining
        ref = graph_at(self.d, body.n, self.seed)
        joining.expected_neighbors = frozenset(ref.neighbors(log.new_vertex))
        # one entry per neighbor of the splitting vertex
        joining.entries_expected = log.n_unsplit_neighbors + log.n_split_neighbors
        split_req = SplitReq(node.ext_id, log.new_vertex, log.split_vertex)
        self._direct(node, joining.relay_ext, split_req)

    @_on.register
    def _on_split_req(self, body: SplitReq, node: NodeState, src: str) -> None:
        relay = SplitRelay(body.new_ext, body.new_name, body.target, node.name)
        self._route(node, relay, body.target)

    @_on.register
    def _on_split_relay(self, body: SplitRelay, node: NodeState, src: str) -> None:
        """The splitting vertex renames to its 0 copy and rewires its edges."""
        new_ext = body.new_ext
        old_name = node.name
        x0 = old_name.child(0)
        x1 = old_name.child(1)
        node.name = x0
        node.partner_ext = new_ext
        node.attach_links.discard(new_ext)
        level = x0.depth
        h = bl_expander(self.d, level, self.seed)
        old_table = dict(node.neighbor_table)
        unsplit = sorted((w for w in old_table if w.depth < level), key=VertexName.key)
        split = sorted((w for w in old_table if w.depth == level), key=VertexName.key)
        if len(unsplit) + len(split) != len(old_table):
            raise ProtocolError("neighbor depths are inconsistent at split")
        for w in sorted(old_table, key=VertexName.key):
            entry = NeighborEntry(w, old_table[w], new_ext)
            self._route(node, entry, body.via)
        for w in unsplit:
            link = BindLink(x0, node.ext_id, old_name, x1, new_ext)
            self._direct(node, old_table[w], link)
        for p in sorted({w.parent() for w in split}, key=VertexName.key):
            v0, v1 = p.child(0), p.child(1)
            if v0 not in old_table or v1 not in old_table:
                raise ProtocolError(
                    f"split neighbors of {format_name(old_name)} not paired"
                )
            if (h.weight(x0, v0) > 0) == (h.weight(x0, v1) > 0):
                raise ProtocolError("target matching is not a perfect matching")
            kept, lost = (v0, v1) if h.weight(x0, v0) > 0 else (v1, v0)
            self._direct(node, old_table[kept], Bind(x0, node.ext_id, old_name))
            self._direct(node, old_table[lost], DropLink(old_name, x1, new_ext))
            del node.neighbor_table[lost]
        if unsplit:
            node.neighbor_table[x1] = new_ext
            self._direct(node, new_ext, Bind(x0, node.ext_id))
        self._after_table_change(node)

    @_on.register
    def _on_neighbor_entry(
        self, body: NeighborEntry, node: NodeState, src: str
    ) -> None:
        relay = NeighborRelay(body.name, body.ext, body.new_ext)
        self._direct(node, body.new_ext, relay)

    @_on.register
    def _on_neighbor_relay(
        self, body: NeighborRelay, node: NodeState, src: str
    ) -> None:
        if node.joining is not None:
            node.joining.entries += 1
            self._maybe_finish_wiring(node)

    @_on.register
    def _on_partner_announce(
        self, body: PartnerAnnounce, node: NodeState, src: str
    ) -> None:
        if node.is_partner_of(body.name):
            node.partner_ext = body.ext
            self._direct(node, body.ext, PartnerReply(node.name, node.ext_id))
            self._after_table_change(node)

    @_on.register
    def _on_partner_reply(self, body: PartnerReply, node: NodeState, src: str) -> None:
        if node.is_partner_of(body.name):
            node.partner_ext = body.ext
            node.announce_inflight = False
            self._after_table_change(node)

    @_on.register
    def _on_wire(self, body: Wire, node: NodeState, src: str) -> None:
        # takeover wiring: bind the sender under its future identity
        self._bind(node, body.name, body.ext)
        self._direct(node, body.ext, Ack(node.name, node.ext_id))
        self._after_table_change(node)

    @_on.register
    def _on_ack(self, body: Ack, node: NodeState, src: str) -> None:
        node.neighbor_table[body.name] = body.ext
        if node.takeover is not None:
            node.takeover.acks += 1
            self._maybe_finish_takeover(node)

    @_on.register
    def _on_bind(self, body: Bind, node: NodeState, src: str) -> None:
        if body.old is not None:
            node.neighbor_table.pop(body.old, None)
        self._bind(node, body.name, body.ext)
        self._after_table_change(node)
        self._maybe_finish_wiring(node)

    @_on.register
    def _on_bind_link(self, body: BindLink, node: NodeState, src: str) -> None:
        node.neighbor_table.pop(body.old, None)
        self._bind(node, body.name, body.ext)
        self._link(node, body.new_name, body.new_ext)
        self._after_table_change(node)
        self._maybe_finish_wiring(node)

    @_on.register
    def _on_drop_link(self, body: DropLink, node: NodeState, src: str) -> None:
        node.neighbor_table.pop(body.old, None)
        self._link(node, body.new_name, body.new_ext)
        self._after_table_change(node)

    @_on.register
    def _on_drop_attach(self, body: DropAttach, node: NodeState, src: str) -> None:
        node.attach_links.discard(body.ext)
        self._after_table_change(node)

    @_on.register
    def _on_pair_drop(self, body: PairDrop, node: NodeState, src: str) -> None:
        if node.name is not None and node.name.depth:
            pn = partner(node.name)
            if pn in node.neighbor_table:
                node.partner_ext = node.neighbor_table.pop(pn)
        self._after_table_change(node)

    def _recheck_pair_edge(self, node: NodeState) -> None:
        """Keep the split-partner edge consistent with the unsplit neighbor count.

        The edge between the two halves of a split weighs the number of their
        parent's unsplit neighbors; in the unweighted overlay it must exist
        exactly while that count is positive.  The 0 half always initiates,
        since it knows the 1 half's id from the split.
        """
        if node.name is None or node.name.depth == 0:
            return
        if node.joining or node.takeover or node.handover:
            return  # the role's own completion re-checks the pair edge
        pn = partner(node.name)
        level = node.name.depth
        count = sum(1 for nb in node.neighbor_table if nb.depth < level)
        present = pn in node.neighbor_table
        initiator = node.name.key() < pn.key()
        if present and count == 0 and initiator:
            if self._defer_pair_drops:
                self._deferred_drops.add(node.ext_id)
                return
            # only the 0 half decides; the 1 half applies the paired message,
            # since its own view of the unsplit count may lag transiently
            node.partner_ext = node.neighbor_table.pop(pn)
            self._direct(node, node.partner_ext, PairDrop())
        elif not present and count > 0 and initiator and pn != node.pair_hold:
            live = (
                node.partner_ext is not None
                and node.partner_ext in self.nodes
                and self.nodes[node.partner_ext].name == pn
            )
            if live:
                node.neighbor_table[pn] = node.partner_ext
                self._direct(node, node.partner_ext, Bind(node.name, node.ext_id))
            elif not node.announce_inflight:
                # sibling id unknown or stale: ask for it and retry on reply
                node.announce_inflight = True
                self._route(node, PartnerAnnounce(node.name, node.ext_id), pn)

    def _maybe_finish_wiring(self, node: NodeState) -> None:
        # a new node is named together with learning how many entries to expect
        joining = node.joining
        if joining is None or node.name is None:
            return
        if joining.entries < joining.entries_expected:
            return
        if not joining.expected_neighbors.issubset(node.neighbor_table):
            return
        node.joining = None
        bound_exts = set(node.neighbor_table.values())
        for ext in sorted(node.attach_links - bound_exts):
            self._direct(node, ext, DropAttach(node.ext_id))
        node.attach_links.clear()
        self._after_table_change(node)

    # -- deletion ----------------------------------------------------------

    def delete(self, ext_id: str) -> None:
        if ext_id not in self.nodes:
            raise ScriptError(f"ext id {ext_id!r} does not exist")
        if self.n == self.d // 2 + 1:
            raise ScriptError("cannot shrink below the base clique size d/2 + 1")
        dead = self.nodes.pop(ext_id)
        dead_name = dead.name
        neighbors = [
            self.nodes[ext]
            for ext in sorted(set(dead.neighbor_table.values()))
            if ext in self.nodes
        ]
        for nb in neighbors:
            for name, ext in list(nb.neighbor_table.items()):
                if ext == ext_id:
                    del nb.neighbor_table[name]
            nb.attach_links.discard(ext_id)
            if nb.is_partner_of(dead_name):
                nb.pair_hold = dead_name
                nb.partner_ext = None
        if dead.is_coordinator:
            holders = [nb for nb in neighbors if nb.replica_n is not None]
            if len(holders) != len(neighbors):
                raise ProtocolError("a coordinator neighbor lost its replica")
            n = holders[0].replica_n
            elected = self._elect_for_coordinator_deletion(neighbors, dead_name, n)
            self._send_takeover(elected, dead_name, n, coord_died=True)
        else:
            elected = self._elect_for_deletion(neighbors, dead_name)
            self._route(
                elected, DelNotify(dead_name), VertexName(0), frozenset([dead_name])
            )
        self._defer_pair_drops = True
        for nb in neighbors:
            self._after_table_change(nb)
        self.run_to_quiescence()
        self._defer_pair_drops = False
        for ext in sorted(self._deferred_drops):
            if ext in self.nodes:
                self._after_table_change(self.nodes[ext])
        self._deferred_drops.clear()
        self.run_to_quiescence()
        for node in self.nodes.values():
            node.pair_hold = None
            node.announce_inflight = False
        self._common_checks()

    def _elect_for_deletion(
        self, neighbors: list[NodeState], dead_name: VertexName
    ) -> NodeState:
        """The unique ex-neighbor on the canonical shortest path to the coordinator.

        Every ex-neighbor evaluates the same rule in the reference graph of
        the deleted node's own level, so the election is consistent without
        any knowledge of the vertex count.
        """
        level = dead_name.depth
        target = self._image_in_level(VertexName(0), level)
        dist = _ref_dist(self.d, level, self.seed, target, frozenset())
        adjacency = _ref_adj(self.d, level, self.seed)
        hop = _closest(adjacency[dead_name], dist, dist[dead_name])
        if hop is None:
            raise ProtocolError("deleted vertex has no hop toward the coordinator")
        matches = [
            nb
            for nb in neighbors
            if nb.name is not None
            and _covers(nb.name, hop, level)
            and not any(nb.name.bits[level:])
        ]
        if len(matches) != 1:
            raise ProtocolError(
                f"deletion election matched {len(matches)} neighbors for "
                f"{format_name(hop)}"
            )
        return matches[0]

    def _elect_for_coordinator_deletion(
        self, neighbors: list[NodeState], dead_name: VertexName, n: int
    ) -> NodeState:
        """Replica holders agree on the neighbor toward the newest vertex."""
        x_name = changelog_at(self.d, n, self.seed).new_vertex
        dist = _true_dist(self.d, self.seed, n, x_name, frozenset())
        g = graph_at(self.d, n, self.seed)
        hop = _closest(g.neighbors(dead_name), dist, dist[dead_name])
        if hop is None:
            raise ProtocolError(
                "no hop from the dead coordinator to the newest vertex"
            )
        matches = [nb for nb in neighbors if nb.name == hop]
        if len(matches) != 1:
            raise ProtocolError("temporary-coordinator election failed")
        return matches[0]

    def _send_takeover(
        self, sender: NodeState, dead_name: VertexName, n: int, coord_died: bool
    ) -> None:
        x_name = changelog_at(self.d, n, self.seed).new_vertex
        if strip_identity(x_name) == strip_identity(dead_name):
            target = x_name.parent().child(0)
        else:
            target = x_name
        dead = frozenset([dead_name])
        self._route(sender, Takeover(dead_name, n, coord_died), target, dead, n)
        if coord_died:
            self._route(sender, StateXfer(n), target, dead, n)

    @_on.register
    def _on_del_notify(self, body: DelNotify, node: NodeState, src: str) -> None:
        if not node.is_coordinator:
            raise ProtocolError("DEL_NOTIFY reached a non-coordinator")
        n_pre = node.known_n
        node.known_n -= 1
        self.n = node.known_n
        self._sync_replicas(node)
        self._send_takeover(node, body.deleted, n_pre, coord_died=False)

    @_on.register
    def _on_takeover(self, body: Takeover, node: NodeState, src: str) -> None:
        n_pre = body.n
        dead_name = body.deleted
        log = changelog_at(self.d, n_pre, self.seed)
        if strip_identity(log.new_vertex) == strip_identity(dead_name):
            # the newest vertex died: this is its partner, undoing alone
            self._partner_unsplit_from_reference(node, log, n_pre)
            if node.is_coordinator and node.known_n is not None:
                self._sync_replicas(node)
            return
        p0 = log.split_vertex.child(0)
        # if the renamed 0 half of the newest split died, its partner (the
        # newest vertex) absorbs the slot and becomes the unsplit parent
        absorb = dead_name == p0
        slot = log.split_vertex if absorb else dead_name
        ref_prev = graph_at(self.d, n_pre - 1, self.seed)
        targets = sorted(ref_prev.neighbors(slot), key=VertexName.key)
        node.takeover = TakeoverJob(
            dead=dead_name,
            slot=slot,
            absorb=absorb,
            n_pre=n_pre,
            coord_died=body.coord_died,
            targets_cur=frozenset(t if t != log.split_vertex else p0 for t in targets),
        )
        for t in targets:
            self._route(node, Wire(slot, node.ext_id), t, frozenset([dead_name]), n_pre)
        if not absorb and p0 not in node.neighbor_table:
            # remote partner: its handover cannot disturb in-flight wiring
            # (the partner edge is absent from every reference path), so it
            # can overlap the wiring round trips instead of following them
            self._send_partner_handover(node, log, n_pre, dead_name)
            node.takeover.partner_done = True
        self._maybe_finish_takeover(node)

    def _send_partner_handover(
        self, node: NodeState, log, n_pre: int, dead_name: VertexName
    ) -> None:
        """Tell the split partner to rename back and reclaim the lost halves.

        Halves are packed into as few messages as the bit cap allows.
        """
        x1 = log.new_vertex
        p0 = log.split_vertex.child(0)
        ref = graph_at(self.d, n_pre, self.seed)
        lost_halves = [
            (w, node.neighbor_table[w])
            for w in sorted(ref.neighbors(x1), key=VertexName.key)
            if w != dead_name and w.depth == x1.depth and w != p0
            and w in node.neighbor_table
        ]
        chunk_size = max(1, (self._bit_cap() - 32) // (32 + x1.depth))
        chunks = [
            tuple(lost_halves[i : i + chunk_size])
            for i in range(0, len(lost_halves), chunk_size)
        ] or [()]
        direct_ext = node.neighbor_table.get(p0)
        for chunk in chunks:
            body = Unsplit(x1, chunk, len(chunks))
            if direct_ext is not None:
                self._direct(node, direct_ext, body)
            else:
                self._route(node, body, p0, frozenset([dead_name, x1]), n_pre)

    def _maybe_finish_takeover(self, node: NodeState) -> None:
        t = node.takeover
        if t is None or t.acks < len(t.targets_cur):
            return
        if t.coord_died and node.known_n is None:
            return  # wait for STATE_XFER
        log = changelog_at(self.d, t.n_pre, self.seed)
        self._undo_own_insertion(node, log, t)
        node.name = t.slot
        node.takeover = None
        if node.name.depth:
            pn = partner(node.name)
            if pn in node.neighbor_table:
                node.partner_ext = node.neighbor_table[pn]
            elif not t.absorb:
                # introduce ourselves to the split sibling even though the
                # shrinking edge is currently absent, so either side can
                # initiate its re-creation later
                self._route(node, PartnerAnnounce(node.name, node.ext_id), pn)
        self._after_table_change(node)

    @_on.register
    def _on_state_xfer(self, body: StateXfer, node: NodeState, src: str) -> None:
        node.known_n = body.n - 1
        self.n = node.known_n
        self._maybe_finish_takeover(node)

    def _undo_own_insertion(self, node: NodeState, log, t: TakeoverJob) -> None:
        """Shed the newest vertex's edges, handing the merged ones to the partner."""
        x1 = log.new_vertex
        p = log.split_vertex
        p0 = p.child(0)
        ref = graph_at(self.d, t.n_pre, self.seed)
        old_names = sorted(
            (w for w in ref.neighbors(x1) if w != t.dead), key=VertexName.key
        )
        for w in old_names:
            if w != p0:
                self._direct(node, node.neighbor_table[w], DropName(x1))
        # when the dead node was the split partner (absorb) there is no
        # handover: the shared edges persist under the parent name once the
        # old one is dropped, and the partner is in neither name set
        if not t.absorb and not t.partner_done:
            self._send_partner_handover(node, log, t.n_pre, t.dead)
        partner_is_target = p0 in t.targets_cur
        keep = set(t.targets_cur)
        if partner_is_target:
            keep.add(p)
        for w in old_names:
            if w not in keep:
                node.neighbor_table.pop(w, None)
        if partner_is_target and p0 in node.neighbor_table:
            # the partner's rename to the parent name is deterministic; its
            # ack may have carried the old name if it raced the handover
            node.neighbor_table[p] = node.neighbor_table.pop(p0)
        node.partner_ext = None

    def _partner_unsplit_from_reference(self, node: NodeState, log, n_pre: int) -> None:
        """Undo a split when the 1-copy itself was deleted: the partner reclaims.

        A lost half is not adjacent to the partner, and routing straight to it
        could require the very edge being re-created.  Every other reference
        edge of the lost half is intact, so the reconnect request is routed to
        its canonically smallest other neighbor, which hands it over the
        surviving link.
        """
        x1 = log.new_vertex
        renamed = node.name.parent()
        ref = graph_at(self.d, n_pre, self.seed)
        for half in sorted(ref.neighbors(x1), key=VertexName.key):
            if half.depth != x1.depth or half == node.name:
                continue
            relays = sorted(
                (r for r in ref.neighbors(half) if r != x1), key=VertexName.key
            )
            if not relays:
                raise ProtocolError(f"no live relay toward {format_name(half)}")
            request = ReconnectVia(half, renamed, node.ext_id)
            self._route(node, request, relays[0], frozenset([x1]), n_pre)
        self._partner_rename_and_reclaim(node, [])

    @_on.register
    def _on_reconnect_via(self, body: ReconnectVia, node: NodeState, src: str) -> None:
        ext = node.neighbor_table.get(body.half)
        if ext is None:
            raise ProtocolError(
                f"{node.ext_id} cannot relay a reconnect to "
                f"{format_name(body.half)}"
            )
        self._direct(node, ext, Reconnect(body.half, body.name, body.ext))

    @_on.register
    def _on_reconnect(self, body: Reconnect, node: NodeState, src: str) -> None:
        self._link(node, body.name, body.ext)
        self._after_table_change(node)

    @_on.register
    def _on_drop_name(self, body: DropName, node: NodeState, src: str) -> None:
        node.neighbor_table.pop(body.name, None)
        self._after_table_change(node)

    @_on.register
    def _on_unsplit(self, body: Unsplit, node: NodeState, src: str) -> None:
        if node.handover is None:
            node.handover = Handover(chunks_left=body.total)
        handover = node.handover
        handover.chunks_left -= 1
        handover.halves.extend(body.halves)
        if handover.chunks_left <= 0:
            node.handover = None
            node.neighbor_table.pop(body.drop, None)
            self._partner_rename_and_reclaim(node, handover.halves)

    def _partner_rename_and_reclaim(
        self, node: NodeState, halves: list[tuple[VertexName, str]]
    ) -> None:
        """Drop the 0 bit, rebind the neighborhood, and reconnect the lost halves."""
        old = node.name
        renamed = old.parent()
        node.name = renamed
        node.partner_ext = None
        if renamed.depth:
            pn = partner(renamed)
            if pn in node.neighbor_table:
                node.partner_ext = node.neighbor_table[pn]
            else:
                # renaming can land back on an active split name (a deletion
                # unwinding a doubling boundary); re-introduce ourselves to
                # the sibling so pair-edge decisions stay possible
                self._route(node, PartnerAnnounce(renamed, node.ext_id), pn)
        for _name, ext in sorted(
            node.neighbor_table.items(), key=lambda kv: kv[0].key()
        ):
            self._direct(node, ext, Bind(renamed, node.ext_id, old))
        for half, half_ext in sorted(halves, key=lambda kv: kv[0].key()):
            node.neighbor_table[half] = half_ext
            self._direct(node, half_ext, Bind(renamed, node.ext_id))
        self._after_table_change(node)

    # -- replication -------------------------------------------------------

    def _sync_replicas(self, coord: NodeState) -> None:
        for ext in sorted(set(coord.neighbor_table.values())):
            if ext in self.nodes and ext != coord.ext_id:
                self._direct(coord, ext, ReplicaSync(coord.known_n))

    @_on.register
    def _on_replica_sync(self, body: ReplicaSync, node: NodeState, src: str) -> None:
        # a sync can be in flight while the edge to the coordinator goes
        # away; only current neighbors hold replicas
        holds_edge = any(
            is_all_zeros(strip_identity(nb)) and ext == src
            for nb, ext in node.neighbor_table.items()
        )
        if holds_edge:
            node.replica_n = body.n

    # -- observation -------------------------------------------------------

    def topology(self) -> WeightedMultigraph:
        """The simulated unweighted topology, asserting table symmetry."""
        weights = {}
        for node in self.nodes.values():
            if node.name is None:
                raise ProtocolError(f"{node.ext_id} has no name at quiescence")
            for name, ext in node.neighbor_table.items():
                other = self.nodes.get(ext)
                if other is None or other.name != name:
                    raise ProtocolError(
                        f"{node.ext_id} binds {format_name(name)} to {ext}, "
                        "which does not match"
                    )
                if other.neighbor_table.get(node.name) != node.ext_id:
                    raise ProtocolError(f"asymmetric edge {node.ext_id} -> {ext}")
                weights[edge_key(node.name, name)] = 1
        names = [x.name for x in self.nodes.values()]
        return WeightedMultigraph(self.d, names, weights)

    def _common_checks(self) -> None:
        for node in self.nodes.values():
            if node.attach_links:
                raise ProtocolError(f"{node.ext_id} still holds attach links")
            if node.takeover is not None or node.handover is not None:
                raise ProtocolError(f"{node.ext_id} is still mid-takeover")
        topo = self.topology()
        ref = graph_at(self.d, self.n, self.seed)
        if topo.vertices != ref.vertices or topo.weights.keys() != ref.weights.keys():
            raise ProtocolError(
                f"simulated topology diverged from the reference at n = {self.n}"
            )
        for node in self.nodes.values():
            deg = len(node.neighbor_table)
            if not (self.d // 2 <= deg <= self.d):
                raise ProtocolError(
                    f"{node.ext_id} has degree {deg} outside [d/2, d]"
                )
        coord = self._coordinator()
        if coord.known_n != self.n:
            raise ProtocolError("coordinator count diverged")
        # exactly the coordinator's neighbors hold a replica, and it is current
        replicas = {x.ext_id: x.replica_n for x in self.nodes.values()}
        holders = {ext: n for ext, n in replicas.items() if n is not None}
        expected = dict.fromkeys(coord.neighbor_table.values(), self.n)
        if holders != expected:
            raise ProtocolError(f"replicas {holders} differ from {expected}")


def run_script(
    d: int,
    seed: int,
    events: list[AdversaryEvent],
    snapshot_dir: str | None = None,
) -> SimReport:
    """Execute an adversary script, one event to quiescence at a time.

    After every event the simulated topology must equal the unweighted
    reference, degrees stay within [d/2, d], and both the weighted and the
    unweighted change between consecutive references, as the growth log of
    the step records them, stay within 5d/2.
    A failing event re-raises its error, same type, prefixed with the event
    index, op, ext id, the vertex count before the event and the round.
    """
    net = SimNetwork(d, seed)
    per_event: list[dict] = []
    for idx, ev in enumerate(events):
        net.reset_counters()
        n_before = net.n
        op = "insert" if isinstance(ev, InsertEvent) else "delete"
        try:
            if op == "insert":
                net.insert(ev.ext_id, ev.attach)
            else:
                net.delete(ev.ext_id)
            log = changelog_at(d, max(n_before, net.n), seed)
            if max(log.cost, log.topology_changes) > 5 * d // 2:
                raise ProtocolError(
                    f"topology change exceeds 5d/2 (weighted {log.cost}, "
                    f"unweighted {log.topology_changes})"
                )
        except (ScriptError, ProtocolError) as exc:
            raise type(exc)(
                f"event {idx} ({op} {ev.ext_id!r}, n = {n_before}, "
                f"round {net.rounds}): {exc}"
            ) from exc
        per_event.append(
            {
                "index": idx,
                "op": op,
                "id": ev.ext_id,
                "n_after": net.n,
                "rounds": net.rounds,
                "messages": net.messages,
                "bits": net.bits,
                "topology_changes": log.topology_changes,
            }
        )
        if snapshot_dir is not None:
            path = os.path.join(snapshot_dir, f"event{idx:04d}.graph")
            with open(path, "w", newline="\n") as fp:
                fp.write(graph_to_text(net.topology()))
    final_text = graph_to_text(net.topology())
    digest_src = json.dumps(per_event, sort_keys=True) + final_text
    digest = hashlib.sha256(digest_src.encode()).hexdigest()
    return SimReport(
        d=d, seed=seed, events=per_event, final_graph_text=final_text, digest=digest
    )


def report_to_json(report: SimReport) -> str:
    fields = {
        "d": report.d,
        "seed": report.seed,
        "events": report.events,
        "final_graph": report.final_graph_text,
        "digest": report.digest,
    }
    return json.dumps(fields, sort_keys=True, indent=2) + "\n"
