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
* deletion: the ex-neighbor bound to the dead node's own next hop toward
  the coordinator (the routers' hop rule, which each ex-neighbor can
  evaluate alone) reports to the coordinator, which routes a takeover to
  the newest vertex; that vertex first wires itself into the deleted slot,
  then undoes its own insertion (its split partner renames back and
  reclaims the merged edges) and assumes the deleted name, pulling the
  coordinator state if the coordinator died.
  When the newest vertex itself was deleted, the takeover goes to its split
  partner, which performs the undo alone.

A message travels hop by hop: each carrier forwards it toward the vertex
one step nearer, by BFS distance, to the image of ``dst`` than its own
image, smallest name first.  A message that carries the vertex count
(``n_hint``) routes in the exact G_n, where a name's image is the vertex
with its persistent identity: knowing n pins the whole topology, including
the shrinking edges between split partners that the references lack.  Any
other message routes in the doubled reference graph of the level its first
forwarder pins, where a name's image is its locus.  Each route graph is held
once as a table of integer positions in canonical name order, with each
position's neighbors' positions, and the BFS distances are memoized per
destination and exclusions as a sequence by position; a hop compares
positions, which order as the names do, and turns only the vertex it picks
back into a name.  ``_hop`` raises ``_NoHop`` for its two designed failures,
no step nearer and no physical neighbor carrying the step, and only these
send a message to ``_escape_hop``; any other ``ProtocolError``, such as a
distance past 253, fails the event.

Every message carries one body: the body's type selects its handler, and
its fields determine the bits it is charged, with ``name(v)`` = 9 + depth
of v and ``int(k)`` = bit length of k + 1.  An ``old`` name is implied by
a rename and costs nothing, ``n`` in the ADD_NOTIFY bodies is the harness's
vertex count, and a relay leg costs what the leg it relays costs.  A body
relayed unchanged (``NeighborEntry``, ``ReconnectVia``) keeps its type on
both legs, and its handler tells them apart by whether this node is the
body's end; a relay with a type of its own adds a field.

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

After every event the harness checks the network against G_n: globally
(names, the coordinator's count, replica holders) and table by table for the
O(d) nodes the event wrote or whose G_n row it changed; the one dispatch all
handlers run through records the nodes they write.  The full walk over every
table runs after a script's last event, and in the test suite after every
event of the generated scripts.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

from .grower import bl_expander, changelog_at, graph_at, split_n
from .multigraph import WeightedMultigraph, edge_key, graph_to_text
from .multigraph import expansion_cost  # noqa: F401  perfbench's tracer binds it
from .names import VertexName, format_name, is_all_zeros, locus, partner
from .names import strip_identity

MSG_BIT_CAP_FACTOR = 64
ROUND_LIMIT = 100_000


class ProtocolError(RuntimeError):
    """The simulated protocol reached a state the design rules out."""


class _NoHop(ProtocolError):
    """No step toward the target, or no neighbor carrying it: a hop escapes."""


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
    """One neighbor-table entry of the splitting vertex: routed to the attach
    neighbor, which pushes it unchanged over the attach link to the new node."""

    name: VertexName
    ext: str
    new_ext: str
    rank = NEIGHBOR_LIST
    bits = property(lambda b: _name_bits(b.name) + 24)


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
    """Renaming partner -> a relay next to ``half`` (routed), which hands it
    unchanged to ``half``: bind the renamed partner."""

    half: VertexName
    name: VertexName
    ext: str
    rank = UNDO_STEP
    bits = property(lambda b: _name_bits(b.name) + _name_bits(b.half) + 16)


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
    """A new node until it is wired: its relay, and the neighbors and
    entries it awaits, which it learns with its name."""

    relay_ext: str
    expected_neighbors: frozenset[VertexName] = frozenset()
    entries_left: int = 0


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
    except RecursionError as exc:
        raise ScriptError("script nests arrays or objects too deeply") from exc
    if not isinstance(raw, list):
        raise ScriptError("script must be a JSON array")
    events: list[AdversaryEvent] = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "op" not in item:
            raise ScriptError(f"event {i}: expected an object with an 'op'")
        op = item["op"]
        if op not in ("insert", "delete"):
            raise ScriptError(f"event {i}: unknown op {op!r}")
        if not isinstance(item.get("id"), str):
            raise ScriptError(f"event {i}: {op} needs a string 'id'")
        if op == "insert":
            attach = item.get("attach", [])
            if not isinstance(attach, list) or not all(
                isinstance(a, str) for a in attach
            ):
                raise ScriptError(f"event {i}: 'attach' must be a string list")
            events.append(InsertEvent(item["id"], tuple(attach)))
        else:
            events.append(DeleteEvent(item["id"]))
    return events


class _RouteTable(NamedTuple):
    """One route graph on integer positions.

    ``names`` holds the vertices in canonical order, so comparing positions
    compares names; ``index`` maps a name's key to its position, the key
    being its persistent identity in G_n (``level`` None) and the name itself
    in a reference graph; ``adj`` lists each position's neighbors' positions
    in row order.
    """

    names: tuple[VertexName, ...]
    index: dict[VertexName, int]
    adj: tuple[tuple[int, ...], ...]
    level: int | None

    def image(self, v: VertexName) -> tuple[int, ...]:
        """The positions a name stands for: the vertex with its identity in
        G_n (none once that vertex is gone), or its locus at ``level``."""
        if self.level is None:
            p = self.index.get(strip_identity(v))
            return () if p is None else (p,)
        return tuple(self.index[x] for x in locus(v, self.level))


@cache
def _route_table(d: int, seed: int, n: int | None, level: int | None) -> _RouteTable:
    """The table of G_n, or of the ``level``-th doubled reference graph when
    ``n`` is None.  Keyed by integers, like ``_route_dist``."""
    g = bl_expander(d, level, seed) if n is None else graph_at(d, n, seed)
    names = tuple(g.vertices)  # the map iterates in canonical order
    at = {v: i for i, v in enumerate(names)}
    adj = tuple(tuple(map(at.__getitem__, g.neighbors(v))) for v in names)
    if n is None:
        return _RouteTable(names, at, adj, level)
    return _RouteTable(names, {strip_identity(v): i for v, i in at.items()}, adj, None)


@cache
def _route_dist(
    d: int, seed: int, n: int | None, level: int | None,
    dst: VertexName, exclude: frozenset[VertexName],
) -> bytes:
    """BFS distances, by position in ``_route_table``, to the smallest vertex
    of ``dst``'s image, with the images of the ``exclude``d names never
    entered (the source itself is not tested): one byte a position, 255 for
    unreached, and ProtocolError past 253.  Memoized, without eviction,
    across networks by integers and names, so it keeps no graph alive."""
    table = _route_table(d, seed, n, level)
    adj = table.adj
    dist = bytearray(b"\xff") * len(adj)
    # 254 marks an excluded position, never entered, until the search ends
    dead = [p for x in exclude for p in table.image(x)]
    for p in dead:
        dist[p] = 254
    source = min(table.image(dst))
    dist[source] = 0
    frontier = [source]
    k = 0
    while frontier:
        k += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] == 255:
                    if k == 254:
                        raise ProtocolError(f"route distance {k} exceeds 253")
                    dist[w] = k
                    nxt.append(w)
        frontier = nxt
    return bytes(dist).replace(b"\xfe", b"\xff")


def clear_route_cache() -> None:
    for table in (_route_table, _route_dist):
        table.cache_clear()


# Body type -> the SimNetwork method that handles it, filled once by the
# class body; dispatch is on the exact type, so a subclass needs its own.
_HANDLERS: dict[type[Body], Callable[..., None]] = {}


def _handles(method: Callable[..., None]) -> Callable[..., None]:
    """Register ``method`` for the body type its ``body`` parameter names."""
    _HANDLERS[globals()[method.__annotations__["body"]]] = method
    return method


class SimNetwork:
    """The harness: node states, per-edge message queues, and round loop."""

    def __init__(self, d: int, seed: int = 0):
        self.d = d
        self.seed = seed
        self.nodes: dict[str, NodeState] = {}
        self.n = d // 2 + 1
        self._queues: dict[tuple[str, str], deque[Message]] = {}
        self._seq = 0
        # during a deletion's first phase, the 0 halves whose pair drop waits
        self._deferred_drops: set[str] | None = None
        self.reset_counters()
        base = graph_at(d, self.n, seed)
        ids = {}
        for v in base.vertices:
            ext = f"g{v.base}"
            ids[v] = ext
            self.nodes[ext] = NodeState(ext_id=ext, name=v)
        # canonical edge order fills every table in the same order, whatever
        # the hash order of the vertex set
        for u, v, _ in base.sorted_edges():
            self.nodes[ids[u]].neighbor_table[v] = ids[v]
            self.nodes[ids[v]].neighbor_table[u] = ids[u]
        coord = self.nodes[ids[VertexName(0)]]
        coord.known_n = self.n
        for nb_ext in coord.neighbor_table.values():
            self.nodes[nb_ext].replica_n = self.n
        # ext ids of the nodes written since the last check: every handler
        # runs through ``_on``, and ``insert``/``delete`` add the nodes they
        # write directly
        self._dirty: set[str] = set(self.nodes)

    # -- bookkeeping ------------------------------------------------------

    def reset_counters(self) -> None:
        self.rounds = 0
        self.messages = 0
        self.bits = 0

    def _bit_cap(self) -> int:
        # ceil(log2 n) is the bit length of n - 1 for n >= 2
        return MSG_BIT_CAP_FACTOR * max(1, (max(self.n, 2) - 1).bit_length())

    def _send(self, src_ext: str, dst_ext: str, msg: Message) -> None:
        cap = self._bit_cap()
        if msg.body.bits > cap:
            raise ProtocolError(
                f"{type(msg.body).__name__} body of {msg.body.bits} bits "
                f"exceeds the cap {cap}"
            )
        # no self-delivery: no handler sends to its own ext and no table binds it
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
        its first forwarder chose.  A node with no such hop (``_NoHop``)
        escapes; any other error fails the event.
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
        except _NoHop:
            hop = self._escape_hop(node, msg)
        self._send(src_ext, node.neighbor_table[hop], msg)

    def _escape_hop(self, node: NodeState, msg: Message) -> VertexName:
        """Deterministic last resort for the two causes of ``_NoHop``.

        No step: removing a dead vertex's images can separate a node from
        its split sibling in every reference graph, though partner edges
        keep the physical graph connected.  No carrier: the reference hop
        can be a vertex no physical neighbor stands for, as 0:010 is for
        3:01 routing to its partner 3:00 at level 3.  Hand the message to
        the smallest neighbor other than the last carrier, so the route can
        be longer than the graph distance; the hop budget turns a genuine
        routing bug into a hard error instead of a livelock.
        """
        msg.hops += 1
        if msg.hops > 16 * (node.name.depth + 4):
            raise ProtocolError(f"hop budget exhausted toward {format_name(msg.dst)}")
        pick = min((x for x in node.neighbor_table if x != msg.last), default=msg.last)
        msg.last = node.name
        return pick

    # -- routing ----------------------------------------------------------

    def _exact_next_hop(
        self, node: NodeState, dst: VertexName, n: int, exclude: frozenset[VertexName]
    ) -> VertexName:
        """Next hop on the true shortest path in the exact n-vertex graph."""
        return self._hop(node, dst, exclude, n, None)

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
        target = strip_identity(dst)
        if target == strip_identity(node.name):
            return None
        match = min(
            (nb for nb in node.neighbor_table if strip_identity(nb) == target),
            default=None,
        )
        if match is not None:
            return match
        if level is None:
            level = self._working_level(node)
        return self._hop(node, dst, exclude, None, level)

    def _hop(
        self, node: NodeState, dst: VertexName, exclude: frozenset[VertexName],
        n: int | None, level: int | None,
    ) -> VertexName:
        """The smallest neighbor carrying the hop toward ``dst`` in
        ``_route_table``'s graph: to the smallest-named vertex one step nearer
        than the node's image, or, when that image is all excluded, the
        nearest one.  At a reference level ``dst`` stands for its locus's
        smallest vertex.  Works on positions, whose order is the names'
        order; only the chosen vertex becomes a name again.  Raises
        ``_NoHop`` when there is no such step or no neighbor carries it."""
        if level is not None:
            dst = min(locus(dst, level))
        table = _route_table(self.d, self.seed, n, level)
        dist = _route_dist(self.d, self.seed, n, level, dst, exclude)
        here = table.image(node.name)
        near = min((dist[v] for v in here if dist[v] < 255), default=None)
        steps = [
            w
            for v in here
            for w in table.adj[v]
            if dist[w] < 255 and w not in here and (near is None or dist[w] == near - 1)
        ]
        if not steps:
            where = f"G_{n}" if level is None else f"level {level}"
            path = f"{format_name(node.name)} to {format_name(dst)} in {where}"
            raise _NoHop(f"no hop from {path}")
        best = table.names[min(steps, key=lambda w: (dist[w], w))]
        match = min(
            (nb for nb in node.neighbor_table if best in locus(nb, best.depth)),
            default=None,
        )
        if match is None:
            raise _NoHop(
                f"{node.ext_id} has no physical neighbor matching {format_name(best)}"
            )
        return match

    # -- round loop -------------------------------------------------------

    def run_to_quiescence(self) -> None:
        while self._queues:
            self.rounds += 1
            if self.rounds > ROUND_LIMIT:
                raise ProtocolError("round limit exceeded; protocol livelock")
            deliveries: list[tuple[str, str, Message]] = []
            for (src, dst), q in list(self._queues.items()):
                deliveries.append((dst, src, q.popleft()))
                if not q:
                    del self._queues[(src, dst)]

            def order(item: tuple[str, str, Message]) -> tuple:
                dst, _src, msg = item
                name = self.nodes[dst].name
                name_key = (2, ()) if name is None else (1, name)
                return (name_key, msg.body.rank, msg.seq)

            # every dst exists: delete pops a node only after quiescence
            for dst, src, msg in sorted(deliveries, key=order):
                self.messages += 1
                self.bits += msg.body.bits
                if msg.dst is None:
                    self._on(msg.body, self.nodes[dst], src)
                else:
                    self._send_routed(dst, msg)

    def _settle(self, n_before: int) -> None:
        """End an event: run it to quiescence, clear the per-event flags of
        the nodes it wrote (no other node can have set one), and check it."""
        self.run_to_quiescence()
        for ext in self._dirty & self.nodes.keys():
            self.nodes[ext].pair_hold = None
            self.nodes[ext].announce_inflight = False
        self._common_checks(n_before)

    def _on(self, body: Body, node: NodeState, src: str) -> None:
        """Run the handler of ``body`` at ``node``, the one node it writes."""
        handler = _HANDLERS.get(type(body))
        if handler is None:
            raise ProtocolError(f"no handler for {type(body).__name__}")
        self._dirty.add(node.ext_id)
        handler(self, body, node, src)

    def _after_table_change(self, node: NodeState) -> None:
        self._recheck_pair_edge(node)
        if node.replica_n is not None and not any(
            is_all_zeros(nb) for nb in node.neighbor_table
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
        n_before = self.n
        node = NodeState(ext_id, None, attach_links=set(attach))
        node.joining = Joining(relay_ext=min(attach))
        self.nodes[ext_id] = node
        for a in node.attach_links:
            self.nodes[a].attach_links.add(ext_id)
        self._dirty.update(node.attach_links, [ext_id])
        self._direct(node, node.joining.relay_ext, AddNotify(ext_id, self.n))
        self._settle(n_before)

    @_handles
    def _on_add_notify(self, body: AddNotify, node: NodeState, src: str) -> None:
        self._route(node, AddRelay(body.new_ext, self.n, node.name), VertexName(0))

    @_handles
    def _on_add_relay(self, body: AddRelay, node: NodeState, src: str) -> None:
        if not node.is_coordinator:
            raise ProtocolError("ADD_NOTIFY reached a non-coordinator")
        node.known_n += 1
        self.n = node.known_n
        self._sync_replicas(node)
        self._route(node, NReply(node.known_n, body.new_ext), body.via)

    @_handles
    def _on_n_reply(self, body: NReply, node: NodeState, src: str) -> None:
        self._direct(node, body.new_ext, NRelay(body.n))

    @_handles
    def _on_n_relay(self, body: NRelay, node: NodeState, src: str) -> None:
        """The new node learns n, hence its name and the vertex that splits."""
        log = changelog_at(self.d, body.n, self.seed)
        node.name = log.new_vertex
        node.joining.expected_neighbors = frozenset(log.new_neighbors)
        # one entry per neighbor of the splitting vertex
        node.joining.entries_left = log.n_unsplit_neighbors + log.n_split_neighbors
        split_req = SplitReq(node.ext_id, log.new_vertex, log.split_vertex)
        self._direct(node, node.joining.relay_ext, split_req)

    @_handles
    def _on_split_req(self, body: SplitReq, node: NodeState, src: str) -> None:
        relay = SplitRelay(body.new_ext, body.new_name, body.target, node.name)
        self._route(node, relay, body.target)

    @_handles
    def _on_split_relay(self, body: SplitRelay, node: NodeState, src: str) -> None:
        """The splitting vertex renames to its 0 copy and rewires its edges.

        Its name fixes the growth step, whose log it reads locally.
        """
        new_ext = body.new_ext
        old_name = node.name
        log = changelog_at(self.d, split_n(self.d, old_name), self.seed)
        x0, x1 = old_name.child(0), log.new_vertex
        table = node.neighbor_table
        if table.keys() != set(log.unsplit_neighbors).union(*log.halves):
            raise ProtocolError(f"table of {format_name(old_name)} disagrees with log")
        node.name = x0
        node.partner_ext = new_ext
        node.attach_links.discard(new_ext)
        for w in sorted(table):
            self._route(node, NeighborEntry(w, table[w], new_ext), body.via)
        link = BindLink(x0, node.ext_id, old_name, x1, new_ext)
        for w in log.unsplit_neighbors:
            self._direct(node, table[w], link)
        for kept, lost in log.halves:
            self._direct(node, table[kept], Bind(x0, node.ext_id, old_name))
            self._direct(node, table.pop(lost), DropLink(old_name, x1, new_ext))
        if log.unsplit_neighbors:
            node.neighbor_table[x1] = new_ext
            self._direct(node, new_ext, Bind(x0, node.ext_id))
        self._after_table_change(node)

    @_handles
    def _on_neighbor_entry(
        self, body: NeighborEntry, node: NodeState, src: str
    ) -> None:
        """Relay the entry to the new node, which is still joining: its
        ``entries_left``, set before ``SplitReq`` to the splitter's table size
        (checked against the log before one entry per row is sent), reaches
        0, which alone ends joining, only with the last entry."""
        if node.ext_id != body.new_ext:
            self._direct(node, body.new_ext, body)
        else:
            node.joining.entries_left -= 1
            self._maybe_finish_wiring(node)

    @_handles
    def _on_partner_announce(
        self, body: PartnerAnnounce, node: NodeState, src: str
    ) -> None:
        if node.is_partner_of(body.name):
            node.partner_ext = body.ext
            self._direct(node, body.ext, PartnerReply(node.name, node.ext_id))
            self._after_table_change(node)

    @_handles
    def _on_partner_reply(self, body: PartnerReply, node: NodeState, src: str) -> None:
        if node.is_partner_of(body.name):
            node.partner_ext = body.ext
            node.announce_inflight = False
            self._after_table_change(node)

    @_handles
    def _on_wire(self, body: Wire, node: NodeState, src: str) -> None:
        # takeover wiring: bind the sender under its future identity
        self._bind(node, body.name, body.ext)
        self._direct(node, body.ext, Ack(node.name, node.ext_id))
        self._after_table_change(node)

    @_handles
    def _on_ack(self, body: Ack, node: NodeState, src: str) -> None:
        """Count the ack toward the takeover, which is open: only ``_on_wire``
        acks, once per ``Wire`` that ``_on_takeover`` sends to each target;
        ``targets_cur`` maps them one-to-one (p0 is not in G_{n-1}), the job
        closes only when ``acks`` reaches its size, and an event runs one."""
        node.neighbor_table[body.name] = body.ext
        node.takeover.acks += 1
        self._maybe_finish_takeover(node)

    @_handles
    def _on_bind(self, body: Bind, node: NodeState, src: str) -> None:
        if body.old is not None:
            node.neighbor_table.pop(body.old, None)
        self._bind(node, body.name, body.ext)
        self._after_table_change(node)
        self._maybe_finish_wiring(node)

    @_handles
    def _on_bind_link(self, body: BindLink, node: NodeState, src: str) -> None:
        node.neighbor_table.pop(body.old, None)
        self._bind(node, body.name, body.ext)
        self._link(node, body.new_name, body.new_ext)
        self._after_table_change(node)
        self._maybe_finish_wiring(node)

    @_handles
    def _on_drop_link(self, body: DropLink, node: NodeState, src: str) -> None:
        node.neighbor_table.pop(body.old, None)
        self._link(node, body.new_name, body.new_ext)
        self._after_table_change(node)

    @_handles
    def _on_drop_attach(self, body: DropAttach, node: NodeState, src: str) -> None:
        node.attach_links.discard(body.ext)
        self._after_table_change(node)

    @_handles
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

        A split partner collecting ``Unsplit`` chunks needs no guard: the
        only table change that can reach it meanwhile is a remote-partner
        ``Wire``, which binds a split name (an unsplit slot would have kept
        the pair edge), so it has no unsplit neighbour and no pair edge.
        """
        if node.name is None or node.name.depth == 0:
            return
        if node.joining or node.takeover:
            return  # the role's own completion re-checks the pair edge
        pn = partner(node.name)
        level = node.name.depth
        count = sum(1 for nb in node.neighbor_table if nb.depth < level)
        present = pn in node.neighbor_table
        initiator = node.name < pn
        if present and count == 0 and initiator:
            if self._deferred_drops is not None:
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
        if joining is None or node.name is None or joining.entries_left > 0:
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
        n_before = self.n
        # the last check passed: each neighbour binds the dead node back once
        # under its name, holds no attach link, and holds the current replica
        # if the dead node was the coordinator
        dead = self.nodes.pop(ext_id)
        dead_name = dead.name
        neighbors = [self.nodes[ext] for ext in sorted(dead.neighbor_table.values())]
        self._dirty.update(nb.ext_id for nb in neighbors)
        for nb in neighbors:
            del nb.neighbor_table[dead_name]
            if nb.is_partner_of(dead_name):
                nb.pair_hold = dead_name
                nb.partner_ext = None
        if dead.is_coordinator:
            n = neighbors[0].replica_n
            elected = self._elect_for_coordinator_deletion(dead, n)
            self._send_takeover(elected, dead_name, n, coord_died=True)
        else:
            elected = self._elect_for_deletion(dead)
            self._route(
                elected, DelNotify(dead_name), VertexName(0), frozenset([dead_name])
            )
        self._deferred_drops = deferred = set()
        for nb in neighbors:
            self._after_table_change(nb)
        self.run_to_quiescence()
        self._deferred_drops = None
        for ext in sorted(deferred):
            if ext in self.nodes:
                self._after_table_change(self.nodes[ext])
        self._settle(n_before)

    def _elect_for_deletion(self, dead: NodeState) -> NodeState:
        """The ex-neighbor bound to the dead node's own next hop to the coordinator.

        The hop is the routers' rule in the reference graph of the dead
        node's own level, so every ex-neighbor can evaluate it alone,
        without any knowledge of the vertex count.
        """
        hop = self._hop(dead, VertexName(0), frozenset(), None, dead.name.depth)
        return self.nodes[dead.neighbor_table[hop]]

    def _elect_for_coordinator_deletion(self, dead: NodeState, n: int) -> NodeState:
        """The replica holder bound to the dead coordinator's exact next hop
        toward the newest vertex, which every holder can evaluate alone."""
        newest = changelog_at(self.d, n, self.seed).new_vertex
        hop = self._exact_next_hop(dead, newest, n, frozenset())
        return self.nodes[dead.neighbor_table[hop]]

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

    @_handles
    def _on_del_notify(self, body: DelNotify, node: NodeState, src: str) -> None:
        if not node.is_coordinator:
            raise ProtocolError("DEL_NOTIFY reached a non-coordinator")
        n_pre = node.known_n
        node.known_n -= 1
        self.n = node.known_n
        self._sync_replicas(node)
        self._send_takeover(node, body.deleted, n_pre, coord_died=False)

    @_handles
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
        targets = sorted(graph_at(self.d, n_pre - 1, self.seed).neighbors(slot))
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
        table = node.neighbor_table
        lost_halves = [(w, table[w]) for w in log.lost_halves if w in table]
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
        self._undo_own_insertion(node, changelog_at(self.d, t.n_pre, self.seed), t)
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

    @_handles
    def _on_state_xfer(self, body: StateXfer, node: NodeState, src: str) -> None:
        node.known_n = body.n - 1
        self.n = node.known_n
        self._maybe_finish_takeover(node)

    def _undo_own_insertion(self, node: NodeState, log, t: TakeoverJob) -> None:
        """Shed the newest vertex's edges, handing the merged ones to the partner."""
        x1 = log.new_vertex
        p = log.split_vertex
        p0 = p.child(0)
        old_names = [w for w in log.new_neighbors if w != t.dead]
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
        for half in log.lost_halves:
            relays = sorted(r for r in ref.neighbors(half) if r != x1)
            if not relays:
                raise ProtocolError(f"no live relay toward {format_name(half)}")
            request = ReconnectVia(half, renamed, node.ext_id)
            self._route(node, request, relays[0], frozenset([x1]), n_pre)
        self._partner_rename_and_reclaim(node, [])

    @_handles
    def _on_reconnect_via(self, body: ReconnectVia, node: NodeState, src: str) -> None:
        if node.name == body.half:
            self._link(node, body.name, body.ext)
            self._after_table_change(node)
            return
        ext = node.neighbor_table.get(body.half)
        if ext is None:
            raise ProtocolError(
                f"{node.ext_id} cannot relay a reconnect to "
                f"{format_name(body.half)}"
            )
        self._direct(node, ext, body)

    @_handles
    def _on_drop_name(self, body: DropName, node: NodeState, src: str) -> None:
        node.neighbor_table.pop(body.name, None)
        self._after_table_change(node)

    @_handles
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
            # a deletion unwinding a doubling boundary lands back on an
            # active split name: re-introduce ourselves to the sibling so
            # pair-edge decisions stay possible.  It is never a neighbour:
            # the depth-k name is in cycle k + 1 or at its boundary, where
            # depth-k siblings share no 2-lift edge and no pair edge.
            self._route(node, PartnerAnnounce(renamed, node.ext_id), partner(renamed))
        for _name, ext in sorted(node.neighbor_table.items()):
            self._direct(node, ext, Bind(renamed, node.ext_id, old))
        for half, half_ext in sorted(halves):
            node.neighbor_table[half] = half_ext
            self._direct(node, half_ext, Bind(renamed, node.ext_id))
        self._after_table_change(node)

    # -- replication -------------------------------------------------------

    def _sync_replicas(self, coord: NodeState) -> None:
        for ext in sorted(set(coord.neighbor_table.values())):
            if ext in self.nodes and ext != coord.ext_id:
                self._direct(coord, ext, ReplicaSync(coord.known_n))

    @_handles
    def _on_replica_sync(self, body: ReplicaSync, node: NodeState, src: str) -> None:
        # a sync can be in flight while the edge to the coordinator goes
        # away; only current neighbors hold replicas
        holds_edge = any(
            is_all_zeros(nb) and ext == src
            for nb, ext in node.neighbor_table.items()
        )
        if holds_edge:
            node.replica_n = body.n

    # -- observation -------------------------------------------------------

    def topology(self) -> WeightedMultigraph:
        """The simulated unweighted topology, read off the node tables."""
        weights = {
            edge_key(node.name, name): 1
            for node in self.nodes.values()
            for name in node.neighbor_table
        }
        names = [x.name for x in self.nodes.values()]
        return WeightedMultigraph(self.d, names, weights)

    def _common_checks(self, since_n: int | None = None) -> None:
        """Check the node tables against G_n.

        Global checks: the names are distinct and are exactly the vertices
        of G_n, the coordinator's count is n, and exactly its neighbours hold
        a current replica.  Per node: no attach link or role is left open,
        and the table holds exactly the name's G_n neighbours, each bound to
        the node of that name (so every entry has its mirror).

        With no argument every node is checked: the full walk.  ``since_n``
        is the vertex count at the last check that passed.  Given it, only
        the nodes written since that check and the nodes at the ends of the
        growth-log changes between G_since_n and G_n are checked, and each
        of their entries must also have its mirror.  Those ends are each
        log's raw names that are vertices of G_n: u, u.0, u.1, the unsplit
        neighbours and both halves of each split pair.  The coordinator is
        0:0…0 at the depth of G_n's last name.  Every other node kept its
        table and its G_n row.  Were one of its bindings stale, the node now
        holding that name was written, so it is checked and the mirror of
        the stale entry fails: both checks pass or fail together.
        """
        ref = graph_at(self.d, self.n, self.seed)
        diverged = f"simulated topology diverged from the reference at n = {self.n}"

        def fault(node: NodeState, what: str, at: str = f"at n = {self.n}"):
            name = format_name(node.name)
            return ProtocolError(f"{at}: {node.ext_id} ({name}) {what}")

        nodes = self.nodes
        by_name = {node.name: node for node in nodes.values()}
        if None in by_name or len(by_name) != len(nodes):
            seen: dict[VertexName, NodeState] = {}
            for node in nodes.values():
                if node.name is None:
                    raise ProtocolError(f"at n = {self.n}: {node.ext_id} has no name")
                if seen.setdefault(node.name, node) is not node:
                    raise fault(node, f"shares its name with {seen[node.name].ext_id}")
        if by_name.keys() != ref.vertices:
            for node in nodes.values():
                if node.name not in ref.vertices:
                    raise fault(node, "has a name not in G_n", diverged)
            missing = min(ref.vertices - by_name.keys())
            raise ProtocolError(f"{diverged}: no node is named {format_name(missing)}")

        if since_n is None:
            checked = nodes.values()
        else:
            lo, hi = sorted((since_n, self.n))
            ends: set[VertexName] = set()
            for m in range(lo + 1, hi + 1):
                log = changelog_at(self.d, m, self.seed)
                u = log.split_vertex
                ends.update((u, u.child(0), log.new_vertex), log.unsplit_neighbors)
                ends.update(*log.halves)
            exts = {by_name[x].ext_id for x in ends if x in by_name}
            checked = [nodes[ext] for ext in sorted(exts | self._dirty) if ext in nodes]
        mirrors = since_n is not None
        for node in checked:
            if node.attach_links:
                raise fault(node, "still holds attach links")
            if node.takeover is not None or node.handover is not None:
                raise fault(node, "is still mid-takeover")
            table = node.neighbor_table
            if table.keys() != ref.neighbors(node.name).keys():
                raise fault(node, "has a neighbourhood not in G_n", diverged)
            for name, ext in table.items():
                if ext not in nodes or nodes[ext].name != name:
                    raise fault(node, f"binds {format_name(name)} to {ext}", diverged)
                if mirrors and nodes[ext].neighbor_table.get(node.name) != node.ext_id:
                    raise fault(node, f"is not bound back by {ext}", diverged)

        # 0:0…0 is its depth's smallest name, so it splits first in every cycle
        coord = by_name[VertexName(0, (0,) * next(reversed(ref.vertices)).depth)]
        if coord.known_n != self.n:
            raise fault(coord, f"has coordinator count {coord.known_n}")
        # exactly the coordinator's neighbors hold a replica, and it is current
        holders = {
            node.ext_id: node.replica_n
            for node in nodes.values()
            if node.replica_n is not None
        }
        expected = dict.fromkeys(coord.neighbor_table.values(), self.n)
        if holders != expected:
            ext = min(x for x in holders.keys() | expected.keys()
                      if holders.get(x) != expected.get(x))
            got, want = holders.get(ext), expected.get(ext)
            raise fault(nodes[ext], f"holds replica {got}, expected {want}")
        self._dirty.clear()


def run_script(
    d: int,
    seed: int,
    events: list[AdversaryEvent],
    snapshot_dir: str | None = None,
) -> SimReport:
    """Execute an adversary script, one event to quiescence at a time.

    After every event the simulated topology must equal the unweighted
    reference: each event checks the nodes it wrote and those whose G_n row
    it changed, and the full walk over every node runs once more after the
    last event.  Each event records the unweighted change between the
    consecutive references, as the growth log of the step records it; it
    is within 5d/2 because ``split_next`` holds the weighted cost there.
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
        except (ScriptError, ProtocolError) as exc:
            raise type(exc)(
                f"event {idx} ({op} {ev.ext_id!r}, n = {n_before}, "
                f"round {net.rounds}): {exc}"
            ) from exc
        log = changelog_at(d, max(n_before, net.n), seed)
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
            with open(path, "w", encoding="utf-8", newline="\n") as fp:
                fp.write(graph_to_text(net.topology()))
    net._common_checks()
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
