import math
import random
import re
from dataclasses import dataclass, fields
from functools import cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from expanderseq import selfheal
from expanderseq.grower import bl_expander, changelog_at, graph_at
from expanderseq.multigraph import (
    WeightedMultigraph,
    bfs_distances,
    graph_to_text,
    graphs_equal,
)
from expanderseq.names import VertexName, format_name, locus, strip_identity
from expanderseq.selfheal import (
    Ack,
    Bind,
    Body,
    DeleteEvent,
    EdgeMake,
    Handover,
    InsertEvent,
    NodeState,
    ProtocolError,
    ScriptError,
    SimNetwork,
    TakeoverJob,
    Unsplit,
    parse_script,
    report_to_json,
    run_script,
)


def unweighted(g):
    return WeightedMultigraph(g.d, g.vertices, {e: 1 for e in g.weights})


def grow_net(d, seed, target_n, rng_seed=3):
    net = SimNetwork(d, seed)
    rng = random.Random(rng_seed)
    live = sorted(net.nodes)
    k = 0
    while net.n < target_n:
        ext = f"x{k}"
        k += 1
        net.insert(ext, rng.sample(live, min(len(live), 2)))
        live.append(ext)
    return net


def make_script(n_events, insert_frac, rng_seed, base=4):
    rng = random.Random(rng_seed)
    events = []
    live = [f"g{i}" for i in range(base)]
    n = base
    k = 0
    for _ in range(n_events):
        if n > base and rng.random() > insert_frac:
            victim = rng.choice(live)
            events.append(DeleteEvent(victim))
            live.remove(victim)
            n -= 1
        else:
            ext = f"n{k:04d}"
            k += 1
            attach = tuple(rng.sample(live, min(len(live), rng.randint(1, 3))))
            events.append(InsertEvent(ext, attach))
            live.append(ext)
            n += 1
    return events


AIMS = ("insert", "coordinator", "newest", "partner", "random")


def adversary_script(d, seed, moves):
    """Turn ``(aim, pick)`` moves into a script, aiming deletions by name.

    ``aim`` indexes ``AIMS``: an insert attaching to 1-3 live nodes, or the
    deletion of the coordinator, the newest vertex, its split partner (the 0
    copy of the vertex that split last) or a random node.  ``pick`` seeds the
    random choices.  A deletion at the base clique becomes an insert.  The
    names are read off a live network that runs each event as it is chosen.
    """
    net = SimNetwork(d, seed)
    events = []
    for aim, pick in moves:
        rng = random.Random(pick)
        live = sorted(net.nodes)
        if AIMS[aim] == "insert" or net.n == d // 2 + 1:
            size = min(len(live), rng.randint(1, 3))
            ev = InsertEvent(f"n{len(events):04d}", tuple(rng.sample(live, size)))
            net.insert(ev.ext_id, ev.attach)
        else:
            log = changelog_at(d, net.n, seed)
            by_name = {x.name: x.ext_id for x in net.nodes.values()}
            victim = {
                "coordinator": next(x for x in live if net.nodes[x].is_coordinator),
                "newest": by_name[log.new_vertex],
                "partner": by_name[log.split_vertex.child(0)],
                "random": rng.choice(live),
            }[AIMS[aim]]
            ev = DeleteEvent(victim)
            net.delete(victim)
        events.append(ev)
    return events


@pytest.fixture
def full_walk_agrees(monkeypatch):
    """After every event, run the full walk too: it must agree with the check
    of the nodes the event wrote, both passing or both failing."""
    check = SimNetwork._common_checks

    def both(self, since_n=None):
        if since_n is None:
            return check(self)
        failures = []
        for args in ((since_n,), ()):
            try:
                check(self, *args)
            except ProtocolError as exc:
                failures.append(exc)
        assert len(failures) in (0, 2), failures
        if failures:
            raise failures[0]

    monkeypatch.setattr(SimNetwork, "_common_checks", both)


def targeted_moves(n_events, rng_seed):
    """Deletions (45% of moves) split evenly over the four aims."""
    rng = random.Random(rng_seed)
    return [
        (rng.randint(1, 4) if rng.random() < 0.45 else 0, rng.randrange(1 << 32))
        for _ in range(n_events)
    ]


# -- routing ---------------------------------------------------------------


def test_route_to_neighbor_is_direct():
    net = SimNetwork(6, 1)
    node = net.nodes["g0"]
    nb = sorted(node.neighbor_table)[0]
    assert net.route_next_hop(node, nb) == nb


def test_route_to_self_is_noop():
    net = SimNetwork(6, 1)
    node = net.nodes["g0"]
    assert net.route_next_hop(node, node.name) is None


def test_route_on_bl_expander_matches_bfs():
    net = grow_net(6, 1, 8)
    g = graph_at(6, 8, 1)
    by_name = {x.name: x for x in net.nodes.values()}
    zero = next(v for v in g.vertices if strip_identity(v) == VertexName(0))
    for src in g.vertices:
        dist = bfs_distances(g.neighbors, src)
        cur = by_name[src]
        hops = 0
        while strip_identity(cur.name) != VertexName(0):
            cur = by_name[net.route_next_hop(cur, VertexName(0))]
            hops += 1
            assert hops <= 10
        assert hops == dist[zero]


@pytest.mark.parametrize("target_n", [9, 11, 13])
def test_route_delivers_everywhere_mid_cycle(target_n):
    net = grow_net(6, 1, target_n)
    g = graph_at(6, target_n, 1)
    by_name = {x.name: x for x in net.nodes.values()}
    for src in g.vertices:
        dist = bfs_distances(g.neighbors, src)
        for dst in g.vertices:
            if dst == src:
                continue
            cur = by_name[src]
            hops = 0
            while strip_identity(cur.name) != strip_identity(dst):
                cur = by_name[net.route_next_hop(cur, dst)]
                hops += 1
                assert hops <= dist[dst] + 2, (
                    f"{format_name(src)} -> {format_name(dst)}"
                )


# -- insertion ---------------------------------------------------------------


def test_single_insertion_matches_reference():
    net = SimNetwork(6, 1)
    net.insert("alpha", ["g2"])
    assert net.n == 5
    assert graphs_equal(net.topology(), unweighted(graph_at(6, 5, 1)))


def test_insertion_round_and_message_budgets():
    net = SimNetwork(6, 1)
    rng = random.Random(11)
    live = sorted(net.nodes)
    diam_cache = {}
    for k in range(40):
        net.reset_counters()
        ext = f"y{k}"
        net.insert(ext, rng.sample(live, min(len(live), 3)))
        live.append(ext)
        n = net.n
        g = graph_at(6, n - 1, 1)
        if n not in diam_cache:
            diam_cache[n] = max(
                max(bfs_distances(g.neighbors, v).values()) for v in g.vertices
            )
        assert net.rounds <= 4 * diam_cache[n] + 14
        assert net.messages <= 40 * math.ceil(math.log2(n))


def test_insertion_rejects_bad_attach():
    net = SimNetwork(6, 1)
    with pytest.raises(ScriptError):
        net.insert("a", [])
    with pytest.raises(ScriptError):
        net.insert("a", ["nope"])
    net.insert("a", ["g0"])
    with pytest.raises(ScriptError):
        net.insert("a", ["g0"])


def test_stale_attach_links_are_dropped():
    net = SimNetwork(6, 1)
    net.insert("alpha", ["g1", "g2", "g3"])
    for node in net.nodes.values():
        assert not node.attach_links


@pytest.mark.parametrize("leftover, message", [
    ("attach-link", "still holds attach links"),
    ("takeover-job", "still mid-takeover"),
    ("handover", "still mid-takeover"),
    ("dropped-edge", "simulated topology diverged"),
    ("swapped-binding", "simulated topology diverged"),
    ("extra-entry", "simulated topology diverged"),
    ("shared-name", "shares its name with g2"),
    ("no-name", "has no name"),
    ("foreign-name", "has a name not in G_n"),
    ("coordinator-count", "has coordinator count 10"),
    ("extra-replica", "holds replica 9, expected None"),
    ("stale-replica", "holds replica 8, expected 9"),
])
def test_common_checks_reject_leftover_state(leftover, message):
    net = grow_net(6, 1, 9)
    net._common_checks()
    node = net.nodes["g2"]
    culprits = [node]
    if leftover == "attach-link":
        node.attach_links.add("g0")
    elif leftover == "takeover-job":
        slot = VertexName(0, (0,))
        node.takeover = TakeoverJob(
            dead=slot, slot=slot, absorb=False, n_pre=9, coord_died=False,
            targets_cur=frozenset(),
        )
    elif leftover == "handover":
        node.handover = Handover(chunks_left=1)
    elif leftover == "dropped-edge":
        name, ext = min(node.neighbor_table.items())
        del node.neighbor_table[name]
        del net.nodes[ext].neighbor_table[node.name]
        culprits.append(net.nodes[ext])
    elif leftover == "swapped-binding":
        (a, x), (b, y) = sorted(node.neighbor_table.items())[:2]
        node.neighbor_table.update({a: y, b: x})
    elif leftover == "extra-entry":
        row = graph_at(6, 9, 1).neighbors(node.name)
        other = next(
            x for x in net.nodes.values() if x is not node and x.name not in row
        )
        node.neighbor_table[other.name] = other.ext_id
    elif leftover == "shared-name":
        twin = NodeState("twin", node.name, dict(node.neighbor_table))
        culprits = [net.nodes.setdefault("twin", twin)]
    elif leftover == "foreign-name":
        node.name = VertexName(99)
    elif leftover == "coordinator-count":
        culprits = [net.nodes["g0"]]
        culprits[0].known_n += 1
    elif leftover == "extra-replica":
        culprits = [net.nodes["x0"]]  # not a coordinator neighbour
        culprits[0].replica_n = net.n
    elif leftover == "stale-replica":
        node.replica_n -= 1
    else:
        culprits = [net.nodes.setdefault("late", NodeState("late", None))]
    with pytest.raises(ProtocolError, match=message) as info:
        net._common_checks()
    text = str(info.value)
    assert "n = 9" in text
    assert any(
        (f"{x.ext_id} ({format_name(x.name)})" if x.name else x.ext_id) in text
        for x in culprits
    ), text


# -- deletion ----------------------------------------------------------------


def test_insert_then_delete_is_identity():
    net = SimNetwork(6, 2)
    net.insert("a", ["g1"])
    net.insert("b", ["a", "g0"])
    before = graph_to_text(net.topology())
    net.insert("c", ["b"])
    net.delete("c")
    assert graph_to_text(net.topology()) == before


def test_delete_arbitrary_node_matches_reference():
    net = grow_net(6, 1, 9)
    net.delete("g2")
    assert net.n == 8
    assert graphs_equal(net.topology(), unweighted(graph_at(6, 8, 1)))


def test_delete_coordinator_transfers_state():
    net = grow_net(6, 1, 8)
    coord = next(x for x in net.nodes.values() if x.is_coordinator)
    net.delete(coord.ext_id)
    assert net.n == 7
    new_coord = next(x for x in net.nodes.values() if x.is_coordinator)
    assert new_coord.known_n == 7
    for ext in new_coord.neighbor_table.values():
        assert net.nodes[ext].replica_n == 7
    assert graphs_equal(net.topology(), unweighted(graph_at(6, 7, 1)))


def test_delete_rejected_at_base_clique():
    net = SimNetwork(6, 1)
    with pytest.raises(ScriptError):
        net.delete("g0")


def test_delete_unknown_ext():
    net = grow_net(6, 1, 6)
    with pytest.raises(ScriptError):
        net.delete("ghost")


def test_delete_at_doubling_boundary():
    net = grow_net(6, 1, 8)
    victims = [e for e in net.nodes if e != "g0"]
    net.delete(victims[0])
    assert net.n == 7
    assert graphs_equal(net.topology(), unweighted(graph_at(6, 7, 1)))


# -- scripts -----------------------------------------------------------------


def test_run_script_error_names_the_event():
    events = [InsertEvent("a", ("g0",)), DeleteEvent("zzz")]
    with pytest.raises(ScriptError) as info:
        run_script(6, 1, events)
    assert str(info.value) == (
        "event 1 (delete 'zzz', n = 5, round 0): ext id 'zzz' does not exist"
    )


def test_parse_script_roundtrip():
    text = (
        '[{"op":"insert","id":"a","attach":["g0"]},'
        '{"op":"delete","id":"a"}]'
    )
    events = parse_script(text)
    assert events == [InsertEvent("a", ("g0",)), DeleteEvent("a")]


def test_parse_script_rejects_malformed():
    for bad in ("{}", "[1]", '[{"op":"x"}]', '[{"op":"insert"}]', "nope",
                '[{"op":"insert","id":null,"attach":["g0"]}]',
                '[{"op":"delete","id":5}]'):
        with pytest.raises(ScriptError):
            parse_script(bad)


def test_empty_script_report():
    rep = run_script(6, 1, [])
    assert rep.events == []
    assert graphs_equal(
        unweighted(graph_at(6, 4, 1)),
        WeightedMultigraph(6, graph_at(6, 4, 1).vertices,
                           {e: 1 for e in graph_at(6, 4, 1).weights}),
    )
    assert rep.digest


def test_twenty_inserts_reach_reference():
    events = []
    live = [f"g{i}" for i in range(4)]
    rng = random.Random(5)
    for k in range(20):
        ext = f"i{k}"
        events.append(InsertEvent(ext, tuple(rng.sample(live, 2))))
        live.append(ext)
    rep = run_script(6, 1, events)
    assert rep.events[-1]["n_after"] == 24
    assert rep.final_graph_text == graph_to_text(unweighted(graph_at(6, 24, 1)))


# Literal digests, total bits and total messages of fixed scripts, which a
# refactor of the simulator must leave unchanged.  d = 10 is left out: its
# signing tie-break still depends on floating-point rounding.
PINNED = {
    "d6-mixed100-seed1": (
        6, 1, lambda: make_script(100, 0.7, 17),
        "9e9d6b6718b854c5e20f77b9d97aacc7920ae445e696c724d7b5453123ecfe38",
        114826, 3943,
    ),
    "d6-churn120-seed1": (
        6, 1, lambda: make_script(120, 0.55, 0),
        "2e2128eb37e842a8533480fde1e82fe1a60d1693b0e291dad0be7166579aa733",
        97802, 3933,
    ),
    "d6-churn120-seed2": (
        6, 2, lambda: make_script(120, 0.55, 5),
        "e7e72af77dc76188f0e0f4987a6e197ae1e67f48e9fbca2bbef6c08fa28a3e3a",
        95335, 3925,
    ),
    "d6-targeted-seed1": (
        6, 1, lambda: adversary_script(6, 1, targeted_moves(100, 0)),
        "27fdf1ae362c2fcb6f33e6b1b06a7264b4639dc62724c5f662ca10b39f6be3e0",
        89527, 3307,
    ),
    "d8-mixed40": (
        8, 1, lambda: make_script(40, 0.7, 2, base=5),
        "7459914f366ae47486c31139c38577e284de9ba2b583bdd12b39a164b547981e",
        44126, 1623,
    ),
    "d12-mixed40": (
        12, 1, lambda: make_script(40, 0.7, 2, base=7),
        "3587e8f54a2cb7511bd2f1571a2d4648e5f913954193f89eb6fe8fedf36574be",
        61465, 2262,
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_mixed_script_deterministic_digest(case):
    d, seed, script, digest, bits, messages = PINNED[case]
    events = script()
    rep1 = run_script(d, seed, events)
    rep2 = run_script(d, seed, events)
    assert report_to_json(rep1) == report_to_json(rep2)
    assert rep1.digest == digest
    assert sum(e["bits"] for e in rep1.events) == bits
    assert sum(e["messages"] for e in rep1.events) == messages


def test_targeted_script_hits_every_aim():
    moves = targeted_moves(100, 0)
    events = adversary_script(6, 1, moves)
    deletes = [
        AIMS[aim]
        for (aim, _), ev in zip(moves, events)
        if isinstance(ev, DeleteEvent)
    ]
    for aim in AIMS[1:]:
        assert deletes.count(aim) >= 5, aim


def test_heavy_churn_across_boundaries():
    for s in (0, 5, 9):
        run_script(6, 1, make_script(120, 0.55, s))


@pytest.mark.parametrize("d", [8, 10])
def test_other_degrees(d):
    events = make_script(40, 0.7, 2, base=d // 2 + 1)
    rep = run_script(d, 1, events)
    assert rep.events


def test_message_bits_within_congest_cap():
    events = make_script(60, 0.7, 23)
    rep = run_script(6, 1, events)
    for e in rep.events:
        # per-message cap is asserted inside the harness; the per-event sum
        # stays proportional to messages * log n
        assert e["bits"] <= e["messages"] * 64 * math.ceil(
            math.log2(max(2, e["n_after"] + 1))
        )


def test_topology_changes_within_bound():
    events = make_script(80, 0.6, 31)
    rep = run_script(6, 1, events)
    assert all(e["topology_changes"] <= 15 for e in rep.events)


ADVERSARY_MOVES = st.lists(
    st.tuples(st.integers(0, len(AIMS) - 1), st.integers(0, 1 << 16)),
    min_size=1, max_size=48,
)


def run_with_log2n(d, moves):
    """Run the adversary's script; yield each event with ceil(log2 n).

    n is the vertex count while the event runs: after an insert, before a
    deletion.
    """
    rep = run_script(d, 1, adversary_script(d, 1, moves))
    for e in rep.events:
        n = e["n_after"] + (1 if e["op"] == "delete" else 0)
        yield e, math.ceil(math.log2(max(2, n)))


# the fixtures only patch the harness, so no state carries between examples
AGREEING_WALKS = settings(
    max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.parametrize("d", [6, 8, 10, 12])
@AGREEING_WALKS
@given(moves=ADVERSARY_MOVES)
def test_generated_adversary_matches_reference(d, moves, full_walk_agrees):
    # run_script raises unless every event ends on the reference topology
    for e, log2n in run_with_log2n(d, moves):
        assert e["messages"] <= 40 * log2n, e


@pytest.mark.parametrize("d", [
    pytest.param(6, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="d = 6 overruns the round budget where ceil(log2 n) is "
        "tightest, e.g. 19 > 18 rounds for the insert that reaches n = 8",
    )),
    8, 10, 12,
])
@AGREEING_WALKS
@given(moves=ADVERSARY_MOVES)
@example(moves=[(0, 0), (0, 0), (0, 0), (0, 65535)])
def test_generated_adversary_round_budget(d, moves, full_walk_agrees):
    for e, log2n in run_with_log2n(d, moves):
        assert e["rounds"] <= 6 * log2n, e


def hop_rule(neighbors, dist, here):
    """The routers' hop out of ``here``: the smallest-named neighbour one
    step nearer than ``here``'s nearest vertex; when ``dist`` excludes every
    vertex of ``here``, the nearest reachable neighbour instead."""
    near = min((dist[v] for v in here if v in dist), default=None)
    steps = [
        w
        for v in here
        for w in neighbors(v)
        if w in dist and w not in here and (near is None or dist[w] == near - 1)
    ]
    return min(steps, key=lambda w: (dist[w], w), default=None)


def old_elect_for_deletion(net, dead):
    """The hand-written rule the routers replaced: the unique ex-neighbour
    covering the dead node's hop to the coordinator with a zero tail."""
    level = dead.name.depth
    target = VertexName(0, (0,) * level)
    dist = ref_dist_oracle(net.d, level, net.seed, target, frozenset())
    ref = bl_expander(net.d, level, net.seed)
    hop = hop_rule(ref.neighbors, dist, {dead.name})
    (elected,) = [
        net.nodes[ext]
        for name, ext in dead.neighbor_table.items()
        if hop in locus(name, level) and not any(name.bits[level:])
    ]
    return elected


def old_elect_for_coordinator_deletion(net, dead, n):
    """The replica holder named by the dead coordinator's exact hop."""
    newest = changelog_at(net.d, n, net.seed).new_vertex
    dist = true_dist_oracle(net.d, net.seed, n, newest, frozenset())
    hop = hop_rule(graph_at(net.d, n, net.seed).neighbors, dist, {dead.name})
    (elected,) = [
        net.nodes[ext] for name, ext in dead.neighbor_table.items() if name == hop
    ]
    return elected


@pytest.mark.parametrize("d", [6, 8])
@settings(max_examples=40)
@given(moves=ADVERSARY_MOVES)
@example(moves=[(0, 0), (0, 0), (1, 0)])  # the third move deletes the coordinator
def test_elections_match_the_old_local_rules(d, moves):
    """Both elections pick, at every deletion, the node the old rules picked."""
    elect = SimNetwork._elect_for_deletion
    elect_coord = SimNetwork._elect_for_coordinator_deletion
    elected = []

    def checked(net, dead):
        node = elect(net, dead)
        assert node.ext_id == old_elect_for_deletion(net, dead).ext_id
        elected.append(node)
        return node

    def checked_coord(net, dead, n):
        node = elect_coord(net, dead, n)
        assert node.ext_id == old_elect_for_coordinator_deletion(net, dead, n).ext_id
        elected.append(node)
        return node

    events = adversary_script(d, 1, moves)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimNetwork, "_elect_for_deletion", checked)
        mp.setattr(SimNetwork, "_elect_for_coordinator_deletion", checked_coord)
        run_script(d, 1, events)
    assert len(elected) == sum(isinstance(e, DeleteEvent) for e in events)


def test_unsplit_handover_spans_two_chunks(monkeypatch):
    """At d = 20 the bit cap packs fewer halves than a split can lose."""
    unsplits = []
    real_send = SimNetwork._send

    def spy(self, src_ext, dst_ext, msg):
        body = msg.body
        if isinstance(body, Unsplit) and all(b is not body for b in unsplits):
            unsplits.append(body)
        real_send(self, src_ext, dst_ext, msg)

    monkeypatch.setattr(SimNetwork, "_send", spy)
    # each insert attaches to g0 and the previous newcomer, reaching n = 22
    events = [
        InsertEvent(f"x{k}", ("g0",) + ((f"x{k - 1}",) if k else ()))
        for k in range(11)
    ]
    events.append(DeleteEvent("g3"))
    rep = run_script(20, 1, events)
    assert [(b.total, len(b.halves)) for b in unsplits] == [(2, 8), (2, 1)]
    assert rep.digest == (
        "5bb87e67f2558edc9f13bc9aaadfaa858f7c00155f7f8429396d4873d00ede58"
    )


def first_call_at(n, handler, mutate):
    """``handler`` that also runs ``mutate(node, body)`` once, the first time
    it handles a body while the vertex count is ``n``."""
    fired = []

    def mutated(net, body, node, src):
        handler(net, body, node, src)
        if net.n == n and not fired:
            fired.append(node.ext_id)
            mutate(node, body)

    return mutated


def rebind_to_other_neighbour(node, body):
    node.neighbor_table[body.name] = min(
        ext for name, ext in node.neighbor_table.items() if name != body.name
    )


def drop_entry(node, body):
    del node.neighbor_table[body.name]


@pytest.mark.parametrize("body_type, op, n", [
    (Bind, "insert", 12), (Ack, "delete", 15)
])
@pytest.mark.parametrize("mutate", [rebind_to_other_neighbour, drop_entry])
def test_mutated_handler_fails_its_own_event(
    monkeypatch, full_walk_agrees, body_type, op, n, mutate
):
    """A table fault is caught by the check of the event that makes it: the
    insert that reaches n = 12 binds, the deletion down to n = 15 acks."""
    events = [InsertEvent(f"i{k}", ("g0",)) for k in range(12)]
    events += [DeleteEvent("g1"), InsertEvent("j", ("g0",))]
    faulty = next(
        e["index"]
        for e in run_script(6, 1, events).events
        if (e["op"], e["n_after"]) == (op, n)
    )
    handler = selfheal._HANDLERS[body_type]
    monkeypatch.setitem(
        selfheal._HANDLERS, body_type, first_call_at(n, handler, mutate)
    )
    with pytest.raises(ProtocolError, match="diverged") as info:
        run_script(6, 1, events)
    assert str(info.value).startswith(f"event {faulty} ("), info.value


def test_scoped_check_sees_stale_bindings_of_unwritten_nodes():
    """Two non-adjacent nodes trade names and tables: each passes its own
    table check, but their unwritten neighbours now bind the wrong ext."""
    net = grow_net(6, 1, 9)
    net._common_checks()
    b, c = next(
        (b, c)
        for b in net.nodes.values()
        for c in net.nodes.values()
        if b.name < c.name and c.name not in b.neighbor_table
        and not b.is_coordinator and not c.is_coordinator
    )
    b.name, c.name = c.name, b.name
    b.neighbor_table, c.neighbor_table = c.neighbor_table, b.neighbor_table
    b.replica_n, c.replica_n = c.replica_n, b.replica_n
    net._dirty.update([b.ext_id, c.ext_id])
    with pytest.raises(ProtocolError, match="is not bound back by"):
        net._common_checks(net.n)
    with pytest.raises(ProtocolError, match="diverged"):
        net._common_checks()


def test_every_body_type_has_exactly_one_handler():
    def descendants(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from descendants(sub)

    # EdgeMake only groups the edge-making bodies and is never sent
    concrete = {
        cls for cls in descendants(Body) if cls.__module__ == selfheal.__name__
    } - {EdgeMake}
    handled = sorted(
        method.__annotations__["body"]
        for name, method in vars(SimNetwork).items()
        if name.startswith("_on_")
    )
    assert handled == sorted(cls.__name__ for cls in concrete)
    assert set(selfheal._HANDLERS) == concrete


def body_table():
    """The rows of the module docstring's body table, as (body, fields, bits)."""
    lines = selfheal.__doc__.splitlines()
    top, head, bottom = [i for i, x in enumerate(lines) if x.startswith("===")]
    starts = [m.start() for m in re.finditer("=+", lines[top])]
    return [
        tuple(line[a:b].strip() for a, b in zip(starts, starts[1:] + [None]))
        for line in lines[head + 1:bottom]
    ]


def test_body_table_matches_the_body_types():
    """Every concrete body has one row, in rank order, naming its fields; a
    row written "as X" has X's fields, plus any it names after "plus"."""
    listed = {}
    for name, cell, _bits in body_table():
        cls = getattr(selfheal, name, None)
        assert isinstance(cls, type) and issubclass(cls, Body), name
        cell, _, extra = cell.partition(", plus ")
        if cell.startswith("as "):
            want = listed[getattr(selfheal, cell[3:])] + extra.split()
        else:
            want = [] if cell == "(none)" else cell.split(", ")
        listed[cls] = [f.removesuffix(" (optional)") for f in want]
        assert listed[cls] == [f.name for f in fields(cls)], name
    assert list(listed) == sorted(listed, key=lambda cls: cls.rank)
    assert len(listed) == len(body_table())
    assert set(listed) == set(selfheal._HANDLERS)


def test_every_body_subclass_adds_a_field():
    """A sent body type that subclasses another adds a field to it, so no
    type exists only to pick a handler: a body relayed unchanged keeps its
    type, and its handler tells the legs apart."""
    sent = set(selfheal._HANDLERS)
    bare = sorted(
        cls.__name__
        for cls in sent
        for base in cls.__bases__
        if base in sent and len(fields(cls)) <= len(fields(base))
    )
    assert bare == []


def test_body_without_handler_is_a_protocol_error():
    @dataclass(frozen=True)
    class Stray(Body):
        rank = selfheal.ADD_NOTIFY
        bits = 8

    net = SimNetwork(6, 1)
    net._direct(net.nodes["g0"], "g1", Stray())
    with pytest.raises(ProtocolError, match="^no handler for Stray$"):
        net.run_to_quiescence()


def test_clear_route_cache_empties_every_table():
    """Found by ``cache_clear``, so a table added later is checked too."""
    tables = [
        table
        for table in vars(selfheal).values()
        if hasattr(table, "cache_clear") and table.__module__ == selfheal.__name__
    ]
    run_script(6, 1, [InsertEvent("x0", ("g0",)), DeleteEvent("g1")])
    assert tables and all(table.cache_info().currsize for table in tables)
    selfheal.clear_route_cache()
    assert [table.cache_info().currsize for table in tables] == [0] * len(tables)


def true_dist_oracle(d, seed, n, dst, exclude):
    """Exact-route distances with the exclusion tested per visited vertex."""
    g = graph_at(d, n, seed)
    (src,) = [v for v in g.vertices if strip_identity(v) == strip_identity(dst)]
    dead = {strip_identity(x) for x in exclude}
    return bfs_distances(g.neighbors, src, lambda w: strip_identity(w) in dead)


def ref_dist_oracle(d, i, seed, target, exclude):
    """Reference-route distances with the exclusion tested per visited vertex."""
    return bfs_distances(
        bl_expander(d, i, seed).neighbors,
        target,
        lambda w: any(w in locus(x, i) for x in exclude),
    )


def route_dist_oracle(d, seed, n, level, dst, exclude):
    """What ``selfheal._route_dist`` must return for the same arguments, as a
    map from each reached vertex's name to its distance."""
    if n is not None:
        return true_dist_oracle(d, seed, n, dst, exclude)
    return ref_dist_oracle(d, level, seed, min(locus(dst, level)), exclude)


def dist_by_name(d, seed, n, level, dist):
    """``_route_dist``'s distances by position as a map from name to distance,
    leaving out the positions it marks unreached (255)."""
    names = selfheal._route_table(d, seed, n, level).names
    assert len(dist) == len(names)
    return {names[p]: k for p, k in enumerate(dist) if k != 255}


@pytest.mark.parametrize("d", [6, 8])
@settings(max_examples=20)
@given(moves=ADVERSARY_MOVES)
@example(moves=targeted_moves(40, 0))
def test_route_distances_match_identity_oracle(d, moves):
    route_dist = selfheal._route_dist

    def checked(*args):
        dist = route_dist(*args)
        assert dist_by_name(*args[:4], dist) == route_dist_oracle(*args)
        return dist

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selfheal, "_route_dist", checked)
        run_script(d, 1, adversary_script(d, 1, moves))


def test_exclusions_match_by_identity_under_any_name():
    """Routes exclude a dead vertex by its current name; the table also
    excludes it under an older or a later name of the same vertex."""
    d, seed, n, level = 6, 1, 11, 1
    g = graph_at(d, n, seed)
    dst = min(g.vertices)
    for v in sorted(g.vertices - {dst}):
        for alias in (v, strip_identity(v), v.child(0)):
            exclude = frozenset([alias])
            dist = selfheal._route_dist(d, seed, n, None, dst, exclude)
            assert dist_by_name(d, seed, n, None, dist) == (
                true_dist_oracle(d, seed, n, dst, exclude)
            )
    ref = bl_expander(d, level, seed)
    target = min(ref.vertices)
    for v in sorted(ref.vertices - {target}):
        for alias in (v, v.parent(), v.child(1)):
            exclude = frozenset([alias])
            dist = selfheal._route_dist(d, seed, None, level, target, exclude)
            assert dist_by_name(d, seed, None, level, dist) == (
                ref_dist_oracle(d, level, seed, target, exclude)
            )


@pytest.mark.parametrize("length", [254, 255])
def test_route_distances_past_a_byte_raise(monkeypatch, length):
    """On a path of ``length`` positions the far end is at distance
    ``length - 1``: 253 fits a byte, and 254 would alias the exclusion mark."""
    names = tuple(VertexName(b) for b in range(length))
    adj = tuple(tuple(q for q in (p - 1, p + 1) if 0 <= q < length)
                for p in range(length))
    path = selfheal._RouteTable(names, {v: p for p, v in enumerate(names)}, adj, None)
    monkeypatch.setattr(selfheal, "_route_table", lambda *key: path)
    # a key no growth state has (d = 0), so the memo holds no real distances
    key = (0, 1, length, None, names[0], frozenset())
    if length == 254:
        assert selfheal._route_dist(*key) == bytes(range(254))
    else:
        with pytest.raises(ProtocolError, match="route distance 254 exceeds 253"):
            selfheal._route_dist(*key)


def test_route_distance_overflow_fails_its_event(monkeypatch):
    """Only a missing step or a missing carrier sends a message to the
    escape hop: a distance past a byte, raised under the hop rule, fails
    the event with its own message."""

    def overflow(*key):
        raise ProtocolError("route distance 254 exceeds 253")

    monkeypatch.setattr(selfheal, "_route_dist", overflow)
    events = [InsertEvent(f"x{i}", ("g0",)) for i in range(6)]
    with pytest.raises(ProtocolError) as info:
        run_script(6, 1, events)
    assert str(info.value) == (
        "event 5 (insert 'x5', n = 9, round 3): route distance 254 exceeds 253"
    )


@pytest.mark.parametrize("d", [6, 8])
@settings(max_examples=20)
@given(moves=ADVERSARY_MOVES)
@example(moves=targeted_moves(40, 0))
@example(moves=targeted_moves(48, 2))  # at d = 6 too, hops no neighbour carries
def test_hops_match_the_name_keyed_rule(d, moves):
    """Every ``_hop`` picks what the rule on names picks: ``hop_rule`` over
    the graph's rows and ``bfs_distances``, then the smallest neighbour
    carrying the chosen vertex; where there is none, both fail alike."""
    hop = SimNetwork._hop
    oracle = cache(route_dist_oracle)

    def checked(net, node, dst, exclude, n, level):
        if n is None:
            g = bl_expander(net.d, level, net.seed)
            here = locus(node.name, level)
        else:
            g = graph_at(net.d, n, net.seed)
            x = strip_identity(node.name)
            here = {v for v in g.vertices if strip_identity(v) == x}
        best = hop_rule(g.neighbors, oracle(net.d, net.seed, n, level, dst, exclude), here)
        carriers = [] if best is None else sorted(
            nb for nb in node.neighbor_table if best in locus(nb, best.depth)
        )
        if carriers:
            got = hop(net, node, dst, exclude, n, level)
            assert got == carriers[0]
            return got
        cause = "^no hop from " if best is None else " has no physical neighbor matching "
        with pytest.raises(ProtocolError, match=cause) as failed:
            hop(net, node, dst, exclude, n, level)
        raise failed.value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimNetwork, "_hop", checked)
        run_script(d, 1, adversary_script(d, 1, moves))


@pytest.mark.parametrize("d", [6, 8])
def test_route_tables_index_their_graphs(d):
    """Each G_n with n <= 300 and each reference graph up to level 6: the
    names in canonical order, the index a bijection onto the positions (by
    identity in G_n, by name in a reference graph) and each position's
    neighbours the graph's row, in row order."""
    seed = 1
    graphs = [(n, None) for n in range(d // 2 + 1, 301)]
    graphs += [(None, level) for level in range(7)]
    for n, level in graphs:
        g = bl_expander(d, level, seed) if n is None else graph_at(d, n, seed)
        table = selfheal._route_table.__wrapped__(d, seed, n, level)
        names = table.names
        assert list(names) == sorted(g.vertices)
        key = strip_identity if n is not None else (lambda v: v)
        assert sorted(table.index.values()) == list(range(len(names)))
        assert all(names[table.index[key(v)]] == v for v in names)
        assert [[names[q] for q in row] for row in table.adj] == [
            list(g.neighbors(v)) for v in names
        ]
