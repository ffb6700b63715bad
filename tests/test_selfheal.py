import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderseq.grower import changelog_at, graph_at
from expanderseq.multigraph import (
    WeightedMultigraph,
    bfs_distances,
    graph_to_text,
    graphs_equal,
)
from expanderseq.names import VertexName, format_name, strip_identity
from expanderseq.selfheal import (
    DeleteEvent,
    Handover,
    InsertEvent,
    ProtocolError,
    ScriptError,
    SimNetwork,
    TakeoverJob,
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
                "coordinator": by_name[net._coordinator().name],
                "newest": by_name[log.new_vertex],
                "partner": by_name[log.split_vertex.child(0)],
                "random": rng.choice(live),
            }[AIMS[aim]]
            ev = DeleteEvent(victim)
            net.delete(victim)
        events.append(ev)
    return events


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
])
def test_common_checks_reject_leftover_state(leftover, message):
    net = grow_net(6, 1, 9)
    net._common_checks()
    node = net.nodes["g2"]
    if leftover == "attach-link":
        node.attach_links.add("g0")
    elif leftover == "takeover-job":
        slot = VertexName(0, (0,))
        node.takeover = TakeoverJob(
            dead=slot, slot=slot, absorb=False, n_pre=9, coord_died=False,
            targets_cur=frozenset(),
        )
    else:
        node.handover = Handover(chunks_left=1)
    with pytest.raises(ProtocolError, match=message):
        net._common_checks()


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
    for bad in ("{}", "[1]", '[{"op":"x"}]', '[{"op":"insert"}]', "nope"):
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


@pytest.mark.parametrize("d", [6, 8, 10, 12])
@settings(max_examples=120)
@given(moves=ADVERSARY_MOVES)
def test_generated_adversary_matches_reference(d, moves):
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
@settings(max_examples=120)
@given(moves=ADVERSARY_MOVES)
@example(moves=[(0, 0), (0, 0), (0, 0), (0, 65535)])
def test_generated_adversary_round_budget(d, moves):
    for e, log2n in run_with_log2n(d, moves):
        assert e["rounds"] <= 6 * log2n, e
