import re

import pytest

from expanderseq.grower import (
    ConstructionError,
    CycleComplete,
    GrowthState,
    _cycle_seed,
    begin_cycle,
    bl_expander,
    changelog_at,
    check_split_cost,
    check_state_invariants,
    clear_caches,
    finalize_cycle,
    graph_at,
    initial_graph,
    split_n,
    split_next,
    state_at,
    structure_violations,
)
from expanderseq.multigraph import (
    WeightedMultigraph,
    edge_key,
    expansion_cost,
    graph_to_text,
    graphs_equal,
    weighted_degree,
)
from expanderseq.names import (
    VertexName,
    format_name,
    parse_name,
    partner,
    strip_identity,
)


def test_initial_graph_shapes():
    g6 = initial_graph(6)
    assert g6.n == 4
    assert all(weighted_degree(g6, v) == 6 for v in g6.vertices)
    g10 = initial_graph(10)
    assert g10.n == 6
    assert all(weighted_degree(g10, v) == 10 for v in g10.vertices)


def test_initial_graph_rejects_odd_or_small():
    with pytest.raises(ValueError):
        initial_graph(5)
    with pytest.raises(ValueError):
        initial_graph(4)


def test_begin_cycle_state():
    st = begin_cycle(initial_graph(6), seed=1)
    assert len(st.unsplit) == 4 and not st.split and st.log is None
    assert st.target.n == 8
    st2 = begin_cycle(initial_graph(6), seed=1)
    assert graphs_equal(st.target, st2.target)
    assert all(weighted_degree(st.target, v) == 6 for v in st.target.vertices)


def test_first_split_costs():
    st = begin_cycle(initial_graph(6), seed=1)
    log = split_next(st).log
    assert log.cost == 9
    assert log.n_unsplit_neighbors == 3 and log.n_split_neighbors == 0


def test_full_cycle_costs_and_invariants():
    st = begin_cycle(initial_graph(6), seed=1)
    prev = st.current
    costs = []
    while st.unsplit:
        st = split_next(st)
        log = st.log
        check_state_invariants(st)
        check_split_cost(prev, st.current, log)
        assert 2 * log.n_unsplit_neighbors + log.n_split_neighbors == 6
        costs.append(log.cost)
        prev = st.current
    assert costs[-1] == 15  # 5d/2 at the final split
    assert max(costs) == 15
    final = finalize_cycle(st)
    assert final.n == 8
    assert all(v.depth == 1 for v in final.vertices)


@pytest.mark.parametrize("d", [6, 8])
def test_state_carries_the_log_of_its_split(d):
    """Across the first two cycle boundaries, each cached G_n's state holds
    the very log that changelog_at returns for n."""
    base = d // 2 + 1
    for n in range(base + 1, 4 * base + 2):
        assert state_at(d, n, 1).log is changelog_at(d, n, 1)


def test_split_next_exhausted_cycle_signals():
    st = state_at(6, 8, 1)
    assert not st.unsplit
    with pytest.raises(CycleComplete):
        split_next(st)


def test_finalize_requires_completion():
    st = begin_cycle(initial_graph(6), seed=1)
    with pytest.raises(ValueError):
        finalize_cycle(st)


def test_finalize_names_the_differing_edge():
    st = state_at(6, 8, 1)
    weights = st.current.weights
    (u, v), w = min(weights.items())
    weights[(u, v)] = w + 1
    grown = GrowthState(current=st.current.replace(weights=weights), target=st.target)
    diff = f"edge diff ['{format_name(u)}-{format_name(v)}: {w + 1} vs {w}']"
    with pytest.raises(ConstructionError, match=re.escape(diff)):
        finalize_cycle(grown)


def test_graph_at_base_and_boundary():
    assert graphs_equal(graph_at(6, 4, 1), initial_graph(6))
    g8 = graph_at(6, 8, 1)
    assert graphs_equal(g8, bl_expander(6, 1, 1))
    assert all(w == 2 for _, _, w in g8.edges())


def test_graph_at_substep_cost_bound():
    assert expansion_cost(graph_at(6, 7, 1), graph_at(6, 8, 1)) <= 15


def test_graph_at_rejects_small_n():
    with pytest.raises(ValueError):
        graph_at(6, 3, 1)


def test_boundary_step_is_ordinary_consecutive_pair():
    # the cost bound also covers the step crossing a doubling boundary
    c = expansion_cost(graph_at(6, 8, 1), graph_at(6, 9, 1))
    assert c == changelog_at(6, 9, 1).cost
    assert c <= 15


def test_graph_at_deterministic_across_runs():
    text1 = graph_to_text(graph_at(6, 20, 7))
    clear_caches()
    text2 = graph_to_text(graph_at(6, 20, 7))
    assert text1 == text2


def test_seed_changes_sequence_but_keeps_invariants():
    a = graph_at(6, 10, 1)
    b = graph_at(6, 10, 2)
    assert all(weighted_degree(a, v) == 6 for v in a.vertices)
    assert all(weighted_degree(b, v) == 6 for v in b.vertices)


@pytest.mark.parametrize("d", [6, 8, 10])
def test_invariant_suite_two_cycles(d):
    base = d // 2 + 1
    prev = graph_at(d, base, 1)
    for n in range(base + 1, 4 * base + 1):
        st = state_at(d, n, 1)
        log = changelog_at(d, n, 1)
        check_state_invariants(st)
        check_split_cost(prev, st.current, log)
        assert log.cost == 3 * log.n_unsplit_neighbors + 5 * log.n_split_neighbors // 2
        assert log.cost <= 5 * d // 2
        prev = st.current


def test_state_invariants_catch_corruption():
    st = state_at(6, 6, 1)
    weights = dict(st.current.weights)
    key = next(iter(weights))
    weights[key] += 1
    import dataclasses

    broken = dataclasses.replace(
        st, current=st.current.replace(weights=weights)
    )
    with pytest.raises(ConstructionError):
        check_state_invariants(broken)


@pytest.mark.parametrize("corrupt, first_rule", [
    ("partner", "partner edges:"),
    ("non-partner", "weight classes:"),
    ("depths", "name depths invariant:"),
])
def test_structure_violations_name_the_broken_rule(corrupt, first_rule):
    st = state_at(6, 6, 1)
    g, split = st.current, st.split
    weights = dict(g.weights)
    if corrupt == "depths":
        split = frozenset()
    else:
        key = next(
            (a, b) for a, b in weights
            if (a in split and partner(a) == b) == (corrupt == "partner")
        )
        weights[key] += 1
    problems = list(structure_violations(g.replace(weights=weights), split))
    assert problems[0].startswith(first_rule), problems
    # the weight rules come before the degree rule, broken at both endpoints
    assert len(problems) == (1 if corrupt == "depths" else 3)


def unweighted(g):
    return WeightedMultigraph(g.d, g.vertices, dict.fromkeys(g.weights, 1))


@pytest.mark.parametrize("d", [6, 8, 10, 12])
def test_changelog_audits_match_weight_diff(d):
    """The log's counts and neighbourhoods match the graphs, over two doublings."""
    base = d // 2 + 1
    for n in range(base + 1, 4 * base + 1):
        prev, cur = graph_at(d, n - 1, 1), graph_at(d, n, 1)
        log = changelog_at(d, n, 1)
        diff = expansion_cost(prev, cur)
        assert log.cost == diff == sum(abs(new - old) for _, old, new in log.changes)
        assert log.topology_changes == expansion_cost(unweighted(prev), unweighted(cur))
        u = log.split_vertex
        assert split_n(d, u) == n
        kept = {k for k, _ in log.halves}
        assert set(log.unsplit_neighbors) | kept | set(log.lost_halves) == set(
            prev.neighbors(u)
        )
        assert set(log.new_neighbors) == set(cur.neighbors(log.new_vertex))
        matched = state_at(d, n, 1).target.neighbors(u.child(0))
        assert all(k in matched and lost not in matched for k, lost in log.halves)


@pytest.mark.parametrize("d", [6, 8, 12])
def test_log_names_are_the_ends_of_its_identity_edges(d):
    """Up to n = 300, the ends of each step's identity edges, mapped into
    G_n and into G_{n-1}, are the log's raw names that are vertices there:
    the split vertex u, u.0, u.1, the unsplit neighbours and both halves of
    each split pair.  The simulator's scoped check reads its nodes off
    these names."""
    for n in range(d // 2 + 2, 301):
        log = changelog_at(d, n, 1)
        u = log.split_vertex
        raw = {u, u.child(0), log.new_vertex, *log.unsplit_neighbors}
        raw.update(half for pair in log.halves for half in pair)
        for g in (graph_at(d, n, 1), graph_at(d, n - 1, 1)):
            by_identity = {strip_identity(v): v for v in g.vertices}
            ends = {
                by_identity[x]
                for edge, _, _ in log.changes
                for x in edge
                if x in by_identity
            }
            assert ends == raw & g.vertices, (n, g.n)


@pytest.mark.parametrize("d", [6, 8, 12])
def test_identity_zero_is_the_zeros_name_at_the_deepest_depth(d):
    """The simulator's coordinator: on every G_n up to n = 300, the vertex of
    identity 0 is 0:0...0 at the depth of G_n's last name."""
    for n in range(d // 2 + 1, 301):
        g = graph_at(d, n, 1)
        zeros = VertexName(0, (0,) * next(reversed(g.vertices)).depth)
        assert [v for v in g.vertices if strip_identity(v) == VertexName(0)] == [
            zeros
        ], n


def test_bl_expander_reads_the_growth_cache(monkeypatch):
    """Each cycle's doubled expander costs one signing search: the cycle's
    checkpoint keeps it however far the window of recent states has moved."""
    import expanderseq.grower as grower

    clear_caches()
    searches = []
    real = grower.next_bl_expander

    def counted(*args, **kwargs):
        searches.append(kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(grower, "next_bl_expander", counted)
    graph_at(6, 17, 1)
    assert searches == [_cycle_seed(1, k) for k in range(3)]
    assert graphs_equal(bl_expander(6, 2, 1), graph_at(6, 16, 1))
    assert graphs_equal(bl_expander(6, 1, 1), graph_at(6, 8, 1))
    graph_at(6, 65, 1)  # cycles 3 and 4; the window moves past every n < 49
    for n in (4, 5, 8, 16, 17, 40, 33, 64, 9, 4):
        state_at(6, n, 1)
    for i in range(6):
        bl_expander(6, i, 1)
    assert searches == [_cycle_seed(1, k) for k in range(5)]


def test_grow_holds_one_checkpoint_per_cycle_plus_the_window(monkeypatch):
    import expanderseq.cli as cli
    import expanderseq.grower as grower

    clear_caches()
    monkeypatch.setattr(cli, "_emit", lambda path, text: None)
    argv = ["grow", "--d", "6", "--n", "5", "--n-to", "1025", "--lift-seed", "1"]
    assert cli.main(argv) == 0
    cycles = 9  # 1025 is the first split of cycle 8
    assert len(grower._STATE_CACHE) <= cycles + grower.WINDOW
    clear_caches()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("d", [6, 8])
def test_reads_in_any_order_match_a_cold_sequential_sweep(d, seed):
    """Through cycle 3, G_n's text, its change log and the doubled expanders
    read in a seeded shuffled order, from checkpoints and replays, equal
    those of a cold sweep."""
    import random

    base = d // 2 + 1
    reads = [("text", n) for n in range(base, 16 * base + 1)]
    reads += [("log", n) for n in range(base + 1, 16 * base + 1)]
    reads += [("expander", i) for i in range(5)]

    def read(kind, x):
        if kind == "text":
            return graph_to_text(graph_at(d, x, seed))
        if kind == "log":
            return changelog_at(d, x, seed)
        return graph_to_text(bl_expander(d, x, seed))

    clear_caches()
    sweep = {r: read(*r) for r in reads}
    clear_caches()
    random.Random(d * 10 + seed).shuffle(reads)
    assert {r: read(*r) for r in reads} == sweep
    clear_caches()


@pytest.mark.parametrize("d", [6, 8, 10, 12])
def test_depth_derived_split_sets_match_split_arithmetic(d):
    """Over two doublings, S and U read from name depths equal the sets built
    by split arithmetic (S starts empty and U full; each split moves u out of
    U and puts u.0 and u.1 into S), and each step splits min(U)."""
    g = initial_graph(d)
    for _ in range(2):
        st = begin_cycle(g, seed=1)
        split, unsplit = frozenset(), frozenset(g.vertices)
        while True:
            assert (st.split, st.unsplit) == (split, unsplit)
            if not unsplit:
                break
            u = min(unsplit)
            st = split_next(st)
            assert st.log.split_vertex == u
            split, unsplit = split | {u.child(0), u.child(1)}, unsplit - {u}
        with pytest.raises(CycleComplete):
            split_next(st)
        g = finalize_cycle(st)


def test_growth_error_names_d_n_and_cycle(monkeypatch):
    """A target with one matching edge moved breaks the split at n = 6 (of
    vertex 1:, next to both halves of 0:); the error keeps its text and type
    and gains d, n and the cycle."""
    import expanderseq.grower as grower

    real = grower.split_next

    def moved_edge(state):
        if state.current.n != 5:
            return real(state)
        u, p = min(state.current.vertices), VertexName(0)
        u0, u1 = u.child(0), u.child(1)
        weights = state.target.weights
        v = next(h for h in (p.child(0), p.child(1)) if state.target.weight(u1, h))
        del weights[edge_key(u1, v)]
        weights[edge_key(u0, v)] = 2
        return real(GrowthState(state.current, state.target.replace(weights=weights)))

    monkeypatch.setattr(grower, "split_next", moved_edge)
    text = "target matching between 1: and 0: is not a perfect matching"
    with pytest.raises(ConstructionError) as err:
        state_at(6, 6, 97)
    assert str(err.value) == f"d = 6, n = 6, cycle 0: {text}"
    assert str(err.value.__cause__) == text


def test_growth_error_counts_the_cycle_across_a_boundary(monkeypatch):
    import expanderseq.grower as grower

    def broken(state):
        raise ConstructionError("broken split")

    state_at(6, 8, 97)
    monkeypatch.setattr(grower, "split_next", broken)
    with pytest.raises(ConstructionError, match=r"^d = 6, n = 9, cycle 1: broken"):
        state_at(6, 9, 97)


@pytest.mark.parametrize("drop, message", [
    ("0:1", "split neighbors of 1: do not decompose into pairs"),
    ("2:", "2|U(u)| + |S(u)| = 4 != d at 1:"),
])
def test_split_errors_name_the_split_vertex(drop, message):
    st = state_at(6, 5, 1)
    u = min(st.current.vertices)
    weights = st.current.weights
    del weights[edge_key(u, parse_name(drop))]
    broken = GrowthState(current=st.current.replace(weights=weights), target=st.target)
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        split_next(broken)


@pytest.mark.parametrize("a, b, weight, message", [
    ("1:00", "2:00", 1, "edge to unsplit 2:00 has weight 1, expected 2"),
    ("1:00", "0:000", 2, "expected weight-1 edges to both halves of 0:00"),
    ("0:000", "0:001", 0, "partner edge 0:000-0:001 missing"),
])
def test_split_next_checks_its_predecessor(a, b, weight, message):
    """In G_20 at d = 6 the next to split is 1:00, with unsplit neighbours
    2:00 and 3:01 and split neighbours 0:000 and 0:001; weight 0 removes
    the edge."""
    st = state_at(6, 20, 1)
    assert format_name(min(st.current.vertices)) == "1:00"
    weights = st.current.weights
    key = edge_key(parse_name(a), parse_name(b))
    if weight:
        weights[key] = weight
    else:
        del weights[key]
    broken = GrowthState(current=st.current.replace(weights=weights), target=st.target)
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        split_next(broken)


def test_structure_violations_name_a_split_vertex_without_partner():
    st = state_at(6, 20, 1)
    lone = parse_name("0:001")
    g = st.current.with_edges({}, drop=lone)
    problems = list(structure_violations(g, st.split - {lone}))
    assert problems[0] == "partner edges: 0:000 split without partner", problems


@pytest.mark.parametrize("d", [6, 8])
def test_writing_g_n_formats_only_the_rows_its_split_replaced(d, monkeypatch):
    """Written right after G_{n-1}, G_n formats no row but those its split
    replaced: the halves, the unsplit neighbours and both halves of each
    split neighbour.  Checked at every n of cycle 2 but its first split,
    which derives from the target lift's fresh rows."""
    import expanderseq.multigraph as multigraph

    real = multigraph._row_text
    formatted = []

    def counted(u, row):
        formatted.append(u)
        return real(u, row)

    monkeypatch.setattr(multigraph, "_row_text", counted)
    clear_caches()
    base = d // 2 + 1
    for n in range(4 * base + 2, 8 * base + 1):
        graph_to_text(graph_at(d, n - 1, 1))
        formatted.clear()
        graph_to_text(graph_at(d, n, 1))
        log = changelog_at(d, n, 1)
        u = log.split_vertex
        replaced = {u.child(0), u.child(1), *log.unsplit_neighbors}
        replaced.update(half for pair in log.halves for half in pair)
        assert len(formatted) <= len(replaced) and set(formatted) <= replaced


def oracle_text(g):
    """The file text as the codec wrote it before rows were memoised."""
    body = "".join(
        f"{format_name(u)} {format_name(v)} {w}\n" for u, v, w in g.sorted_edges()
    )
    return f"{g.d} {g.n}\n{body}"


def assert_matches_rebuild(g):
    """A derived graph equals its full rebuild, and its memoised text (read
    cold and again warm) equals the oracle's."""
    assert graphs_equal(g, WeightedMultigraph(g.d, g.vertices, g.weights))
    assert graph_to_text(g) == graph_to_text(g) == oracle_text(g)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("d", [6, 8, 12])
def test_derived_graphs_match_a_full_rebuild(d, seed):
    base = d // 2 + 1
    for n in range(base, 8 * base + 1):  # every n through cycle 2
        assert_matches_rebuild(graph_at(d, n, seed))


def test_cached_states_match_a_full_rebuild_after_grow_and_churn(capsys):
    """A shared row mutated, or a memoised text gone stale, by a grow sweep
    or a self-heal script shows in some held state or in a graph replayed
    once the window has moved past its state."""
    import random

    from expanderseq import cli, grower
    from expanderseq.selfheal import DeleteEvent, InsertEvent, run_script

    argv = ["grow", "--d", "6", "--n", "4", "--n-to", "70", "--lift-seed", "3"]
    assert cli.main(argv) == 0
    written = capsys.readouterr().out
    rng = random.Random(5)
    live, events = [f"g{i}" for i in range(5)], []
    for k in range(80):
        if len(live) > 5 and rng.random() < 0.3:
            victim = rng.choice(live)
            live.remove(victim)
            events.append(DeleteEvent(victim))
        else:
            events.append(InsertEvent(f"n{k}", tuple(rng.sample(live, 2))))
            live.append(f"n{k}")
    run_script(8, 2, events)
    graphs = {}
    for st in grower._STATE_CACHE.values():
        graphs[id(st.current)], graphs[id(st.target)] = st.current, st.target
    for g in graphs.values():
        assert_matches_rebuild(g)
    assert "".join(graph_to_text(graph_at(6, n, 3)) for n in range(4, 71)) == written
    for n in range(5, 41):
        assert_matches_rebuild(graph_at(8, n, 2))


@pytest.mark.parametrize("d", [6, 8])
def test_split_shares_every_untouched_row(d):
    """Over three cycles, each split gives fresh rows to the two halves, the
    unsplit neighbours and both halves of each split neighbour, drops the
    split vertex's row, and shares every other row with its predecessor."""
    g = initial_graph(d)
    for _ in range(3):
        st = begin_cycle(g, seed=1)
        while st.unsplit:
            prev = st.current
            st = split_next(st)
            log, cur = st.log, st.current
            u = log.split_vertex
            touched = {u.child(0), u.child(1), *log.unsplit_neighbors}
            touched.update(half for pair in log.halves for half in pair)
            assert u not in cur.vertices and touched <= cur.vertices
            for v in cur.vertices - touched:
                assert cur.neighbors(v) is prev.neighbors(v)
            for v in touched & prev.vertices:
                assert cur.neighbors(v) is not prev.neighbors(v)
        g = finalize_cycle(st)


def test_graphs_built_from_scratch_depend_on_cycles_not_splits(monkeypatch):
    """Cold growth builds whole graphs only per cycle (clique, halved base,
    lift, doubled target); splits derive theirs.  n = 257 is the first split
    of cycle 6 and n = 300 the 44th, so both count the same builds."""
    real = WeightedMultigraph.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(WeightedMultigraph, "__init__", counted)
    builds = {}
    for n in (257, 300):
        clear_caches()
        calls.clear()
        graph_at(6, n, 1)
        builds[n] = len(calls)
    clear_caches()
    assert builds[257] == builds[300] <= 4 * 7
