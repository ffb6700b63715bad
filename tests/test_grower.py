import pytest

from expanderseq.grower import (
    ConstructionError,
    CycleComplete,
    begin_cycle,
    bl_expander,
    changelog_at,
    check_split_cost,
    check_state_invariants,
    clear_caches,
    finalize_cycle,
    graph_at,
    initial_graph,
    split_next,
    state_at,
    structure_violations,
)
from expanderseq.multigraph import (
    WeightedMultigraph,
    expansion_cost,
    graph_to_text,
    graphs_equal,
    weighted_degree,
)
from expanderseq.names import partner


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
    assert len(st.unsplit) == 4 and not st.split
    assert st.target.n == 8
    st2 = begin_cycle(initial_graph(6), seed=1)
    assert graphs_equal(st.target, st2.target)
    assert all(weighted_degree(st.target, v) == 6 for v in st.target.vertices)


def test_first_split_costs():
    st = begin_cycle(initial_graph(6), seed=1)
    st, log = split_next(st)
    assert log.cost == 9
    assert log.n_unsplit_neighbors == 3 and log.n_split_neighbors == 0


def test_full_cycle_costs_and_invariants():
    st = begin_cycle(initial_graph(6), seed=1)
    prev = st.current
    costs = []
    while st.unsplit:
        st, log = split_next(st)
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


def test_split_next_exhausted_cycle_signals():
    st = state_at(6, 8, 1)
    assert not st.unsplit
    with pytest.raises(CycleComplete):
        split_next(st)


def test_finalize_requires_completion():
    st = begin_cycle(initial_graph(6), seed=1)
    with pytest.raises(ValueError):
        finalize_cycle(st)


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
    """The log's counts equal the whole-graph diffs, over two doublings."""
    base = d // 2 + 1
    for n in range(base + 1, 4 * base + 1):
        prev, cur = graph_at(d, n - 1, 1), graph_at(d, n, 1)
        log = changelog_at(d, n, 1)
        diff = expansion_cost(prev, cur)
        assert log.cost == diff == sum(abs(new - old) for _, old, new in log.changes)
        assert log.topology_changes == expansion_cost(unweighted(prev), unweighted(cur))


def test_bl_expander_reads_the_growth_cache(monkeypatch):
    """Once the growth reaches a cycle, its doubled expander costs no search."""
    import expanderseq.grower as grower

    graph_at(6, 17, 1)
    searches = []
    real = grower.next_bl_expander

    def counted(*args, **kwargs):
        searches.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(grower, "next_bl_expander", counted)
    assert graphs_equal(bl_expander(6, 2, 1), graph_at(6, 16, 1))
    assert graphs_equal(bl_expander(6, 1, 1), graph_at(6, 8, 1))
    assert searches == []
