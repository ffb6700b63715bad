import math
import random

import numpy as np
import pytest

from expanderseq import lifts
from expanderseq.grower import _cycle_seed, bl_expander, initial_graph
from expanderseq.lifts import (
    EIG_TOL,
    EXHAUSTIVE_EDGE_LIMIT,
    SigningSearchError,
    canonical_edge_list,
    certify_below,
    default_lambda_budget,
    find_good_signing,
    next_bl_expander,
    spectral_report,
    two_lift,
)
from expanderseq.multigraph import (
    WeightedMultigraph,
    edge_key,
    graphs_equal,
    weighted_degree,
)
from expanderseq.names import VertexName, parse_name


def simple_clique(k):
    """K_k as the simple base of degree d = 2(k - 1)."""
    names = [VertexName(b) for b in range(k)]
    weights = {
        edge_key(a, b): 1
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    return WeightedMultigraph(2 * (k - 1), names, weights)


def smallest_near_minimizer(base, codes):
    """Independent oracle: direct eigensolve of each code's lift.

    Returns the smallest code whose lift lambda lies within 1e-9 of the
    minimum over ``codes``, and that minimum.
    """
    lam = {code: spectral_report(two_lift(base, code)).lambda_ for code in codes}
    best = min(lam.values())
    return min(code for code in codes if lam[code] <= best + 1e-9), best


def test_two_lift_single_edge_parallel():
    a, b = VertexName(0), VertexName(1)
    base = WeightedMultigraph(6, [a, b], {edge_key(a, b): 1})
    lifted = two_lift(base, 0)
    assert lifted.weight(a.child(0), b.child(0)) == 1
    assert lifted.weight(a.child(1), b.child(1)) == 1
    assert lifted.weight(a.child(0), b.child(1)) == 0


def test_two_lift_all_zero_makes_two_copies():
    base = simple_clique(4)
    lifted = two_lift(base, 0)
    for u, v, _ in base.edges():
        assert lifted.weight(u.child(0), v.child(0)) == 1
        assert lifted.weight(u.child(1), v.child(1)) == 1
        assert lifted.weight(u.child(0), v.child(1)) == 0


def test_two_lift_counts():
    base = simple_clique(4)
    lifted = two_lift(base, 0b101010)
    assert lifted.n == 8
    assert len(list(lifted.edges())) == 12
    assert all(weighted_degree(lifted, v) == 3 for v in lifted.vertices)


def test_two_lift_edge_projection_property():
    base = simple_clique(4)
    edges = canonical_edge_list(base)
    lifted = two_lift(base, 0b110100)
    for u, v in edges:
        found = sum(
            1
            for x, y, _ in lifted.edges()
            if {x.parent(), y.parent()} == {u, v}
        )
        assert found == 2


def test_two_lift_validates_input():
    base = simple_clique(4)
    for code in (-1, 1 << 6):
        with pytest.raises(ValueError, match=rf"signing code {code} is outside"):
            two_lift(base, code)
    a, b = VertexName(0), VertexName(1)
    weighted = WeightedMultigraph(6, [a, b], {edge_key(a, b): 2})
    with pytest.raises(ValueError):
        two_lift(weighted, 0)


def edge_by_edge_lift(base, code):
    """Reference lift: the j-th canonical edge reads bit m - 1 - j of ``code``."""
    edges = canonical_edge_list(base)
    m = len(edges)
    weights = {}
    for j, (u, v) in enumerate(edges):
        if (code >> (m - 1 - j)) & 1:
            pairs = ((u.child(0), v.child(1)), (u.child(1), v.child(0)))
        else:
            pairs = ((u.child(0), v.child(0)), (u.child(1), v.child(1)))
        weights.update((edge_key(a, b), 1) for a, b in pairs)
    vertices = [v.child(b) for v in base.vertices for b in (0, 1)]
    return WeightedMultigraph(base.d, vertices, weights)


@pytest.mark.parametrize("cycle, m", [(None, 6), (2, 24), (4, 96)])
def test_two_lift_reads_code_bits_in_canonical_edge_order(cycle, m):
    if cycle is None:
        base = simple_clique(4)
    else:
        g_star = bl_expander(6, cycle, 1)
        base = g_star.replace(weights=dict.fromkeys(g_star.weights, 1))
    assert len(canonical_edge_list(base)) == m
    rng = random.Random(m)
    codes = [0, 1, 1 << (m - 1), (1 << m) - 1] + [rng.getrandbits(m) for _ in range(4)]
    for code in codes:
        lifted, want = two_lift(base, code), edge_by_edge_lift(base, code)
        assert lifted.vertices == want.vertices
        assert lifted.weights == want.weights, code


def test_spectral_report_doubled_k4():
    rep = spectral_report(initial_graph(6))
    assert rep.eigenvalues == pytest.approx((6.0, -2.0, -2.0, -2.0), abs=1e-9)
    assert rep.lambda1 == pytest.approx(6.0, abs=1e-9)
    assert rep.lambda2 == pytest.approx(-2.0, abs=1e-9)


def test_spectral_report_disconnected_lambda2_is_degree():
    g4 = initial_graph(6)
    names = list(g4.vertices) + [VertexName(v.base, (1, 1)) for v in g4.vertices]
    weights = dict(g4.weights)
    for u, v, w in g4.edges():
        weights[edge_key(VertexName(u.base, (1, 1)), VertexName(v.base, (1, 1)))] = w
    g = WeightedMultigraph(6, names, weights)
    rep = spectral_report(g)
    assert rep.lambda2 == pytest.approx(6.0, abs=1e-9)


def test_spectral_report_eight_cycle():
    names = [VertexName(b) for b in range(8)]
    weights = {
        edge_key(names[i], names[(i + 1) % 8]): 1 for i in range(8)
    }
    g = WeightedMultigraph(16, names, weights)
    rep = spectral_report(g)
    assert rep.lambda2 == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_all_zero_signing_spectrum_doubles():
    base = simple_clique(4)
    lifted = two_lift(base, 0)
    lift_eigs = np.array(spectral_report(lifted).eigenvalues)
    base_eigs = np.array(spectral_report(base).eigenvalues)
    expected = np.sort(np.concatenate([base_eigs, base_eigs]))[::-1]
    assert np.allclose(lift_eigs, expected, atol=1e-9)


# K6 (d = 10) is left out: its smallest code within 1e-9 of the minimum is 236,
# but the search breaks ties on float lambda and picks 348.
@pytest.mark.parametrize("k", [4, 5], ids=["K4", "K5"])
def test_find_good_signing_matches_brute_force(k):
    base = simple_clique(k)
    codes = range(1 << len(canonical_edge_list(base)))
    best_code, best_lam = smallest_near_minimizer(base, codes)
    found = find_good_signing(base, default_lambda_budget(base.d), seed=0)
    assert found == best_code
    assert spectral_report(two_lift(base, found)).lambda_ == pytest.approx(
        best_lam, abs=1e-9
    )


def test_random_search_matches_direct_lifts():
    g_star = bl_expander(6, 2, 1)
    base = g_star.replace(weights=dict.fromkeys(g_star.weights, 1))
    edges = canonical_edge_list(base)
    assert len(edges) == 24
    rng = random.Random(9)
    codes = [rng.getrandbits(len(edges)) for _ in range(64)]
    best_code, _ = smallest_near_minimizer(base, codes)
    found = find_good_signing(
        base, default_lambda_budget(6), search_budget=64, seed=9
    )
    assert found == best_code == 1705730


def test_find_good_signing_single_edge():
    a, b = VertexName(0), VertexName(1)
    base = WeightedMultigraph(6, [a, b], {edge_key(a, b): 1})
    s = find_good_signing(base, lambda_budget=1.5, seed=0)
    lifted = two_lift(base, s)
    assert spectral_report(lifted).lambda_ == pytest.approx(1.0, abs=1e-9)


def test_find_good_signing_impossible_budget():
    base = simple_clique(4)
    with pytest.raises(SigningSearchError) as err:
        find_good_signing(base, lambda_budget=0.0, seed=0)
    assert err.value.best_lambda > 0
    # the carried code's lift has the reported lambda, up to eigensolver rounding
    best = spectral_report(two_lift(base, err.value.best)).lambda_
    assert best == pytest.approx(err.value.best_lambda, abs=1e-9)


def test_find_good_signing_deterministic():
    base = next_bl_expander(initial_graph(6), seed=3)
    halved = WeightedMultigraph(
        6, base.vertices, {e: 1 for e in base.weights}
    )
    budget = default_lambda_budget(6)
    a = find_good_signing(halved, budget, search_budget=64, seed=9)
    b = find_good_signing(halved, budget, search_budget=64, seed=9)
    assert a == b


def test_random_branch_respects_budget_error():
    # 16 vertices, 24 edges: above the exhaustive limit
    g1 = next_bl_expander(initial_graph(6), seed=1)
    g2 = next_bl_expander(g1, seed=1)
    base = WeightedMultigraph(6, g2.vertices, {e: 1 for e in g2.weights})
    assert len(canonical_edge_list(base)) == 24
    with pytest.raises(SigningSearchError) as err:
        find_good_signing(base, lambda_budget=0.1, search_budget=8, seed=1)
    message = str(err.value)
    assert "base n = 16, 24 edges, 8 candidates ranked" in message
    assert "dense solves" in message
    s = find_good_signing(base, default_lambda_budget(6), search_budget=64, seed=1)
    lam = spectral_report(two_lift(base, s)).lambda_
    assert lam <= default_lambda_budget(6)


def test_next_bl_expander_shape():
    h = next_bl_expander(initial_graph(6), seed=1)
    assert h.n == 8
    assert all(w == 2 for _, _, w in h.edges())
    assert all(weighted_degree(h, v) == 6 for v in h.vertices)
    hh = next_bl_expander(h, seed=1)
    assert hh.n == 16


def test_next_bl_expander_rejects_non_doubled():
    g = initial_graph(6)
    bad = WeightedMultigraph(6, g.vertices, {e: 1 for e in g.weights})
    with pytest.raises(ValueError):
        next_bl_expander(bad, seed=1)
    wrong_degree = WeightedMultigraph(8, g.vertices, g.weights)
    with pytest.raises(ValueError, match=r"expected 4 neighbours .* found \[3\]$"):
        next_bl_expander(wrong_degree, seed=1)


def test_verified_lift_over_budget_carries_code_and_lambda(monkeypatch):
    monkeypatch.setattr(lifts, "find_good_signing", lambda base, budget, seed: 5)
    monkeypatch.setattr(lifts, "default_lambda_budget", lambda d: 0.5)
    g = initial_graph(6)
    base = g.replace(weights=dict.fromkeys(g.weights, 1))
    solved = []
    monkeypatch.setattr(
        lifts, "spectral_report", lambda g: solved.append(g) or spectral_report(g)
    )
    with pytest.raises(SigningSearchError, match="lambda 2.236068 exceeds") as info:
        next_bl_expander(g, seed=1)
    assert info.value.best == 5
    assert info.value.best_lambda == spectral_report(two_lift(base, 5)).lambda_
    assert [lifted.n for lifted in solved] == [8]  # the certificate failed


@pytest.mark.parametrize("n", [1, 2, 7, 64, 200, 512])
def test_certify_below_brackets_the_largest_eigenvalue(n):
    """Seeded symmetric matrices: real, integer and one +-1 signed matrix."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n))
    signed = np.triu(rng.choice([-1.0, 0.0, 1.0], (n, n)), 1)
    for m in ((x + x.T) / 2, np.round(3 * (x + x.T)), signed + signed.T):
        top = np.linalg.eigvalsh(m)[-1]
        assert certify_below(m, top + 1e-6)
        assert not certify_below(m, top - 1e-6)


def halved(g_star):
    return g_star.replace(weights=dict.fromkeys(g_star.weights, 1))


@pytest.mark.parametrize("d", [6, 8])
def test_lift_certificate_brackets_the_dense_lambda(d):
    """On every lift the growth chose through cycle 4, and on lifts of other
    signings, the certificate holds just above the dense lambda and fails
    just below it."""
    rng = random.Random(d)
    for i in range(5):
        base = halved(bl_expander(d, i, 1))
        m = len(canonical_edge_list(base))
        codes = [find_good_signing(base, default_lambda_budget(d),
                                   seed=_cycle_seed(1, i))]
        codes += [rng.getrandbits(m) for _ in range(3)]
        for code in codes:
            lifted = two_lift(base, code)
            lam = spectral_report(lifted).lambda_
            assert lifts._lift_certified(base, lifted, lam + 1e-6)
            assert not lifts._lift_certified(base, lifted, lam - 1e-6)


def test_disconnected_lift_gets_no_certificate_below_r():
    """Code 0 lifts the base to two copies of it: A_s = A has eigenvalue r."""
    base = halved(bl_expander(6, 2, 1))
    lifted = two_lift(base, 0)
    a_s = lifts._lift_signs(base, lifted)
    assert np.array_equal(np.abs(a_s), a_s)
    for bound in (3.0, 3.0 - 1e-6, default_lambda_budget(6) + EIG_TOL):
        assert not certify_below(a_s, bound)
        assert not lifts._lift_certified(base, lifted, bound)
    assert certify_below(a_s, 3.0 + 1e-6)


def moved_edge(base, code):
    """``two_lift`` with one edge of its smallest vertex moved elsewhere."""
    lifted = two_lift(base, code)
    u = next(iter(lifted.vertices))
    v = next(iter(lifted.neighbors(u)))
    w = next(x for x in lifted.vertices if x != u and x not in lifted.neighbors(u))
    return lifted.with_edges({(u, v): 0, (u, w): 1})


def test_lift_with_a_moved_edge_fails_the_structure_check(monkeypatch):
    monkeypatch.setattr(lifts, "two_lift", moved_edge)
    with pytest.raises(RuntimeError, match="not a 2-lift of its base: edge 0:"):
        next_bl_expander(bl_expander(6, 1, 1), seed=_cycle_seed(1, 1))


@pytest.mark.parametrize("change, problem", [
    (lambda g: g.replace(weights=dict.fromkeys(g.weights, 2)), "weight is not 1"),
    (lambda g: g.with_edges({}, drop=next(reversed(g.vertices))), "vertices"),
    (lambda g: g.with_edges({(parse_name("0:00"), parse_name("0:01")): 1}),
     "it has 25 edges, not 24"),
])
def test_structure_check_names_what_is_not_a_lift(change, problem):
    base = halved(bl_expander(6, 1, 1))
    with pytest.raises(RuntimeError, match=problem):
        lifts._lift_signs(base, change(two_lift(base, 5)))


def test_accepted_lift_runs_no_dense_reverification(monkeypatch):
    solves = []
    monkeypatch.setattr(lifts, "spectral_report", solves.append)
    assert next_bl_expander(bl_expander(6, 2, 1), seed=_cycle_seed(1, 2)).n == 32
    assert solves == []


@pytest.mark.parametrize("d", [6, 8, 10, 12])
def test_budget_lies_below_the_lift_degree(d):
    r = d // 2
    ramanujan = 2 * math.sqrt(r - 1)
    assert ramanujan < default_lambda_budget(d) < r


def test_all_parallel_lift_is_rejected_at_d6(monkeypatch):
    """Code 0 lifts the base to two disjoint copies of it, with lambda = r."""
    monkeypatch.setattr(lifts, "find_good_signing", lambda base, budget, seed: 0)
    with pytest.raises(SigningSearchError, match="lambda 3.000000 exceeds") as info:
        next_bl_expander(initial_graph(6), seed=1)
    assert info.value.best == 0


def test_weight_checks_name_the_smallest_bad_edge():
    g = bl_expander(6, 1, 1)
    bad = [tuple(map(parse_name, e)) for e in (("0:1", "1:1"), ("0:0", "1:0"))]
    simple = dict.fromkeys(g.weights, 1)
    simple.update(dict.fromkeys(bad, 2))
    base = g.replace(weights=simple)
    with pytest.raises(ValueError, match="edge 0:0-1:0 has weight 2$"):
        two_lift(base, 0)
    doubled = g.weights
    doubled.update(dict.fromkeys(bad, 1))
    with pytest.raises(ValueError, match="found 1 on 0:0-1:0$"):
        next_bl_expander(g.replace(weights=doubled), seed=1)


@pytest.mark.parametrize("budget", [0, -3])
def test_random_search_rejects_empty_budget_before_solving(budget, monkeypatch):
    g_star = bl_expander(6, 2, 1)
    base = g_star.replace(weights=dict.fromkeys(g_star.weights, 1))

    def no_solve(a):
        raise AssertionError("eigensolve before the budget check")

    monkeypatch.setattr(lifts, "_eigvalsh", no_solve)
    message = f"search_budget must be at least 1, got {budget}"
    with pytest.raises(ValueError, match=message):
        find_good_signing(base, default_lambda_budget(6), search_budget=budget)


def dense_best_signing(base, edges, base_eigs, candidates):
    """The search loop before pruning: one dense solve per candidate."""
    index = {v: i for i, v in enumerate(sorted(base.vertices))}
    rows = np.array([index[u] for u, _ in edges])
    cols = np.array([index[v] for _, v in edges])
    m = len(edges)
    a = np.zeros((base.n, base.n))

    def lift_lambda(matrix_code):
        packed = np.frombuffer(matrix_code.to_bytes((m + 7) // 8, "big"), np.uint8)
        a[rows, cols] = a[cols, rows] = 1.0 - 2.0 * np.unpackbits(packed)[-m:]
        spectrum = np.sort(np.concatenate([base_eigs, np.linalg.eigvalsh(a)]))
        return float(max(spectrum[-2], abs(spectrum[0])))

    return min((lift_lambda(matrix_code), code) for matrix_code, code in candidates)


# Every random-path base up to 128 vertices for d in {6, 8, 10, 12} and lift
# seeds 1-3, plus the exhaustive K6 of d = 10 (code 348, with 236 within
# 1e-9) and the 256-vertex base of d = 6, lift seed 1, the largest search
# that growing to n = 512 runs.  Among them are the two known near-ties:
# (6, seed 2, cycle 2) picks 10692226 and (12, seed 2, cycle 0) picks 809963
# over smaller codes within 1e-9 of their lambda.
ORACLE_CASES = [(10, 1, 0), (6, 1, 6)] + [
    (d, seed, i)
    for d in (6, 8, 10, 12)
    for seed in (1, 2, 3)
    for i in range(7)
    if (d // 2 + 1) << i <= 128
    and ((d // 2 + 1) << i) * d // 4 > EXHAUSTIVE_EDGE_LIMIT
]


@pytest.mark.parametrize("d, seed, i", ORACLE_CASES)
def test_pruned_search_matches_dense_loop(d, seed, i, monkeypatch):
    g_star = bl_expander(d, i, seed)
    base = g_star.replace(weights=dict.fromkeys(g_star.weights, 1))
    pruned = lifts._best_signing
    seen = []

    def both(base, edges, base_eigs, candidates):
        lam, code, solves = pruned(base, edges, base_eigs, candidates)
        want = dense_best_signing(base, edges, base_eigs, candidates)
        seen.append(((lam.hex(), code), (want[0].hex(), want[1]), solves))
        return lam, code, solves

    monkeypatch.setattr(lifts, "_best_signing", both)
    signing = find_good_signing(
        base, default_lambda_budget(d), seed=_cycle_seed(seed, i)
    )
    [(got, want, solves)] = seen
    assert got == want
    assert signing == want[1]
    if (d, seed, i) == (10, 1, 0):
        assert want[1] == 348
    if base.n >= 64:  # the prune skips most candidates
        assert solves <= 32


def neighbour_table(base, edges):
    """``(nbr, slot_edge)`` in the sorted vertex order, built per vertex."""
    order = sorted(base.vertices)
    index = {v: i for i, v in enumerate(order)}
    eidx = {e: j for j, e in enumerate(edges)}
    nbr = [[index[u] for u in sorted(base.neighbors(v))] for v in order]
    slot_edge = [
        [eidx[edge_key(v, u)] for u in sorted(base.neighbors(v))] for v in order
    ]
    return np.array(nbr), np.array(slot_edge)


def bound_bases():
    a, b = VertexName(0), VertexName(1)
    g_star, g128 = bl_expander(6, 2, 1), bl_expander(6, 5, 1)
    return {
        "edge": WeightedMultigraph(6, [a, b], {edge_key(a, b): 1}),
        "K4": simple_clique(4),
        "K5": simple_clique(5),
        "n16": g_star.replace(weights=dict.fromkeys(g_star.weights, 1)),
        "n128": g128.replace(weights=dict.fromkeys(g128.weights, 1)),
    }


@pytest.mark.parametrize("name", ["edge", "K4", "K5", "n16", "n128"])
@pytest.mark.parametrize("steps", [3, 8, 30])
def test_lanczos_bound_is_below_spectral_radius(name, steps):
    base = bound_bases()[name]
    edges = canonical_edge_list(base)
    index = {v: i for i, v in enumerate(sorted(base.vertices))}
    nbr, slot_edge = neighbour_table(base, edges)
    rng = random.Random(5)
    draws = 64 if name == "n128" else 40
    codes = [0] + [rng.getrandbits(len(edges)) for _ in range(draws)]  # 0: A_s = A
    bits = lifts._code_bits(codes, len(edges))
    bounds = lifts._lanczos_bounds(nbr, slot_edge, bits, steps)
    for code, row, bound in zip(codes, bits, bounds):
        signed = np.zeros((base.n, base.n))
        for (u, v), bit in zip(edges, row):
            signed[index[u], index[v]] = signed[index[v], index[u]] = 1.0 - 2.0 * bit
        rho = np.abs(np.linalg.eigvalsh(signed)).max()
        assert bound <= rho + 1e-12, (name, code)
        if steps >= base.n:  # the Krylov space is the whole space
            assert bound >= rho - 1e-9, (name, code)


def test_paige_slack_is_small_and_grows_with_n_and_k():
    slack = lifts._paige_slack
    assert 0 < slack(16, 16, 3) < 1e-9  # so k >= n bounds stay within 1e-9
    assert slack(16, 16, 3) < slack(17, 16, 3) < slack(256, 16, 3)
    assert slack(256, 16, 3) < slack(256, 17, 3) < slack(256, 32, 3)
    assert slack(256, 32, 3) < slack(256, 32, 6)


def sorted_frontier_masks(base, edges):
    """Reference switching masks from an explicit sorted-frontier BFS forest."""
    m = len(edges)
    eidx = {e: j for j, e in enumerate(edges)}
    root_path = {}
    visited = set()
    for root in sorted(base.vertices):
        if root in visited:
            continue
        root_path[root] = 0
        visited.add(root)
        frontier = [root]
        while frontier:
            frontier.sort()
            nxt = []
            for u in frontier:
                for v in sorted(base.neighbors(u)):
                    if v in visited:
                        continue
                    visited.add(v)
                    j = eidx[edge_key(u, v)]
                    root_path[v] = root_path[u] ^ (1 << (m - 1 - j))
                    nxt.append(v)
            frontier = nxt
    return [
        (1 << (m - 1 - j)) ^ root_path[u] ^ root_path[v]
        for j, (u, v) in enumerate(edges)
    ]


def mask_bases():
    """Every base with at most 24 edges for d in 6..14 over cycles 0-3,
    and two disjoint copies of K4."""
    bases = {}
    for d in range(6, 15, 2):
        for i in range(4):
            if ((d // 2 + 1) << i) * d // 4 <= 24:
                g_star = bl_expander(d, i, 1)
                bases[f"d{d}-c{i}"] = g_star.replace(
                    weights=dict.fromkeys(g_star.weights, 1)
                )
    halves = [[VertexName(b, (bit,)) for b in range(4)] for bit in (0, 1)]
    bases["two-K4"] = WeightedMultigraph(
        6,
        halves[0] + halves[1],
        {edge_key(a, b): 1 for h in halves for a in h for b in h if a < b},
    )
    return bases


@pytest.mark.parametrize("name", sorted(mask_bases()))
def test_switching_masks_match_sorted_frontier_forest(name):
    base = mask_bases()[name]
    edges = canonical_edge_list(base)
    assert lifts._switching_masks(base, edges) == sorted_frontier_masks(base, edges)
