import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expanderseq import analysis
from expanderseq.analysis import (
    AnalysisError,
    LemmaViolation,
    cheeger_check,
    cut_decomposition,
    edge_expansion_exact,
    expansion_of_set,
    future_cut_floor,
    future_cut_suite,
    half_lemma_check,
    mixing_check,
    mixing_suite,
    rayleigh_lower_bound_check,
)
from expanderseq.grower import bl_expander, graph_at, initial_graph, state_at
from expanderseq.lifts import spectral_report
from expanderseq.multigraph import MAX_FILE_WEIGHT, WeightedMultigraph, edge_key
from expanderseq.names import VertexName


def brute_force_expansion(g):
    """Independent oracle: plain subset enumeration with Fractions.

    Returns h, the lexicographically smallest minimizing index tuple and the
    number of sides checked.
    """
    order = sorted(g.vertices)
    n = len(order)
    best, argmins, checked = None, [], 0
    for size in range(1, n // 2 + 1):
        for combo in combinations(range(n), size):
            members = {order[i] for i in combo}
            cut = sum(
                w for u, v, w in g.edges() if (u in members) != (v in members)
            )
            f = Fraction(cut, size)
            checked += 1
            if best is None or f < best:
                best, argmins = f, []
            if f == best:
                argmins.append(combo)
    return best, min(argmins), checked


def numbered_graph(n, weights):
    """The graph on VertexName(0..n-1) with ``{(i, j): w}`` as its edges."""
    names = [VertexName(i) for i in range(n)]
    return WeightedMultigraph(
        6, names, {edge_key(names[i], names[j]): w for (i, j), w in weights.items()}
    )


@st.composite
def weighted_graphs(draw):
    """Graphs on 2 to 10 vertices, often disconnected, with file weights;
    small weights make ties between sides common."""
    n = draw(st.integers(2, 10))
    weight = st.one_of(st.integers(1, 3), st.integers(1, MAX_FILE_WEIGHT))
    pairs = st.sampled_from(list(combinations(range(n), 2)))
    return numbered_graph(n, draw(st.dictionaries(pairs, weight)))


@given(weighted_graphs())
@example(numbered_graph(4, {(0, 1): 1, (0, 2): 1, (0, 3): 1}))  # star K1,3
@example(numbered_graph(6, {(0, 1): 5, (1, 2): 5, (3, 4): 5, (4, 5): 5}))
def test_edge_expansion_matches_brute_force(g):
    """h, the argmin and the side count against plain enumeration; in the
    star every leaf and every pair reach ratio 1, a tie across side sizes."""
    h, argmin, checked = brute_force_expansion(g)
    rep = edge_expansion_exact(g)
    order = sorted(g.vertices)
    assert rep.h == h
    assert rep.argmin_set == tuple(order[i] for i in argmin)
    assert rep.n_subsets_checked == checked


@pytest.mark.parametrize("n, w", [(4, 2**61), (12, 2**58)])
def test_cut_kernel_refuses_int64_overflow(n, w):
    """A 4-cycle of weight 2^61 overflowed the kernel (h read -2^62); a
    12-cycle of weight 2^58 fits the kernel but its keys, up to W * 60, not."""
    g = numbered_graph(n, {(i, (i + 1) % n): w for i in range(n)})
    with pytest.raises(AnalysisError, match=f"weight {n * w} at n = {n} "):
        edge_expansion_exact(g)


def test_file_weights_stay_inside_the_int64_guard():
    """Any graph file the CLI accepts keeps W * max(2, L) below 2^63."""
    n = analysis.MAX_EXACT_N
    lcm = math.lcm(*range(1, n // 2 + 1))
    assert MAX_FILE_WEIGHT * math.comb(n, 2) * max(2, lcm) < 2**63


def test_edge_expansion_doubled_k4():
    rep = edge_expansion_exact(initial_graph(6))
    assert rep.h == 4
    assert rep.h == brute_force_expansion(initial_graph(6))[0]
    assert len(rep.argmin_set) <= 2


def test_edge_expansion_doubled_k6():
    rep = edge_expansion_exact(initial_graph(10))
    assert rep.h == 6
    assert rep.h == brute_force_expansion(initial_graph(10))[0]


def test_edge_expansion_single_edge():
    a, b = VertexName(0), VertexName(1)
    g = WeightedMultigraph(6, [a, b], {edge_key(a, b): 1})
    assert edge_expansion_exact(g).h == 1


def test_edge_expansion_matches_oracle_on_sequence():
    for n in range(4, 9):
        g = graph_at(6, n, 1)
        assert edge_expansion_exact(g).h == brute_force_expansion(g)[0]


def test_edge_expansion_rejects_large_n():
    g = graph_at(6, 32, 1)
    with pytest.raises(AnalysisError, match="spectral"):
        edge_expansion_exact(g)


def test_edge_expansion_relabel_invariant():
    g = graph_at(6, 8, 1)
    rng = random.Random(0)
    order = sorted(g.vertices)
    shuffled = order[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(order, shuffled))
    relabeled = WeightedMultigraph(
        g.d,
        [mapping[v] for v in g.vertices],
        {edge_key(mapping[u], mapping[v]): w for u, v, w in g.edges()},
    )
    assert edge_expansion_exact(relabeled).h == edge_expansion_exact(g).h


def test_expansion_of_set_tightness_instance():
    g = graph_at(10, 8, 1)
    st = state_at(10, 8, 1)
    assert expansion_of_set(g, st.split) == 4
    assert Fraction(2, 3) * (10 // 2 + 1) == 4


def test_expansion_of_set_singleton_is_degree():
    g = graph_at(6, 9, 1)
    v = min(g.vertices)
    assert expansion_of_set(g, [v]) == 6


def test_expansion_of_set_complement_symmetric_cut():
    g = graph_at(6, 7, 1)
    order = sorted(g.vertices)
    s = set(order[:3])
    comp = set(order[3:])
    assert expansion_of_set(g, s) * 3 == expansion_of_set(g, comp) * len(comp)


def test_expansion_of_set_rejects_trivial():
    g = initial_graph(6)
    with pytest.raises(AnalysisError):
        expansion_of_set(g, [])
    with pytest.raises(AnalysisError):
        expansion_of_set(g, list(g.vertices))


def test_cheeger_doubled_k4():
    res = cheeger_check(initial_graph(6))
    assert res.lower == pytest.approx(4.0, abs=1e-9)
    assert res.upper == pytest.approx(math.sqrt(96.0), abs=1e-9)
    assert res.h == 4
    assert res.ok


def test_cheeger_disconnected():
    g4 = initial_graph(6)
    names = list(g4.vertices) + [VertexName(v.base, (1, 1)) for v in g4.vertices]
    weights = dict(g4.weights)
    for u, v, w in g4.edges():
        weights[edge_key(VertexName(u.base, (1, 1)), VertexName(v.base, (1, 1)))] = w
    res = cheeger_check(WeightedMultigraph(6, names, weights))
    assert res.lower == pytest.approx(0.0, abs=1e-9)
    assert res.h == 0
    assert res.ok


def test_cheeger_whole_small_sequence():
    for n in range(4, 17):
        assert cheeger_check(graph_at(6, n, 1)).ok


def test_mixing_disjoint_singletons():
    g = initial_graph(6)
    order = sorted(g.vertices)
    assert mixing_check(g, [order[0]], [order[1]])


def test_mixing_rejects_overlap():
    g = initial_graph(6)
    v = min(g.vertices)
    with pytest.raises(AnalysisError):
        mixing_check(g, [v], [v])


def test_mixing_suite_bl_expander_exhaustive():
    checked = mixing_suite(bl_expander(6, 1, 1))
    assert checked == 6050  # all disjoint nonempty (S, T) pairs on 8 vertices


def test_mixing_suite_sampled():
    checked = mixing_suite(bl_expander(6, 2, 1))
    assert checked == 10_000


@pytest.mark.parametrize("n", [3, 13, 22, 40])
@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_sampled_rows_match_randrange_loop(n, seed):
    """The bulk draw gives the rows of a ``randrange(3)`` loop; at n = 3 few
    rows hold both a 1 and a 2, so the draw refills and carries trits over."""
    rng = random.Random(seed)
    want = []
    while len(want) < 2000:
        trits = [rng.randrange(3) for _ in range(n)]
        if 1 in trits and 2 in trits:
            want.append(trits)
    got = analysis._sampled_rows(random.Random(seed), n, 2000)
    assert got.dtype == np.int8
    assert got.tolist() == want


def test_half_lemma_single_cuts():
    st = state_at(6, 6, 1)
    order = sorted(st.current.vertices)
    for k in (1, 2, 3):
        assert half_lemma_check(st, order[:k])


def test_half_lemma_all_split_side():
    st = state_at(6, 6, 1)
    dec = cut_decomposition(st, st.split)
    assert dec.wh_blocks["ss"] == dec.wg_blocks["ss"]
    assert dec.wh_blocks["su"] == 2 * dec.wg_blocks["su"]
    assert not dec.unsplit_side
    assert half_lemma_check(st, st.split)


def test_half_lemma_single_unsplit_vertex():
    st = state_at(6, 6, 1)
    v = min(st.unsplit)
    dec = cut_decomposition(st, [v])
    assert dec.wh_blocks["uu"] == 2 * dec.wg_blocks["uu"]
    assert dec.wh_blocks["us"] == 2 * dec.wg_blocks["us"]
    assert half_lemma_check(st, [v])


def test_future_cut_suite_range():
    total = 0
    for n in range(4, 17):
        total += future_cut_suite(state_at(6, n, 1))
    assert total == sum(2 ** (n - 1) - 1 for n in range(4, 17))


def test_future_cut_floor_bounds_h():
    for d in (6, 8, 10):
        for n in range(d // 2 + 1, 17):
            st = state_at(d, n, 1)
            h = edge_expansion_exact(st.current).h
            assert h >= future_cut_floor(st)


def test_rayleigh_small_instance():
    res = rayleigh_lower_bound_check(6, 3, seed=1)
    assert res.n == 33
    assert res.quotient <= res.lambda2 + 1e-9
    # the explicit vector is orthogonal to the all-ones direction by design
    n = res.n
    assert 2 * (1 - 2 / n) + (n - 2) * (-2 / n) == pytest.approx(0.0, abs=1e-12)


def test_rayleigh_rejects_oversized():
    with pytest.raises(AnalysisError):
        rayleigh_lower_bound_check(6, 10, seed=1)


def test_rayleigh_refuses_a_huge_index_before_building_its_name():
    with pytest.raises(AnalysisError, match="rayleigh index 10000000000000000000"):
        rayleigh_lower_bound_check(6, 10**19, seed=1)


def test_rayleigh_refuses_past_the_eigensolver_reach_before_growing(monkeypatch):
    """At d = 12 index 9 is below the index cap, but its one-split graph has
    n - 1 = 7 * 2^9 = 3584 > 2048 vertices: refused before any growth."""

    def no_growth(*args):
        raise AssertionError("growth started")

    monkeypatch.setattr(analysis, "graph_at", no_growth)
    monkeypatch.setattr(analysis, "changelog_at", no_growth)
    with pytest.raises(
        AnalysisError, match="^n - 1 = 3584 exceeds the eigensolver reach$"
    ):
        rayleigh_lower_bound_check(12, 9, seed=1)


def test_rayleigh_threshold_recorded():
    # empirical: the d/2 - 0.5 spectral floor first holds at the second
    # doubling (n = 9) for d = 6, seed 1; the base-clique split sits below
    assert not rayleigh_lower_bound_check(6, 0, seed=1).ok
    assert rayleigh_lower_bound_check(6, 1, seed=1).ok


def corrupted_target(state):
    """The state with two target edges (a, b), (c, d) swapped to (a, d), (c, b).

    (a, b) and (c, d) are the first and last of the target's sorted edges; the
    new edges get weight 2, so the target no longer is the future image of the
    current graph and the block identities must fail.
    """
    edges = state.target.sorted_edges()
    (a, b, _), (c, d, _) = edges[0], edges[-1]
    weights = dict(state.target.weights)
    del weights[edge_key(a, b)], weights[edge_key(c, d)]
    weights[edge_key(a, d)] = 2
    weights[edge_key(c, b)] = 2
    return replace(state, target=state.target.replace(weights=weights))


@pytest.mark.parametrize(
    "n, message",
    [
        (6, "split-split block identity failed at mask 2"),
        (9, "uu block identity failed at mask 1"),
        (12, "split-split block identity failed at mask 8"),
    ],
)
def test_future_cut_suite_violation_messages(n, message):
    with pytest.raises(LemmaViolation) as exc:
        future_cut_suite(corrupted_target(state_at(6, n, 1)))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "d, chunk",
    [pytest.param(d, analysis._CHUNK, id=str(d)) for d in (6, 8)]
    + [pytest.param(d, c, id=f"{d}-chunk{c}") for c in (8, 1) for d in (6, 8)],
)
def test_cut_kernel_matches_scalar_oracle(d, chunk, monkeypatch):
    """Every cut's kernel columns against the scalar path, for every n <= 11.

    The default chunk holds every cut; chunks of 8 and 1 cut reach the chunks
    that are built from the first.
    """
    monkeypatch.setattr(analysis, "_CHUNK", chunk)
    for n in range(d // 2 + 1, 12):
        st = state_at(d, n, 1)
        order = sorted(st.current.vertices)
        columns = [
            list(analysis._cut_chunks(n, terms))
            for terms in term_columns(analysis._future_terms(st))
        ]
        masks = np.concatenate([m for m, _, _ in columns[0]])
        cuts = np.array([np.concatenate([c for _, _, c in col]) for col in columns])
        floor = h = None
        sides, checked = [], 0
        for k in range(1, len(masks)):
            a = [v for i, v in enumerate(order) if (masks[k] >> i) & 1]
            dec = cut_decomposition(st, a)
            wg, wh = dec.wg_blocks, dec.wh_blocks
            assert list(cuts[:, k]) == [
                wg["uu"], wg["su"] + wg["us"], wg["ss"],
                wh["uu"], wh["su"] + wh["us"], wh["ss"],
            ]
            assert half_lemma_check(st, a)
            future = sum(wh.values())
            for side in (a, [v for v in order if v not in a]):
                if len(side) > n // 2:
                    continue
                checked += 1
                f = Fraction(future, 2 * len(side))
                floor = f if floor is None else min(floor, f)
                e = expansion_of_set(st.current, side)
                idxs = tuple(order.index(v) for v in side)
                if h is None or e < h:
                    h, sides = e, []
                if e == h:
                    sides.append(idxs)
        rep = edge_expansion_exact(st.current)
        assert future_cut_floor(st) == floor
        assert future_cut_suite(st) == len(masks) - 1
        assert rep.h == h
        assert rep.argmin_set == tuple(order[i] for i in min(sides))
        assert rep.n_subsets_checked == checked


def test_cut_kernel_chunk_seams(monkeypatch):
    """Chunks of 8 cuts give the results of one chunk, violations included."""
    st = state_at(6, 12, 1)

    def results():
        with pytest.raises(LemmaViolation) as exc:
            future_cut_suite(corrupted_target(st))
        return (edge_expansion_exact(st.current), future_cut_suite(st),
                future_cut_floor(st), str(exc.value))

    whole = results()
    monkeypatch.setattr(analysis, "_CHUNK", 8)
    assert results() == whole


def term_columns(terms):
    """``_future_terms``' ``(i, j, w, col)`` terms as six ``(i, j, w)`` lists."""
    return [[(i, j, w) for i, j, w, col in terms if col == k] for k in range(6)]


def per_term_cut_chunks(n, terms, chunk):
    """The cut kernel as one pass per term over every chunk's bit rows."""
    total = 1 << (n - 1)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64) << 1
        cuts = np.zeros(len(masks), dtype=np.int64)
        bits = (masks >> np.arange(n)[:, None]) & 1
        for i, j, w in terms:
            cuts += w * (bits[i] ^ bits[j])
        yield masks, np.bitwise_count(masks).astype(np.int64), cuts


@pytest.mark.parametrize("n", [16, 18])
@pytest.mark.parametrize("d", [6, 8])
def test_cut_kernel_matches_per_term_kernel_across_chunks(d, n, monkeypatch):
    """Chunks past the first, built from the first, equal a pass per term."""
    monkeypatch.setattr(analysis, "_CHUNK", 1 << 10)
    st = state_at(d, n, 1)
    future = analysis._future_terms(st)
    index = analysis._index(st.current)
    # plain edge terms, every other one given with i > j
    edges = [
        (index[v], index[u], w) if k % 2 else (index[u], index[v], w)
        for k, (u, v, w) in enumerate(st.current.sorted_edges())
    ]
    assert any(i > j for i, j, *_ in future + edges)
    for terms in term_columns(future) + [edges]:
        got = list(analysis._cut_chunks(n, terms))
        want = list(per_term_cut_chunks(n, terms, 1 << 10))
        assert len(got) == len(want) == 1 << (n - 11)
        for chunk, ref in zip(got, want):
            for a, b in zip(chunk, ref):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)


def enumerated_suite(n, terms):
    """The future-cut suite's message by walking every cut, a column at a
    time: the first failing check in the order ss, uu, su, half bound, at
    its first failing mask; None when every cut passes."""
    wg, wh = np.split(np.array([
        np.concatenate([c for _, _, c in per_term_cut_chunks(n, col, 1 << 12)])
        for col in term_columns(terms)
    ]), 2)
    checks = (
        ("split-split block identity", wh[2] != wg[2]),
        ("uu block identity", wh[0] != 2 * wg[0]),
        ("su block identity", wh[1] != 2 * wg[1]),
        ("half bound", 2 * wg.sum(axis=0) < wh.sum(axis=0)),
    )
    for name, bad in checks:
        if bad.any():
            return f"{name} failed at mask {np.argmax(bad)}"
    return None


def suite_message(st):
    try:
        assert future_cut_suite(st) == (1 << (st.current.n - 1)) - 1
    except LemmaViolation as exc:
        return str(exc)
    return None


def test_future_cut_suite_matches_enumeration_on_reference_states():
    for d in (6, 8):
        for n in range(d // 2 + 1, 17):
            st = state_at(d, n, 1)
            assert suite_message(st) is None
            assert enumerated_suite(n, analysis._future_terms(st)) is None


def corrupted_terms(terms, n, rng):
    """``terms`` with one term's weight moved by one (kept >= 0), one
    endpoint moved, its column moved, or the term dropped."""
    terms = list(terms)
    k = rng.randrange(len(terms))
    i, j, w, col = terms[k]
    kind = rng.randrange(4)
    if kind == 0:
        terms[k] = (i, j, w + (1 if w == 0 else rng.choice((-1, 1))), col)
    elif kind == 1:
        moved = rng.choice([v for v in range(n) if v not in (i, j)])
        terms[k] = (i, moved, w, col) if rng.randrange(2) else (moved, j, w, col)
    elif kind == 2:
        terms[k] = (i, j, w, rng.choice([c for c in range(6) if c != col]))
    else:
        del terms[k]
    return terms


def test_future_cut_suite_matches_enumeration_on_corrupted_terms(monkeypatch):
    """1000 seeded cases of one to three corruptions at n <= 13: the suite
    gives the enumeration's verdict and message, and some cases fail first
    on a two-vertex cut {i1, j}, the closed form's second branch."""
    rng = random.Random(21)
    future_terms = analysis._future_terms
    pairs = 0
    for _ in range(1000):
        d = rng.choice((6, 8))
        n = rng.randrange(d // 2 + 1, 14)
        st = state_at(d, n, 1)
        terms = future_terms(st)
        for _ in range(rng.randint(1, 3)):
            terms = corrupted_terms(terms, n, rng)
        monkeypatch.setattr(analysis, "_future_terms", lambda _, t=terms: t)
        message = suite_message(st)
        assert message == enumerated_suite(n, terms)
        if message is not None and int(message.split()[-1]).bit_count() == 2:
            pairs += 1
    assert pairs > 0


def closed_form_message(n, terms):
    """The suite's message from each block's dense M = L_H - c L_G, built
    in int64 with ``np.add.at``, and the closed form of its docstring; None
    when every M is zero off row and column 0."""
    terms = np.array(terms, dtype=np.int64).reshape(-1, 4)
    for name, col, c in (("split-split block identity", 2, 1),
                         ("uu block identity", 0, 2), ("su block identity", 1, 2)):
        m = np.zeros((n, n), dtype=np.int64)
        for k, factor in ((3 + col, 1), (col, -c)):
            i, j, w = terms[terms[:, 3] == k, :3].T
            for rows, cols, sign in ((i, i, 1), (j, j, 1), (i, j, -1), (j, i, -1)):
                np.add.at(m, (rows, cols), sign * factor * w)
        bad = np.flatnonzero(np.triu(m[1:, 1:]).any(axis=0))
        if len(bad):
            j = int(bad[0]) + 1
            i = j if m[j, j] else int(np.flatnonzero(m[1:j, j])[0]) + 1
            return f"{name} failed at mask {(1 << i | 1 << j) >> 1}"
    return None


@pytest.mark.parametrize("d, n", [(6, 40), (6, 300), (6, 1024), (8, 40), (8, 300)])
def test_future_cut_suite_matches_dense_closed_form_at_scale(d, n, monkeypatch):
    """Past the enumeration bound the reference state passes, and 20 seeded
    cases of one to three term corruptions get the dense oracle's message."""
    st = state_at(d, n, 1)
    terms = analysis._future_terms(st)
    assert suite_message(st) is None
    assert closed_form_message(n, terms) is None
    loop = terms + [(n - 1, n - 1, 1, 5)]  # a loop is in no cut
    monkeypatch.setattr(analysis, "_future_terms", lambda _: loop)
    assert suite_message(st) is None
    rng = random.Random(n + d)
    failing = 0
    for _ in range(20):
        corrupted = terms
        for _ in range(rng.randint(1, 3)):
            corrupted = corrupted_terms(corrupted, n, rng)
        monkeypatch.setattr(analysis, "_future_terms", lambda _, t=corrupted: t)
        message = suite_message(st)
        assert message == closed_form_message(n, corrupted)
        failing += message is not None
    assert failing > 0


def test_mixing_suite_exhaustive_n12():
    assert mixing_suite(graph_at(6, 12, 1)) == 3**12 - 2 * 2**12 + 1 == 523_250


def scaled_spectrum(g, scale):
    rep = spectral_report(g)
    return replace(rep, eigenvalues=tuple(scale * e for e in rep.eigenvalues))


@pytest.mark.parametrize(
    "k, scale, message",
    [
        (1, 0.0, "mixing violated: |0 - 0.750000| > 0.000000*sqrt(1*1)"),
        (1, 0.5, "mixing violated: |0 - 6.750000| > 2.236068*sqrt(3*3)"),
        (2, 0.0, "mixing violated: |10 - 10.125000| > 0.000000*sqrt(9*3)"),
        (2, 0.4, "mixing violated: |16 - 7.500000| > 1.788854*sqrt(4*5)"),
    ],
)
def test_mixing_suite_first_violation_message(k, scale, message):
    """n = 8 runs exhaustive, n = 16 sampled; the messages are pinned."""
    g = bl_expander(6, k, 1)
    with pytest.raises(LemmaViolation) as exc:
        mixing_suite(g, spectrum=scaled_spectrum(g, scale))
    assert str(exc.value) == message


@pytest.mark.parametrize("scale", [1.0, 0.1])
def test_mixing_batch_agrees_with_mixing_check(scale):
    """Row by row, the batch check gives ``mixing_check``'s verdict, and the
    whole batch fails with the message of its first failing row."""
    g = graph_at(6, 16, 1)
    order = sorted(g.vertices)
    lam = scaled_spectrum(g, scale).lambda_
    rng = random.Random(5)
    rows = np.array([[rng.randrange(3) for _ in order] for _ in range(300)],
                    dtype=np.int8)
    verdicts, messages = [], []
    for row in rows:
        s = [v for v, t in zip(order, row) if t == 1]
        t = [v for v, t in zip(order, row) if t == 2]
        if not s or not t:
            assert analysis._check_mixing_rows(g, row[None], lam) == 0
            continue
        try:
            batch = analysis._check_mixing_rows(g, row[None], lam) == 1
        except LemmaViolation as exc:
            batch = False
            messages.append(str(exc))
        verdicts.append(batch)
        assert batch == mixing_check(g, s, t, lam)
    assert len(verdicts) > 250
    if scale == 1.0:
        assert all(verdicts)
        assert analysis._check_mixing_rows(g, rows, lam) == len(verdicts)
    else:  # at a tenth of lambda about half the pairs fail
        assert 0 < sum(verdicts) < len(verdicts)
        with pytest.raises(LemmaViolation) as exc:
            analysis._check_mixing_rows(g, rows, lam)
        assert str(exc.value) == messages[0]

