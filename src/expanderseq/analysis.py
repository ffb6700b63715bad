"""Exact and spectral verification of expansion properties.

Combinatorial quantities (cut weights, expansion ratios, the future-cut block
identities) are computed in exact integer or rational arithmetic; only
eigenvalues are floating point.  Cut weights are Laplacian forms x^T L x of
the side's indicator.  ``edge_expansion_exact`` and ``future_cut_floor``
enumerate all 2^(n-1) cuts of one term set (all edges, or target edges at
their preimages): ``_laplacian`` builds L in int64, the chunked kernel
``_cut_chunks`` runs one Laplacian recurrence, and ``_min_ratio`` takes an
integer-key minimum.  ``future_cut_suite`` enumerates nothing: each block
identity is linear in the cut, so it holds on every cut iff two Laplacians
are equal, compared from their sparse integer entries at any n.  On one core
of a 2-vCPU x86 host, ``edge_expansion_exact`` takes about 0.02 s at n = 22
and 0.07 s at n = 24, and ``future_cut_suite`` 0.25 ms at n = 22 and 10 to
20 ms at n = 1024.  ``mixing_suite`` checks all its pairs as one numpy batch.

Two cut weights coexist on growth states: the expansion measurements count
every edge, while the block machinery relating a cut to its image in the next
doubled expander excludes edges between split partners.  The scalar path
(``expansion_of_set``, ``cut_decomposition``, ``half_lemma_check``) computes
both for one cut from vertex sets with ``_weight_between``, the caller
choosing the edges, without the kernel, and is the reference the kernel is
tested against.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .grower import GrowthState, changelog_at, graph_at, split_n
from .lifts import SpectralReport, spectral_report
from .multigraph import WeightedMultigraph, adjacency_matrix, weighted_degree
from .names import VertexName, format_name, locus, partner

MAX_EXACT_N = 26
FLOAT_SLACK = 1e-9
CHEEGER_SLACK = 1e-6
# cuts per chunk: a power of two whose cut columns fit a core's L2 cache
_CHUNK = 1 << 14
# mixing_suite checks every disjoint (S, T) pair up to this n, and above it
# this many seeded sample pairs
MIXING_EXHAUSTIVE_LIMIT = 12
MIXING_SAMPLES = 10_000
MIXING_SEED = 0
# 32-bit words per draw of the mixing sampler: the draw's int, its bytes and
# its uint32 array each hold one draw at once, so this bounds the sampler's
# peak memory whatever the sample count
_DRAW_WORDS = 1 << 14
# the slack below d/2 that rayleigh_lower_bound_check allows lambda2
RAYLEIGH_EPSILON = 0.5


class AnalysisError(ValueError):
    """Bad input to an analysis routine."""


class LemmaViolation(RuntimeError):
    """A checked inequality or identity failed; names the violated statement."""


@dataclass(frozen=True)
class ExpansionReport:
    h: Fraction
    argmin_set: tuple[VertexName, ...]
    n_subsets_checked: int


@dataclass(frozen=True)
class CheegerResult:
    lower: float
    upper: float
    h: Fraction
    ok: bool


@dataclass(frozen=True)
class RayleighResult:
    ok: bool
    n: int
    lambda2: float
    quotient: float


def _weight_between(
    edges: Iterable[tuple[VertexName, VertexName, int]],
    xs: set[VertexName],
    ys: set[VertexName],
) -> int:
    """Total weight of the edges with one end in ``xs`` and the other in ``ys``."""
    return sum(
        w for u, v, w in edges if (u in xs and v in ys) or (v in xs and u in ys)
    )


def expansion_of_set(g: WeightedMultigraph, s: Iterable[VertexName]) -> Fraction:
    """Exact weighted cut around ``s`` divided by |s|."""
    members = set(s)
    if not members or members == set(g.vertices):
        raise AnalysisError("set must be a nonempty proper subset")
    unknown = members - set(g.vertices)
    if unknown:
        raise AnalysisError(
            f"unknown vertices: {sorted(format_name(v) for v in unknown)}"
        )
    cut = _weight_between(g.edges(), members, g.vertices - members)
    return Fraction(cut, len(members))


def _laplacian(n: int, terms: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """The (n, n) int64 Laplacian of ``(i, j, w)`` terms, x^T L x the cut of x.

    Refuses a total term weight W with W * max(2, lcm(1..n/2)) >= 2^63: that
    keeps every entry, the kernel's cut sums and doubled coefficients, and
    ``_min_ratio``'s keys up to W * lcm(1..n/2) inside int64.
    """
    weight = sum(w for _, _, w in terms)
    if weight * max(2, math.lcm(*range(1, n // 2 + 1))) >= 1 << 63:
        raise AnalysisError(
            f"total edge weight {weight} at n = {n} would overflow int64 cuts"
        )
    lap = np.zeros((n, n), dtype=np.int64)
    for i, j, w in terms:
        lap[[i, j], [i, j]] += w
        lap[[i, j], [j, i]] -= w
    return lap


def _cut_chunks(n: int, terms: Sequence[tuple[int, int, int]]):
    """Yield ``(masks, sizes, cuts)`` for ``_CHUNK`` cuts at a time.

    A cut is a mask over the vertex order with bit 0 clear, numbered
    ``mask >> 1``.  ``sizes`` are popcounts and ``cuts[k]`` is the weight of
    the terms ``(i, j, w)`` whose vertices i and j ``masks[k]`` separates.

    The cut of x = b + h is the Laplacian form b^T L b + h^T L h +
    2 b^T L h, so one step adds to the cuts of every low mask b the offset
    h^T L h and the subset sums of 2 (L h)_i, built by doubling.  The first
    chunk grows from the empty mask by one step per low vertex, and each
    later chunk is one step on it: O(chunk) int64 work a chunk.  Partial
    sums are differences of cuts and coefficients reach 2W, for total term
    weight W, inside ``_laplacian``'s guard.  ``_CHUNK`` must be a power of
    two.
    """
    lap = _laplacian(n, terms)

    def step(low: np.ndarray, high: int) -> np.ndarray:
        x = (high >> np.arange(n)) & 1
        lh = lap @ x
        out = np.empty_like(low)
        out[0] = lh @ x
        for t in range(len(low).bit_length() - 1):  # bit t is vertex t + 1
            np.add(out[:1 << t], 2 * lh[t + 1], out=out[1 << t:2 << t])
        out += low
        return out

    total = 1 << (n - 1)
    size = min(_CHUNK, total)
    first = np.zeros(size, dtype=np.int64)
    for t in range(size.bit_length() - 1):
        first[1 << t:2 << t] = step(first[:1 << t], 2 << t)
    masks = np.arange(size, dtype=np.int64) << 1
    for high in range(0, 2 * total, 2 * size):
        chunk = masks + high
        cuts = step(first, high) if high else first
        yield chunk, np.bitwise_count(chunk).astype(np.int64), cuts


def _min_ratio(
    n: int, terms: Sequence[tuple[int, int, int]]
) -> tuple[Fraction, list[tuple[int, bool]]]:
    """Exact minimum of cut weight / |side| over sides of 1 to n/2 vertices.

    A mask's best side is its smaller, of min(s, n - s) vertices, so with
    L = lcm(1..n/2) the ratio is the integer key cut * (L / min(s, n - s))
    over L; the empty mask has no side.  ``_laplacian`` refuses a total
    term weight W with W * L >= 2^63, so keys stay in int64.  Returns the
    minimum and every minimizing ``(mask, side is the mask)``.
    """
    lcm = math.lcm(*range(1, n // 2 + 1))
    scale = np.array([0] + [lcm // min(s, n - s) for s in range(1, n)])
    best = np.iinfo(np.int64).max
    minimizers: list[tuple[int, bool]] = []
    for masks, sizes, cuts in _cut_chunks(n, terms):
        keys = cuts * scale[sizes]
        keys[sizes == 0] = np.iinfo(np.int64).max
        low = keys.min()
        if low < best:
            best, minimizers = low, []
        if low == best:
            for i in np.flatnonzero(keys == best):
                for direct, side in ((True, sizes[i]), (False, n - sizes[i])):
                    if 2 * side <= n:
                        minimizers.append((int(masks[i]), direct))
    return Fraction(int(best), lcm), minimizers


def require_exact_size(n: int) -> None:
    """Raise ``AnalysisError`` when 2^(n-1) cuts are too many to enumerate."""
    if n > MAX_EXACT_N:
        raise AnalysisError(
            f"n = {n} exceeds the exact enumeration bound {MAX_EXACT_N}; "
            "use the spectral bounds instead"
        )


def _index(g: WeightedMultigraph) -> dict[VertexName, int]:
    return {v: i for i, v in enumerate(g.vertices)}


def edge_expansion_exact(g: WeightedMultigraph) -> ExpansionReport:
    """Exact minimum expansion over all admissible subsets.

    Brute force over all 2^(n-1) cuts with vectorized cut weights; the argmin
    reported is the lexicographically smallest set among the minimizers.
    """
    n = g.n
    if n < 2:
        raise AnalysisError("graph needs at least 2 vertices")
    require_exact_size(n)
    order = list(g.vertices)
    index = _index(g)
    terms = [(index[u], index[v], w) for u, v, w in g.edges()]
    h, minimizers = _min_ratio(n, terms)
    argmin = min(
        tuple(i for i in range(n) if ((mask >> i) & 1) == direct)
        for mask, direct in minimizers
    )
    checked = sum(math.comb(n, s) for s in range(1, n // 2 + 1))
    return ExpansionReport(
        h=h, argmin_set=tuple(order[i] for i in argmin), n_subsets_checked=checked
    )


def _regular_degree(g: WeightedMultigraph) -> int:
    degs = {weighted_degree(g, v) for v in g.vertices}
    if len(degs) != 1:
        raise AnalysisError(f"graph is not regular: degrees {sorted(degs)}")
    return degs.pop()


def cheeger_bounds(g: WeightedMultigraph, lambda2: float) -> tuple[float, float]:
    """Cheeger's sandwich (d - lambda2)/2 <= h <= sqrt(2d(d - lambda2)).

    Raises ``AnalysisError`` unless ``g`` is d-regular.
    """
    d = _regular_degree(g)
    return (d - lambda2) / 2.0, math.sqrt(max(0.0, 2.0 * d * (d - lambda2)))


def cheeger_check(
    g: WeightedMultigraph,
    h: Fraction | None = None,
    spectrum: SpectralReport | None = None,
) -> CheegerResult:
    """Sandwich the exact expansion between the spectral bounds.

    ``h`` and ``spectrum`` are the graph's exact expansion and spectrum when
    the caller already has them.
    """
    lower, upper = cheeger_bounds(g, (spectrum or spectral_report(g)).lambda2)
    if h is None:
        h = edge_expansion_exact(g).h
    ok = (lower - CHEEGER_SLACK) <= float(h) <= (upper + CHEEGER_SLACK)
    return CheegerResult(lower=lower, upper=upper, h=h, ok=ok)


def mixing_check(
    g: WeightedMultigraph,
    s: Iterable[VertexName],
    t: Iterable[VertexName],
    lam: float | None = None,
) -> bool:
    """Edge-count concentration between two disjoint vertex sets.

    Checks | w(S,T) - d|S||T|/n | <= lambda * sqrt(|S||T|) with a 1e-9 slack;
    overlapping sets are rejected (the suite only exercises disjoint pairs).
    """
    ss, tt = set(s), set(t)
    if not ss or not tt:
        raise AnalysisError("S and T must be nonempty")
    if ss & tt:
        raise AnalysisError("S and T must be disjoint")
    d = _regular_degree(g)
    if lam is None:
        lam = spectral_report(g).lambda_
    w = 0
    for u in ss:
        for v, wt in g.neighbors(u).items():
            if v in tt:
                w += wt
    expected = d * len(ss) * len(tt) / g.n
    return abs(w - expected) <= lam * math.sqrt(len(ss) * len(tt)) + FLOAT_SLACK


def _check_mixing_rows(g: WeightedMultigraph, rows: np.ndarray, lam: float) -> int:
    """Check ``mixing_check`` on every row of trits as one batch; returns pairs.

    Column k of a row is the k-th vertex in sorted order: 1 puts it in S, 2 in
    T.  Rows with S or T empty are skipped; the others count as pairs and are
    checked with the float operations of ``mixing_check``.  Raises
    LemmaViolation on the first failing row.
    """
    d = _regular_degree(g)
    index = _index(g)
    size_s, size_t = (rows == 1).sum(axis=1), (rows == 2).sum(axis=1)
    pairs = np.nonzero((size_s > 0) & (size_t > 0))[0]
    rows, size_s, size_t = rows[pairs], size_s[pairs], size_t[pairs]
    w = np.zeros(len(pairs), dtype=np.int64)
    for u, v, wt in g.edges():
        # trits multiply to 2 just when one end is in S and the other in T
        w += wt * (rows[:, index[u]] * rows[:, index[v]] == 2)
    expected = d * size_s * size_t / g.n
    bad = np.abs(w - expected) > lam * np.sqrt(size_s * size_t) + FLOAT_SLACK
    if bad.any():
        k = int(np.argmax(bad))
        raise LemmaViolation(
            f"mixing violated: |{w[k]} - {expected[k]:.6f}| > "
            f"{lam:.6f}*sqrt({size_s[k]}*{size_t[k]})"
        )
    return len(pairs)


def mixing_suite(g: WeightedMultigraph, spectrum: SpectralReport | None = None) -> int:
    """Check the mixing inequality over disjoint pairs; returns pairs checked.

    Exhaustive over all disjoint nonempty (S, T) when n <=
    ``MIXING_EXHAUSTIVE_LIMIT``, otherwise over ``MIXING_SAMPLES`` pairs drawn
    from ``random.Random(MIXING_SEED)``.  Raises LemmaViolation on the first
    failing pair.  ``spectrum`` is the graph's spectrum when the caller
    already has it.
    """
    n = g.n
    lam = (spectrum or spectral_report(g)).lambda_
    if n <= MIXING_EXHAUSTIVE_LIMIT:
        # row k holds the base-3 digits of k, least significant first
        codes = np.arange(3**n, dtype=np.int64)
        rows = np.empty((len(codes), n), dtype=np.int8)
        for k in range(n):
            rows[:, k] = codes // 3**k % 3
    else:
        rows = _sampled_rows(random.Random(MIXING_SEED), n, MIXING_SAMPLES)
    return _check_mixing_rows(g, rows, lam)


def _sampled_rows(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The first ``count`` rows of n ``rng.randrange(3)`` trits that hold both
    a 1 and a 2, drawn in bulk.

    ``randrange(3)`` is the top two bits of the next 32-bit Mersenne Twister
    word, redrawn while they read 3, and ``getrandbits(32 * w)`` is the next w
    words, least significant first; so the stream of words below 3 << 30, cut
    into rows of n, is the loop's stream of trits.  ``rng`` draws ahead.
    """
    kept = [np.empty((0, n), dtype=np.int8)]
    carry = np.empty(0, dtype=np.int8)
    have = 0
    while have < count:
        # 4/3 words per trit and most rows kept, at most _DRAW_WORDS at once
        words = min(2 * n * (count - have), _DRAW_WORDS)
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        trits = (np.frombuffer(raw, "<u4") >> 30).astype(np.int8)
        stream = np.concatenate([carry, trits[trits < 3]])
        cut = len(stream) - len(stream) % n
        block, carry = stream[:cut].reshape(-1, n), stream[cut:]
        kept.append(block[(block == 1).any(axis=1) & (block == 2).any(axis=1)])
        have += len(kept[-1])
    return np.concatenate(kept)[:count]


@dataclass(frozen=True)
class CutDecomposition:
    """A cut of a growth state split into its S/U blocks and future image."""

    split_side: tuple[VertexName, ...]
    unsplit_side: tuple[VertexName, ...]
    split_other: tuple[VertexName, ...]
    unsplit_other: tuple[VertexName, ...]
    future_side: tuple[VertexName, ...]
    future_other: tuple[VertexName, ...]
    wg_blocks: dict[str, int]
    wh_blocks: dict[str, int]


def _future_set(state: GrowthState, a: set[VertexName]) -> set[VertexName]:
    """The target vertices that the current vertices in ``a`` stand for."""
    depth = next(iter(state.target.vertices)).depth
    return set().union(*(locus(v, depth) for v in a))


def cut_decomposition(
    state: GrowthState, a: Iterable[VertexName]
) -> CutDecomposition:
    aset = set(a)
    g = state.current
    if not aset <= set(g.vertices):
        raise AnalysisError("cut side contains unknown vertices")
    bset = set(g.vertices) - aset
    sa, ua = aset & state.split, aset & state.unsplit
    sb, ub = bset & state.split, bset & state.unsplit
    fa, fb = _future_set(state, aset), _future_set(state, bset)
    # the current cut leaves out split-partner edges
    g_edges = [
        (u, v, w)
        for u, v, w in g.edges()
        if not (u in state.split and v in state.split and partner(u) == v)
    ]
    h_edges = list(state.target.edges())
    blocks = {"ss": (sa, sb), "uu": (ua, ub), "su": (sa, ub), "us": (ua, sb)}
    wg, wh = {}, {}
    for k, (xs, ys) in blocks.items():
        wg[k] = _weight_between(g_edges, xs, ys)
        wh[k] = _weight_between(h_edges, _future_set(state, xs), _future_set(state, ys))

    def tup(x: set[VertexName]) -> tuple[VertexName, ...]:
        return tuple(sorted(x))

    return CutDecomposition(
        split_side=tup(sa),
        unsplit_side=tup(ua),
        split_other=tup(sb),
        unsplit_other=tup(ub),
        future_side=tup(fa),
        future_other=tup(fb),
        wg_blocks=wg,
        wh_blocks=wh,
    )


def half_lemma_check(state: GrowthState, a: Iterable[VertexName]) -> bool:
    """Verify the block identities and the half bound for one cut, exactly.

    The split-split block carries over unchanged to the future cut; the other
    blocks double; consequently the partner-free cut weight is at least half
    the future cut weight.
    """
    dec = cut_decomposition(state, a)
    if dec.wh_blocks["ss"] != dec.wg_blocks["ss"]:
        raise LemmaViolation(
            f"split-split block identity failed: "
            f"{dec.wh_blocks['ss']} != {dec.wg_blocks['ss']}"
        )
    for name in ("uu", "su", "us"):
        if dec.wh_blocks[name] != 2 * dec.wg_blocks[name]:
            raise LemmaViolation(
                f"{name} block identity failed: "
                f"{dec.wh_blocks[name]} != 2*{dec.wg_blocks[name]}"
            )
    wg_total = sum(dec.wg_blocks.values())
    wh_total = sum(dec.wh_blocks.values())
    wh_direct = _weight_between(
        state.target.edges(), set(dec.future_side), set(dec.future_other)
    )
    if wh_direct != wh_total:
        raise LemmaViolation(
            f"future cut blocks do not add up: {wh_total} != {wh_direct}"
        )
    if 2 * wg_total < wh_total:
        raise LemmaViolation(
            f"half bound failed: 2*{wg_total} < {wh_total}"
        )
    return True


def _future_terms(state: GrowthState) -> list[tuple[int, int, int, int]]:
    """``(i, j, w, col)`` cut terms of a growth state's blocks, one per column.

    Column k is the partner-free cut of the current graph over edges with k
    split endpoints (uu, su, ss); column 3 + k the future cut over target
    edges, each counted at its endpoints' preimages in the current graph.
    """
    split = state.split
    index = _index(state.current)
    terms = [
        (index[u], index[v], w, (u in split) + (v in split))
        for u, v, w in state.current.edges()
        if not (u in split and v in split and partner(u) == v)
    ]
    for x, y, w in state.target.edges():
        px = x if x in split else x.parent()
        py = y if y in split else y.parent()
        terms.append((index[px], index[py], w, 3 + (px in split) + (py in split)))
    return terms


def future_cut_suite(state: GrowthState) -> int:
    """Decide the block identities on every cut; returns the cut count.

    With x a cut side's indicator, a block's identity w_H = c w_G (c = 1 for
    ss, 2 for uu and su) reads f(x) = x^T M x = 0 for M = L_H - c L_G, the
    block's Laplacians from ``_future_terms``.  Cuts leave vertex 0 out, and
    for i, j >= 1 f({i}) = M_ii and f({i, j}) - f({i}) - f({j}) = 2 M_ij, so
    the identity holds on every cut iff M is zero off row and column 0, and
    then zero row sums make M zero.  Else let j be the first index >= 1 with
    some M_ij != 0, 1 <= i <= j: every cut inside {1..j-1} passes and
    f(S + {j}) = M_jj + 2 sum_{i in S} M_ij, so the first failing cut is {j}
    if M_jj != 0, else {i1, j} for the first such i1.  LemmaViolation names
    the first failing identity, in the order ss, uu, su, at that cut's index
    ``mask >> 1``.  M is kept sparse and exact: O(nd) integer work at any n.

    The half bound 2 w_G >= w_H needs no check: once the identities hold,
    2 w_G - w_H = w_G^ss >= 0 on every cut, for weights are positive.
    ``half_lemma_check`` checks it cut by cut.
    """
    blocks: list[dict[tuple[int, int], int]] = [defaultdict(int) for _ in range(3)]
    for i, j, w, col in _future_terms(state):
        w *= (-2, -2, -1, 1, 1, 1)[col]  # M = L_H - c L_G
        m = blocks[col % 3]
        m[i, i] += w
        m[j, j] += w
        m[i, j] -= w  # a loop's entries cancel
        m[j, i] -= w
    for name, m in (("split-split block identity", blocks[2]),
                    ("uu block identity", blocks[0]), ("su block identity", blocks[1])):
        # the cut {j} comes first among the cuts whose largest index is j
        bad = [(j, i != j, i) for (i, j), x in m.items() if 0 < i <= j and x]
        if bad:
            j, _, i = min(bad)
            raise LemmaViolation(f"{name} failed at mask {(1 << i | 1 << j) >> 1}")
    return (1 << (state.current.n - 1)) - 1


def future_cut_floor(state: GrowthState) -> Fraction:
    """min over admissible cut sides of w_H(F(A), F(comp)) / (2 |A|).

    The exact expansion of the current graph is bounded below by this
    quantity, which replaces the asymptotic constants with computed future
    cut weights.
    """
    require_exact_size(state.current.n)
    terms = [(i, j, w) for i, j, w, col in _future_terms(state) if col >= 3]
    return _min_ratio(state.current.n, terms)[0] / 2


def rayleigh_lower_bound_check(d: int, i: int, seed: int = 0) -> RayleighResult:
    """Spectral floor of the one-split graph after the i-th doubling.

    Builds the graph obtained by a single split of the i-th doubled expander,
    checks lambda2 >= d/2 - RAYLEIGH_EPSILON, and independently checks
    lambda2 against the Rayleigh quotient of the explicit test vector that
    loads the fresh split pair.
    """
    if i < 0:
        raise AnalysisError(f"rayleigh index must be >= 0, got {i}")
    # n - 1 = (d/2 + 1) 2^i >= 2^(i + 2): refused before a name of i bits is built
    if i >= 10:
        raise AnalysisError(f"rayleigh index {i} exceeds the eigensolver reach")
    n = split_n(d, VertexName(0, (0,) * i))
    if n - 1 > 2048:
        raise AnalysisError(f"n - 1 = {n - 1} exceeds the eigensolver reach")
    g = graph_at(d, n, seed)
    log = changelog_at(d, n, seed)
    rep = spectral_report(g)
    index = _index(g)
    v0, v1 = log.split_vertex.child(0), log.new_vertex
    x = np.full(n, -2.0 / n)
    x[index[v0]] = 1.0 - 2.0 / n
    x[index[v1]] = 1.0 - 2.0 / n
    a = adjacency_matrix(g).astype(np.float64)
    quotient = float(x @ a @ x) / float(x @ x)
    if rep.lambda2 < quotient - FLOAT_SLACK:
        raise LemmaViolation(
            f"variational principle violated: lambda2 {rep.lambda2:.9f} < "
            f"Rayleigh quotient {quotient:.9f}"
        )
    ok = rep.lambda2 >= d / 2 - RAYLEIGH_EPSILON
    return RayleighResult(ok=ok, n=n, lambda2=rep.lambda2, quotient=quotient)

