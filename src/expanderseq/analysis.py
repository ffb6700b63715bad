"""Exact and spectral verification of expansion properties.

Combinatorial quantities (cut weights, expansion ratios, the future-cut block
identities) are computed in exact integer or rational arithmetic; only
eigenvalues are floating point.  Every exhaustive cut check runs on one
chunked kernel, ``_cut_chunks``: for each of the 2^(n-1) cuts it sums the
caller's edge terms into integer columns.  ``edge_expansion_exact`` and
``future_cut_floor`` read one column (all edges, or target edges at their
preimages) through ``_min_ratio``, the exact minimum of weight / |side|;
``future_cut_suite`` reads six, the partner-free current cut and the future
cut, each by number of split endpoints (uu, su, ss).  Exhaustive checks up
to n = 16 run in milliseconds and n = 24 stays feasible.

Two distinct cut-weight functions coexist on growth states: the expansion
measurements count every edge, while the block machinery relating a cut to
its image in the next doubled expander excludes edges between split partners.
The scalar path (``expansion_of_set``, ``cut_decomposition``,
``half_lemma_check``) computes both for one cut from vertex sets, without the
kernel, and is the reference the kernel is tested against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

import numpy as np

from .grower import GrowthState, graph_at, state_at
from .lifts import SpectralReport, spectral_report
from .multigraph import (
    WeightedMultigraph,
    adjacency_matrix,
    vertex_order,
    weighted_degree,
)
from .names import VertexName, format_name, partner

MAX_EXACT_N = 26
FLOAT_SLACK = 1e-9
CHEEGER_SLACK = 1e-6
# a chunk's bit rows and cut columns stay small enough for a core's L2 cache
_CHUNK = 1 << 14


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


def _cut_weight(g: WeightedMultigraph, members: set[VertexName]) -> int:
    total = 0
    for u, v, w in g.edges():
        if (u in members) != (v in members):
            total += w
    return total


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
    return Fraction(_cut_weight(g, members), len(members))


def _cut_chunks(n: int, terms: Sequence[tuple[int, int, int, int]], width: int):
    """Yield ``(masks, sizes, cuts)`` for ``_CHUNK`` cuts at a time.

    A cut is a mask over the vertex order with bit 0 clear, numbered
    ``mask >> 1``.  ``sizes`` are popcounts and ``cuts`` is ``(width,
    len(masks))``: term ``(i, j, w, col)`` adds ``w`` to column ``col`` of
    every cut separating vertices i and j.
    """
    total = 1 << (n - 1)
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.int64) << 1
        cuts = np.zeros((width, len(masks)), dtype=np.int64)
        bits = (masks >> np.arange(n)[:, None]) & 1
        for i, j, w, col in terms:
            cuts[col] += w * (bits[i] ^ bits[j])
        yield masks, np.bitwise_count(masks).astype(np.int64), cuts


def _min_ratio(
    n: int, terms: Sequence[tuple[int, int, int, int]]
) -> tuple[Fraction, list[tuple[int, bool]], int]:
    """Exact minimum of cut weight / |side| over sides of 1 to n/2 vertices.

    Floats only preselect the candidates within FLOAT_SLACK of the smaller of
    the chunk's minimum and the best so far; ``Fraction`` decides.  Returns
    the minimum, every minimizing ``(mask, side is the mask)`` and the number
    of sides checked.
    """
    best: Fraction | None = None
    bound = math.inf  # float(best)
    minimizers: list[tuple[int, bool]] = []
    checked = 0
    for masks, sizes, cuts in _cut_chunks(n, terms, 1):
        for direct, side in ((True, sizes), (False, n - sizes)):
            idx = np.nonzero((side >= 1) & (side <= n // 2))[0]
            checked += len(idx)
            ratio = cuts[0, idx] / side[idx]
            for i in idx[ratio <= ratio.min(initial=bound) + FLOAT_SLACK]:
                f = Fraction(int(cuts[0, i]), int(side[i]))
                if best is None or f < best:
                    best, bound, minimizers = f, float(f), []
                if f == best:
                    minimizers.append((int(masks[i]), direct))
    assert best is not None
    return best, minimizers, checked


def _index(g: WeightedMultigraph) -> dict[VertexName, int]:
    return {v: i for i, v in enumerate(vertex_order(g))}


def edge_expansion_exact(g: WeightedMultigraph) -> ExpansionReport:
    """Exact minimum expansion over all admissible subsets.

    Brute force over all 2^(n-1) cuts with vectorized cut weights; the argmin
    reported is the lexicographically smallest set among the minimizers.
    """
    n = g.n
    if n < 2:
        raise AnalysisError("graph needs at least 2 vertices")
    if n > MAX_EXACT_N:
        raise AnalysisError(
            f"n = {n} exceeds the exact enumeration bound {MAX_EXACT_N}; "
            "use the spectral bounds instead"
        )
    order = vertex_order(g)
    index = {v: i for i, v in enumerate(order)}
    terms = [(index[u], index[v], w, 0) for u, v, w in g.edges()]
    h, minimizers, checked = _min_ratio(n, terms)
    argmin = min(
        tuple(i for i in range(n) if ((mask >> i) & 1) == direct)
        for mask, direct in minimizers
    )
    return ExpansionReport(
        h=h, argmin_set=tuple(order[i] for i in argmin), n_subsets_checked=checked
    )


def _regular_degree(g: WeightedMultigraph) -> int:
    degs = {weighted_degree(g, v) for v in g.vertices}
    if len(degs) != 1:
        raise AnalysisError(f"graph is not regular: degrees {sorted(degs)}")
    return degs.pop()


def cheeger_bounds(d: int, lambda2: float) -> tuple[float, float]:
    """Cheeger's sandwich (d - lambda2)/2 <= h <= sqrt(2d(d - lambda2))."""
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
    d = _regular_degree(g)
    lower, upper = cheeger_bounds(d, (spectrum or spectral_report(g)).lambda2)
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


def mixing_suite(
    g: WeightedMultigraph,
    exhaustive_limit: int = 12,
    n_samples: int = 10_000,
    seed: int = 0,
    spectrum: SpectralReport | None = None,
) -> int:
    """Check the mixing inequality over disjoint pairs; returns pairs checked.

    Exhaustive over all disjoint nonempty (S, T) when n <= exhaustive_limit,
    otherwise over deterministic seeded samples.  Raises LemmaViolation on the
    first failing pair.  ``spectrum`` is the graph's spectrum when the caller
    already has it.
    """
    n = g.n
    d = _regular_degree(g)
    lam = (spectrum or spectral_report(g)).lambda_
    index = _index(g)
    weights = [(index[u], index[v], w) for u, v, w in g.edges()]

    def check(trits: Sequence[int]) -> bool:
        size_s = sum(1 for t in trits if t == 1)
        size_t = sum(1 for t in trits if t == 2)
        if not size_s or not size_t:
            return False
        w = sum(
            wt
            for iu, iv, wt in weights
            if (trits[iu], trits[iv]) in ((1, 2), (2, 1))
        )
        expected = d * size_s * size_t / n
        if abs(w - expected) > lam * math.sqrt(size_s * size_t) + FLOAT_SLACK:
            raise LemmaViolation(
                f"mixing violated: |{w} - {expected:.6f}| > "
                f"{lam:.6f}*sqrt({size_s}*{size_t})"
            )
        return True

    if n <= exhaustive_limit:
        # reversed, position k is the k-th base-3 digit of an increasing code
        return sum(check(t[::-1]) for t in product(range(3), repeat=n))
    rng = random.Random(seed)
    checked = 0
    while checked < n_samples:
        checked += check([rng.randrange(3) for _ in range(n)])
    return checked


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
    out: set[VertexName] = set()
    for v in a:
        if v in state.split:
            out.add(v)
        else:
            out.add(v.child(0))
            out.add(v.child(1))
    return out


def _wg_between(
    state: GrowthState, xs: set[VertexName], ys: set[VertexName]
) -> int:
    """Cut weight in the current graph, excluding split-partner edges."""
    g = state.current
    total = 0
    for u, v, w in g.edges():
        if u in state.split and v in state.split and partner(u) == v:
            continue
        if (u in xs and v in ys) or (v in xs and u in ys):
            total += w
    return total


def _wh_between(
    state: GrowthState, xs: set[VertexName], ys: set[VertexName]
) -> int:
    total = 0
    for u, v, w in state.target.edges():
        if (u in xs and v in ys) or (v in xs and u in ys):
            total += w
    return total


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
    wg = {
        "ss": _wg_between(state, sa, sb),
        "uu": _wg_between(state, ua, ub),
        "su": _wg_between(state, sa, ub),
        "us": _wg_between(state, ua, sb),
    }
    wh = {
        "ss": _wh_between(state, _future_set(state, sa), _future_set(state, sb)),
        "uu": _wh_between(state, _future_set(state, ua), _future_set(state, ub)),
        "su": _wh_between(state, _future_set(state, sa), _future_set(state, ub)),
        "us": _wh_between(state, _future_set(state, ua), _future_set(state, sb)),
    }

    def tup(x: set[VertexName]) -> tuple[VertexName, ...]:
        return tuple(sorted(x, key=lambda v: v.key()))

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
    aset = set(a)
    fa = _future_set(state, aset)
    fb = _future_set(state, set(state.current.vertices) - aset)
    wh_direct = _wh_between(state, fa, fb)
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
    """Kernel terms of a growth state's cut blocks, a block per column.

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
    """Check block identities and the half bound over every cut; returns count.

    All arithmetic is integer; raises LemmaViolation naming the first failed
    check, in the order below, at the first cut index where it fails.
    """
    n = state.current.n
    checks = ["split-split block identity", "uu block identity",
              "su block identity", "half bound"]
    first_bad: list[int | None] = [None] * len(checks)
    for masks, _, cuts in _cut_chunks(n, _future_terms(state), 6):
        wg, wh = cuts[:3], cuts[3:]
        failed = (wh[2] != wg[2], wh[0] != 2 * wg[0], wh[1] != 2 * wg[1],
                  2 * wg.sum(axis=0) < wh.sum(axis=0))
        for k, bad in enumerate(failed):
            if first_bad[k] is None and bad.any():
                first_bad[k] = int(masks[np.argmax(bad)]) >> 1
    for name, bad in zip(checks, first_bad):
        if bad is not None:
            raise LemmaViolation(f"{name} failed at mask {bad}")
    return (1 << (n - 1)) - 1


def future_cut_floor(state: GrowthState) -> Fraction:
    """min over admissible cut sides of w_H(F(A), F(comp)) / (2 |A|).

    The exact expansion of the current graph is bounded below by this
    quantity, which replaces the asymptotic constants with computed future
    cut weights.
    """
    terms = [(i, j, w, 0) for i, j, w, col in _future_terms(state) if col >= 3]
    return _min_ratio(state.current.n, terms)[0] / 2


def rayleigh_lower_bound_check(
    d: int, i: int, epsilon: float, seed: int = 0
) -> RayleighResult:
    """Spectral floor of the one-split graph after the i-th doubling.

    Builds the graph obtained by a single split of the i-th doubled expander,
    checks lambda2 >= d/2 - epsilon, and independently checks lambda2 against
    the Rayleigh quotient of the explicit test vector that loads the fresh
    split pair.
    """
    n = (1 << i) * (d // 2 + 1) + 1
    if n - 1 > 2048:
        raise AnalysisError(f"n - 1 = {n - 1} exceeds the eigensolver reach")
    g = graph_at(d, n, seed)
    state = state_at(d, n, seed)
    rep = spectral_report(g)
    index = _index(g)
    v0 = state.split_order[0].child(0)
    v1 = state.split_order[0].child(1)
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
    ok = rep.lambda2 >= d / 2 - epsilon
    return RayleighResult(ok=ok, n=n, lambda2=rep.lambda2, quotient=quotient)


def unbalanced_bound_check(
    h_graph: WeightedMultigraph, x: Iterable[VertexName]
) -> bool:
    """Cut floor for small sides of a doubled expander via the mixing bound."""
    xs = set(x)
    n = h_graph.n
    if not xs or len(xs) > n // 2:
        raise AnalysisError("X must be nonempty with |X| <= n/2")
    d = _regular_degree(h_graph)
    lam = spectral_report(h_graph).lambda_
    cut = _cut_weight(h_graph, xs)
    bound = len(xs) * (d * (n - len(xs)) / n - 4.0 * lam)
    return cut >= bound - FLOAT_SLACK


def unbalanced_suite(h_graph: WeightedMultigraph, max_size: int = 4) -> int:
    """Exhaustive unbalanced-cut floor over all small sides; returns count."""
    order = vertex_order(h_graph)
    checked = 0
    for k in range(1, min(max_size, h_graph.n // 2) + 1):
        for combo in combinations(order, k):
            if not unbalanced_bound_check(h_graph, combo):
                raise LemmaViolation(
                    f"unbalanced bound failed for "
                    f"{[format_name(v) for v in combo]}"
                )
            checked += 1
    return checked
