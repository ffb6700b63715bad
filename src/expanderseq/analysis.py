"""Exact and spectral verification of expansion properties.

Combinatorial quantities (cut weights, expansion ratios, the future-cut block
identities) are computed in exact integer or rational arithmetic; only
eigenvalues are floating point.  Subset enumeration is vectorized over bit
masks so exhaustive checks up to n = 16 run in milliseconds and n = 24 stays
feasible.

Two distinct cut-weight functions coexist on growth states: the expansion
measurements count every edge, while the block machinery relating a cut to
its image in the next doubled expander excludes edges between split partners.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .grower import GrowthState, graph_at, state_at
from .lifts import spectral_report
from .multigraph import (
    WeightedMultigraph,
    vertex_order,
    weighted_degree,
)
from .names import VertexName, format_name, partner

MAX_EXACT_N = 26
FLOAT_SLACK = 1e-9
CHEEGER_SLACK = 1e-6
_CHUNK = 1 << 20


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


def edge_expansion_exact(g: WeightedMultigraph) -> ExpansionReport:
    """Exact minimum expansion over all admissible subsets.

    Brute force over all 2^(n-1) cuts with incremental vectorized cut
    weights; the argmin reported is the lexicographically smallest set among
    the minimizers.
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
    half = n // 2
    best: Fraction | None = None
    best_masks: list[int] = []
    checked = 0
    total = 1 << (n - 1)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        masks = np.arange(start, stop, dtype=np.int64) << 1
        cut = np.zeros(masks.shape, dtype=np.int64)
        for u, v, w in g.edges():
            cut += w * (((masks >> index[u]) ^ (masks >> index[v])) & 1)
        sizes = np.bitwise_count(masks).astype(np.int64)
        for side_sizes in (sizes, n - sizes):
            ok = (side_sizes >= 1) & (side_sizes <= half)
            checked += int(ok.sum())
            if not ok.any():
                continue
            ratio = cut[ok] / side_sizes[ok]
            m = float(ratio.min())
            cand_local = np.nonzero(ok)[0][np.nonzero(ratio <= m + 1e-9)[0]]
            for li in cand_local:
                num, den = int(cut[li]), int(side_sizes[li])
                f = Fraction(num, den)
                if best is None or f < best:
                    best = f
                    best_masks = [(int(masks[li]), side_sizes is sizes)]
                elif f == best:
                    best_masks.append((int(masks[li]), side_sizes is sizes))
    assert best is not None
    argmin: tuple[VertexName, ...] | None = None
    argmin_idx: tuple[int, ...] | None = None
    for mask, direct in best_masks:
        idxs = tuple(
            i for i in range(n) if ((mask >> i) & 1) == (1 if direct else 0)
        )
        if argmin_idx is None or idxs < argmin_idx:
            argmin_idx = idxs
            argmin = tuple(order[i] for i in idxs)
    assert argmin is not None
    return ExpansionReport(h=best, argmin_set=argmin, n_subsets_checked=checked)


def _regular_degree(g: WeightedMultigraph) -> int:
    degs = {weighted_degree(g, v) for v in g.vertices}
    if len(degs) != 1:
        raise AnalysisError(f"graph is not regular: degrees {sorted(degs)}")
    return degs.pop()


def cheeger_check(g: WeightedMultigraph) -> CheegerResult:
    """Sandwich the exact expansion between the spectral bounds."""
    d = _regular_degree(g)
    lam2 = spectral_report(g).lambda2
    lower = (d - lam2) / 2.0
    upper = math.sqrt(max(0.0, 2.0 * d * (d - lam2)))
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
) -> int:
    """Check the mixing inequality over disjoint pairs; returns pairs checked.

    Exhaustive over all disjoint nonempty (S, T) when n <= exhaustive_limit,
    otherwise over deterministic seeded samples.  Raises LemmaViolation on the
    first failing pair.
    """
    n = g.n
    d = _regular_degree(g)
    lam = spectral_report(g).lambda_
    order = vertex_order(g)
    index = {v: i for i, v in enumerate(order)}
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

    checked = 0
    if n <= exhaustive_limit:
        for code in range(3**n):
            trits = []
            c = code
            for _ in range(n):
                trits.append(c % 3)
                c //= 3
            if check(trits):
                checked += 1
    else:
        rng = random.Random(seed)
        while checked < n_samples:
            trits = [rng.randrange(3) for _ in range(n)]
            if check(trits):
                checked += 1
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


def _state_cut_arrays(state: GrowthState) -> dict[str, "np.ndarray"]:
    """Per-class cut weights for every cut of the current graph, vectorized.

    Masks run over subsets not containing the canonically smallest vertex, so
    each unordered cut appears exactly once; entry 0 is the empty cut.
    """
    g = state.current
    order = vertex_order(g)
    index = {v: i for i, v in enumerate(order)}
    n = g.n
    masks = np.arange(1 << (n - 1), dtype=np.int64) << 1
    zeros = np.zeros(masks.shape, dtype=np.int64)
    wg = {"ss": zeros.copy(), "uu": zeros.copy(), "su": zeros.copy()}
    wg_pair = zeros.copy()
    for u, v, w in g.edges():
        crossing = ((masks >> index[u]) ^ (masks >> index[v])) & 1
        u_split = u in state.split
        v_split = v in state.split
        if u_split and v_split and partner(u) == v:
            wg_pair += w * crossing
            continue
        klass = "ss" if (u_split and v_split) else "uu" if not (u_split or v_split) else "su"
        wg[klass] += w * crossing

    wh = {"ss": zeros.copy(), "uu": zeros.copy(), "su": zeros.copy()}
    for x, y, w in state.target.edges():
        px = x if x in state.split else x.parent()
        py = y if y in state.split else y.parent()
        crossing = ((masks >> index[px]) ^ (masks >> index[py])) & 1
        x_split = px in state.split
        y_split = py in state.split
        klass = "ss" if (x_split and y_split) else "uu" if not (x_split or y_split) else "su"
        wh[klass] += w * crossing
    sizes = np.bitwise_count(masks).astype(np.int64)
    return {
        "sizes": sizes,
        "wg_ss": wg["ss"],
        "wg_uu": wg["uu"],
        "wg_su": wg["su"],
        "wg_pair": wg_pair,
        "wh_ss": wh["ss"],
        "wh_uu": wh["uu"],
        "wh_su": wh["su"],
    }


def future_cut_suite(state: GrowthState) -> int:
    """Check block identities and the half bound over every cut; returns count.

    All arithmetic is integer; raises LemmaViolation naming the first failed
    identity.
    """
    arr = _state_cut_arrays(state)
    n_cuts = len(arr["sizes"]) - 1
    if not np.array_equal(arr["wh_ss"], arr["wg_ss"]):
        bad = int(np.nonzero(arr["wh_ss"] != arr["wg_ss"])[0][0])
        raise LemmaViolation(f"split-split block identity failed at mask {bad}")
    for name in ("uu", "su"):
        if not np.array_equal(arr[f"wh_{name}"], 2 * arr[f"wg_{name}"]):
            bad = int(np.nonzero(arr[f"wh_{name}"] != 2 * arr[f"wg_{name}"])[0][0])
            raise LemmaViolation(f"{name} block identity failed at mask {bad}")
    wg_total = arr["wg_ss"] + arr["wg_uu"] + arr["wg_su"]
    wh_total = arr["wh_ss"] + arr["wh_uu"] + arr["wh_su"]
    if (2 * wg_total < wh_total).any():
        bad = int(np.nonzero(2 * wg_total < wh_total)[0][0])
        raise LemmaViolation(f"half bound failed at mask {bad}")
    return n_cuts


def future_cut_floor(state: GrowthState) -> Fraction:
    """min over admissible cut sides of w_H(F(A), F(comp)) / (2 |A|).

    The exact expansion of the current graph is bounded below by this
    quantity, which replaces the asymptotic constants with computed future
    cut weights.
    """
    arr = _state_cut_arrays(state)
    wh_total = arr["wh_ss"] + arr["wh_uu"] + arr["wh_su"]
    sizes = arr["sizes"]
    n = state.current.n
    best: Fraction | None = None
    for side_sizes in (sizes, n - sizes):
        ok = (side_sizes >= 1) & (side_sizes <= n // 2)
        idx = np.nonzero(ok)[0]
        ratio = wh_total[idx] / side_sizes[idx]
        m = float(ratio.min())
        for li in idx[np.nonzero(ratio <= m + 1e-9)[0]]:
            f = Fraction(int(wh_total[li]), 2 * int(side_sizes[li]))
            if best is None or f < best:
                best = f
    assert best is not None
    return best


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
    order = vertex_order(g)
    index = {v: i_ for i_, v in enumerate(order)}
    v0 = state.split_order[0].child(0)
    v1 = state.split_order[0].child(1)
    x = np.full(n, -2.0 / n)
    x[index[v0]] = 1.0 - 2.0 / n
    x[index[v1]] = 1.0 - 2.0 / n
    from .multigraph import adjacency_matrix

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
