"""2-lifts, spectra, and signing search.

A 2-lift doubles a simple base graph: every vertex ``v`` becomes ``v.0`` and
``v.1`` and every base edge becomes a perfect matching between the endpoint
copies, chosen by a per-edge signing bit (0 keeps copies parallel, 1 crosses
them).  A signing is an m-bit integer code over the m edges of
``canonical_edge_list(base)``: bit m - 1 - j (the j-th from the most
significant end) signs the j-th edge.  The spectrum of the lift is the
multiset union of the base spectrum and the spectrum of the signed adjacency
matrix (+1 entries for bit 0, -1 for bit 1), so the signing search only ranks
signed matrices.  One loop, ``_best_signing``, keeps the smallest
``(lambda, code)`` over its candidates.  The exhaustive search feeds it one
candidate per switching class (signings that differ by flipping all edges at
a vertex subset have conjugate signed matrices), the random search its seeded
draws.

The loop prunes in two passes.  First, batched Lanczos runs a few steps on
every candidate's sparse signed matrix; by Paige's containment its largest
|Ritz value|, less a slack delta, is at most the spectral radius, hence at
most the lift's lambda, and so is the base's lambda.  Then candidates get a
dense solve of their signed matrix in ascending order of that lower bound,
until a bound exceeds the best lambda so far by more than ``PRUNE_SLACK``.
Every skipped candidate has a larger float lambda than the winner, and every
solved one the same float lambda as a solve of all of them would give, so
the prune cannot move the choice.

Ties are decided on floating-point lambda, so the choice is the smallest code
among the bit-exact minimizers, not among all signings within rounding of the
minimum (on the K6 base of d = 10 it is 348, while 236 lies within 1e-9).

``next_bl_expander`` re-verifies the chosen lift without forming its 2n x 2n
matrix.  An O(nd) integer check confirms that the lifted graph is a 2-lift
of the base and reads A_s off its edges; then ``certify_below``, one
Cholesky factorisation whose shift bounds every rounding error, proves each
n x n part of the lift's spectrum below the budget.  Only a failed
certificate falls back to a dense eigensolve of the lift.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .multigraph import (
    Edge,
    WeightedMultigraph,
    adjacency_matrix,
    bfs_distances,
    edge_key,
    weighted_degree,
)
from .names import VertexName, format_name

EXHAUSTIVE_EDGE_LIMIT = 20
DEFAULT_SEARCH_BUDGET = 512
EIG_TOL = 1e-9
# a candidate whose lower bound exceeds the incumbent's lambda by more than
# this is skipped: far above the solvers' rounding, about n * eps * ||A||
PRUNE_SLACK = 1e-6
# Lanczos working set (signs, their gather, three vectors, the tridiagonal)
# of a chunk of at least 16 candidates; 51 KB per candidate at n = 512, d = 6
KRYLOV_CHUNK_BYTES = 1 << 20


class SpectralError(RuntimeError):
    """Eigendecomposition failed."""


class SigningSearchError(RuntimeError):
    """No signing met the spectral budget; carries the best code found."""

    def __init__(self, message: str, best_lambda: float, best: int):
        super().__init__(message)
        self.best_lambda = best_lambda
        self.best = best


def default_lambda_budget(d: int) -> float:
    """The largest lift lambda accepted for a (d/2)-regular base, r = d/2.

    Half a unit above the Ramanujan value 2*sqrt(r - 1), capped midway
    between that value and r (the cap binds at d = 6 and 8).  The budget is
    below r, so it rejects a lift that is disconnected or bipartite (lambda
    = r): every doubled expander then has lambda_2 at most twice the budget,
    below d, so it is connected with a spectral gap of at least d minus
    twice the budget.
    """
    r = d / 2
    ramanujan = 2.0 * math.sqrt(r - 1)
    return min(ramanujan + 0.5, (r + ramanujan) / 2)


@dataclass(frozen=True)
class SpectralReport:
    """Descending adjacency eigenvalues with the usual summary quantities."""

    eigenvalues: tuple[float, ...]

    @property
    def lambda1(self) -> float:
        return self.eigenvalues[0]

    @property
    def lambda2(self) -> float:
        return self.eigenvalues[1]

    @property
    def lambda_(self) -> float:
        return max(self.lambda2, abs(self.eigenvalues[-1]))


def canonical_edge_list(g: WeightedMultigraph) -> list[Edge]:
    return [(u, v) for u, v, _ in g.sorted_edges()]


def _require_simple_regular(base: WeightedMultigraph) -> None:
    bad = min(((u, v, w) for u, v, w in base.edges() if w != 1), default=None)
    if bad:
        u, v, w = bad
        raise ValueError(
            f"base must be simple; edge {format_name(u)}-{format_name(v)} "
            f"has weight {w}"
        )
    degrees = {weighted_degree(base, v) for v in base.vertices}
    if len(degrees) != 1:
        raise ValueError(f"base must be regular; found degrees {sorted(degrees)}")


def two_lift(base: WeightedMultigraph, code: int) -> WeightedMultigraph:
    """Double ``base`` according to the signing ``code``.

    Bit 0 on edge {u, v} yields {u.0, v.0} and {u.1, v.1}; bit 1 yields
    {u.0, v.1} and {u.1, v.0}.  The 0 copy plays the role of the base vertex
    (dropping the new bit projects the lift back onto the base).
    """
    _require_simple_regular(base)
    edges = canonical_edge_list(base)
    m = len(edges)
    if not 0 <= code < 1 << m:
        raise ValueError(f"signing code {code} is outside [0, 2**{m})")
    vertices = [v.child(b) for v in base.vertices for b in (0, 1)]
    weights: dict[Edge, int] = {}
    for (u, v), bit in zip(edges, _code_bits([code], m)[0].tolist()):
        weights[edge_key(u.child(0), v.child(bit))] = 1
        weights[edge_key(u.child(1), v.child(1 - bit))] = 1
    return WeightedMultigraph(base.d, vertices, weights)


def spectral_report(g: WeightedMultigraph) -> SpectralReport:
    """Full symmetric eigendecomposition of the adjacency matrix."""
    if g.n < 2:
        raise ValueError("spectral report needs at least 2 vertices")
    a = adjacency_matrix(g).astype(np.float64)
    return SpectralReport(tuple(float(x) for x in _eigvalsh(a)[::-1]))


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver did not converge: {exc}") from exc


def _switching_masks(base: WeightedMultigraph, edges: Sequence[Edge]) -> list[int]:
    """Per-edge bit masks whose parity gives the switching-canonical bit.

    A spanning forest (BFS from each component's smallest vertex) defines,
    for every vertex, the set of tree edges on its root path.  Flipping the
    signing along the unique switching that zeroes all tree edge bits maps
    every signing to its class representative; that map is GF(2)-linear, so
    each representative bit is the parity of the signing masked by
    ``{edge} xor rootpath(u) xor rootpath(v)``.
    """
    m = len(edges)
    bit = {e: 1 << (m - 1 - j) for j, e in enumerate(edges)}
    root_path: dict[VertexName, int] = {}
    for root in base.vertices:
        if root in root_path:
            continue
        dist = bfs_distances(base.neighbors, root)
        root_path[root] = 0
        # each vertex hangs from its smallest neighbour one level nearer the root
        for v in sorted(dist, key=dist.__getitem__)[1:]:
            u = min(w for w in base.neighbors(v) if dist[w] == dist[v] - 1)
            root_path[v] = root_path[u] ^ bit[edge_key(u, v)]
    return [bit[e] ^ root_path[e[0]] ^ root_path[e[1]] for e in edges]


def _code_bits(codes: Sequence[int], m: int) -> np.ndarray:
    """``(len(codes), m)`` array of 0/1: row i holds the m bits of ``codes[i]``."""
    width = (m + 7) // 8
    raw = b"".join(c.to_bytes(width, "big") for c in codes)
    packed = np.frombuffer(raw, np.uint8).reshape(len(codes), width)
    return np.unpackbits(packed, axis=1)[:, -m:]


def _paige_slack(n: int, k: int, r: int) -> float:
    """How far a Ritz value of k computed Lanczos steps can leave the spectrum.

    Paige (Linear Algebra Appl. 34, 1980) bounds it, for n x n A with m
    nonzeros per row, by k^(5/2) sqrt(2) max(6 e0, 2 e1 + 7 e0) ||A||, with
    e0 = 2 (n + 4) eps, e1 = 2 (7 + m || |A| || / ||A||) eps.  A signed matrix
    of an r-regular base has m = r and || |A_s| || = r >= ||A_s||: worst at r.
    """
    eps = float(np.finfo(np.float64).eps)  # twice the unit roundoff: errs high
    eps0, eps1 = 2 * (n + 4) * eps, 2 * (7 + r) * eps
    return k**2.5 * math.sqrt(2) * max(6 * eps0, 2 * eps1 + 7 * eps0) * r


def _lanczos_bounds(
    nbr: np.ndarray, slot_edge: np.ndarray, bits: np.ndarray, steps: int
) -> np.ndarray:
    """A lower bound on the spectral radius of each row's signed matrix.

    ``nbr[i, s]`` is the s-th neighbour of vertex i and ``slot_edge[i, s]``
    the index of that edge, so row c of ``bits`` puts ``1 - 2 * bits[c, e]``
    at ``(i, nbr[i, s])`` for ``e = slot_edge[i, s]``.  Each row runs
    ``min(steps, n)`` steps of the three-term recurrence Paige analysed, with
    no basis kept, from one fixed start vector, batched over chunks of rows;
    its bound is the largest |Ritz value| less ``_paige_slack``.  A Krylov
    space that turns invariant early goes on with zero vectors, so its
    tridiagonal only gains zero Ritz values.
    """
    n, r = nbr.shape
    steps = min(steps, n)
    start = np.sin(np.arange(1.0, n + 1))
    start /= np.linalg.norm(start)
    slack = _paige_slack(n, steps, r)
    chunk = max(16, KRYLOV_CHUNK_BYTES // (8 * ((2 * r + 3) * n + steps * steps)))
    bounds = np.empty(len(bits))
    for lo in range(0, len(bits), chunk):
        signs = 1.0 - 2.0 * bits[lo : lo + chunk][:, slot_edge.T]  # (B, r, n)
        b = len(signs)
        tri = np.zeros((b, steps, steps))
        q_prev, q = np.zeros((b, n)), np.tile(start, (b, 1))
        beta = np.zeros(b)
        for j in range(steps):
            w = np.einsum("brn,brn->bn", signs, q[:, nbr.T])
            w -= beta[:, None] * q_prev
            tri[:, j, j] = alpha = np.einsum("bn,bn->b", w, q)
            if j + 1 == steps:
                break
            w -= alpha[:, None] * q
            beta = np.sqrt(np.einsum("bn,bn->b", w, w))
            live = beta > 1e-10
            beta[~live] = 0.0
            tri[:, j + 1, j] = tri[:, j, j + 1] = beta
            scale = np.divide(1.0, beta, out=np.zeros(b), where=live)
            q_prev, q = q, w * scale[:, None]
        bounds[lo : lo + b] = np.abs(_eigvalsh(tri)).max(axis=1) - slack
    return bounds


def _best_signing(
    base: WeightedMultigraph,
    edges: Sequence[Edge],
    base_eigs: np.ndarray,
    candidates: Sequence[tuple[int, int]],
) -> tuple[float, int, int]:
    """The smallest ``(lambda, code)`` over ``(matrix code, code)`` candidates,
    and the number of dense eigensolves spent finding it.

    lambda is read off the signed matrix of the matrix code; ``code`` is the
    signing that candidate stands for, which may differ when the two are
    switching-equivalent (conjugate signed matrices).  Candidates are solved
    in ascending order of a lower bound on their lambda (the base's lambda,
    raised by ``_lanczos_bounds``), and the loop stops at the first bound
    above the incumbent's lambda plus ``PRUNE_SLACK``: every candidate left
    has a larger float lambda, so the minimum is the one a solve of every
    candidate would find.
    """
    matrix_codes, codes = zip(*candidates)
    n, m = base.n, len(edges)
    index = {v: i for i, v in enumerate(base.vertices)}
    rows = np.array([index[u] for u, _ in edges])
    cols = np.array([index[v] for _, v in edges])
    bits = _code_bits(matrix_codes, m)
    by_end = np.argsort(np.concatenate([rows, cols]), kind="stable")
    nbr = np.concatenate([cols, rows])[by_end].reshape(n, -1)
    slot_edge = np.tile(np.arange(m), 2)[by_end].reshape(n, -1)
    # 2 sqrt(n) steps search at or near the fastest depth on bases of 16 to
    # 128 vertices: fewer leave many more dense solves, and more cost more
    # Lanczos work than the solves they save (at n = 16, 16 steps, a full
    # tridiagonalisation, take twice as long as 8)
    steps = 2 * math.isqrt(n)
    bounds = np.maximum(
        max(base_eigs[-2], -base_eigs[0]),
        _lanczos_bounds(nbr, slot_edge, bits, steps),
    )
    a = np.zeros((n, n))  # every signed matrix has the base's support
    best = (math.inf, -1)
    solves = 0
    for c in np.argsort(bounds, kind="stable"):
        if bounds[c] > best[0] + PRUNE_SLACK:
            break
        a[rows, cols] = a[cols, rows] = 1.0 - 2.0 * bits[c]
        spectrum = np.sort(np.concatenate([base_eigs, _eigvalsh(a)]))
        best = min(best, (float(max(spectrum[-2], abs(spectrum[0]))), codes[c]))
        solves += 1
    return best[0], best[1], solves


def find_good_signing(
    base: WeightedMultigraph,
    lambda_budget: float,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    seed: int = 0,
) -> int:
    """The code of a signing whose lift has lambda <= ``lambda_budget``.

    Exhaustive (the smallest code among the float-exact minimizers) when the
    base has at most ``EXHAUSTIVE_EDGE_LIMIT`` edges; otherwise the best of
    ``search_budget`` (at least 1) seeded pseudo-random signings.
    Deterministic in all arguments.  Raises ``SigningSearchError`` when
    nothing meets the budget.
    """
    _require_simple_regular(base)
    edges = canonical_edge_list(base)
    if not edges:
        raise ValueError("base has no edges")
    m = len(edges)
    if m > EXHAUSTIVE_EDGE_LIMIT and search_budget < 1:
        raise ValueError(f"search_budget must be at least 1, got {search_budget}")
    base_eigs = _eigvalsh(adjacency_matrix(base).astype(np.float64))
    if m <= EXHAUSTIVE_EDGE_LIMIT:
        # one candidate per switching class: the representative's matrix,
        # standing for the smallest code in the class
        masks = _switching_masks(base, edges)
        codes = np.arange(1 << m, dtype=np.uint32)
        reps = np.zeros(1 << m, dtype=np.uint32)
        for j in range(m):
            parity = np.bitwise_count(codes & np.uint32(masks[j])) & 1
            reps |= parity.astype(np.uint32) << np.uint32(m - 1 - j)
        unique_reps, smallest = np.unique(reps, return_index=True)
        candidates = list(zip(unique_reps.tolist(), smallest.tolist()))
    else:
        rng = random.Random(seed)
        draws = [rng.getrandbits(m) for _ in range(search_budget)]
        candidates = list(zip(draws, draws))
    best_lambda, best_code, solves = _best_signing(
        base, edges, base_eigs, candidates
    )
    if best_lambda > lambda_budget:
        raise SigningSearchError(
            f"signing search exhausted: best lambda {best_lambda:.6f} "
            f"exceeds budget {lambda_budget:.6f} (base n = {base.n}, "
            f"{m} edges, {len(candidates)} candidates ranked, "
            f"{solves} dense solves)",
            best_lambda=best_lambda,
            best=best_code,
        )
    return best_code


def certify_below(m: np.ndarray, b: float) -> bool:
    """True only if every eigenvalue of the symmetric float matrix ``m`` is
    below ``b``, proved by one Cholesky factorisation.

    With u the unit roundoff, let t = |b| + max |m_ii|, g = gamma_{n+1} =
    (n + 1)u / (1 - (n + 1)u) and s = (2n + 2) g / (1 - g) t, used only
    while s <= t/2.  If Cholesky
    completes on the float matrix A = fl((b - s) I - m), it computed R^T R =
    A + dA with |dA| <= g |R^T| |R| (Higham, *Accuracy and Stability of
    Numerical Algorithms*, Thm 10.3, in any order of the inner products).
    Each column has ||r_i||^2 <= a_ii / (1 - g), so ||dA||_2 <= g / (1 - g)
    trace(A), and forming A's diagonal rounds by at most 2u (t + s)(1 + u).
    With every a_ii at most (t + s)(1 + u)^2 <= 2t, the two errors sum to
    at most s (Rump, BIT 46, 2006).  R^T R is positive definite, so the
    exact b I - m, which is R^T R - dA plus s I less the rounding, is too.
    A failed factorisation proves nothing.
    """
    n = len(m)
    u = float(np.finfo(np.float64).eps) / 2
    g = (n + 1) * u / (1 - (n + 1) * u)
    t = abs(b) + float(np.abs(np.diagonal(m)).max())
    s = (2 * n + 2) * g / (1 - g) * t
    if s > t / 2:
        return False
    a = -m
    a[np.diag_indices(n)] += b - s
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _lift_signs(base: WeightedMultigraph, lifted: WeightedMultigraph) -> np.ndarray:
    """The signed adjacency matrix of ``base`` that ``lifted`` realises.

    Read off the lifted edges in O(nd) integer work: +1 where {u, v} lifts
    to {u.0, v.0} and {u.1, v.1}, -1 where it lifts to {u.0, v.1} and
    {u.1, v.0}.  Raises ``RuntimeError`` unless ``lifted`` is a 2-lift of
    ``base``: the base's copies, weight-1 edges, and no edge but those pairs.
    """

    def fail(problem: str) -> RuntimeError:
        return RuntimeError(f"lifted graph is not a 2-lift of its base: {problem}")

    # in canonical order the copies of the k-th base vertex are 2k and 2k + 1
    copies = list(lifted.vertices)
    if copies != [v.child(b) for v in base.vertices for b in (0, 1)]:
        raise fail("its vertices are not the base's copies")
    index = {v: k for k, v in enumerate(copies)}
    ends = [
        (k, index[y], w)
        for k, x in enumerate(copies)
        for y, w in lifted.neighbors(x).items()
    ]
    i, j, w = np.array(ends, dtype=np.int64).reshape(-1, 3).T
    if (w != 1).any():
        raise fail("an edge weight is not 1")
    edges = canonical_edge_list(base)
    if len(ends) != 4 * len(edges):
        raise fail(f"it has {len(ends) // 2} edges, not {2 * len(edges)}")
    # each ordered base pair sums the signs of its lifted edge ends; +-2
    # takes both ends of one matching, so 4m ends leave none for other pairs
    n = base.n
    signs = np.where(i % 2 == j % 2, 0.5, -0.5)
    a_s = np.bincount(i // 2 * n + j // 2, signs, n * n).reshape(n, n)
    pos = {v: k for k, v in enumerate(base.vertices)}
    p, q = np.array([(pos[u], pos[v]) for u, v in edges]).T
    bad = np.flatnonzero(np.abs(a_s[p, q]) != 1)
    if len(bad):
        u, v = edges[bad[0]]
        raise fail(f"edge {format_name(u)}-{format_name(v)} lifts to no matching")
    return a_s


def _lift_certified(
    base: WeightedMultigraph, lifted: WeightedMultigraph, bound: float
) -> bool:
    """True only if the lift's lambda is below ``bound``, certified.

    The lift's spectrum is spec(A) and spec(A_s) (Bilu-Linial 2006), where
    the top eigenvalue of the r-regular base A is r = d/2 and the others are
    those of the integer matrix n A - r J, divided by n.  So lambda < bound
    once +A_s, -A_s and -A are certified below ``bound`` and n A - r J below
    a float under n ``bound``.  A is |A_s|.
    """
    m = _lift_signs(base, lifted)  # each step rewrites this one n x n matrix
    if not certify_below(m, bound):
        return False
    m *= -1  # -A_s
    if not certify_below(m, bound):
        return False
    m = np.negative(np.abs(m, out=m), out=m)  # -A
    if not certify_below(m, bound):
        return False
    n, r = base.n, base.d // 2
    m *= -n
    m -= r  # n A - r J
    return certify_below(m, float(np.nextafter(n * bound, -np.inf)))


def next_bl_expander(g_star: WeightedMultigraph, seed: int = 0) -> WeightedMultigraph:
    """The next doubled expander: halve, sign-search, lift, re-double.

    The input must have every weight exactly 2 and d/2 neighbours per
    vertex, so that halving it gives a (d/2)-regular simple base.  The
    search spends ``DEFAULT_SEARCH_BUDGET`` signings against
    ``default_lambda_budget``.  The chosen lift is then re-verified,
    independent of the search: an O(nd) integer check that it is a 2-lift of
    the base, which reads its signed matrix A_s off its edges, and Cholesky
    certificates (``certify_below``) that the base and +-A_s have no
    eigenvalue at or above the budget plus ``EIG_TOL``.  Only when a
    certificate fails does a dense eigensolve of the whole lift decide, by
    the same comparison, so a rejection reports the solved lambda.
    """
    bad = min(((u, v, w) for u, v, w in g_star.edges() if w != 2), default=None)
    if bad:
        u, v, w = bad
        raise ValueError(
            f"expected all weights 2, found {w} on {format_name(u)}-{format_name(v)}"
        )
    half = g_star.d // 2
    rows = {len(g_star.neighbors(v)) for v in g_star.vertices}
    if rows != {half}:
        raise ValueError(f"expected {half} neighbours per vertex, found {sorted(rows)}")
    base = g_star.replace(weights=dict.fromkeys(g_star.weights, 1))
    lambda_budget = default_lambda_budget(g_star.d)
    code = find_good_signing(base, lambda_budget, seed=seed)
    lifted = two_lift(base, code)
    if not _lift_certified(base, lifted, lambda_budget + EIG_TOL):
        direct = spectral_report(lifted).lambda_
        if direct > lambda_budget + EIG_TOL:
            raise SigningSearchError(
                f"verified lift lambda {direct:.6f} exceeds budget "
                f"{lambda_budget:.6f} (base n = {base.n}, "
                f"{len(base.weights)} edges)",
                best_lambda=direct,
                best=code,
            )
    return lifted.replace(weights=dict.fromkeys(lifted.weights, 2))
