"""Adjacency-spectrum computations, the AV11 greedy selection, and spectral rankers.

AV11 removes nodes one at a time, always the node with the largest diagonal
entry of (Z A Z + d I)^p, where Z zeroes the rows/columns of already-removed
nodes and d = 1 + |lambda_min(A)|. The shift makes every masked matrix
positive definite, so for even p the p-th root of the trace upper-bounds
d + lambda_1 of the masked matrix: shrinking the large diagonal entries of
the power drives the top eigenvalue down. The greedy keeps R, the power p/2
of the shifted active block, divided by one scale. A fresh R comes from
repeated squaring, each product divided by its largest entry. After a pick,
R is instead downdated by a rank-(p/2 - 1) correction from Krylov steps on
the edge list, when a cost rule on the block size and p says that is
cheaper than re-squaring; R is recomputed once its largest entry has fallen
by 2^10 since the last fresh power. The trace bound comes from one
symmetric eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import Graph, Ranking, Strategy, _is_int, _node_ids

# Even power of the trace surrogate. Larger p tracks lambda_1 more tightly
# (the l_p norm of the shifted spectrum falls toward its max entry); 64 keeps
# hub-heavy graphs sharp at 5 squarings per fresh AV11 power (see _downdates).
DEFAULT_POWER = 64

# AV11 downdates R = X^h, h = p/2, after a pick when the active size m has
# floor(log2 h) * m > _CROSSOVER * h (see _downdates). Per pick on BA(n, 3),
# one BLAS thread, re-squaring against downdating: at p = 64 0.78 / 0.96 ms
# at n = 140 and 1.09 / 0.97 ms at n = 160, so 23 switches at m = 147; at
# p = 16 0.24 / 0.23 ms at n = 100 (the rule switches at 61). Larger h
# discards more downdates to _REFRESH_RATIO: on BA(400, 3), k = 64, every
# pick downdated takes 0.42 s against 0.86 s re-squared at p = 256 (8 of 63
# downdates discarded), but 1.38 s against 1.01 s at p = 1024 (23 of 63).
# The rule re-squares at p = 256 below m = 421 and at p >= 1024 below 1308.
_CROSSOVER = 23
# A downdated R is recomputed once its largest entry has fallen below this
# fraction of the last fresh one. The largest score error against a fresh
# power, relative to the largest score (p = 64; BA(200, 3) k = n, BA(400, 3)
# k = 64, G(300, 1500) k = 100): 2e-12 at 2^-5, 3e-11 at 2^-10, 5e-10 at
# 2^-15, 1e-8 at 2^-20, against the 1e-9 tie window of _argmax_lowest_id.
# 2^-10 is as fast as 2^-15 on those graphs and 30 times inside the window.
_REFRESH_RATIO = 2.0 ** -10


@dataclass(frozen=True)
class Spectrum:
    """Full real spectrum of a symmetric matrix, eigenvalues descending.

    ``vectors`` (optional) holds orthonormal eigenvectors as columns aligned
    with ``values``.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def lambda_1(self) -> float:
        return float(self.values[0])

    @property
    def lambda_min(self) -> float:
        return float(self.values[-1])


def spectrum(g: Graph, want_vectors: bool = False) -> Spectrum:
    """Full symmetric eigendecomposition of the adjacency matrix."""
    a = g.adjacency_matrix()
    if want_vectors:
        w, v = np.linalg.eigh(a)
        return Spectrum(values=w[::-1].copy(), vectors=v[:, ::-1].copy())
    w = np.linalg.eigvalsh(a)
    return Spectrum(values=w[::-1].copy())


def diagonal_shift(g: Graph) -> float:
    """The shift d = 1 + |lambda_min(A)| that makes masked matrices positive definite."""
    return 1.0 + abs(spectrum(g).lambda_min)


def masked_adjacency(g: Graph, removed: Iterable[int]) -> np.ndarray:
    """Adjacency matrix with the rows and columns of ``removed`` zeroed (Z A Z)."""
    idx = _node_ids(removed, g.n, "node")
    a = g.adjacency_matrix().copy()
    a[idx, :] = 0.0
    a[:, idx] = 0.0
    return a


def _residuals(a: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """lambda_1 of A with each row's nodes zeroed, one stacked eigvalsh call.

    Each masked matrix goes through the same LAPACK routine as a lone
    ``eigvalsh`` of it, so the values equal a per-subset loop bit for bit.
    """
    m = len(subsets)
    masked = np.broadcast_to(a, (m, *a.shape)).copy()
    rows = np.arange(m)[:, None]
    masked[rows, subsets, :] = 0.0
    masked[rows, :, subsets] = 0.0
    return np.linalg.eigvalsh(masked)[:, -1]


def _check_budget(k, n: int) -> int:
    if not (_is_int(k) and 0 <= k <= n):
        raise ValueError(f"budget must be an integer in [0, {n}], got {k!r}")
    return int(k)


def _check_power(p) -> int:
    if not (_is_int(p) and p > 0 and p % 2 == 0):
        raise ValueError(f"power must be a positive even integer, got {p!r}")
    return int(p)


def _argmax_lowest_id(values: np.ndarray) -> int:
    # Symmetric nodes produce diagonal entries equal up to round-off; a
    # relative tolerance keeps the id tie-break deterministic. The values are
    # known only up to one positive scale, so the largest is the natural unit.
    vmax = values.max()
    return int(np.flatnonzero(values >= vmax - 1e-9 * vmax)[0])


def _unit(m: np.ndarray) -> float:
    """Divide m in place by its largest entry; return that entry's log."""
    top = m.max()
    m /= top
    return math.log(top)


def _power_unit(m: np.ndarray, e: int) -> tuple[np.ndarray, float]:
    """(m^e / s, log s) with s the largest entry of m^e, for nonnegative
    symmetric m and e >= 1.

    Binary powering; every product is divided by its largest entry, so no
    entry exceeds 1, and the logs of the divisors add up to log s. Squarings
    are written m @ m.T, which numpy sends to BLAS syrk at half the flops of
    a general product.
    """
    top = m.max()
    m = m / top
    log_m = math.log(top)
    out = None
    while True:
        if e & 1:
            if out is None:
                out, log_s = m, log_m
            else:
                out = out @ m
                log_s += log_m + _unit(out)
        e >>= 1
        if not e:
            return out, log_s
        m = m @ m.T
        log_m = 2.0 * log_m + _unit(m)


def _downdates(m: int, h: int) -> bool:
    """Whether downdating R = X^h costs less than re-squaring an m x m block.

    Re-squaring takes log2(h) squarings of m^3 flops each; a downdate takes
    h - 2 Krylov steps on the edge list and a rank-(h - 1) update of about
    2 h m^2 flops, so it wins once m passes a multiple of h / log2(h).
    h = 1 is one division and never downdates.
    """
    return (h.bit_length() - 1) * m > _CROSSOVER * h


def _downdate(root: np.ndarray, log_s: float, src: np.ndarray, dst: np.ndarray,
              d: float, pos: int, h: int) -> np.ndarray | None:
    """The unit-scaled power of the block without node ``pos``, or None when
    it must be recomputed.

    ``root`` is X^h / exp(log_s) for the m x m block X = B + d I, whose
    off-diagonal nonzeros are the directed edges src -> dst (local ids). With
    e the unit vector of ``pos`` and D = I - e e^T, (X D)^h equals
    X^h - sum_{j=0}^{h-2} a_j b_{h-1-j}^T, where a_0 = X e,
    a_{j+1} = X D a_j and b_l = X^l e; off row and column ``pos`` it is the
    power of the remaining block. Each Krylov vector is kept divided by its
    largest entry, with the log of that divisor, so the coefficient of a term
    is exp(alpha_j + beta_l - log_s), which stays below about m. The result
    keeps the scale exp(log_s), so its largest entry, on the diagonal since
    the power is positive semidefinite, is the fall since the last fresh
    power; past _REFRESH_RATIO, or at or below 0, the round-off inherited
    from the larger entries is no longer small against it.
    """
    m = len(root)
    nbrs = dst[src == pos]
    # Without an active neighbour a_0 = d e and every later a_j is 0, so the
    # one term left vanishes off row and column pos.
    r = h - 1 if nbrs.size else 1
    # krylov[0, j] holds a_j and krylov[1, j] holds b_{j+1}, each scaled to
    # largest entry 1; logs holds the logs of the scales.
    krylov = np.empty((2, r, m))
    logs = np.empty((2, r))
    x = np.zeros(m)
    x[nbrs] = 1.0 / d
    x[pos] = 1.0
    krylov[:, 0] = x
    logs[:, 0] = math.log(d)
    both_src = np.concatenate((src, src + m))
    both_dst = np.concatenate((dst, dst + m))
    v = np.empty((2, m))
    for j in range(1, r):
        v[:] = krylov[:, j - 1]
        v[0, pos] = 0.0
        w = np.bincount(both_dst, weights=v.ravel()[both_src], minlength=2 * m)
        w = w.reshape(2, m)
        w += d * v
        top = w.max(axis=1)
        w /= top[:, None]
        krylov[:, j] = w
        logs[:, j] = logs[:, j - 1] + np.log(top)
    coef = np.exp(logs[0] + logs[1, ::-1] - log_s)
    a = np.delete(krylov[0] * coef[:, None], pos, 1)
    b = np.delete(krylov[1, ::-1], pos, 1)
    out = a.T @ b
    keep = ((slice(0, pos), slice(0, pos)), (slice(pos + 1, None), slice(pos, None)))
    for rows, out_rows in keep:
        for cols, out_cols in keep:
            np.subtract(root[rows, cols], out[out_rows, out_cols],
                        out=out[out_rows, out_cols])
    if not out.diagonal().max() > _REFRESH_RATIO:
        return None
    return out


def av11_select(g: Graph, budget: int,
                power: int = DEFAULT_POWER) -> tuple[list[int], float]:
    """Greedy spectral budget selection.

    Returns the ordered removal list S (|S| = budget, an integer in [0, n])
    and lambda_1 of the masked adjacency after the last removal. Each iteration removes the
    still-active node with the largest diagonal entry of (Z A Z + d I)^p
    (ties -> lowest id). On the active nodes that matrix is X^p with
    X = B + d I for the principal submatrix B of the nodes not yet removed.
    With R = X^(p/2), symmetric, its diagonal is the squared row norms of R.
    R is kept divided by one positive scale, which changes neither the
    argmax nor the relative tie window. A fresh R comes from binary powering
    (5 squarings at p = 64); after a pick, R is downdated to the remaining
    block by a rank-(p/2 - 1) correction built from p/2 - 2 Krylov steps on
    the edge list (see _downdate) whenever _downdates says that costs less
    than re-squaring the smaller block, and recomputed when its largest
    entry has fallen past _REFRESH_RATIO. Removed nodes are outside B and
    never candidates.
    """
    power = _check_power(power)
    budget = _check_budget(budget, g.n)
    h = power // 2
    d = diagonal_shift(g)
    a = g.adjacency_matrix()
    shifted = a + d * np.eye(g.n)
    edge_dst, edge_src = np.nonzero(a)
    active = np.arange(g.n)
    selected: list[int] = []
    root = None
    for _ in range(budget):
        if root is None:
            root, log_s = _power_unit(shifted[np.ix_(active, active)], h)
        pos = _argmax_lowest_id(np.einsum("ij,ij->i", root, root))
        selected.append(int(active[pos]))
        if len(selected) < budget and _downdates(len(active) - 1, h):
            local = np.full(g.n, -1)
            local[active] = np.arange(len(active))
            src, dst = local[edge_src], local[edge_dst]
            inside = (src >= 0) & (dst >= 0)
            root = _downdate(root, log_s, src[inside], dst[inside], d, pos, h)
        else:
            root = None
        active = np.delete(active, pos)
    return selected, float(_residuals(a, np.array(selected, dtype=np.intp)[None])[0])


def av11_ranking(g: Graph, power: int = DEFAULT_POWER) -> Ranking:
    """Full AV11 ordering: run the selection with k = n; earlier picks score higher."""
    order, _ = av11_select(g, g.n, power=power)
    scores = [0.0] * g.n
    for pos, node in enumerate(order):
        scores[node] = float(g.n - pos)
    return Ranking(strategy=Strategy.AV11, order=tuple(order), scores=tuple(scores))


def dynamical_importance_ranking(g: Graph) -> Ranking:
    """Rank by the drop of lambda_1 when a single node is removed.

    Exact, from one eigendecomposition A = U diag(lambda) U^T: the
    eigenvalues of A with row and column i deleted are the zeros of the
    secular function f_i(mu) = sum_j U_ij^2 / (lambda_j - mu), and the
    largest, mu_i, is the one zero in [lambda_2, lambda_1] (Cauchy
    interlacing; an endpoint when U_i1 or U_i2 is 0). f_i increases on that
    interval, so one bisection over all nodes at once brackets every mu_i
    to 4 eps * max(1, |lambda_1|). Z A Z keeps an extra 0 eigenvalue, so the
    score is lambda_1 - max(mu_i, 0).
    """
    spec = spectrum(g, want_vectors=True)
    lam1 = spec.lambda_1
    u2 = spec.vectors ** 2
    # values[:2].min() is lambda_2, or lambda_1 itself when n = 1.
    lo = np.full(g.n, spec.values[:2].min())
    hi = np.full(g.n, lam1)
    tol = 4.0 * np.finfo(float).eps * max(1.0, abs(lam1))
    buf = np.empty_like(u2)
    # Every bracket starts as [lambda_2, lambda_1] and all halve together,
    # so while the widest exceeds tol each spans at least two ulps: mid lies
    # strictly inside, never on a pole lambda_j.
    while (hi - lo).max() > tol:
        mid = 0.5 * (lo + hi)
        np.subtract(spec.values, mid[:, None], out=buf)
        np.divide(u2, buf, out=buf)
        above = buf.sum(axis=1) > 0.0  # f_i(mid) > 0: the zero lies below mid
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    mu = 0.5 * (lo + hi)
    return Ranking.from_scores(Strategy.DYNAMICAL_IMPORTANCE, lam1 - np.maximum(mu, 0.0))


def estrada_ranking(g: Graph) -> Ranking:
    """Rank by subgraph centrality: diag(exp(A)) = sum_j u_j(i)^2 exp(lambda_j)."""
    spec = spectrum(g, want_vectors=True)
    scores = (spec.vectors ** 2) @ np.exp(spec.values)
    return Ranking.from_scores(Strategy.ESTRADA_INDEX, scores)


def separation_lower_bound(spec: Spectrum, k: int) -> float:
    """Eigenvalue-interlacing floor for any k-node removal.

    Every order n-k principal submatrix has top eigenvalue >= lambda_{k+1}
    of the full matrix, so no budget-k immunization can push the residual
    lambda_1 below this value.
    """
    return float(spec.values[_check_budget(k, spec.n - 1)])


def trace_power_bound(g: Graph, mask: Iterable[int],
                      power: int = DEFAULT_POWER) -> tuple[float, float]:
    """The AV11 surrogate objective next to the exact masked lambda_1.

    Returns (trace((Z A Z + d I)^p)^(1/p) - d, lambda_1(Z A Z)). The first
    component always dominates the second; the gap shrinks as p grows.
    """
    power = _check_power(power)
    w = np.linalg.eigvalsh(masked_adjacency(g, mask))
    d = diagonal_shift(g)
    # trace = sum(s**p) for the shifted spectrum s >= 1; factoring out
    # s_max**p keeps every term in (0, 1].
    s = w + d
    bound = float(s[-1] * np.sum((s / s[-1]) ** power) ** (1.0 / power)) - d
    return bound, float(w[-1])
