"""Adjacency-spectrum computations, the AV11 greedy selection, and spectral rankers.

AV11 removes nodes one at a time, always the node with the largest diagonal
entry of (Z A Z + d I)^p, where Z zeroes the rows/columns of already-removed
nodes and d = 1 + |lambda_min(A)|. The shift makes every masked matrix
positive definite, so for even p the p-th root of the trace upper-bounds
d + lambda_1 of the masked matrix: shrinking the large diagonal entries of
the power drives the top eigenvalue down. The greedy builds the power of the
shifted active block by repeated squaring, each product divided by its
largest entry; the trace bound comes from one symmetric eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import BudgetSpec, Graph, Ranking, Strategy

# Even power of the trace surrogate. Larger p tracks lambda_1 more tightly
# (the l_p norm of the shifted spectrum falls toward its max entry); 64 keeps
# hub-heavy graphs sharp at 5 squarings per AV11 pick (cost grows with log2 p).
DEFAULT_POWER = 64


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
    w = np.linalg.eigvalsh(g.adjacency_matrix())
    return 1.0 + abs(float(w[0]))


def masked_adjacency(g: Graph, removed: Iterable[int]) -> np.ndarray:
    """Adjacency matrix with the rows and columns of ``removed`` zeroed (Z A Z)."""
    a = g.adjacency_matrix().copy()
    idx = list(removed)
    for i in idx:
        if not 0 <= i < g.n:
            raise ValueError(f"node {i} out of range for n={g.n}")
    a[idx, :] = 0.0
    a[:, idx] = 0.0
    return a


def _lambda_1(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[-1])


def _check_power(p: int) -> int:
    if not isinstance(p, int) or p <= 0 or p % 2 != 0:
        raise ValueError(f"power must be a positive even integer, got {p!r}")
    return p


def _argmax_lowest_id(values: np.ndarray) -> int:
    # Symmetric nodes produce diagonal entries equal up to round-off; a
    # relative tolerance keeps the id tie-break deterministic. The values are
    # known only up to one positive scale, so the largest is the natural unit.
    vmax = values.max()
    return int(np.flatnonzero(values >= vmax - 1e-9 * vmax)[0])


def _unit(m: np.ndarray) -> np.ndarray:
    m /= m.max()
    return m


def _power_unit(m: np.ndarray, e: int) -> np.ndarray:
    """m^e divided by its largest entry, for nonnegative symmetric m and e >= 1.

    Binary powering; every product is divided by its largest entry, so no
    entry exceeds 1. Squarings are written m @ m.T, which numpy sends to
    BLAS syrk at half the flops of a general product.
    """
    m = m / m.max()
    out = None
    while True:
        if e & 1:
            out = m if out is None else _unit(out @ m)
        e >>= 1
        if not e:
            return out
        m = _unit(m @ m.T)


def av11_select(g: Graph, budget: BudgetSpec | int,
                power: int = DEFAULT_POWER) -> tuple[list[int], float]:
    """Greedy spectral budget selection.

    Returns the ordered removal list S (|S| = k) and lambda_1 of the masked
    adjacency after the last removal. Each iteration removes the
    still-active node with the largest diagonal entry of (Z A Z + d I)^p
    (ties -> lowest id). On the active nodes that matrix is (B + d I)^p for
    the principal submatrix B of the nodes not yet removed. With
    R = (B + d I)^(p/2), symmetric, its diagonal is the squared row norms of
    R; R comes from binary powering (5 squarings at p = 64), each product
    rescaled so no entry exceeds 1, which changes neither the argmax nor the
    relative tie window. Removed nodes are outside B and never candidates.
    """
    _check_power(power)
    k = budget.resolve(g.n) if isinstance(budget, BudgetSpec) else int(budget)
    if k < 0 or k > g.n:
        raise ValueError(f"budget {k} not in [0, {g.n}]")
    shifted = g.adjacency_matrix() + diagonal_shift(g) * np.eye(g.n)
    active = np.arange(g.n)
    selected: list[int] = []
    for _ in range(k):
        root = _power_unit(shifted[np.ix_(active, active)], power // 2)
        pos = _argmax_lowest_id(np.einsum("ij,ij->i", root, root))
        selected.append(int(active[pos]))
        active = np.delete(active, pos)
    return selected, _lambda_1(masked_adjacency(g, selected))


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
    if not 0 <= k < spec.n:
        raise ValueError(f"k must be in [0, {spec.n - 1}], got {k}")
    return float(spec.values[k])


def trace_power_bound(g: Graph, mask: Iterable[int],
                      power: int = DEFAULT_POWER) -> tuple[float, float]:
    """The AV11 surrogate objective next to the exact masked lambda_1.

    Returns (trace((Z A Z + d I)^p)^(1/p) - d, lambda_1(Z A Z)). The first
    component always dominates the second; the gap shrinks as p grows.
    """
    _check_power(power)
    d = diagonal_shift(g)
    w = np.linalg.eigvalsh(masked_adjacency(g, mask))
    # trace = sum(s**p) for the shifted spectrum s >= 1; factoring out
    # s_max**p keeps every term in (0, 1].
    s = w + d
    bound = float(s[-1] * np.sum((s / s[-1]) ** power) ** (1.0 / power)) - d
    return bound, float(w[-1])
