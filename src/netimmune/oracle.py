"""Exact reference solver for optimal k-node removal (minimum residual lambda_1).

Budgeted removal is NP-complete, so an exact oracle searches the subsets.
Each subset S gets a lower bound on lambda_1 of A with S removed: by
Courant-Fischer, lambda_1 of the masked matrix is at least the largest Ritz
value of A on any subspace that is zero on S. The top eigenvectors of A
with their rows on S zeroed span such a subspace. A cheap rank-1 bound
screens every subset, a rank-4 bound refines the survivors, and only
subsets whose bound can still tie or beat the best residual are solved.
``removal_table`` solves every subset instead. The oracle caps the instance
size and exists to measure what the greedy selection trades away and to
cross-check the interlacing floor.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import IO

import numpy as np

from .graph import Graph, _json_obj
from .spectral import DEFAULT_POWER, av11_select, separation_lower_bound, spectrum

SUBSET_LIMIT = 10_000_000

# Residuals closer than this are the same removal quality; the earlier
# (lexicographically smaller) subset is kept.
_TIE_TOL = 1e-9

# Round-off allowance of the pruned search, relative to max(1, lambda_1(A)):
# it covers the error of both the Rayleigh bounds and eigvalsh.
_SLACK = 1e-10
# A bound is used only where the zeroed block keeps more than this share of
# its mass (the least eigenvalue of its Gram matrix G); below it the subset
# is always solved. The bound's round-off grows as the kept mass falls: on
# graphs of up to 12 nodes the rank-1 bound measured at most 12 eps / mass,
# which passes 1e-12 near a mass of 3e-3. Above this cutoff it stays under
# 3e-13, far inside the slack; the rank-4 bound exceeded the exact residual
# by at most 6.3e-15 over 36,627 subsets of 300 generated graphs.
_MIN_MASS = 1e-2

# Eigenvectors in the refining bound. On the three oracle-gap graphs at
# seed 1, ranks 1 to 4 leave 2,602, 534, 174 and 82 subsets whose bound is
# at most the optimum. A pass solves 2,960 subsets with the rank-1 bound
# alone, and 390, 306 or 284 with a rank-3, 4 or 5 refinement. Ranks 3 and 4
# took about the same time a pass and rank 5 longer; 4 solves fewer
# subsets, which counts for more where the exact step is dearer.
_RANK = 4

# Working memory of one chunk of subsets: index rows and rank-1 bound terms
# (about (k + 2)^2 floats per subset) stay under _CHUNK_BYTES, and so do the
# rank-r bound terms of one refining call (about (k + 3r)^2 floats per
# subset; at k = 4 the two peaks measured 30 and 154 floats a subset) and
# the stacked masked matrices of one eigvalsh call.
# The pruned search solves at most _SOLVE_BATCH subsets per call, so it stops
# soon after the bounds pass the least residual. Neither cap changes a result.
_CHUNK_BYTES = 1 << 19
_SOLVE_BATCH = 16


class CombinationGuardError(ValueError):
    """Raised when C(n, k) exceeds the enumeration guard."""

    def __init__(self, n: int, k: int, count: int):
        self.n, self.k, self.count = n, k, count
        super().__init__(
            f"C({n}, {k}) = {count} subsets exceeds the enumeration limit "
            f"{SUBSET_LIMIT}; brute force refused")


def _check_guard(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    count = math.comb(n, k)
    if count > SUBSET_LIMIT:
        raise CombinationGuardError(n, k, count)


def optimal_removal(g: Graph, k: int) -> tuple[tuple[int, ...], float]:
    """Minimum residual lambda_1 over all k-subsets.

    Returns (best subset, its residual lambda_1). The best subset is the
    lexicographically smallest one whose residual is within 1e-9 of the
    minimum; ``removal_table`` lists every subset's residual instead.

    The search is exact but pruned. Let V hold the top r eigenvectors of A
    and Y be V with the rows of a subset S zeroed. Every vector in span(Y)
    is zero on S, so by Courant-Fischer lambda_1(A - S) is at least the
    largest eigenvalue of the pencil (Y'AY, Y'Y); at r = 1 that is the
    Rayleigh quotient of the top eigenvector with S zeroed. Where the least
    eigenvalue of Y'Y is at most ``_MIN_MASS`` the bound is -inf and the
    subset is always solved.

    Subsets are enumerated in chunks, and each chunk goes through two
    stages. The rank-1 bound screens every subset of the chunk (while no
    residual is known yet, the first batch in rank-1 order is solved
    first). The subsets it keeps get the rank-``_RANK`` bound and are
    solved in ascending order of it. A stage drops a subset, and the
    solving stops, once its bound exceeds the least residual so far by more
    than the tie tolerance plus a round-off slack, since no such subset can
    tie or beat it. The result equals the tie rule applied to
    ``removal_table``, bit for bit.
    """
    _check_guard(g.n, k)
    a = g.adjacency_matrix()
    w, v = np.linalg.eigh(a)
    v = v[:, -_RANK:]
    av = a @ v
    slack = _SLACK * max(1.0, float(w[-1]))
    refine = max(1, _CHUNK_BYTES // (8 * (k + 3 * v.shape[1]) ** 2))
    batch = _solve_batch(g.n)
    best_lam = math.inf
    # Candidates in enumeration (lexicographic) order with strictly falling
    # residuals, all within _TIE_TOL of the least so far: a later subset that
    # does not undercut every earlier candidate can never be the answer.
    stairs: list[tuple[tuple[int, ...], float]] = []
    for subsets in _subset_chunks(g.n, k, max(1, _CHUNK_BYTES // (8 * (k + 2) ** 2))):
        residuals = np.full(len(subsets), np.nan)
        lb = _rayleigh_bounds(a, v[:, -1:], av[:, -1:], subsets)
        order = np.argsort(lb, kind="stable")
        if best_lam == math.inf:
            first, order = order[:batch], order[batch:]
            residuals[first] = _residuals(a, subsets[first])
            best_lam = float(residuals[first].min())
        order = order[lb[order] <= best_lam + _TIE_TOL + slack]
        for start in range(0, len(order), refine):
            rows = order[start:start + refine]
            lb[rows] = _rayleigh_bounds(a, v, av, subsets[rows])
        order = order[np.argsort(lb[order], kind="stable")]
        for start in range(0, len(order), batch):
            if lb[order[start]] > best_lam + _TIE_TOL + slack:
                break
            rows = order[start:start + batch]
            residuals[rows] = _residuals(a, subsets[rows])
            best_lam = min(best_lam, float(residuals[rows].min()))
        for i in np.flatnonzero(residuals <= best_lam + _TIE_TOL):
            if not stairs or residuals[i] < stairs[-1][1]:
                stairs.append((tuple(subsets[i].tolist()), float(residuals[i])))
        stairs = [c for c in stairs if c[1] <= best_lam + _TIE_TOL]
    return stairs[0]


def removal_table(g: Graph, k: int) -> Iterator[tuple[tuple[int, ...], float]]:
    """Every (k-subset, residual lambda_1) in lexicographic order, solved lazily.

    Rows are computed one stacked eigvalsh batch at a time as they are
    consumed, so streaming them to a file holds one batch, not the table.
    """
    _check_guard(g.n, k)
    a = g.adjacency_matrix()
    for subsets in _subset_chunks(g.n, k, _solve_batch(g.n)):
        yield from zip(map(tuple, subsets.tolist()), _residuals(a, subsets).tolist())


def _solve_batch(n: int) -> int:
    """Subsets per eigvalsh call: at most _SOLVE_BATCH and _CHUNK_BYTES of masked copies."""
    return max(1, min(_SOLVE_BATCH, _CHUNK_BYTES // (8 * n * n)))


def _subset_chunks(n: int, k: int, rows: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(n) in lexicographic order, as (rows, k) index arrays."""
    it = combinations(range(n), k)
    total = math.comb(n, k)
    for start in range(0, total, rows):
        m = min(rows, total - start)
        flat = np.fromiter(chain.from_iterable(islice(it, m)), dtype=np.intp, count=m * k)
        yield flat.reshape(m, k)


def _rayleigh_bounds(a: np.ndarray, v: np.ndarray, av: np.ndarray,
                     subsets: np.ndarray) -> np.ndarray:
    """Rayleigh-Ritz lower bound on lambda_1 of A with each row's nodes removed.

    v is any n x r block, av = A v. With X and W the rows of v and av on a
    subset S, Y = v zeroed on S has Gram matrix G = v'v - X'X and
    H = Y'AY = v'Av - X'W - W'X + X'A_SS X, both r x r. The bound is the
    largest eigenvalue of the pencil (H, G): H / G at r = 1, and otherwise
    that of B'HB with B = Q D^(-1/2) from G = Q D Q'. Where the least
    eigenvalue of G is at most _MIN_MASS the bound's round-off grows past
    1e-12, so it is -inf there and those subsets are always solved.
    """
    xs = v[subsets]
    xw = np.einsum("msi,msj->mij", xs, av[subsets])
    cross = np.einsum("msi,msj->mij", xs, a[subsets[:, :, None], subsets[:, None, :]] @ xs)
    h = v.T @ av - (xw + xw.transpose(0, 2, 1)) + cross
    gram = v.T @ v - np.einsum("msi,msj->mij", xs, xs)
    out = np.full(len(subsets), -np.inf)
    if v.shape[1] == 1:
        keep = gram[:, 0, 0] > _MIN_MASS
        out[keep] = h[keep, 0, 0] / gram[keep, 0, 0]
        return out
    mass, q = np.linalg.eigh(gram)
    keep = mass[:, 0] > _MIN_MASS
    b = q[keep] / np.sqrt(mass[keep, None, :])
    out[keep] = np.linalg.eigvalsh(b.transpose(0, 2, 1) @ h[keep] @ b)[:, -1]
    return out


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


@dataclass(frozen=True)
class GapReport:
    """Side-by-side residuals: interlacing floor <= optimal <= greedy."""

    k: int
    power: int
    floor_raw: float
    floor_clamped: float
    optimal_set: tuple[int, ...]
    optimal_lambda1: float
    av11_set: tuple[int, ...]
    av11_lambda1: float

    def to_json_obj(self) -> dict:
        return _json_obj(self)


def gap_report(g: Graph, k: int, power: int = DEFAULT_POWER) -> GapReport:
    """Quantify the greedy selection against the exact optimum and the floor.

    The interlacing floor lambda_{k+1} bounds the eigenvalue itself and can
    be negative; the clamped value max(floor, 0) is reported alongside since
    the residual lambda_1 of a simple graph is never negative.
    """
    # AV11 first: it rejects a bad power before the exact search runs.
    av11_set, av11_lam = av11_select(g, k, power=power)
    best_set, best_lam = optimal_removal(g, k)
    floor = separation_lower_bound(spectrum(g), k) if k < g.n else 0.0
    return GapReport(
        k=k,
        power=power,
        floor_raw=floor,
        floor_clamped=max(floor, 0.0),
        optimal_set=best_set,
        optimal_lambda1=best_lam,
        av11_set=tuple(av11_set),
        av11_lambda1=av11_lam,
    )


def write_enumeration_csv(table: Iterable[tuple[tuple[int, ...], float]], out: IO[str]) -> None:
    """Write (subset, residual lambda_1) rows, such as ``removal_table``'s, as CSV."""
    writer = csv.writer(out)
    writer.writerow(["subset", "residual_lambda1"])
    for subset, lam in table:
        writer.writerow([" ".join(map(str, subset)), repr(lam)])
