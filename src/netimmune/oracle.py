"""Exact reference solver for optimal k-node removal (minimum residual lambda_1).

Budgeted removal is NP-complete, so an exact oracle searches the subsets:
a Rayleigh lower bound prunes the ones that cannot tie or beat the best,
and the table mode still enumerates every subset. It caps the instance size
and exists to measure what the greedy selection trades away and to
cross-check the interlacing floor.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import IO

import numpy as np

from .graph import Graph
from .spectral import DEFAULT_POWER, av11_select, separation_lower_bound, spectrum

SUBSET_LIMIT = 10_000_000

# Residuals closer than this are the same removal quality; the earlier
# (lexicographically smaller) subset is kept.
_TIE_TOL = 1e-9

# Round-off allowance of the pruned search, relative to max(1, lambda_1(A)):
# it covers the error of both the Rayleigh bound and eigvalsh.
_SLACK = 1e-10
# The bound is used only where the zeroed eigenvector keeps more than this
# share of its mass; below it the subset is always solved. The bound's
# round-off grows as the kept mass falls: on graphs of up to 12 nodes it
# measured at most 12 eps / mass, which passes 1e-12 near a mass of 3e-3.
# Above this cutoff it stays under 3e-13, far inside the slack.
_MIN_MASS = 1e-2

# Working memory of one chunk of subsets: index rows and Rayleigh bound
# terms (at most (k + 2)^2 floats per subset) stay under _CHUNK_BYTES, and
# so do the stacked masked matrices of one eigvalsh call.
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


def optimal_removal(g: Graph, k: int, *, keep_table: bool = False,
                    ) -> tuple[tuple[int, ...], float, list[tuple[tuple[int, ...], float]] | None]:
    """Minimum residual lambda_1 over all k-subsets.

    Returns (best subset, its residual lambda_1, enumeration table or None).
    The best subset is the lexicographically smallest one whose residual is
    within 1e-9 of the minimum; the table lists every (subset, residual
    lambda_1) in enumeration order.

    Without a table the search is exact but pruned. With x the top unit
    eigenvector of A, zeroing x on a subset S gives a Rayleigh test vector
    for Z A Z, so

        lambda_1(A - S) >= (x'Ax - 2 sum_{s in S} x_s (Ax)_s
                            + sum_{s, t in S} x_s x_t A_st) / (1 - sum_{s in S} x_s^2).

    Subsets are enumerated in chunks and solved in ascending order of that
    bound; a chunk stops once the next bound exceeds the least residual so
    far by more than the tie tolerance plus a round-off slack, since no
    later subset can then tie or beat it. With ``keep_table`` every subset
    is solved. Both return the same subset and residual, bit for bit.
    """
    _check_guard(g.n, k)
    a = g.adjacency_matrix()
    slack = 0.0
    if not keep_table:
        w, v = np.linalg.eigh(a)
        x = v[:, -1]
        ax = a @ x
        slack = _SLACK * max(1.0, float(w[-1]))
    batch = max(1, min(_SOLVE_BATCH, _CHUNK_BYTES // (8 * g.n * g.n)))
    best_lam = math.inf
    # Candidates in enumeration (lexicographic) order with strictly falling
    # residuals, all within _TIE_TOL of the least so far: a later subset that
    # does not undercut every earlier candidate can never be the answer.
    stairs: list[tuple[tuple[int, ...], float]] = []
    table: list[tuple[tuple[int, ...], float]] | None = [] if keep_table else None
    for subsets in _subset_chunks(g.n, k):
        residuals = np.full(len(subsets), np.nan)
        lb = (np.full(len(subsets), -np.inf) if keep_table
              else _rayleigh_bounds(a, x, ax, subsets))
        order = np.argsort(lb, kind="stable")
        for start in range(0, len(order), batch):
            if lb[order[start]] > best_lam + _TIE_TOL + slack:
                break
            rows = order[start:start + batch]
            residuals[rows] = _residuals(a, subsets[rows])
            best_lam = min(best_lam, float(residuals[rows].min()))
        if table is not None:
            table.extend(zip(map(tuple, subsets.tolist()), residuals.tolist()))
        for i in np.flatnonzero(residuals <= best_lam + _TIE_TOL):
            if not stairs or residuals[i] < stairs[-1][1]:
                stairs.append((tuple(subsets[i].tolist()), float(residuals[i])))
        stairs = [c for c in stairs if c[1] <= best_lam + _TIE_TOL]
    best_set, best_lam = stairs[0]
    return best_set, best_lam, table


def _subset_chunks(n: int, k: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(n) in lexicographic order, as (rows, k) index arrays."""
    rows = max(1, _CHUNK_BYTES // (8 * (k + 2) ** 2))
    it = combinations(range(n), k)
    total = math.comb(n, k)
    for start in range(0, total, rows):
        m = min(rows, total - start)
        flat = np.fromiter(chain.from_iterable(islice(it, m)), dtype=np.intp, count=m * k)
        yield flat.reshape(m, k)


def _rayleigh_bounds(a: np.ndarray, x: np.ndarray, ax: np.ndarray,
                     subsets: np.ndarray) -> np.ndarray:
    """Rayleigh lower bound on lambda_1 of A with each row's nodes removed.

    x is any unit vector, ax = A x. Where the zeroed vector keeps too little of
    x's mass, the bound's round-off grows past 1e-12, so it is -inf there and
    those subsets are always solved.
    """
    xs = x[subsets]
    cross = np.einsum("ms,mst,mt->m", xs, a[subsets[:, :, None], subsets[:, None, :]], xs)
    num = x @ ax - 2.0 * np.einsum("ms,ms->m", xs, ax[subsets]) + cross
    den = x @ x - np.einsum("ms,ms->m", xs, xs)
    keep = den > _MIN_MASS
    out = np.full(len(subsets), -np.inf)
    out[keep] = num[keep] / den[keep]
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
        return {
            "k": self.k,
            "power": self.power,
            "floor_raw": self.floor_raw,
            "floor_clamped": self.floor_clamped,
            "optimal_set": list(self.optimal_set),
            "optimal_lambda1": self.optimal_lambda1,
            "av11_set": list(self.av11_set),
            "av11_lambda1": self.av11_lambda1,
        }


def gap_report(g: Graph, k: int, power: int = DEFAULT_POWER) -> GapReport:
    """Quantify the greedy selection against the exact optimum and the floor.

    The interlacing floor lambda_{k+1} bounds the eigenvalue itself and can
    be negative; the clamped value max(floor, 0) is reported alongside since
    the residual lambda_1 of a simple graph is never negative.
    """
    _check_guard(g.n, k)
    best_set, best_lam, _ = optimal_removal(g, k)
    av11_set, av11_lam = av11_select(g, k, power=power)
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


def write_enumeration_csv(table: list[tuple[tuple[int, ...], float]], out: IO[str]) -> None:
    """Dump an optimal_removal table as CSV rows (subset, residual lambda_1)."""
    writer = csv.writer(out)
    writer.writerow(["subset", "residual_lambda1"])
    for subset, lam in table:
        writer.writerow([" ".join(map(str, subset)), repr(lam)])
