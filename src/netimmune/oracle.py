"""Exact reference solver for optimal k-node removal (minimum residual lambda_1).

Budgeted removal is NP-complete, so an exact oracle searches the subsets.
Each subset S gets a lower bound on lambda_1 of A with S removed: by
Courant-Fischer, lambda_1 of the masked matrix is at least the largest Ritz
value of A on any subspace that is zero on S. The top eigenvectors of A
with their rows on S zeroed span such a subspace.

The search starts from a known residual b (AV11's by default) and lists
only the subsets that hold enough of the top eigenvector's mass to tie or
beat it. Let x = |v1| (unit, >= 0), rho = x'Ax, e = Ax - rho x and
m_S = sum of x_s^2 over s in S. Zeroing x on S leaves y with y'y = 1 - m_S
and, since A and x are nonnegative (x_S'A x_S >= 0) and
|x_S'e| <= sqrt(k) ||e||_inf,

    lambda_1(A - S) >= y'Ay / y'y >= (rho (1 - 2 m_S) - 2 sqrt(k) ||e||_inf) / (1 - m_S),

which falls as m_S grows. So with cut = b + tie tolerance + round-off
slack, no subset with m_S < m* = (rho - cut - 2 sqrt(k) ||e||_inf) /
(2 rho - cut) can tie or beat b. Of the subsets at or above that floor, a
cheap rank-1 bound screens each one, a rank-4 bound refines the survivors,
and only subsets whose bound can still tie or beat the best residual are
solved. ``removal_table`` solves every subset instead. The oracle caps the
instance size and exists to measure what the greedy selection trades away
and to cross-check the interlacing floor.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import IO

import numpy as np

from .graph import Graph, _is_index, _json_obj
# Imported by name, so that patching oracle._residuals counts only the oracle's solves.
from .spectral import (DEFAULT_POWER, _check_budget, _check_power, _residuals, av11_select,
                       separation_lower_bound, spectrum)

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
# seed 1, ranks 1 to 5 leave 2,602, 534, 174, 82 and 47 of the 8,432
# subsets above the mass floor whose bound is at most the optimum. A pass
# solves 2,623 subsets with the rank-1 bound alone, and 563, 211, 147 or 115
# with a rank-2, 3, 4 or 5 refinement. Rank 3 took 10 % less time a pass
# than rank 4 (28.2 against 31.7 ms in process, one BLAS thread) but rank 4
# was 6 % faster on IEEE 118 at k = 4 (0.91 against 0.97 s), where the exact
# step is dearer; rank 5 was slower on both.
_RANK = 4

# Working memory of one chunk of subsets: index rows and rank-1 bound terms
# (about (k + 2)^2 floats per subset) stay under _CHUNK_BYTES, and so do the
# rank-r bound terms of one refining call (about (k + 3r)^2 floats per
# subset; at k = 4 the two peaks measured 30 and 154 floats a subset) and
# the stacked masked matrices of one eigvalsh call.
# The pruned search solves at most _SOLVE_BATCH subsets per call, so it stops
# soon after the bounds pass the least residual. At rank 4 a batch of 1, 4,
# 8, 16 or 32 solves 85, 99, 115, 147 or 227 subsets an oracle-gap pass;
# batches of 4 to 16 took the same time within 8 % and IEEE 118 within 2 %.
# Neither cap changes a result.
_CHUNK_BYTES = 1 << 19
_SOLVE_BATCH = 16

# Round-off allowance of the mass floor, in units of x's unit mass. The
# floor's own error is of order n * eps (about 3e-14 at n = 118); lowering it
# by far more lists a few more subsets and changes no result.
_MASS_MARGIN = 1e-9


class CombinationGuardError(ValueError):
    """Raised when C(n, k) exceeds the enumeration guard."""

    def __init__(self, n: int, k: int, count: int):
        self.n, self.k, self.count = n, k, count
        super().__init__(
            f"C({n}, {k}) = {count} subsets exceeds the enumeration limit "
            f"{SUBSET_LIMIT}; the exact search is refused")


def _check_guard(n: int, k) -> int:
    k = _check_budget(k, n)
    count = math.comb(n, k)
    if count > SUBSET_LIMIT:
        raise CombinationGuardError(n, k, count)
    return k


def optimal_removal(g: Graph, k: int,
                    start: Iterable[int] | None = None) -> tuple[tuple[int, ...], float]:
    """Minimum residual lambda_1 over all k-subsets.

    Returns (best subset, its residual lambda_1). The best subset is the
    lexicographically smallest one whose residual is within 1e-9 of the
    minimum; ``removal_table`` lists every subset's residual instead.

    ``start`` is any k distinct node ids (by default ``av11_select(g, k)``'s
    set). Its residual b is solved first and is the best residual so far;
    it sets how far the search prunes but never the answer, which is always
    an enumerated, solved subset.

    The search is exact but pruned in three stages.

    1. Mass floor. With x = |v1| (unit, >= 0), rho = x'Ax, e = Ax - rho x
       and m_S the mass of x on S, zeroing x on S and Courant-Fischer give
       lambda_1(A - S) >= (rho (1 - 2 m_S) - 2 sqrt(k) ||e||_inf) / (1 - m_S)
       for m_S < 1, because x_S'A x_S >= 0 and |x_S'e| <= sqrt(k) ||e||_inf.
       The bound falls as m_S grows, so with cut = b + tie tolerance +
       round-off slack, a subset with m_S < m* = (rho - cut - 2 sqrt(k)
       ||e||_inf) / (2 rho - cut) cannot tie or beat b; where 2 rho <= cut
       the floor cuts nothing. Only subsets at or above m* (lowered by a
       round-off margin) are enumerated, in lexicographic order.
    2. Rank-1 screen. Let V hold the top r eigenvectors of A and Y be V
       with the rows of S zeroed. Every vector in span(Y) is zero on S, so
       lambda_1(A - S) is at least the largest eigenvalue of the pencil
       (Y'AY, Y'Y); at r = 1 that is the Rayleigh quotient of the top
       eigenvector with S zeroed. Where the least eigenvalue of Y'Y is at
       most ``_MIN_MASS`` the bound is -inf and the subset is always solved.
    3. Rank-``_RANK`` refinement. The subsets the screen keeps get the
       rank-``_RANK`` bound and are solved in ascending order of it.

    A stage drops a subset, and the solving stops, once its bound exceeds
    the least residual so far by more than the tie tolerance plus the
    slack, since no such subset can tie or beat it. The result equals the
    tie rule applied to ``removal_table``, bit for bit.
    """
    k = _check_guard(g.n, k)
    if start is None:
        start = av11_select(g, k)[0]
    start_row = _start_row(start, g.n, k)
    a = g.adjacency_matrix()
    best_lam = float(_residuals(a, start_row)[0])
    w, v = np.linalg.eigh(a)
    slack = _SLACK * max(1.0, float(w[-1]))
    x = np.abs(v[:, -1])
    floor = _mass_floor(a, x, k, best_lam + _TIE_TOL + slack)
    v = v[:, -_RANK:]
    av = a @ v
    refine = max(1, _CHUNK_BYTES // (8 * (k + 3 * v.shape[1]) ** 2))
    batch = _solve_batch(g.n)
    rows = max(1, _CHUNK_BYTES // (8 * (k + 2) ** 2))
    # Candidates in enumeration (lexicographic) order with strictly falling
    # residuals, all within _TIE_TOL of the least so far: a later subset that
    # does not undercut every earlier candidate can never be the answer.
    stairs: list[tuple[tuple[int, ...], float]] = []
    for subsets in _subsets(x * x, k, rows, floor):
        residuals = np.full(len(subsets), np.nan)
        lb = _rayleigh_bounds(a, v[:, -1:], av[:, -1:], subsets)
        order = np.flatnonzero(lb <= best_lam + _TIE_TOL + slack)
        for i in range(0, len(order), refine):
            part = order[i:i + refine]
            lb[part] = _rayleigh_bounds(a, v, av, subsets[part])
        order = order[np.argsort(lb[order], kind="stable")]
        for i in range(0, len(order), batch):
            if lb[order[i]] > best_lam + _TIE_TOL + slack:
                break
            part = order[i:i + batch]
            residuals[part] = _residuals(a, subsets[part])
            best_lam = min(best_lam, float(residuals[part].min()))
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
    k = _check_guard(g.n, k)
    a = g.adjacency_matrix()
    for subsets in _subsets(np.zeros(g.n), k, _solve_batch(g.n)):
        yield from zip(map(tuple, subsets.tolist()), _residuals(a, subsets).tolist())


def _start_row(start: Iterable[int], n: int, k: int) -> np.ndarray:
    """``start`` as a sorted (1, k) index row; ValueError unless k distinct ids in [0, n)."""
    ids = tuple(start)
    if (len(ids) != k or len(set(ids)) != k
            or not all(_is_index(i) and 0 <= i < n for i in ids)):
        raise ValueError(f"start must be {k} distinct node ids in [0, {n}), got {ids!r}")
    return np.array(sorted(ids), dtype=np.intp).reshape(1, k)


def _mass_floor(a: np.ndarray, x: np.ndarray, k: int, cut: float) -> float:
    """Least mass sum(x_s^2) a k-subset S needs for lambda_1(A - S) <= cut.

    x is a unit vector >= 0; with rho = x'Ax and e = Ax - rho x, every
    subset under m* = (rho - cut - 2 sqrt(k) ||e||_inf) / (2 rho - cut)
    leaves a residual above cut (see ``optimal_removal``). The floor is
    lowered by _MASS_MARGIN for round-off in rho, e and the mass sums, and
    is -inf where 2 rho <= cut.
    """
    ax = a @ x
    rho = float(x @ ax)
    if 2.0 * rho <= cut:
        return -math.inf
    e = float(np.abs(ax - rho * x).max(initial=0.0))
    return (rho - cut - 2.0 * math.sqrt(k) * e) / (2.0 * rho - cut) - _MASS_MARGIN


def _solve_batch(n: int) -> int:
    """Subsets per eigvalsh call: at most _SOLVE_BATCH and _CHUNK_BYTES of masked copies."""
    return max(1, min(_SOLVE_BATCH, _CHUNK_BYTES // (8 * n * n)))


def _subsets(mass: np.ndarray, k: int, rows: int,
             floor: float = -math.inf) -> Iterator[np.ndarray]:
    """The k-subsets S of range(len(mass)) with sum(mass[S]) >= floor, lazily.

    Yields (rows, k) index arrays (the last may be shorter) in lexicographic
    order; a subset's mass is summed in id order. With no floor that is
    every subset, as ``itertools.combinations`` lists them. Prefixes grow
    one id at a time, in id order, and a prefix is kept only while its mass
    plus the largest masses it could still add reaches the floor, so
    hopeless branches are never listed.
    """
    n = len(mass)
    # top[r, j]: the sum of the r largest masses among ids >= j (-inf where
    # fewer than r remain), falling in j.
    top = np.full((k + 1, n + 1), -np.inf)
    top[0] = 0.0
    for r in range(1, k + 1):
        top[r, :n] = np.maximum.accumulate((mass + top[r - 1, 1:])[::-1])[::-1]
    # Prefix checks compare sums taken in another order than the final one;
    # with nonnegative masses their round-off is far below this allowance.
    reach = floor - 1e-9 * abs(floor)
    # Children per expansion step: the k suspended levels each hold at most
    # this many index rows and masses (k + 1 words each), and one step's
    # temporaries a few words more, so together they stay under _CHUNK_BYTES.
    cap = max(1, _CHUNK_BYTES // (8 * (k + 1) ** 2))

    def extend(prefix, pmass, lo, counts, r):
        # Each prefix followed by ids lo .. lo + count - 1, where the child
        # can still reach the floor with r - 1 more ids.
        parent = np.repeat(np.arange(len(prefix)), counts)
        ids = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        cmass = pmass[parent] + mass[ids]
        keep = cmass + top[r - 1, ids + 1] >= (floor if r == 1 else reach)
        return np.column_stack((prefix[parent[keep]], ids[keep])), cmass[keep]

    def grow(prefix, pmass):
        level = prefix.shape[1]
        if level == k:
            yield prefix
            return
        r = k - level
        lo = prefix[:, -1] + 1 if level else np.zeros(len(prefix), dtype=np.intp)
        hi = np.searchsorted(-top[r], pmass - reach, side="right")
        counts = np.maximum(np.minimum(hi, n - r + 1) - lo, 0)
        ends = np.cumsum(counts)
        i0 = 0
        while i0 < len(prefix):
            base = ends[i0 - 1] if i0 else 0
            i1 = max(i0 + 1, int(np.searchsorted(ends, base + cap, side="right")))
            yield from grow(*extend(prefix[i0:i1], pmass[i0:i1], lo[i0:i1], counts[i0:i1], r))
            i0 = i1

    # The empty prefix; at k = 0 it is the one subset, of mass 0.
    root = np.empty((1 if k or floor <= 0.0 else 0, 0), dtype=np.intp)
    pending, held = [], 0
    for leaf in grow(root, np.zeros(len(root))):
        pending.append(leaf)
        held += len(leaf)
        if held >= rows:
            block = np.concatenate(pending)
            full = held - held % rows
            for i in range(0, full, rows):
                yield block[i:i + rows]
            pending, held = [block[full:]], held - full
    if held:
        yield np.concatenate(pending)


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
    k, power = _check_guard(g.n, k), _check_power(power)
    av11_set, av11_lam = av11_select(g, k, power=power)
    best_set, best_lam = optimal_removal(g, k, start=av11_set)
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
