"""Heterogeneous-rate SIS spreading: modified matrix, threshold, iterations, Monte Carlo.

Rates follow the receiver-first convention throughout: beta[(i, j)] is the
per-step probability that infected node j infects susceptible neighbor i,
matching the coupling m_ij = beta_ij of the infection-probability recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph import Graph, Ranking, Strategy, _is_int, _json_obj, _node_ids

# Working-memory caps of the Monte-Carlo kernel. Trials run in chunks whose
# per-step state stays under _CHUNK_BYTES: at most _STATE_BYTES per set,
# trial and node (the infected tensor, the dense kernel's float copy or the
# edge kernel's pushed sums, the escape sums and the boolean temporaries),
# plus _PUSH_BYTES per set, trial and pushed edge for the edge kernel. A push
# keeps at most four index or value arrays of the pushed size alive at once,
# and pushes at most half of a row's edges. Each trial of a chunk draws its
# uniforms for as many steps at once as keep the chunk's draw block under
# _DRAW_BYTES. Neither cap changes any result. At 2 MiB a chunk of BA(1000,
# 3) holds 15 trials; at 1 MiB it would hold 7, and simulate_sis plus
# most_infected_ranking of 20 trials each ran 5-10 % slower in those three
# chunks than in two.
_CHUNK_BYTES = 1 << 21
_DRAW_BYTES = 1 << 19
_STATE_BYTES = 40
_PUSH_BYTES = 32

# Escape kernels: the edge kernel runs when n^2 > _EDGE_COST * (edges + n),
# edges counting both directions. Per entry, its push cost 12-102 times the
# dense product with one BLAS thread, on the states of one benchmark pass of
# each graph (three runs, shared 2-core host): IEEE 118 (n^2 / (edges + n)
# = 29.3) took 76-653 us a step against 56-375 us dense at 77-441 set-trial
# rows, and BA(1000, 3) (143) took 68-249 us against 0.83-1.62 ms at 5-15
# rows. Both kernels give the same sums, so speed decides.
_EDGE_COST = 64

# Log-survival clamp: -expm1 of any escape sum at or below -_CLAMP rounds to 1.0.
_CLAMP = 40

# Perron-root bracket: relative width of a closed bracket, power steps
# before the first solve (a dense matvec costs about 1/80 of a solve at n =
# 1000, and BA(1000, 3) closes on power steps alone), solves before a
# component is split or falls back to eigvals (chains of 1000 nodes with
# random rates need about 20: their Perron vectors decay to 1e-190), and
# sigma's relative offset above hi, which keeps sigma I - M nonsingular.
_RTOL = 1e-12
_POWER_STEPS = 128
_MAX_SOLVES = 24
_SHIFT = 2.0 ** -40

# Width of the beta scale at which scale_rates_to_threshold stops bisecting.
_SCALE_TOL = 1e-10


@dataclass(frozen=True)
class RateModel:
    """Per-edge infection rates and per-node cure rates, plus their generator spec.

    ``beta`` maps each directed pair (receiver, source) whose unordered pair
    is a graph edge; the two directions may differ. Ranges and seed are kept
    so the model can be regenerated bit-identically; a model rescaled by
    ``scale_rates_to_threshold`` carries its scaled beta range, so
    ``build_rates`` regenerates it only to rounding.
    """

    beta: dict[tuple[int, int], float]
    delta: dict[int, float]
    beta_range: tuple[float, float] | None = None
    delta_range: tuple[float, float] | None = None
    seed: int | None = None

    def to_json_obj(self) -> dict:
        return {
            "beta": [[i, j, v] for (i, j), v in sorted(self.beta.items())],
            "delta": [[i, v] for i, v in sorted(self.delta.items())],
            "beta_range": list(self.beta_range) if self.beta_range else None,
            "delta_range": list(self.delta_range) if self.delta_range else None,
            "seed": self.seed,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RateModel":
        """Inverse of ``to_json_obj``; ValueError on a bad key or a non-integer node id."""
        unknown = [key for key in obj if key not in {f.name for f in fields(cls)}]
        if unknown:
            raise ValueError(f"rate model has unknown key(s) {', '.join(map(repr, unknown))}")

        def rows(key, ids):
            if key not in obj:
                raise ValueError(f"rate model is missing the required key {key!r}")
            for row in obj[key]:
                if not all(map(_is_int, row[:ids])):
                    raise ValueError(f"rate model {key} row {row!r} has a non-integer node id")
                yield row

        return cls(
            beta={(i, j): float(v) for i, j, v in rows("beta", 2)},
            delta={i: float(v) for i, v in rows("delta", 1)},
            beta_range=tuple(obj["beta_range"]) if obj.get("beta_range") else None,
            delta_range=tuple(obj["delta_range"]) if obj.get("delta_range") else None,
            seed=obj.get("seed"),
        )


@dataclass(frozen=True)
class ModifiedMatrix:
    """Dense spreading matrix: beta off-diagonal on graph edges, 1 - delta on the diagonal."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("modified matrix must be square")
        if (m < 0).any() or (m > 1).any():
            raise ValueError("modified-matrix entries must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _check_range(name: str, rng: Sequence[float]) -> tuple[float, float]:
    lo, hi = float(rng[0]), float(rng[1])
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"{name} range must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")
    return lo, hi


def build_rates(g: Graph, beta_range: Sequence[float], delta_range: Sequence[float],
                seed: int) -> RateModel:
    """Draw one beta per directed edge and one delta per node, uniform on the ranges.

    Deterministic given (graph, ranges, seed): edges are visited in canonical
    sorted order, receiver-first direction drawn before the reverse.
    """
    blo, bhi = _check_range("beta", beta_range)
    dlo, dhi = _check_range("delta", delta_range)
    rng = np.random.default_rng(seed)
    pairs = [p for u, v in sorted(g.edges) for p in ((u, v), (v, u))]
    beta = dict(zip(pairs, rng.uniform(blo, bhi, len(pairs)).tolist()))
    delta = dict(enumerate(rng.uniform(dlo, dhi, g.n).tolist()))
    return RateModel(beta=beta, delta=delta, beta_range=(blo, bhi),
                     delta_range=(dlo, dhi), seed=seed)


def _rate_edges(g: Graph, r: RateModel) -> tuple[np.ndarray, ...]:
    """Check ``r`` against ``g``; return the receivers, sources and betas of
    the directed edges (in ``r.beta``'s order) and each node's delta.

    The beta keys must be integer pairs whose sorted codes receiver * n +
    source equal those of the graph's directed edges (one comparison; the
    keys of a dict are distinct).
    """
    n = g.n
    try:
        pairs = np.array(list(r.beta)) if r.beta else np.empty((0, 2), dtype=np.intp)
    except ValueError:  # keys of unequal lengths
        pairs = np.empty(0)
    edges = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp,
                        count=2 * len(g.edges)).reshape(-1, 2)
    expected = np.sort(np.concatenate((edges @ (n, 1), edges @ (1, n))))
    if not (pairs.dtype.kind in "iu" and pairs.shape == (expected.size, 2)
            and ((0 <= pairs) & (pairs < n)).all()
            and np.array_equal(np.sort(pairs @ (n, 1)), expected)):
        raise ValueError("rate model beta keys do not match the graph's directed edges")
    if set(r.delta) != set(range(n)):
        raise ValueError("rate model delta keys do not match the graph's nodes")
    beta = np.fromiter(r.beta.values(), dtype=float, count=len(r.beta))
    if not ((0.0 <= beta) & (beta <= 1.0)).all():
        raise ValueError("beta rates must lie in [0, 1]")
    delta = np.array([r.delta[i] for i in range(n)], dtype=float)
    if not ((0.0 <= delta) & (delta <= 1.0)).all():
        raise ValueError("delta rates must lie in [0, 1]")
    pairs = pairs.astype(np.intp, copy=False)
    return pairs[:, 0], pairs[:, 1], beta, delta


def modified_matrix(g: Graph, r: RateModel) -> ModifiedMatrix:
    """m_ij = beta_ij on edges, 0 elsewhere off-diagonal, 1 - delta_i on the diagonal."""
    receivers, sources, beta, delta = _rate_edges(g, r)
    m = np.diag(1.0 - delta)
    m[receivers, sources] = beta
    return ModifiedMatrix(matrix=m)


def _reachable(linked: np.ndarray, start: int) -> np.ndarray:
    """Boolean mask of the nodes reachable from ``start`` along the rows of
    ``linked``, by breadth-first search over boolean rows."""
    seen = np.zeros(linked.shape[0], dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        frontier = np.flatnonzero(linked[frontier].any(axis=0) & ~seen)
        seen[frontier] = True
    return seen


def _strong_classes(matrix: np.ndarray) -> list[np.ndarray]:
    """Sorted node indices of each strongly connected class of M's pattern:
    the nodes both reachable from a pivot and reaching it."""
    forward = matrix > 0
    backward = np.ascontiguousarray(forward.T)
    unseen = np.ones(matrix.shape[0], dtype=bool)
    classes = []
    for pivot in range(matrix.shape[0]):
        if unseen[pivot]:
            found = _reachable(forward, pivot) & _reachable(backward, pivot)
            unseen &= ~found
            classes.append(np.flatnonzero(found))
    return classes


def _normalized(v: np.ndarray) -> np.ndarray | None:
    """v scaled to a largest entry of 1, or None unless every entry stays finite and > 0."""
    if np.isfinite(v).all() and (v > 0).all():
        v = v / v.max()
        if (v > 0).all():
            return v
    return None


def _block_bracket(block: np.ndarray, x: np.ndarray | None, target: float,
                   rtol: float) -> tuple[float, float, np.ndarray]:
    """Collatz-Wielandt bracket (lo, hi, x) of the Perron root of one irreducible block.

    Power steps on block + I (the shift keeps x positive and damps the
    -rho of a periodic block), then Noda's shifted inverse iteration with
    sigma just above hi, where (sigma I - block)^-1 is nonnegative. Each
    bound is a computed ratio (block x)_i / x_i, so it holds rho up to that
    ratio's rounding. Stops once hi - lo <= rtol * hi with ``target``
    outside (lo, hi]; refinement that stalls or runs out of solves keeps
    the bracket only if it is within _RTOL. A block that still cannot close
    (a Perron vector that decays faster than _MAX_SOLVES solves resolve)
    takes its eigvals spectral radius (lo = hi).
    """
    s = block.shape[0]
    lo, hi = 0.0, np.inf

    def narrow(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        ratio = y / x
        return max(lo, float(ratio.min())), min(hi, float(ratio.max()))

    def done() -> bool:
        return hi - lo <= rtol * hi and not lo < target <= hi

    if x is not None:
        x = _normalized(x)
    if x is None:
        x = np.ones(s)
    for _ in range(_POWER_STEPS):
        y = block @ x
        lo, hi = narrow(x, y)
        if done():
            return lo, hi, x
        y = _normalized(y + x)
        if y is None:
            break
        x = y
    shifted = np.empty_like(block)
    for _ in range(_MAX_SOLVES):
        np.negative(block, out=shifted)
        shifted.flat[::s + 1] += hi + _SHIFT * hi
        try:
            y = _normalized(np.linalg.solve(shifted, x))
        except np.linalg.LinAlgError:
            break
        if y is None:
            break
        x, width = y, hi - lo
        lo, hi = narrow(x, block @ x)
        if done() or hi - lo >= width:
            break
    if done() or hi - lo <= _RTOL * hi:
        return lo, hi, x
    rho = float(np.abs(np.linalg.eigvals(block)).max())
    return rho, rho, x


def _perron_bracket(matrix: np.ndarray, target: float, x0: np.ndarray | None = None,
                    rtol: float = _RTOL) -> tuple[float, float, np.ndarray]:
    """Certified lo <= rho(matrix) <= hi for a nonnegative matrix, and the positive x behind it.

    Collatz-Wielandt: for any positive x, min_i (Mx)_i / x_i <= rho(M) <=
    max_i (Mx)_i / x_i when M is irreducible. rho(M) is the largest Perron
    root over M's irreducible diagonal blocks, the strongly connected
    classes of its pattern, so the bracket is [max lo_c, max hi_c] over
    those classes; a single node contributes its diagonal entry exactly.
    Each class refines until its relative width is at most ``rtol`` (1 asks
    for no width) and ``target`` lies outside (lo, hi], so the midpoint
    tells which side of ``target`` rho lies; ``_block_bracket`` says how a
    class that cannot close is resolved. The bracket is certified up to the
    rounding of the ratios themselves: where they resolve rho to the last
    bit, lo = hi can sit a fraction of an ulp off it (3.9e-17 below it on
    a 5-node path). ``x0``, a previous call's x, warm-starts the iteration.
    """
    n = matrix.shape[0]
    x = np.ones(n)
    lo = hi = 0.0
    for idx in _strong_classes(matrix):
        if idx.size == 1:
            c_lo = c_hi = float(matrix[idx[0], idx[0]])
        else:
            block = matrix if idx.size == n else matrix[np.ix_(idx, idx)]
            start = None if x0 is None else x0[idx]
            c_lo, c_hi, x[idx] = _block_bracket(block, start, target, rtol)
        lo, hi = max(lo, c_lo), max(hi, c_hi)
    return lo, hi, x


def threshold_bracket(m: ModifiedMatrix) -> tuple[float, float]:
    """Certified bracket lo <= lambda_M <= hi behind ``threshold_lambda``.

    Relative width at most 1e-12, refined further while 1 lies inside it.
    """
    lo, hi, _ = _perron_bracket(m.matrix, 1.0)
    return lo, hi


def threshold_lambda(m: ModifiedMatrix) -> tuple[float, bool]:
    """Spectral threshold diagnostic: (lambda_M, spreads flag).

    lambda_M is the Perron root rho(M), the largest-modulus eigenvalue (real,
    the matrix being non-negative); spreading can only be sustained when it
    is >= 1. It is the midpoint of a Collatz-Wielandt bracket lo <= rho <= hi
    of relative width at most 1e-12 (``threshold_bracket``), certified up to
    the rounding of the Collatz-Wielandt ratios: the maximum over the
    strongly connected classes of the matrix's pattern (a beta of 0 in one
    direction can put an edge's ends in different classes), a single node
    giving 1 - delta_i exactly. ``np.linalg.eigvals`` decides only a class
    that cannot close (a long chain whose Perron vector decays below
    1e-190).
    While 1 lies inside the bracket it is refined further, and at the
    rounding floor the midpoint decides, so ``spreads`` is always
    ``lambda_M >= 1``. This is a diagnostic, never a gate inside the
    simulator: below 1 the infection provably dies out, above 1 nothing
    quantitative is implied.
    """
    return _threshold_verdict(*threshold_bracket(m))


def _threshold_verdict(lo: float, hi: float) -> tuple[float, bool]:
    """(lambda_M, spreads) from a ``threshold_bracket``: its midpoint and whether that is >= 1."""
    lam_m = 0.5 * (lo + hi)
    return lam_m, lam_m >= 1.0


def _iterate(m: ModifiedMatrix, p0: Sequence[float], steps: int, step) -> np.ndarray:
    """The trajectory P(t) = step(P(t - 1)) from a checked p0; row t is P(t)."""
    p = np.asarray(p0, dtype=float)
    if p.shape != (m.n,):
        raise ValueError(f"p0 must have shape ({m.n},)")
    if (p < 0).any() or (p > 1).any():
        raise ValueError("p0 entries must lie in [0, 1]")
    traj = np.empty((steps + 1, m.n))
    traj[0] = p
    for t in range(1, steps + 1):
        p = step(p)
        traj[t] = p
    return traj


def linear_iteration(m: ModifiedMatrix, p0: Sequence[float], steps: int) -> np.ndarray:
    """Linearized probability iteration P(t) = M P(t-1); row t of the result is P(t)."""
    return _iterate(m, p0, steps, lambda p: m.matrix @ p)


def exact_probability_iteration(m: ModifiedMatrix, p0: Sequence[float],
                                steps: int) -> np.ndarray:
    """Nonlinear infection-probability recursion.

    p_i(t) = 1 - prod_k (1 - m_ik p_k(t-1)), the product running over all k
    with m_ik > 0 including k = i (own persistence through m_ii = 1 -
    delta_i). Entries where m_ik = 0 contribute factor 1, so the full
    product is taken. Outputs stay in [0, 1] and are dominated elementwise
    by the linear iteration from the same p0.
    """
    return _iterate(m, p0, steps, lambda p: 1.0 - np.prod(1.0 - m.matrix * p, axis=1))


# ---------------------------------------------------------------------------
# Monte-Carlo SIS
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationOutcome:
    """One trial's infection trace under a fixed immunization set.

    The trial replays from (master_seed, trial_index), not from ``default_rng(trial_seed)``;
    trial_seed is the first state word of SeedSequence(master_seed, spawn_key=(trial_index,)).
    """

    infected_counts: tuple[int, ...]
    final_infected: tuple[int, ...]
    trial_index: int
    trial_seed: int
    params: dict = field(repr=False)

    def to_json_obj(self) -> dict:
        return _json_obj(self)


@dataclass(frozen=True)
class SimulationProtocol:
    """Parameters of one Monte-Carlo run, such as the calibration behind most-infected.

    ``seeds=None`` rotates the seed across trials (trial t starts at node
    t mod n), scoring how often nodes catch infections started anywhere
    rather than from one fixed source set. Steps and trials are integers >= 1
    and master_seed >= 0 (Python or numpy, not bool), stored as Python ints.
    """

    seeds: tuple[int, ...] | None = None
    steps: int = 100
    trials: int = 100
    master_seed: int = 0

    def __post_init__(self):
        for name, least in (("steps", 1), ("trials", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))


# Every random stream is _stream(master_seed, *key), one key each:
#   (t,)                       comparison trial t (simulate_sis, simulate_sis_paired)
#   (_CALIBRATION_STREAM, t)   calibration trial t (most_infected_ranking)
#   (_RATE_STREAM,)            the rate model's seed (harness.rate_seed_for)
#   (_SEED_STREAM,)            the default seed set (harness.default_seeds)
# The last two are trial keys too: trial 5077 replays the default seed set's draws, and
# trial 7919's trial_seed is the rate seed. Moving either would move every such output.
_CALIBRATION_STREAM = 104729
_RATE_STREAM = 7919
_SEED_STREAM = 5077


def _stream(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=key)


def _log_survival(beta: np.ndarray, receivers: np.ndarray) -> np.ndarray:
    """Overwrite the edge rates ``beta`` with log(1 - beta) on an exact grid; return it.

    Each entry is clamped at -40 (certain infection, beta = 1, maps there:
    -expm1 of any escape sum at or below -40 rounds to 1.0, so it stays
    certain) and rounded to the nearest multiple of 2^-e, with e = 51 -
    ceil(log2(40 d)) and d the most nonzero rates any node receives, counted
    over ``receivers``. A node's escape sum then adds at most d such entries,
    so every partial sum is a multiple of 2^-e at most 2^51 of them in
    magnitude, hence exact: both escape kernels get these same values, and
    the escape sums are the same in any order, on either kernel (a zero sum
    may carry either sign, which no infection draw tells apart).
    """
    in_degree = int(np.bincount(receivers[beta != 0], minlength=1).max())
    # (x - 1).bit_length() is ceil(log2(x)) for an integer x >= 1.
    scale = 2.0 ** (51 - (_CLAMP * max(1, in_degree) - 1).bit_length())
    np.negative(beta, out=beta)
    with np.errstate(divide="ignore"):
        np.log1p(beta, out=beta)
    np.maximum(beta, -_CLAMP, out=beta)
    np.multiply(beta, scale, out=beta)
    np.rint(beta, out=beta)
    np.divide(beta, scale, out=beta)
    return beta


class _DenseEscape:
    """Escape sums as one product infected @ log_s.T, the edges' log-survival
    values scattered into the transposed n x n layout (0 off the edges)."""

    def __init__(self, n: int, receivers: np.ndarray, sources: np.ndarray, log_s: np.ndarray):
        self.log_s_t = np.zeros((n, n))
        self.log_s_t[sources, receivers] = log_s
        self.row_bytes = _STATE_BYTES * n

    def scratch(self, shape: tuple[int, ...]) -> np.ndarray:
        return np.empty(shape)

    def __call__(self, infected: np.ndarray, as_float: np.ndarray, out: np.ndarray) -> None:
        np.copyto(as_float, infected)
        np.matmul(as_float, self.log_s_t, out=out)


class _EdgeEscape:
    """Escape sums pushed along source-sorted edges from the smaller side of the state.

    A call counts the out-edges of the infected sources over all rows. When
    they are at most half of the row-edge terms, the infected nodes push the
    log-survival values of their out-edges onto the receivers. Otherwise the
    nodes that are not infected push theirs, and each sum is the receiver's
    ``total`` over all in-edges less what reached it: the push/pull switch of
    direction-optimizing BFS (Beamer, Asanovic and Patterson, SC 2012). A
    push thus touches at most half of the terms, and on ``_log_survival``'s
    grid both the scatter and the subtraction are exact.
    """

    def __init__(self, n: int, receivers: np.ndarray, sources: np.ndarray, log_s: np.ndarray):
        order = np.argsort(sources, kind="stable")
        self.receivers, self.log_s = receivers[order], log_s[order]
        self.out_degree = np.bincount(sources, minlength=n)
        self.ends = np.cumsum(self.out_degree)
        self.has_out = self.out_degree > 0
        self.total = np.bincount(receivers, weights=log_s, minlength=n)
        self.row_bytes = _STATE_BYTES * n + _PUSH_BYTES * receivers.size // 2

    def scratch(self, shape: tuple[int, ...]) -> np.ndarray:
        return np.empty(shape, dtype=bool)

    def __call__(self, infected: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
        n = self.total.size
        rows = infected.size // n
        flip = 2 * int(infected.reshape(rows, n).sum(axis=0) @ self.out_degree) \
            > rows * self.receivers.size
        # The chosen side's nodes that have out-edges: has_out > infected is
        # has_out & ~infected.
        (np.less if flip else np.logical_and)(infected, self.has_out, out=scratch)
        # Each array is dropped once used, so that at most four of the pushed
        # size are alive at once (_PUSH_BYTES).
        cells = np.flatnonzero(scratch)
        nodes = cells % n
        cells -= nodes  # row * n
        degree = self.out_degree[nodes]
        keys = np.repeat(cells, degree)
        del cells
        # Laid end to end, a chosen node's out-edge range ends at the cumsum
        # of the degrees; its edges lie ends[node] - cumsum places further on
        # in the source-sorted list.
        shift = self.ends[nodes]
        del nodes
        shift -= np.cumsum(degree)
        edges = np.repeat(shift, degree)
        del shift, degree
        edges += np.arange(edges.size)
        keys += self.receivers[edges]
        weights = self.log_s[edges]
        del edges
        sums = np.bincount(keys, weights, minlength=infected.size).reshape(out.shape)
        if flip:
            np.subtract(self.total, sums, out=out)
        else:
            np.copyto(out, sums)


def _masks(n: int, seeds: Iterable[int], immunized: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    seed_mask, immune_mask = np.zeros((2, n), dtype=bool)
    seed_mask[_node_ids(seeds, n, "seed node")] = True
    immune_mask[_node_ids(immunized, n, "immunized node")] = True
    overlap = np.flatnonzero(seed_mask & immune_mask).tolist()
    if overlap:
        raise ValueError(f"seed nodes {overlap} cannot be immunized")
    return seed_mask, immune_mask


def _run_trials(g: Graph, r: RateModel, protocol: SimulationProtocol,
                immunized_sets: Sequence[Iterable[int]],
                stream: tuple[int, ...] = ()) -> Iterator[tuple]:
    """Run every immunization set's trials together; iterate (first trial, t, infected).

    ``infected`` is the boolean (sets, trials in chunk, n) state at step t =
    0..steps of the chunk of trials that starts at ``first trial``; chunks
    come in trial order. Trial t draws from a generator seeded by
    (master_seed, stream, t), 2n uniforms per step (recoveries, then
    infections) whatever its state, and every set shares that draw, so the
    sets are paired by common random numbers and a trial's stream does not
    depend on the chunking. ``protocol.seeds=None`` rotates a single seed:
    trial t starts at node t mod n.

    Within a step: recoveries are decided on the pre-step infected set, then
    every pre-step infected node transmits; post-recovery susceptibles
    (including nodes that just recovered) can be (re)infected, so a node
    infected and recovered in the same step resolves as infected.

    A node escapes infection with probability exp(sum of log(1 - beta) over
    its infected sources). Sparse graphs, n^2 > _EDGE_COST (edges + n), take
    these escape sums from ``_EdgeEscape``, which pushes along the edge list
    from whichever side of the state has fewer out-edges; the rest take them
    from ``_DenseEscape``'s one matrix product. ``_log_survival``'s grid
    makes every sum exact, so both kernels give the same bits and the choice
    changes only speed.
    """
    seeds, steps, trials = protocol.seeds, protocol.steps, protocol.trials
    n = g.n
    seed_list = () if seeds is None else tuple(seeds)
    seed_mask, _ = _masks(n, seed_list, ())
    immune = [_masks(n, seed_list, imm)[1] for imm in immunized_sets]
    receivers, sources, beta, delta = _rate_edges(g, r)
    kernel = _EdgeEscape if n * n > _EDGE_COST * (beta.size + n) else _DenseEscape
    escape = kernel(n, receivers, sources, _log_survival(beta, receivers))
    can_catch = ~np.array(immune, dtype=bool).reshape(len(immune), 1, n)
    chunk = max(1, _CHUNK_BYTES // (max(1, len(immune)) * escape.row_bytes))

    def advance() -> Iterator[tuple]:
        for first in range(0, trials, chunk):
            rngs = [np.random.default_rng(_stream(protocol.master_seed, *stream, t))
                    for t in range(first, min(first + chunk, trials))]
            c = len(rngs)
            infected = np.zeros((len(immune), c, n), dtype=bool)
            if seeds is None:
                infected[:, np.arange(c), np.arange(first, first + c) % n] = True
            else:
                infected[:] = seed_mask
            yield first, 0, infected
            # rng.random((k, 2, n)) is the stream of k successive random(n) pairs.
            block = max(1, min(steps, _DRAW_BYTES // (c * 2 * n * 8)))
            uniforms = np.empty((c, block, 2, n))
            scratch, p_infect = escape.scratch(infected.shape), np.empty(infected.shape)
            for t in range(1, steps + 1):
                j = (t - 1) % block
                if j == 0:
                    drawn = uniforms[:, :min(block, steps + 1 - t)]
                    for rng, u in zip(rngs, drawn):
                        rng.random(out=u)
                survivors = infected & (uniforms[:, j, 0] >= delta)
                # p_infect = -expm1(escape sums), in reused buffers.
                escape(infected, scratch, out=p_infect)
                np.negative(np.expm1(p_infect, out=p_infect), out=p_infect)
                infected = survivors | (can_catch & (uniforms[:, j, 1] < p_infect))
                yield first, t, infected

    return advance()


def simulate_sis(g: Graph, r: RateModel, seeds: Iterable[int], immunized: Iterable[int],
                 steps: int, trials: int, master_seed: int) -> list[SimulationOutcome]:
    """Monte-Carlo SIS with immunized nodes removed from transmission entirely.

    Trials are independent: trial t draws from a generator seeded by
    (master_seed, t), so results are identical whether trials run serially
    or concurrently, and two simulations sharing a master seed are paired
    trial by trial (common random numbers).
    """
    seeds = _node_ids(seeds, g.n, "seed node")
    protocol = SimulationProtocol(seeds, steps, trials, master_seed)
    immunized = _node_ids(immunized, g.n, "immunized node")
    params = {
        "steps": protocol.steps,
        "trials": protocol.trials,
        "seeds": seeds,
        "immunized": immunized,
        "master_seed": protocol.master_seed,
    }
    runs = _run_trials(g, r, protocol, [immunized])
    counts = np.empty((protocol.trials, protocol.steps + 1), dtype=np.int64)
    finals = []
    for first, t, infected in runs:
        counts[first:first + infected.shape[1], t] = infected[0].sum(axis=1)
        if t == protocol.steps:
            finals.extend(row.nonzero()[0] for row in infected[0])
    return [
        SimulationOutcome(
            infected_counts=tuple(counts[trial].tolist()),
            final_infected=tuple(finals[trial].tolist()),
            trial_index=trial,
            trial_seed=int(_stream(protocol.master_seed, trial).generate_state(1)[0]),
            params=params,
        )
        for trial in range(protocol.trials)
    ]


def simulate_sis_paired(g: Graph, r: RateModel, seeds: Iterable[int],
                        immunized_sets: Sequence[Iterable[int]], steps: int, trials: int,
                        master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo SIS for several immunization sets on the same trials.

    Returns (final counts, summed trajectories), both int64 with one row per
    set: row s holds each trial's final infected count (shape (sets,
    trials)) and the infected count at each step summed over trials (shape
    (sets, steps + 1)). Every set replays the same per-trial draws, so row s
    equals what ``simulate_sis`` gives for ``immunized_sets[s]``.
    """
    protocol = SimulationProtocol(_node_ids(seeds, g.n, "seed node"), steps, trials, master_seed)
    runs = _run_trials(g, r, protocol, immunized_sets)
    finals = np.empty((len(immunized_sets), protocol.trials), dtype=np.int64)
    totals = np.zeros((len(immunized_sets), protocol.steps + 1), dtype=np.int64)
    for first, t, infected in runs:
        counts = infected.sum(axis=2)
        totals[:, t] += counts.sum(axis=1)
        if t == protocol.steps:
            finals[:, first:first + counts.shape[1]] = counts
    return finals, totals


def most_infected_ranking(g: Graph, r: RateModel,
                          protocol: SimulationProtocol = SimulationProtocol()) -> Ranking:
    """Rank by total time-steps spent infected in a no-immunization calibration run.

    Uses a dedicated RNG stream so the calibration never shares draws with
    the comparison trials of the same master seed.
    """
    runs = _run_trials(g, r, protocol, [()], stream=(_CALIBRATION_STREAM,))
    totals = np.zeros(g.n, dtype=np.int64)
    for _, _, infected in runs:
        totals += infected[0].sum(axis=0)
    return Ranking.from_scores(Strategy.MOST_INFECTED, totals)


def scale_rates_to_threshold(g: Graph, r: RateModel, target: float) -> RateModel:
    """Rescale all betas by a common factor so lambda_M hits ``target``.

    The Perron root grows monotonically with the scale, so bisection
    converges; deltas are untouched. Each step asks only whether lambda_M
    is below ``target``, from a Perron bracket warm-started at the previous
    step's vector and refined until ``target`` lies outside it. The result
    keeps ``delta_range`` and ``seed``; ``beta_range`` is scaled too (its
    upper end may pass 1 when no drawn beta reached the input's). Raises if
    the target is unreachable with every beta kept within [0, 1].
    """
    receivers, sources, beta, delta = _rate_edges(g, r)
    if not beta.any():
        raise ValueError("every beta is 0 (or the graph has no edges); "
                         "lambda_M cannot be scaled via beta")
    m = np.diag(1.0 - delta)
    x = None

    def lam(scale: float, rtol: float = 1.0) -> float:
        """lambda_M at ``scale``; rtol = 1 refines only until target leaves the bracket."""
        nonlocal x
        m[receivers, sources] = beta * scale
        lo, hi, x = _perron_bracket(m, target, x, rtol)
        return 0.5 * (lo + hi)

    if lam(0.0) > target:
        raise ValueError(f"target {target} is below max(1 - delta) = {lam(0.0):.6f}")
    hi = 1.0 / beta.max()
    if lam(hi) < target:
        raise ValueError(f"target {target} unreachable with beta <= 1 "
                         f"(max lambda_M = {lam(hi, _RTOL):.6f})")
    lo = 0.0
    while hi - lo > _SCALE_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: _SCALE_TOL is below their spacing
            break
        if lam(mid) < target:
            lo = mid
        else:
            hi = mid
    scale = 0.5 * (lo + hi)
    beta_range = None if r.beta_range is None else tuple(b * scale for b in r.beta_range)
    return RateModel(beta={k: v * scale for k, v in r.beta.items()},
                     delta=dict(r.delta), beta_range=beta_range,
                     delta_range=r.delta_range, seed=r.seed)
