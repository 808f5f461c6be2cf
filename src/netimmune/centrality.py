"""Shortest-path centralities (closeness, betweenness) used as immunization baselines.

Both come from one level-synchronous breadth-first search from every source
over the dense adjacency matrix: each BFS level of a chunk of sources is one
``frontier @ A`` product, which yields distances and shortest-path counts
sigma at once. Betweenness adds Brandes' (2001) dependency accumulation, one
product per level from the deepest level up. Sources run in chunks of at
most _CHUNK_ELEMENTS // n, so each per-chunk array holds about 2^15 entries
whatever the graph size. Path counts are float64, exact up to 2^53 paths per
pair; beyond that they round, as networkx's float counts do.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .graph import Graph, Ranking, Strategy

# Entries per (sources x nodes) array of one BFS chunk.
_CHUNK_ELEMENTS = 1 << 15


def _bfs_chunks(adj: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """All-sources BFS: yield (sources, dist, sigma, depth) per chunk of sources.

    Row r of ``dist`` and ``sigma`` belongs to ``sources[r]``: dist is the hop
    distance to each node (-1 where unreachable), sigma the number of
    shortest paths (0 where unreachable), depth the largest distance.
    """
    n = adj.shape[0]
    step = max(1, _CHUNK_ELEMENTS // n)
    for start in range(0, n, step):
        sources = np.arange(start, min(start + step, n))
        rows = np.arange(sources.size)
        dist = np.full((sources.size, n), -1)
        dist[rows, sources] = 0
        sigma = np.zeros((sources.size, n))
        sigma[rows, sources] = 1.0
        frontier = sigma.copy()
        depth = 0
        while True:
            paths = frontier @ adj
            new = (paths > 0) & (dist < 0)
            if not new.any():
                break
            depth += 1
            dist[new] = depth
            frontier = np.where(new, paths, 0.0)
            sigma += frontier
        yield sources, dist, sigma, depth


def closeness_ranking(g: Graph) -> Ranking:
    """Rank by component-local closeness: (n_i - 1) / sum of distances from i.

    n_i is the size of i's connected component, so scores stay meaningful on
    disconnected graphs (immunized grids routinely split). Isolated nodes
    score 0; a node adjacent to all others of its component scores 1.
    Distances come from the chunked all-sources BFS (module docstring). Each
    score is one correctly rounded division of two exact integers, so nodes
    with the same n_i and distance sum (symmetric nodes among them) score
    bit-equal and rank by ascending id; scores equal networkx's
    ``closeness_centrality(wf_improved=False)`` bit for bit.
    """
    reach = np.zeros(g.n, dtype=int)
    total = np.zeros(g.n, dtype=int)
    for sources, dist, _, _ in _bfs_chunks(g.adjacency_matrix()):
        reach[sources] = (dist >= 0).sum(axis=1)
        total[sources] = dist.sum(axis=1, where=dist > 0)
    scores = np.divide(reach - 1, total, out=np.zeros(g.n), where=total > 0)
    return Ranking.from_scores(Strategy.CLOSENESS, scores)


def betweenness_ranking(g: Graph) -> Ranking:
    """Rank by shortest-path betweenness over unordered pairs.

    score(i) = sum over pairs s < t (both != i) of the fraction of s-t
    shortest paths passing through i. Brandes accumulation over the chunked
    all-sources BFS (module docstring): from the deepest level up, a node v
    at level L gains delta_v = sigma_v * sum (1 + delta_w) / sigma_w over
    its neighbours w at level L + 1; the sources' own terms are left out and
    the total is halved, each pair being counted from both ends. Scores are
    rounded to 12 significant digits, so symmetric nodes tie exactly and
    rank by ascending id; they agree with networkx's
    ``betweenness_centrality(normalized=False)`` to about 1e-11 relative.
    """
    adj = g.adjacency_matrix()
    between = np.zeros(g.n)
    for _, dist, sigma, depth in _bfs_chunks(adj):
        delta = np.zeros_like(sigma)
        for level in range(depth - 1, 0, -1):
            weight = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma),
                               where=dist == level + 1)
            here = dist == level
            delta[here] = sigma[here] * (weight @ adj)[here]
        between += delta.sum(axis=0)
    scores = [float(f"{b / 2:.12g}") for b in between]
    return Ranking.from_scores(Strategy.BETWEENNESS, scores)
