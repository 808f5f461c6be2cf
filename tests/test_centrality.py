import os
import subprocess
import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings

from netimmune import Graph, betweenness_ranking, closeness_ranking

from conftest import gnp_graphs, random_graph


def bfs_distances(g, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def all_shortest_paths(g, s, t):
    """Every shortest s-t path, by DFS constrained to the BFS distance labels."""
    dist = bfs_distances(g, s)
    if t not in dist:
        return []
    paths = []

    def walk(node, path):
        if node == t:
            paths.append(path)
            return
        for v in g.neighbors(node):
            if dist.get(v) == dist[node] + 1 and dist[v] <= dist[t]:
                walk(v, path + [v])

    walk(s, [s])
    return paths


def brute_betweenness(g):
    """Independent oracle: enumerate shortest paths for every unordered pair."""
    scores = [0.0] * g.n
    for s, t in combinations(range(g.n), 2):
        paths = all_shortest_paths(g, s, t)
        if not paths:
            continue
        for path in paths:
            for node in path[1:-1]:
                scores[node] += 1.0 / len(paths)
    return scores


def brute_closeness(g):
    scores = []
    for i in range(g.n):
        dist = bfs_distances(g, i)
        total = sum(dist.values())
        scores.append((len(dist) - 1) / total if total > 0 else 0.0)
    return scores


class TestCloseness:
    def test_p3(self, p3):
        r = closeness_ranking(p3)
        assert r.scores[1] == pytest.approx(1.0)
        assert r.scores[0] == pytest.approx(2 / 3)
        assert r.order == (1, 0, 2)

    def test_k3_all_one(self, k3):
        assert all(s == pytest.approx(1.0) for s in closeness_ranking(k3).scores)

    def test_component_local_normalization(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert all(s == pytest.approx(1.0) for s in closeness_ranking(g).scores)

    def test_isolated_node_scores_zero(self):
        g = Graph(3, [(0, 1)])
        assert closeness_ranking(g).scores[2] == 0.0

    def test_range_and_adjacency_condition(self):
        for seed in range(8):
            g = random_graph(10, 0.3, seed)
            scores = closeness_ranking(g).scores
            dist_one = brute_closeness(g)
            for i in range(g.n):
                assert 0.0 <= scores[i] <= 1.0 + 1e-12
                assert scores[i] == pytest.approx(dist_one[i])
                comp = bfs_distances(g, i)
                adjacent_to_all = len(comp) - 1 == g.degree(i)
                if len(comp) > 1:
                    assert (scores[i] == pytest.approx(1.0)) == adjacent_to_all


class TestBetweenness:
    def test_p3(self, p3):
        assert betweenness_ranking(p3).scores == (0.0, 1.0, 0.0)

    def test_star_hub_counts_pairs(self, star5):
        r = betweenness_ranking(star5)
        assert r.scores[0] == pytest.approx(6.0)  # C(4, 2)
        assert r.scores[1:] == (0.0, 0.0, 0.0, 0.0)

    def test_c4_split_paths(self, c4):
        assert all(s == pytest.approx(0.5) for s in betweenness_ranking(c4).scores)

    def test_degree_one_nodes_score_zero(self):
        for seed in range(8):
            g = random_graph(12, 0.25, seed)
            scores = betweenness_ranking(g).scores
            for i in range(g.n):
                if g.degree(i) <= 1:
                    assert scores[i] == 0.0

    def test_matches_enumeration_oracle(self):
        for seed in range(10):
            g = random_graph(8, 0.35, seed)
            scores = betweenness_ranking(g).scores
            expected = brute_betweenness(g)
            assert scores == pytest.approx(expected, abs=1e-9)

    def test_total_mass_equals_pair_internal_counts(self):
        for seed in range(5):
            g = random_graph(7, 0.4, seed)
            total = 0.0
            for s, t in combinations(range(g.n), 2):
                paths = all_shortest_paths(g, s, t)
                if paths:
                    total += sum(len(p) - 2 for p in paths) / len(paths)
            assert sum(betweenness_ranking(g).scores) == pytest.approx(total, abs=1e-9)


def grid_graph(side):
    """side x side grid, node r * side + c at row r, column c."""
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return Graph(side * side, edges)


def grid_orbits(side):
    """Orbits of the grid's nodes under its 8 symmetries (rotations and reflections)."""
    m = side - 1
    maps = [lambda r, c: (r, c), lambda r, c: (c, m - r), lambda r, c: (m - r, m - c),
            lambda r, c: (m - c, r), lambda r, c: (r, m - c), lambda r, c: (m - r, c),
            lambda r, c: (c, r), lambda r, c: (m - c, m - r)]
    orbits = set()
    for i in range(side * side):
        images = (f(*divmod(i, side)) for f in maps)
        orbits.add(tuple(sorted({r * side + c for r, c in images})))
    return sorted(orbits)


@pytest.mark.parametrize("ranker", [closeness_ranking, betweenness_ranking])
def test_grid_symmetric_nodes_tie_in_id_order(ranker):
    # Symmetric nodes must score bit-equal, so Ranking's id tie-break, not
    # round-off in the last bits, decides their order.
    r = ranker(grid_graph(6))
    orbits = grid_orbits(6)
    assert len(orbits) == 6
    for orbit in orbits:
        assert len({r.scores[i] for i in orbit}) == 1
        positions = [r.order.index(i) for i in orbit]
        assert positions == sorted(positions)


def to_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    return nxg


@settings(max_examples=200, deadline=None)
@given(gnp_graphs())
def test_closeness_equals_networkx_bit_for_bit(g):
    expected = nx.closeness_centrality(to_networkx(g), wf_improved=False)
    assert closeness_ranking(g).scores == tuple(expected[i] for i in range(g.n))


@settings(max_examples=200, deadline=None)
@given(gnp_graphs())
def test_betweenness_matches_networkx(g):
    expected = nx.betweenness_centrality(to_networkx(g), normalized=False)
    assert betweenness_ranking(g).scores == pytest.approx([expected[i] for i in range(g.n)],
                                                          rel=1e-9)


def test_networkx_is_not_imported_at_runtime():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, netimmune, netimmune.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
