import networkx as nx
import numpy as np
import pytest
from hypothesis import strategies as st

from netimmune import Graph
from netimmune.epidemic import _log_survival, _rate_edges


@pytest.fixture
def k2():
    return Graph(2, [(0, 1)])


@pytest.fixture
def p3():
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def k3():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def k4():
    return Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture
def c4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def star5():
    """Hub 0 with 4 leaves."""
    return Graph(5, [(0, i) for i in range(1, 5)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi instance as a Graph (may be disconnected or edgeless)."""
    nxg = nx.gnp_random_graph(n, p, seed=seed)
    return Graph(n, list(nxg.edges()))


def random_connected_graph(n: int, seed: int) -> Graph:
    """Connected Erdos-Renyi instance (resamples until connected)."""
    rng = np.random.default_rng(seed)
    while True:
        p = rng.uniform(0.25, 0.7)
        nxg = nx.gnp_random_graph(n, p, seed=int(rng.integers(2**31)))
        if n == 1 or nx.is_connected(nxg):
            return Graph(n, list(nxg.edges()))


def disjoint_copies(g: Graph) -> Graph:
    """Two disjoint copies of g: every eigenvalue of g, lambda_1 included, doubles."""
    return Graph(2 * g.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in g.edges])


def dense_log_survival(g: Graph, r) -> np.ndarray:
    """The simulator's log-survival values as an n x n matrix, receivers in
    rows and 0 off the edges."""
    receivers, sources, beta, _ = _rate_edges(g, r)
    log_s = np.zeros((g.n, g.n))
    log_s[receivers, sources] = _log_survival(beta, receivers)
    return log_s


@st.composite
def gnp_graphs(draw, max_n=12):
    """Hypothesis strategy: any graph on 1..max_n nodes, each pair an edge or not."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])
