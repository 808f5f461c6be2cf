import math
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netimmune import (
    Graph,
    Ranking,
    Strategy,
    av11_ranking,
    av11_select,
    diagonal_shift,
    dynamical_importance_ranking,
    estrada_ranking,
    ieee118_graph,
    masked_adjacency,
    separation_lower_bound,
    spectrum,
    trace_power_bound,
)
from netimmune import spectral

from conftest import (
    disjoint_copies,
    gnp_graphs,
    random_connected_graph,
    random_graph,
    star_graph,
)


def lam1(matrix):
    return float(np.linalg.eigvalsh(matrix)[-1])


def reference_dynamical_importance(g):
    """Reference: one masked copy and one full eigvalsh per node."""
    top = lam1(g.adjacency_matrix())
    return np.array([top - lam1(masked_adjacency(g, [i])) for i in range(g.n)])


# G(n, p) plus families with degenerate lambda_1 (disjoint copies), with many
# symmetric nodes (stars, complete graphs) or with no edges at all.
di_graphs = st.one_of(
    gnp_graphs(max_n=30),
    st.integers(1, 30).map(lambda n: Graph(n, [])),
    gnp_graphs(max_n=15).map(disjoint_copies),
    st.integers(1, 29).map(star_graph),
    st.integers(1, 30).map(lambda n: Graph(n, [(i, j) for i in range(n)
                                               for j in range(i + 1, n)])),
    st.sampled_from([Graph(1, []), Graph(2, []), Graph(2, [(0, 1)])]),
)


class TestSpectrum:
    def test_p3_characteristic_roots(self, p3):
        s = spectrum(p3)
        assert s.values == pytest.approx([math.sqrt(2), 0.0, -math.sqrt(2)], abs=1e-12)

    def test_star_extremes(self, star5):
        s = spectrum(star5)
        assert s.lambda_1 == pytest.approx(2.0, abs=1e-12)
        assert s.lambda_min == pytest.approx(-2.0, abs=1e-12)

    def test_empty_graph_all_zero(self):
        s = spectrum(Graph(4, []))
        assert s.values == pytest.approx([0.0] * 4)

    def test_descending_order(self):
        for seed in range(5):
            s = spectrum(random_graph(12, 0.3, seed))
            assert (np.diff(s.values) <= 1e-12).all()

    def test_reconstruction_from_eigvectors(self):
        for seed in range(5):
            g = random_graph(10, 0.4, seed)
            s = spectrum(g, want_vectors=True)
            rebuilt = (s.vectors * s.values) @ s.vectors.T
            assert np.abs(rebuilt - g.adjacency_matrix()).max() <= 1e-8

    def test_deterministic_across_calls(self, star5):
        a = spectrum(star5, want_vectors=True)
        b = spectrum(star5, want_vectors=True)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


class TestAv11Select:
    def test_star_hub_then_empty(self, star5):
        selected, residual = av11_select(star5, 1)
        assert selected == [0]
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_p3_center(self, p3):
        selected, residual = av11_select(p3, 1)
        assert selected == [1]
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_zero_budget_is_noop(self, c4):
        selected, residual = av11_select(c4, 0)
        assert selected == []
        assert residual == pytest.approx(2.0, abs=1e-12)

    def test_full_budget_empties_graph(self):
        for seed in range(3):
            g = random_graph(9, 0.4, seed)
            selected, residual = av11_select(g, g.n)
            assert sorted(selected) == list(range(g.n))
            assert residual == pytest.approx(0.0, abs=1e-12)

    def test_budget_over_n_rejected(self, p3):
        with pytest.raises(ValueError):
            av11_select(p3, 4)

    @pytest.mark.parametrize("budget", [2.7, "3", True, None])
    def test_non_integer_budget_rejected(self, p3, budget):
        with pytest.raises(ValueError, match="budget must be an integer in \\[0, 3\\]"):
            av11_select(p3, budget)

    def test_numpy_integer_budget_accepted(self):
        g = random_graph(9, 0.4, 3)
        assert av11_select(g, np.int64(3)) == av11_select(g, 3)

    def test_numpy_integer_power_accepted(self):
        g = random_graph(9, 0.4, 3)
        assert av11_select(g, 2, power=np.int64(64)) == av11_select(g, 2, power=64)
        assert (trace_power_bound(g, [0], power=np.int32(16))
                == trace_power_bound(g, [0], power=16))

    def test_odd_power_rejected(self, p3):
        with pytest.raises(ValueError):
            av11_select(p3, 1, power=3)
        with pytest.raises(ValueError):
            av11_select(p3, 1, power=0)

    def test_selections_are_distinct(self):
        for seed in range(5):
            g = random_graph(12, 0.15, seed)
            selected, _ = av11_select(g, 8)
            assert len(set(selected)) == 8

    def test_monotone_residual_in_budget(self):
        for seed in range(4):
            g = random_graph(10, 0.35, seed)
            residuals = [av11_select(g, k)[1] for k in range(g.n + 1)]
            for a, b in zip(residuals, residuals[1:]):
                assert b <= a + 1e-9

    def test_relabel_equivariance(self):
        # Id tie-breaks cannot be equivariant, so the objective must agree on
        # every instance and the sets themselves on tie-free ones.
        for seed in range(4):
            g = random_graph(11, 0.3, seed)
            rng = np.random.default_rng(seed + 100)
            perm = rng.permutation(g.n)
            relabeled = Graph(g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
            sel, res = av11_select(g, 4)
            sel_p, res_p = av11_select(relabeled, 4)
            assert res_p == pytest.approx(res, abs=1e-9)
            mapped = [int(perm[i]) for i in sel]
            assert lam1(masked_adjacency(relabeled, mapped)) == pytest.approx(res, abs=1e-9)
            if seed in (1, 3):  # tie-free instances: exact set equivariance
                assert sorted(sel_p) == sorted(mapped)


class TestAv11Ranking:
    def test_star_hub_first(self, star5):
        assert av11_ranking(star5).order[0] == 0

    def test_k3_symmetry_tie_break(self, k3):
        assert av11_ranking(k3).order == (0, 1, 2)

    def test_p3_center_first(self, p3):
        assert av11_ranking(p3).order == (1, 0, 2)

    def test_scores_decrease_along_selection(self, c4):
        r = av11_ranking(c4)
        assert [r.scores[i] for i in r.order] == [4.0, 3.0, 2.0, 1.0]

    def test_ieee118_pinned(self):
        # After these 61 picks no edge is left, so every later diagonal entry
        # ties and the remaining nodes follow by id.
        head = (48, 99, 58, 76, 11, 16, 95, 69, 36, 84, 31, 104, 61, 91, 4, 55, 67, 18, 79,
                24, 39, 64, 109, 45, 74, 14, 29, 22, 26, 33, 51, 60, 70, 88, 0, 8, 10, 20,
                28, 43, 53, 82, 93, 5, 23, 34, 40, 46, 49, 50, 62, 65, 75, 77, 85, 89, 100,
                102, 105, 107, 113)
        tail = tuple(sorted(set(range(118)) - set(head)))
        assert av11_ranking(ieee118_graph(), power=64).order == head + tail


class TestDynamicalImportance:
    def test_star(self, star5):
        r = dynamical_importance_ranking(star5)
        assert r.scores[0] == pytest.approx(2.0, abs=1e-9)
        assert r.scores[1] == pytest.approx(2.0 - math.sqrt(3), abs=1e-9)

    def test_k2_both_kill_the_edge(self, k2):
        assert dynamical_importance_ranking(k2).scores == pytest.approx([1.0, 1.0])

    def test_empty_graph_zero(self):
        assert dynamical_importance_ranking(Graph(3, [])).scores == pytest.approx([0.0] * 3)

    @settings(max_examples=300, deadline=None)
    @given(di_graphs)
    def test_equals_per_node_eigensolves(self, g):
        with np.errstate(divide="raise", invalid="raise"):  # no bisection step hits a pole
            r = dynamical_importance_ranking(g)
        ref = reference_dynamical_importance(g)
        tol = 1e-10 * max(1.0, lam1(g.adjacency_matrix()))
        scores = np.array(r.scores)
        assert np.abs(scores - ref).max() <= tol
        # Wherever the reference separates two nodes, the ranking agrees.
        position = np.empty(g.n, dtype=int)
        position[list(r.order)] = np.arange(g.n)
        separated = ref[:, None] > ref[None, :] + tol
        assert (position[:, None] < position[None, :])[separated].all()

    def test_ieee118_pinned(self):
        g = ieee118_graph()
        r = dynamical_importance_ranking(g)
        ref = Ranking.from_scores(Strategy.DYNAMICAL_IMPORTANCE,
                                  reference_dynamical_importance(g))
        assert r.order[:40] == ref.order[:40]
        # Leaves 110 and 111 are symmetric: their scores are bit-equal, so the
        # id tie-break puts 110 first (per-node eigensolves differ by 1e-15).
        assert r.scores[110] == r.scores[111]
        assert r.order.index(110) == r.order.index(111) - 1


class TestEstrada:
    def test_k2_cosh(self, k2):
        assert estrada_ranking(k2).scores == pytest.approx([math.cosh(1.0)] * 2)

    def test_p3(self, p3):
        r = estrada_ranking(p3)
        c = math.cosh(math.sqrt(2))
        assert r.scores[1] == pytest.approx(c)
        assert r.scores[0] == pytest.approx((c + 1) / 2)
        assert r.order[0] == 1

    def test_empty_graph_identity(self):
        assert estrada_ranking(Graph(3, [])).scores == pytest.approx([1.0] * 3)

    def test_matches_expm_diagonal(self):
        for seed in range(6):
            g = random_graph(10, 0.35, seed)
            expected = np.diagonal(scipy.linalg.expm(g.adjacency_matrix()))
            assert estrada_ranking(g).scores == pytest.approx(expected, rel=1e-10)


class TestSeparationBound:
    def test_c4_k1(self, c4):
        assert separation_lower_bound(spectrum(c4), 1) == pytest.approx(0.0, abs=1e-12)

    def test_p3_k1(self, p3):
        assert separation_lower_bound(spectrum(p3), 1) == pytest.approx(0.0, abs=1e-12)

    def test_k0_is_lambda1(self, k4):
        s = spectrum(k4)
        assert separation_lower_bound(s, 0) == s.lambda_1

    def test_k_out_of_range(self, p3):
        with pytest.raises(ValueError):
            separation_lower_bound(spectrum(p3), 3)
        with pytest.raises(ValueError):
            separation_lower_bound(spectrum(p3), -1)
        for k in (True, 1.0):
            with pytest.raises(ValueError, match="budget must be an integer in \\[0, 2\\]"):
                separation_lower_bound(spectrum(p3), k)
        assert separation_lower_bound(spectrum(p3), np.int64(1)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("node", [1.0, 0.5, True, "1"])
    def test_non_integer_node_ids_rejected(self, p3, node):
        with pytest.raises(ValueError, match=f"node {node!r} is not an integer id"):
            masked_adjacency(p3, [0, node])
        with pytest.raises(ValueError, match=f"node {node!r} is not an integer id"):
            trace_power_bound(p3, [node])

    def test_numpy_integer_node_ids_accepted(self, p3):
        assert (masked_adjacency(p3, [np.int64(1)]) == masked_adjacency(p3, [1])).all()
        assert trace_power_bound(p3, [np.int32(1)]) == trace_power_bound(p3, [1])

    def test_floor_holds_exhaustively(self):
        for seed in range(4):
            g = random_graph(8, 0.4, seed)
            s = spectrum(g)
            for k in (1, 2):
                floor = separation_lower_bound(s, k)
                for subset in combinations(range(g.n), k):
                    assert lam1(masked_adjacency(g, subset)) >= floor - 1e-9


class TestTraceBound:
    def test_k2_no_mask(self, k2):
        bound, lam = trace_power_bound(k2, [], power=2)
        assert bound == pytest.approx(math.sqrt(10) - 2)
        assert lam == pytest.approx(1.0)
        assert bound >= lam

    def test_k2_masked_to_empty(self, k2):
        d = diagonal_shift(k2)
        bound, lam = trace_power_bound(k2, [0], power=2)
        assert bound == pytest.approx(d * (math.sqrt(2) - 1))
        assert lam == pytest.approx(0.0)

    def test_empty_graph_formula(self):
        g = Graph(5, [])
        for p in (2, 4, 8):
            bound, lam = trace_power_bound(g, [1, 2], power=p)
            assert bound == pytest.approx(5 ** (1 / p) - 1)  # d = 1 for the zero matrix
            assert lam == 0.0
            assert bound >= lam

    def test_bound_dominates_and_tightens(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            n = int(rng.integers(4, 20))
            g = random_graph(n, 0.3, seed + 300)
            mask = [int(x) for x in rng.choice(n, size=int(rng.integers(0, n // 2 + 1)),
                                               replace=False)]
            gaps = {}
            for p in (2, 4, 8, 16):
                bound, lam = trace_power_bound(g, mask, power=p)
                assert bound >= lam - 1e-9
                gaps[p] = bound - lam
            assert gaps[16] < gaps[2]

    def test_shifted_matrix_positive_definite(self):
        rng = np.random.default_rng(11)
        for seed in range(8):
            g = random_graph(12, 0.35, seed + 500)
            d = diagonal_shift(g)
            mask = [int(x) for x in rng.choice(12, size=int(rng.integers(0, 6)), replace=False)]
            shifted = masked_adjacency(g, mask) + d * np.eye(g.n)
            assert np.linalg.eigvalsh(shifted)[0] >= 1.0 - 1e-9


def reference_av11(g, k, power):
    """Reference greedy: numpy's power of the full n x n matrix Z A Z + d I,
    the argmax over nodes not yet removed, ties within 1e-9 relative -> lowest id."""
    d = diagonal_shift(g)
    masked = g.adjacency_matrix().copy()
    active = np.ones(g.n, dtype=bool)
    picks = []
    for _ in range(k):
        diag = np.diagonal(np.linalg.matrix_power(masked + d * np.eye(g.n), power))
        vmax = diag[active].max()
        node = int(np.flatnonzero(active & (diag >= vmax - 1e-9 * vmax))[0])
        picks.append(node)
        active[node] = False
        masked[node, :] = 0.0
        masked[:, node] = 0.0
    return picks


def reference_av11_eigh(g, k, power):
    """Reference greedy in spectral form: per pick, one eigh of the active block
    B = U diag(w) U^T and the diagonal (U o U) ((w + d) / (w_max + d))^p, whose
    factors all lie in (0, 1] at any even p."""
    d = diagonal_shift(g)
    a = g.adjacency_matrix()
    active = np.arange(g.n)
    picks = []
    for _ in range(k):
        w, u = np.linalg.eigh(a[np.ix_(active, active)])
        diag = (u * u) @ ((w + d) / (w[-1] + d)) ** power
        vmax = diag.max()
        pos = int(np.flatnonzero(diag >= vmax - 1e-9 * vmax)[0])
        picks.append(int(active[pos]))
        active = np.delete(active, pos)
    return picks


@pytest.fixture
def downdate_every_pick(monkeypatch):
    """AV11 with its crossover at 0: every pick after a fresh power downdates."""
    monkeypatch.setattr(spectral, "_CROSSOVER", 0)


def count_av11_paths(monkeypatch):
    """Count fresh powers and downdates through spectral's private helpers."""
    counts = {"fresh": 0, "downdate": 0}
    power_unit, downdate = spectral._power_unit, spectral._downdate

    def fresh(*args):
        counts["fresh"] += 1
        return power_unit(*args)

    def down(*args):
        counts["downdate"] += 1
        return downdate(*args)

    monkeypatch.setattr(spectral, "_power_unit", fresh)
    monkeypatch.setattr(spectral, "_downdate", down)
    return counts


def ba_graph(n, m, seed):
    return Graph(n, list(nx.barabasi_albert_graph(n, m, seed=seed).edges()))


# A function-scoped fixture holds for every example of a run, as these tests
# want.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]


class TestHighPowers:
    # p/2 = 3, 5 and 12 have more than one bit set, so the squaring chain
    # also multiplies two different powers.
    @settings(max_examples=200, deadline=None)
    @given(gnp_graphs(), st.sampled_from([2, 4, 6, 10, 16, 24]))
    def test_picks_equal_matrix_power_greedy(self, g, power):
        assert av11_select(g, g.n, power=power)[0] == reference_av11(g, g.n, power)

    @settings(max_examples=200, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(gnp_graphs(), st.sampled_from([2, 4, 6, 10, 16, 24]))
    def test_downdated_picks_equal_matrix_power_greedy(self, downdate_every_pick, g, power):
        assert av11_select(g, g.n, power=power)[0] == reference_av11(g, g.n, power)

    # matrix_power overflows at the larger powers, so the eigh form is the
    # reference there.
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(gnp_graphs(), gnp_graphs(max_n=8).map(disjoint_copies)),
           st.sampled_from([64, 256, 2 ** 16]))
    def test_picks_equal_eigh_greedy(self, g, power):
        assert av11_select(g, g.n, power=power)[0] == reference_av11_eigh(g, g.n, power)

    # A downdate at p = 2^16 takes 2^15 Krylov steps, so that power is left
    # to the cost rule.
    @settings(max_examples=100, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(st.one_of(gnp_graphs(), gnp_graphs(max_n=8).map(disjoint_copies)),
           st.sampled_from([64, 256]))
    def test_downdated_picks_equal_eigh_greedy(self, downdate_every_pick, g, power):
        assert av11_select(g, g.n, power=power)[0] == reference_av11_eigh(g, g.n, power)

    def test_every_four_node_graph_at_power_256(self, downdate_every_pick):
        # After a hub goes, the downdated power of a small tree can cancel to
        # at or below 0; the greedy must then re-square, not take its log.
        pairs = list(combinations(range(4), 2))
        for mask in range(2 ** len(pairs)):
            g = Graph(4, [p for i, p in enumerate(pairs) if mask >> i & 1])
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                picks = av11_select(g, 4, power=256)[0]
            assert picks == reference_av11_eigh(g, 4, 256)

    def test_downdated_scores_track_a_fresh_power(self, downdate_every_pick, monkeypatch):
        # Every downdate on BA(200, 3) against _power_unit of the same block,
        # both scaled to the last fresh power.
        downdates = []
        downdate = spectral._downdate

        def record(root, log_s, *args):
            out = downdate(root, log_s, *args)
            if out is not None:
                downdates.append((out, log_s))
            return out

        monkeypatch.setattr(spectral, "_downdate", record)
        g = ba_graph(200, 3, 1)
        picks, _ = av11_select(g, g.n, power=64)
        assert len(downdates) > 150
        shifted = g.adjacency_matrix() + diagonal_shift(g) * np.eye(g.n)
        for root, log_s in downdates:
            active = sorted(set(range(g.n)) - set(picks[:g.n - len(root)]))
            fresh, log_fresh = spectral._power_unit(shifted[np.ix_(active, active)], 32)
            root = root * math.exp(log_s - log_fresh)
            scores = np.einsum("ij,ij->i", root, root)
            expected = np.einsum("ij,ij->i", fresh, fresh)
            assert np.abs(scores - expected).max() <= 1e-10 * expected.max()

    def test_default_power_path_by_size(self, monkeypatch):
        counts = count_av11_paths(monkeypatch)
        av11_select(ieee118_graph(), 118, power=64)
        assert counts == {"fresh": 118, "downdate": 0}
        for seed in range(3):
            counts.update(fresh=0, downdate=0)
            av11_select(ba_graph(30, 2, seed), 30, power=64)
            assert counts == {"fresh": 30, "downdate": 0}
        counts.update(fresh=0, downdate=0)
        g = ba_graph(400, 3, 1)
        picks = av11_select(g, 64, power=64)
        assert counts["downdate"] == 63
        assert counts["fresh"] < 8
        monkeypatch.setattr(spectral, "_CROSSOVER", g.n)  # re-square every pick
        assert av11_select(g, 64, power=64) == picks

    def test_high_powers_never_downdate_up_to_1000_nodes(self, monkeypatch):
        # The rule grows with m, so m = 1000 covers every smaller block.
        for power in [*range(2 ** 10, 2 ** 13, 2), 2 ** 16, 2 ** 60, 2 ** 60 + 2]:
            assert not spectral._downdates(1000, power // 2)
        counts = count_av11_paths(monkeypatch)
        g = random_graph(200, 0.5, 1)
        for power in (2 ** 10, 2 ** 16, 2 ** 60):
            av11_select(g, 3, power=power)
        assert counts == {"fresh": 9, "downdate": 0}

    def test_disjoint_copies_tie_to_lowest_id(self):
        # The copies' diagonals tie, so the first pick is g's own first pick;
        # removing it lowers lambda_1 of that copy, so the twin comes next.
        for seed in range(4):
            g = random_connected_graph(12, seed)
            first = av11_select(g, 1, power=2 ** 16)[0][0]
            selected, _ = av11_select(disjoint_copies(g), 2, power=2 ** 16)
            assert selected == [first, first + g.n]

    def test_dense_graph_at_power_256(self):
        g = random_graph(200, 0.5, 1)
        for power in (256, 2 ** 16, 2 ** 60):
            bound, lam = trace_power_bound(g, [], power=power)
            assert math.isfinite(bound)
            assert lam - 1e-9 <= bound <= lam + 1.0
            selected, residual = av11_select(g, 20, power=power)
            assert len(set(selected)) == 20
            assert math.isfinite(residual)
