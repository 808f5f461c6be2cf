import io
import json
import math
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netimmune import (
    CombinationGuardError,
    Graph,
    av11_select,
    gap_report,
    ieee118_graph,
    masked_adjacency,
    optimal_removal,
    separation_lower_bound,
    spectrum,
    trace_power_bound,
)
from netimmune import oracle
from netimmune.oracle import removal_table, write_enumeration_csv

from conftest import disjoint_copies, gnp_graphs, random_graph, star_graph


def lam1(matrix):
    return float(np.linalg.eigvalsh(matrix)[-1])


def loop_residuals(g, k):
    """Reference: one masked copy and one eigvalsh per subset, in enumeration order."""
    a = g.adjacency_matrix()
    out = []
    for subset in combinations(range(g.n), k):
        masked = a.copy()
        idx = list(subset)
        masked[idx, :] = 0.0
        masked[:, idx] = 0.0
        out.append(float(np.linalg.eigvalsh(masked)[-1]))
    return out


def tie_rule(table, tol=1e-9):
    """The lexicographically smallest (subset, residual) within tol of the minimum."""
    least = min(lam for _, lam in table)
    return next((s, lam) for s, lam in table if lam <= least + tol)


# G(n, p) graphs plus families where many subsets tie or lambda_1 is
# degenerate, so the top eigenvector is not unique.
graphs = st.one_of(
    gnp_graphs(),
    st.integers(3, 12).map(lambda n: Graph(n, [(i, (i + 1) % n) for i in range(n)])),
    st.integers(1, 12).map(lambda n: Graph(n, list(combinations(range(n), 2)))),
    st.integers(1, 11).map(star_graph),
    gnp_graphs(max_n=6).map(disjoint_copies),
    st.integers(1, 12).map(lambda n: Graph(n, [])),
)


@st.composite
def graphs_and_budgets(draw):
    g = draw(graphs)
    return g, draw(st.integers(0, min(4, g.n)))


class TestOptimalRemoval:
    def test_c4_antipodal_pair(self, c4):
        best, lam = optimal_removal(c4, 2)
        assert best == (0, 2)  # ties with {1, 3}; lexicographic wins
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_star_hub(self, star5):
        best, lam = optimal_removal(star5, 1)
        assert best == (0,)
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_p3_center(self, p3):
        best, lam = optimal_removal(p3, 1)
        assert best == (1,)
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_k0_noop(self, k4):
        best, lam = optimal_removal(k4, 0)
        assert best == ()
        assert lam == pytest.approx(3.0, abs=1e-12)

    def test_guard_reports_count(self):
        g = random_graph(40, 0.2, 0)
        with pytest.raises(CombinationGuardError) as exc:
            optimal_removal(g, 12)
        assert exc.value.count == math.comb(40, 12)
        assert str(math.comb(40, 12)) in str(exc.value)

    @pytest.mark.parametrize("k", [2.7, "3", True, None, 2.0])
    def test_non_integer_budget_rejected(self, c4, k):
        with pytest.raises(ValueError, match="budget must be an integer in \\[0, 4\\]"):
            optimal_removal(c4, k)
        with pytest.raises(ValueError, match="budget must be an integer in \\[0, 4\\]"):
            next(removal_table(c4, k))

    def test_numpy_integer_budget_accepted(self, c4):
        assert optimal_removal(c4, np.int64(3)) == optimal_removal(c4, 3)
        assert list(removal_table(c4, np.int64(3))) == list(removal_table(c4, 3))

    def test_table_covers_all_subsets(self, c4):
        table = list(removal_table(c4, 2))
        assert [s for s, _ in table] == list(combinations(range(4), 2))

    def test_k0_is_lambda1_of_a(self):
        g = random_graph(9, 0.4, 3)
        assert optimal_removal(g, 0) == ((), lam1(g.adjacency_matrix()))

    def test_k_equals_n_removes_everything(self, c4):
        assert optimal_removal(c4, 4) == ((0, 1, 2, 3), 0.0)

    def test_edgeless_graph(self):
        assert optimal_removal(Graph(5, []), 2) == ((0, 1), 0.0)

    def test_disconnected_degenerate_lambda1(self):
        # Two disjoint K4s: lambda_1 = 3 twice, so the top eigenvector is any
        # mix of the two blocks. One node from each block leaves two K3s.
        g = disjoint_copies(Graph(4, list(combinations(range(4), 2))))
        best, lam = optimal_removal(g, 2)
        assert (best, lam) == tie_rule(list(removal_table(g, 2)))
        assert best == (0, 4)
        assert lam == pytest.approx(2.0, abs=1e-12)

    def test_complete_graph_all_ties(self):
        best, lam = optimal_removal(Graph(12, list(combinations(range(12), 2))), 3)
        assert best == (0, 1, 2)
        assert lam == pytest.approx(8.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(graphs_and_budgets(), st.sampled_from((1e-9, 0.0, 0.25)),
           st.integers(64, 1 << 14))
    # Every bound on K8 ties its residual up to round-off, which only the
    # slack covers at tolerance 0.
    @example((Graph(8, list(combinations(range(8), 2))), 1), 0.0, 64)
    # Node 3 leaves 1.414 and node 2 leaves 1.618; in one chunk, solved in
    # bound order, node 2 is within the 0.25 tolerance but solved after 3.
    @example((Graph(5, [(0, 3), (1, 4), (2, 3), (2, 4), (3, 4)]), 1), 0.25, 512)
    def test_pruned_equals_tie_rule_on_the_table(self, case, tol, chunk_bytes):
        """Exact at the package's tie tolerance and at others (0 leaves only
        the round-off slack between a bound and a tie; 0.25 makes near-ties
        common), with chunks small enough that most searches span several."""
        g, k = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_TIE_TOL", tol)
            mp.setattr(oracle, "_CHUNK_BYTES", chunk_bytes)
            pruned = optimal_removal(g, k)
            table = list(removal_table(g, k))
        assert [s for s, _ in table] == list(combinations(range(g.n), k))
        assert np.array_equal([lam for _, lam in table], loop_residuals(g, k))
        assert pruned == tie_rule(table, tol)

    @settings(max_examples=100, deadline=None)
    @given(graphs_and_budgets(), st.integers(0, 2**32 - 1))
    # One kept leaf holds 0.013 % of x's mass, where the closed form is off by
    # 1.8e-12: that row must fall under _MIN_MASS.
    @example((star_graph(4), 4), 4874454)
    def test_rayleigh_bound_is_the_zeroed_quotient(self, case, seed):
        """For any unit x, the bound is the Rayleigh quotient of x with the
        subset zeroed (-inf where too little mass is left) and never exceeds
        the exact residual."""
        g, k = case
        a = g.adjacency_matrix()
        x = np.random.default_rng(seed).standard_normal(g.n)
        x /= np.linalg.norm(x)
        subsets = np.array(list(combinations(range(g.n), k)), dtype=np.intp)
        subsets = subsets.reshape(math.comb(g.n, k), k)
        bounds = oracle._rayleigh_bounds(a, x[:, None], (a @ x)[:, None], subsets)
        for row, bound, lam in zip(subsets, bounds, loop_residuals(g, k)):
            y = x.copy()
            y[row] = 0.0
            mass = y @ y
            expected = y @ a @ y / mass if mass > oracle._MIN_MASS else -np.inf
            assert bound == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert bound <= lam + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(graphs_and_budgets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    # Two disjoint C5: lambda_1 = 2 twice and 0.618 twice, so the top four
    # eigenvectors are any orthonormal basis of those eigenspaces.
    @example((disjoint_copies(Graph(5, [(i, (i + 1) % 5) for i in range(5)])), 2), 4, 0)
    # One kept leaf holds 0.013 % of the block's mass: that row must fall
    # under _MIN_MASS.
    @example((star_graph(4), 4), 1, 4874454)
    # Two rows keep a rank-4 block whose Gram matrix has least eigenvalue
    # 3.1e-3 and 3.7e-3, under _MIN_MASS: both must be -inf.
    @example((star_graph(4), 1), 4, 1)
    def test_block_bound_is_the_ritz_value(self, case, rank, seed):
        """For a random orthonormal block V and for the top eigenvectors of A,
        the bound is the largest Ritz value of A on V with the subset's rows
        zeroed (-inf exactly where its Gram matrix keeps at most _MIN_MASS)
        and never exceeds the exact residual."""
        g, k = case
        a = g.adjacency_matrix()
        r = min(rank, g.n)
        random_block = np.linalg.qr(np.random.default_rng(seed).standard_normal((g.n, r)))[0]
        top = np.linalg.eigh(a)[1][:, -r:]
        subsets = np.array(list(combinations(range(g.n), k)), dtype=np.intp)
        subsets = subsets.reshape(math.comb(g.n, k), k)
        residuals = loop_residuals(g, k)
        scale = max(1.0, lam1(a))
        for v in (random_block, top):
            bounds = oracle._rayleigh_bounds(a, v, a @ v, subsets)
            for row, bound, lam in zip(subsets, bounds, residuals):
                y = v.copy()
                y[row] = 0.0
                gram = y.T @ y
                if np.linalg.eigvalsh(gram)[0] > oracle._MIN_MASS:
                    ritz = scipy.linalg.eigh(y.T @ a @ y, gram, eigvals_only=True)[-1]
                    assert abs(bound - ritz) <= 1e-12 * scale
                else:
                    assert bound == -np.inf
                assert bound <= lam + oracle._SLACK * scale

    def test_ieee118_solves_few_subsets(self, monkeypatch):
        """The rank-4 bound leaves at most 48 of IEEE 118's 6,903 pairs to
        solve exactly (a rank-1 bound leaves 480)."""
        solved = []
        residuals = oracle._residuals

        def counted(a, subsets):
            solved.append(len(subsets))
            return residuals(a, subsets)

        monkeypatch.setattr(oracle, "_residuals", counted)
        g = ieee118_graph()
        best, lam = optimal_removal(g, 2)
        assert sum(solved) <= 48
        assert best == (48, 99)
        assert lam == lam1(masked_adjacency(g, best))

    def test_ieee118_k4_is_exact(self):
        g = ieee118_graph()
        best, lam = optimal_removal(g, 4)
        assert best == (48, 58, 76, 99)
        assert lam == lam1(masked_adjacency(g, best))

    def test_ieee118_k3_screens_few_subsets(self, monkeypatch):
        """The mass floor leaves 16,461 of IEEE 118's 266,916 triples for the
        rank-1 screen."""
        screened = []
        bounds = oracle._rayleigh_bounds

        def counted(a, v, av, subsets):
            if v.shape[1] == 1:
                screened.append(len(subsets))
            return bounds(a, v, av, subsets)

        monkeypatch.setattr(oracle, "_rayleigh_bounds", counted)
        g = ieee118_graph()
        best, lam = optimal_removal(g, 3)
        assert sum(screened) <= 16_461
        assert best == (53, 68, 99)
        assert lam == lam1(masked_adjacency(g, best))

    @pytest.mark.parametrize("start", [(0, 1, 2), (0, 1), (0, 0, 1, 2), (0, 1, 9),
                                       (-1, 0, 1, 2), (0, 1, 2, 1.5), "0123"])
    def test_bad_start_rejected_before_any_eigensolve(self, monkeypatch, start):
        def eigensolve(*args, **kwargs):
            raise AssertionError("an eigensolve ran")

        monkeypatch.setattr(np.linalg, "eigh", eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigensolve)
        with pytest.raises(ValueError, match="start must be 4 distinct node ids in"):
            optimal_removal(random_graph(9, 0.4, 3), 4, start=start)

    @settings(max_examples=100, deadline=None)
    @given(graphs_and_budgets(), st.integers(0, 2**32 - 1))
    def test_any_start_gives_the_tie_rule(self, case, seed):
        """The start only sets how far the search prunes: from any k-subset
        it returns the tie rule's answer."""
        g, k = case
        start = np.random.default_rng(seed).permutation(g.n)[:k].tolist()
        assert optimal_removal(g, k, start=start) == tie_rule(list(removal_table(g, k)))

    @settings(max_examples=150, deadline=None)
    @given(graphs_and_budgets(), st.integers(0, 2**32 - 1))
    # Two disjoint C5: lambda_1 = 2 twice, so v1 is any mix of the two
    # blocks and may change sign between them.
    @example((disjoint_copies(Graph(5, [(i, (i + 1) % 5) for i in range(5)])), 2), 0)
    @example((disjoint_copies(Graph(5, [(i, (i + 1) % 5) for i in range(5)])), 3), 7)
    # rho = 0: the floor cuts nothing.
    @example((Graph(6, []), 2), 0)
    def test_no_subset_under_the_mass_floor_ties_a_residual(self, case, pick):
        """Take b as any subset's residual: every subset whose top-eigenvector
        mass is under the floor leaves a residual more than _TIE_TOL above b."""
        g, k = case
        a = g.adjacency_matrix()
        subsets = list(combinations(range(g.n), k))
        residuals = loop_residuals(g, k)
        b = residuals[pick % len(subsets)]
        w, v = np.linalg.eigh(a)
        x = np.abs(v[:, -1])
        cut = b + oracle._TIE_TOL + oracle._SLACK * max(1.0, float(w[-1]))
        floor = oracle._mass_floor(a, x, k, cut)
        for subset, lam in zip(subsets, residuals):
            if sum((x * x)[list(subset)]) < floor:
                assert lam > b + oracle._TIE_TOL

    def test_gap_report_runs_av11_once(self, monkeypatch):
        calls = []
        select = oracle.av11_select

        def counted(*args, **kwargs):
            calls.append(args)
            return select(*args, **kwargs)

        monkeypatch.setattr(oracle, "av11_select", counted)
        rep = gap_report(random_graph(12, 0.3, 5), 3)
        assert len(calls) == 1
        assert rep.optimal_lambda1 <= rep.av11_lambda1 + 1e-9

    def test_table_is_lazy(self, monkeypatch):
        """The first row costs one eigvalsh batch, not the whole table."""
        solved = []
        residuals = oracle._residuals

        def counted(a, subsets):
            solved.append(len(subsets))
            return residuals(a, subsets)

        monkeypatch.setattr(oracle, "_residuals", counted)
        rows = removal_table(random_graph(30, 0.2, 0), 4)
        next(rows)
        assert len(solved) == 1
        assert solved[0] <= oracle._SOLVE_BATCH

    def test_table_guard_before_any_row(self):
        rows = removal_table(random_graph(40, 0.2, 0), 12)
        with pytest.raises(CombinationGuardError) as exc:
            next(rows)
        assert exc.value.count == math.comb(40, 12)

    def test_table_row_matches_av11_residual(self):
        for seed in range(4):
            g = random_graph(9, 0.35, seed)
            k = 2
            av11_set, av11_lam = av11_select(g, k)
            row = dict(removal_table(g, k))[tuple(sorted(av11_set))]
            assert row == pytest.approx(av11_lam, abs=1e-9)


masses = st.lists(st.one_of(st.sampled_from((0.0, 0.125, 0.25, 0.5)), st.floats(0.0, 1.0)),
                  max_size=9)
floors = st.one_of(st.just(-math.inf), st.sampled_from((0.0, 0.25, 0.5, 1.0)),
                   st.floats(-1.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(masses, st.integers(0, 9), floors, st.integers(1, 40),
       st.sampled_from((1, 64, 512, 1 << 19)))
# Zero masses that just reach a zero floor.
@example([0.0, 0.0, 0.0], 1, 0.0, 5, 1 << 19)
# Ties at the floor: {0, 1}, {0, 2} and {1, 2} sum to it exactly.
@example([0.25, 0.25, 0.25, 0.0], 2, 0.5, 2, 64)
# A sum 1e-10 under the floor, inside the prefix checks' allowance.
@example([0.5, 0.4999999999], 2, 1.0, 3, 1 << 19)
def test_enumerator_is_combinations_over_the_floor(mass, k, floor, rows, chunk_bytes):
    """The enumerator lists exactly the k-subsets whose id-order mass sum
    reaches the floor, in combinations' order, in chunks of `rows` rows,
    whatever the working-memory cap."""
    mass = np.array(mass, dtype=float)
    n = len(mass)
    k = min(k, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_BYTES", chunk_bytes)
        chunks = list(oracle._subsets(mass, k, rows, floor))
    expected = [s for s in combinations(range(n), k) if sum(mass[list(s)]) >= floor]
    assert all(c.shape == (rows, k) for c in chunks[:-1])
    assert all(0 < len(c) <= rows and c.shape[1] == k for c in chunks)
    assert [tuple(r) for c in chunks for r in c.tolist()] == expected


class TestGapReport:
    def test_star_av11_is_optimal(self, star5):
        rep = gap_report(star5, 1)
        assert rep.av11_lambda1 == pytest.approx(0.0, abs=1e-12)
        assert rep.optimal_lambda1 == pytest.approx(0.0, abs=1e-12)
        assert rep.floor_raw == pytest.approx(0.0, abs=1e-12)

    def test_k4_negative_floor_clamped(self, k4):
        rep = gap_report(k4, 1)
        assert rep.floor_raw == pytest.approx(-1.0, abs=1e-9)
        assert rep.floor_clamped == 0.0
        assert rep.optimal_lambda1 == pytest.approx(2.0, abs=1e-9)
        assert rep.av11_lambda1 == pytest.approx(2.0, abs=1e-9)

    def test_bad_power_rejected_before_the_search(self, monkeypatch):
        def search(g, k):
            raise AssertionError("the exact search ran")

        monkeypatch.setattr(oracle, "optimal_removal", search)
        with pytest.raises(ValueError, match="power must be a positive even integer"):
            gap_report(random_graph(9, 0.4, 3), 2, power=3)

    def test_numpy_integers_reported_as_ints(self):
        path5 = Graph(5, [(i, i + 1) for i in range(4)])
        rep = gap_report(path5, np.int64(2), power=np.int64(16))
        assert rep == gap_report(path5, 2, power=16)
        assert type(rep.k) is int and type(rep.power) is int
        assert json.loads(json.dumps(rep.to_json_obj())) == rep.to_json_obj()

    def test_k0_everything_equals_lambda1(self, c4):
        rep = gap_report(c4, 0)
        assert rep.floor_raw == rep.optimal_lambda1 == rep.av11_lambda1 == pytest.approx(2.0)

    def test_chain_floor_optimal_av11(self):
        for seed in range(6):
            g = random_graph(9, 0.3, seed + 40)
            s = spectrum(g)
            for k in (1, 2, 3):
                rep = gap_report(g, k)
                floor = separation_lower_bound(s, k)
                assert floor - 1e-9 <= rep.optimal_lambda1 <= rep.av11_lambda1 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(graphs_and_budgets())
    def test_floor_optimal_av11_chain_property(self, case):
        g, k = case
        rep = gap_report(g, k)
        assert rep.floor_clamped - 1e-9 <= rep.optimal_lambda1 <= rep.av11_lambda1 + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(graphs, st.data())
    def test_trace_bound_dominates_lambda1_property(self, g, data):
        mask = data.draw(st.sets(st.integers(0, g.n - 1)))
        power = data.draw(st.integers(1, 40)) * 2
        bound, lam = trace_power_bound(g, mask, power)
        assert lam == lam1(masked_adjacency(g, mask))
        assert bound >= lam - 1e-9

    def test_exhaustive_chain_small_graphs(self):
        for seed in range(4):
            g = random_graph(7, 0.4, seed + 80)
            s = spectrum(g)
            for k in (1, 2, 3):
                floor = separation_lower_bound(s, k)
                for subset in combinations(range(g.n), k):
                    assert lam1(masked_adjacency(g, subset)) >= floor - 1e-9


class TestCsvExport:
    def test_columns_and_rows(self, c4):
        table = list(removal_table(c4, 2))
        buf = io.StringIO()
        write_enumeration_csv(table, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "subset,residual_lambda1"
        assert len(lines) == 1 + len(table)
        assert lines[1].startswith("0 1,")
