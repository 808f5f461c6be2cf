import json
import math
from collections import deque
from contextlib import contextmanager

import mpmath
import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from netimmune import (
    Graph,
    RateModel,
    SimulationProtocol,
    build_rates,
    exact_probability_iteration,
    linear_iteration,
    modified_matrix,
    most_infected_ranking,
    scale_rates_to_threshold,
    simulate_sis,
    simulate_sis_paired,
    threshold_bracket,
    threshold_lambda,
)
from netimmune import epidemic
from netimmune.epidemic import (
    _CALIBRATION_STREAM,
    _DenseEscape,
    _EdgeEscape,
    _log_survival,
    _rate_edges,
)

from conftest import dense_log_survival, disjoint_copies, gnp_graphs, random_graph, star_graph


def constant_rates(g, beta, delta):
    return build_rates(g, (beta, beta), (delta, delta), seed=0)


def reachable(g, sources, blocked):
    """BFS reachability avoiding blocked nodes (oracle for beta=1, delta=0)."""
    seen = set(s for s in sources if s not in blocked)
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in seen and v not in blocked:
                seen.add(v)
                queue.append(v)
    return seen


class TestBuildRates:
    def test_degenerate_ranges_are_constant(self, k2):
        r = build_rates(k2, (0.5, 0.5), (0.4, 0.4), seed=123)
        assert set(r.beta.values()) == {0.5}
        assert set(r.delta.values()) == {0.4}

    def test_deterministic_given_seed(self, c4):
        a = build_rates(c4, (0, 1), (0, 1), seed=9)
        b = build_rates(c4, (0, 1), (0, 1), seed=9)
        assert a == b
        c = build_rates(c4, (0, 1), (0, 1), seed=10)
        assert a != c

    def test_k2_domain(self, k2):
        r = build_rates(k2, (0, 1), (0, 1), seed=5)
        assert set(r.beta) == {(0, 1), (1, 0)}
        assert set(r.delta) == {0, 1}
        assert all(0 <= v <= 1 for v in r.beta.values())
        assert all(0 <= v <= 1 for v in r.delta.values())

    def test_bad_ranges_rejected(self, k2):
        with pytest.raises(ValueError):
            build_rates(k2, (0.6, 0.4), (0, 1), seed=0)
        with pytest.raises(ValueError):
            build_rates(k2, (0, 1.2), (0, 1), seed=0)
        with pytest.raises(ValueError):
            build_rates(k2, (0, 1), (-0.1, 0.5), seed=0)

    def test_json_roundtrip_bit_identical(self, c4):
        r = build_rates(c4, (0.1, 0.4), (0.2, 0.5), seed=77)
        assert RateModel.from_json_obj(r.to_json_obj()) == r

    @pytest.mark.parametrize("key, value, message", [
        ("beta", [[0.7, 1, 0.2], [1, 0, 0.3]], r"beta row \[0.7, 1, 0.2\] has a non-integer"),
        ("beta", [[0, "1", 0.2], [1, 0, 0.3]], "beta row .* has a non-integer node id"),
        ("delta", [[0, 0.5], [True, 0.5]], r"delta row \[True, 0.5\] has a non-integer"),
        ("beta", None, "missing the required key 'beta'"),
        ("delta", None, "missing the required key 'delta'"),
        ("cure", [], "unknown key\\(s\\) 'cure'"),
    ])
    def test_bad_json_rejected(self, key, value, message):
        obj = RateModel(beta={(0, 1): 0.2, (1, 0): 0.3}, delta={0: 0.5, 1: 0.5}).to_json_obj()
        if value is None:
            del obj[key]
        else:
            obj[key] = value
        with pytest.raises(ValueError, match=message):
            RateModel.from_json_obj(obj)

    @given(gnp_graphs(max_n=15), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_one_scalar_draw_at_a_time(self, g, seed):
        """Reference: one scalar draw per directed edge, in sorted edge order
        and receiver-first, then one per node. Same values, same key order."""
        rng = np.random.default_rng(seed)
        beta = {}
        for u, v in sorted(g.edges):
            beta[(u, v)] = float(rng.uniform(0.1, 0.4))
            beta[(v, u)] = float(rng.uniform(0.1, 0.4))
        delta = {i: float(rng.uniform(0.2, 0.5)) for i in range(g.n)}
        r = build_rates(g, (0.1, 0.4), (0.2, 0.5), seed)
        assert list(r.beta.items()) == list(beta.items())
        assert list(r.delta.items()) == list(delta.items())


class TestModifiedMatrix:
    def test_k2_direct_substitution(self, k2):
        r = constant_rates(k2, 0.5, 0.4)
        m = modified_matrix(k2, r)
        assert m.matrix == pytest.approx(np.array([[0.6, 0.5], [0.5, 0.6]]))

    def test_isolated_node(self):
        g = Graph(1, [])
        m = modified_matrix(g, RateModel(beta={}, delta={0: 0.3}))
        assert m.matrix == pytest.approx(np.array([[0.7]]))

    def test_p3_no_links(self, p3):
        r = constant_rates(p3, 0.0, 0.25)
        m = modified_matrix(p3, r)
        assert m.matrix == pytest.approx(np.diag([0.75, 0.75, 0.75]))

    def test_sparsity_matches_graph(self, c4):
        r = build_rates(c4, (0.1, 0.4), (0.2, 0.5), seed=3)
        m = modified_matrix(c4, r).matrix
        off = m - np.diag(np.diagonal(m))
        assert ((off > 0) == (c4.adjacency_matrix() > 0)).all()

    def test_mismatched_graph_rejected(self, k2, p3):
        r = constant_rates(k2, 0.5, 0.4)
        with pytest.raises(ValueError):
            modified_matrix(p3, r)

    @pytest.mark.parametrize("beta_edit, delta_edit, message", [
        ({(0, 1): None}, {}, "beta keys"),
        ({(0, 2): 0.5}, {}, "beta keys"),
        ({(0, 1): None, (0, 3): 0.5}, {}, "beta keys"),
        ({(0, 1): None, (1, -2): 0.5}, {}, "beta keys"),  # (1, -2) has (0, 1)'s code 1
        ({(0, 1): None, (0.5, 1): 0.5}, {}, "beta keys"),
        ({(0, 1): None, (0, 1, 2): 0.5}, {}, "beta keys"),
        ({}, {2: None}, "delta keys"),
        ({(1, 2): math.nan}, {}, "beta rates"),
        ({(1, 2): 1.5}, {}, "beta rates"),
        ({}, {0: -0.1}, "delta rates"),
    ])
    def test_bad_rate_models_rejected(self, p3, beta_edit, delta_edit, message):
        def edited(rates, edit):
            rates = rates | edit
            return {k: v for k, v in rates.items() if v is not None}

        r = constant_rates(p3, 0.5, 0.4)
        bad = RateModel(beta=edited(r.beta, beta_edit), delta=edited(r.delta, delta_edit))
        with pytest.raises(ValueError, match=message):
            modified_matrix(p3, bad)


@st.composite
def graphs_with_rates(draw):
    g = draw(gnp_graphs(max_n=9))
    unit = st.floats(0.0, 1.0)
    beta_range = sorted((draw(unit), draw(unit)))
    delta_range = sorted((draw(unit), draw(unit)))
    seed = draw(st.integers(0, 2**32 - 1))
    return g, build_rates(g, beta_range, delta_range, seed)


def dict_loop_matrices(g, r):
    """Reference: the modified and log-survival matrices filled entry by entry.

    The log-survival entries are log(1 - beta) clamped at -40 and rounded to
    the nearest multiple of 2^-e, e = 51 - ceil(log2(40 d)) with d the most
    nonzero rates a node receives; the unrounded clamped entries and the
    grid step come back too.
    """
    beta = np.zeros((g.n, g.n))
    for (i, j), v in r.beta.items():
        beta[i, j] = v
    m = beta.copy()
    for i, v in r.delta.items():
        m[i, i] = 1.0 - v
    with np.errstate(divide="ignore"):
        exact = np.maximum(np.log1p(-beta), -40.0)
    d = max(sum(1 for (i, _), v in r.beta.items() if i == node and v != 0)
            for node in range(g.n))
    e = 51 - math.ceil(math.log2(40 * max(1, d)))
    log_s = np.zeros_like(exact)
    for i in range(g.n):
        for j in range(g.n):
            log_s[i, j] = math.ldexp(round(math.ldexp(float(exact[i, j]), e)), -e)
    return m, log_s, exact, 2.0 ** -e


class TestDenseRatesMatchDictLoop:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_rates())
    # Node 1 hears from node 2 and, at beta = 0, from node 0: d = 1 puts the
    # grid at 2^-45, while counting the zero rate too would give 2^-44.
    @example((Graph(3, [(0, 1), (1, 2)]),
              RateModel(beta={(0, 1): 1.0, (1, 0): 0.0, (1, 2): 0.2, (2, 1): 0.35},
                        delta={0: 0.2, 1: 0.4, 2: 0.6})))
    def test_matrices_equal_reference(self, case):
        g, r = case
        m_ref, log_s_ref, exact, step = dict_loop_matrices(g, r)
        assert np.array_equal(modified_matrix(g, r).matrix, m_ref)
        log_s = dense_log_survival(g, r)
        assert np.array_equal(log_s, log_s_ref)
        assert (np.abs(log_s - exact) <= step / 2).all()


class TestIterationProperties:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_rates(), st.data())
    def test_exact_stays_in_unit_interval_and_linear_dominates(self, case, data):
        g, r = case
        m = modified_matrix(g, r)
        p0 = data.draw(st.lists(st.floats(0.0, 1.0), min_size=g.n, max_size=g.n))
        steps = data.draw(st.integers(1, 12))
        exact = exact_probability_iteration(m, p0, steps)
        linear = linear_iteration(m, p0, steps)
        assert (exact >= 0).all() and (exact <= 1).all()
        assert (exact <= linear + 1e-12).all()


def reference_sis_trials(g, r, seeds, immunized, steps, trials, master_seed, stream=()):
    """Reference: one trial at a time, one step at a time, two random(n) draws per step.

    Yields (per-step counts, final mask, per-node infected-step tally) per
    trial. ``seeds=None`` starts trial t at node t mod n.
    """
    log_s = dense_log_survival(g, r)
    delta = np.array([r.delta[i] for i in range(g.n)])
    immune_mask = np.zeros(g.n, dtype=bool)
    immune_mask[list(immunized)] = True
    for trial in range(trials):
        infected = np.zeros(g.n, dtype=bool)
        infected[[trial % g.n] if seeds is None else list(seeds)] = True
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=master_seed, spawn_key=stream + (trial,)))
        counts = [int(infected.sum())]
        node_steps = infected.astype(int)
        for _ in range(steps):
            u_rec = rng.random(g.n)
            u_inf = rng.random(g.n)
            survivors = infected & (u_rec >= delta)
            p_infect = -np.expm1(log_s @ infected.astype(float))
            newly = ~survivors & ~immune_mask & (u_inf < p_infect)
            infected = survivors | newly
            counts.append(int(infected.sum()))
            node_steps += infected
        yield counts, infected, node_steps


@contextmanager
def kernel_caps(n, sets, chunk, block):
    """Size the kernel's memory caps so a chunk holds ``chunk`` trials of
    ``sets`` immunization sets and a full chunk draws ``block`` steps at once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(epidemic, "_CHUNK_BYTES", chunk * epidemic._STATE_BYTES * max(1, sets) * n)
        mp.setattr(epidemic, "_DRAW_BYTES", block * chunk * 2 * n * 8)
        yield


@st.composite
def sis_cases(draw):
    """A graph with rates, seeds, 1-3 immunization sets disjoint from the seeds,
    a protocol, and a chunk size and draw block that split it."""
    g, r = draw(graphs_with_rates())
    nodes = st.sets(st.integers(0, g.n - 1))
    seeds = draw(nodes)
    immunized_sets = draw(st.lists(nodes.map(lambda s: sorted(s - seeds)),
                                   min_size=1, max_size=3))
    steps = draw(st.integers(1, 12))
    trials = draw(st.integers(1, 7))
    return dict(g=g, r=r, seeds=sorted(seeds), immunized_sets=immunized_sets, steps=steps,
                trials=trials, master_seed=draw(st.integers(0, 2**32 - 1)),
                chunk=draw(st.integers(1, trials)), block=draw(st.integers(1, steps)))


class TestBatchedKernelMatchesReference:
    """The batched kernel against the per-trial reference loop, with trials
    split over several chunks and steps over several draw blocks."""

    @settings(max_examples=100, deadline=None)
    @given(sis_cases())
    def test_simulate_sis_equals_reference(self, case):
        g, r, seeds, steps, trials = (case[k] for k in ("g", "r", "seeds", "steps", "trials"))
        immunized = case["immunized_sets"][0]
        with kernel_caps(g.n, 1, case["chunk"], case["block"]):
            outcomes = simulate_sis(g, r, seeds, immunized, steps, trials,
                                    case["master_seed"])
        reference = list(reference_sis_trials(g, r, seeds, immunized, steps, trials,
                                              case["master_seed"]))
        assert [list(o.infected_counts) for o in outcomes] == [c for c, _, _ in reference]
        assert [list(o.final_infected) for o in outcomes] == [
            np.nonzero(final)[0].tolist() for _, final, _ in reference]

    @settings(max_examples=100, deadline=None)
    @given(sis_cases())
    def test_most_infected_equals_reference(self, case):
        g, r, steps, trials = (case[k] for k in ("g", "r", "steps", "trials"))
        for seeds in (tuple(case["seeds"]) or None, None):
            protocol = SimulationProtocol(seeds=seeds, steps=steps, trials=trials,
                                          master_seed=case["master_seed"])
            with kernel_caps(g.n, 1, case["chunk"], case["block"]):
                ranking = most_infected_ranking(g, r, protocol)
            totals = sum(tally for _, _, tally in reference_sis_trials(
                g, r, seeds, (), steps, trials, case["master_seed"],
                stream=(_CALIBRATION_STREAM,)))
            assert ranking.scores == tuple(float(x) for x in totals)

    @settings(max_examples=100, deadline=None)
    @given(sis_cases())
    def test_paired_rows_equal_simulate_sis(self, case):
        g, r, seeds, sets, steps, trials, master_seed = (case[k] for k in (
            "g", "r", "seeds", "immunized_sets", "steps", "trials", "master_seed"))
        with kernel_caps(g.n, len(sets), case["chunk"], case["block"]):
            finals, totals = simulate_sis_paired(g, r, seeds, sets, steps, trials, master_seed)
        assert finals.dtype == totals.dtype == np.int64
        assert finals.shape == (len(sets), trials) and totals.shape == (len(sets), steps + 1)
        for row, immunized in enumerate(sets):
            counts = [o.infected_counts
                      for o in simulate_sis(g, r, seeds, immunized, steps, trials, master_seed)]
            assert finals[row].tolist() == [c[-1] for c in counts]
            assert totals[row].tolist() == np.sum(counts, axis=0).tolist()

    @settings(max_examples=50, deadline=None)
    @given(sis_cases())
    def test_budget_zero_rows_identical(self, case):
        g, r, seeds, steps, trials = (case[k] for k in ("g", "r", "seeds", "steps", "trials"))
        with kernel_caps(g.n, 3, case["chunk"], case["block"]):
            finals, totals = simulate_sis_paired(g, r, seeds, [(), (), ()], steps, trials,
                                                 case["master_seed"])
        assert (finals == finals[0]).all() and (totals == totals[0]).all()


@st.composite
def edge_rate_cases(draw):
    """A graph with at least one isolated node and a beta per directed edge
    that is 0, 1 or anything between."""
    g = draw(gnp_graphs(max_n=9))
    g = Graph(g.n + 1, g.edges)
    rate = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    beta = {}
    for u, v in sorted(g.edges):
        beta[(u, v)], beta[(v, u)] = draw(rate), draw(rate)
    delta = {i: draw(st.floats(0.0, 1.0)) for i in range(g.n)}
    return g, RateModel(beta=beta, delta=delta)


@contextmanager
def escape_kernel(kind):
    """Route every simulation through the "edge" or the "dense" escape kernel,
    whatever the graph's size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(epidemic, "_EDGE_COST", 0 if kind == "edge" else math.inf)
        yield


def escape_sums(g, r, infected):
    """Escape sums of the boolean states ``infected`` (rows, n) from the dense
    kernel, the edge kernel and a Python loop over the sources in reverse."""
    sums = []
    receivers, sources, beta, _ = _rate_edges(g, r)
    log_s = _log_survival(beta, receivers)
    dense = _DenseEscape(g.n, receivers, sources, log_s)
    edge = _EdgeEscape(g.n, receivers, sources, log_s)
    for kernel in (dense, edge):
        out = np.empty(infected.shape)
        kernel(infected, kernel.scratch(infected.shape), out)
        sums.append(out)
    log_s = dense_log_survival(g, r)
    backward = np.zeros(infected.shape)
    for row, state in enumerate(infected):
        for v in range(g.n):
            total = 0.0
            for k in reversed(range(g.n)):
                if state[k]:
                    total += log_s[v, k]
            backward[row, v] = total
    return sums + [backward]


class TestEscapeKernelsAgree:
    """The grid of _log_survival makes every partial escape sum exact, so the
    dense product, the edge kernel and any summation order agree bit for bit
    (a zero sum may carry either sign, which -expm1 and the draw read alike)."""

    @settings(max_examples=150, deadline=None)
    @given(edge_rate_cases(), st.data())
    def test_escape_sums_equal_in_any_order(self, case, data):
        g, r = case
        rows = data.draw(st.integers(1, 4))
        cells = data.draw(st.lists(st.booleans(), min_size=rows * g.n, max_size=rows * g.n))
        dense, edge, backward = escape_sums(g, r, np.array(cells).reshape(rows, g.n))
        assert np.array_equal(dense, backward) and np.array_equal(edge, backward)

    @pytest.mark.parametrize("density", [0.02, 0.3, 0.9])
    def test_escape_sums_equal_on_ieee118(self, density):
        from netimmune import ieee118_graph

        g = ieee118_graph()
        r = build_rates(g, (0.0, 1.0), (0.2, 0.5), seed=5)
        infected = np.random.default_rng(9).random((3, g.n)) < density
        dense, edge, backward = escape_sums(g, r, infected)
        assert np.array_equal(dense, backward) and np.array_equal(edge, backward)

    @pytest.mark.parametrize("state, flips", [
        ("0", False), ("0.02", False), ("0.5", None), ("0.98", True), ("1", True),
        ("one full row", False), ("one empty row", True),
    ])
    def test_escape_sums_equal_on_both_sides_of_the_push(self, state, flips):
        # BA(300, 2) plus 4 isolated nodes; the edge kernel pushes from the
        # infected side unless that side has more than half the row-edge terms.
        g = Graph(304, list(nx.barabasi_albert_graph(300, 2, seed=7).edges()))
        r = build_rates(g, (0.0, 1.0), (0.2, 0.5), seed=5)
        if state.startswith("one"):
            infected = np.full((4, g.n), state == "one empty row")
            infected[1] = state == "one full row"
        else:
            infected = np.random.default_rng(3).random((3, g.n)) < float(state)
        out_degree = np.bincount(_rate_edges(g, r)[1], minlength=g.n)
        if flips is not None:
            assert flips == (2 * infected.sum(axis=0) @ out_degree
                             > infected.shape[0] * out_degree.sum())
        dense, edge, backward = escape_sums(g, r, infected)
        assert np.array_equal(dense, backward) and np.array_equal(edge, backward)

    @settings(max_examples=60, deadline=None)
    @given(edge_rate_cases(), st.data())
    def test_paired_rows_equal_through_either_kernel(self, case, data):
        g, r = case
        nodes = st.sets(st.integers(0, g.n - 1))
        seeds = data.draw(nodes)
        sets = data.draw(st.lists(nodes.map(lambda s: sorted(s - seeds)), min_size=1,
                                  max_size=3))
        steps, trials = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 7))
        master_seed = data.draw(st.integers(0, 2**32 - 1))
        chunk = data.draw(st.integers(1, trials))
        results = []
        for kind in ("dense", "edge"):
            with escape_kernel(kind), kernel_caps(g.n, len(sets), chunk, steps):
                results.append(simulate_sis_paired(g, r, sorted(seeds), sets, steps, trials,
                                                   master_seed))
        (finals, totals), (edge_finals, edge_totals) = results
        assert np.array_equal(finals, edge_finals) and np.array_equal(totals, edge_totals)

    @pytest.mark.parametrize("kind", ["dense", "edge"])
    def test_certain_edge_infects_with_probability_one(self, kind):
        # Hub 0 cures every step and hears from leaf 1 with beta = 1.
        g = star_graph(5)
        beta = {(0, i): 0.3 for i in range(1, 6)} | {(i, 0): 0.5 for i in range(1, 6)}
        beta[(0, 1)] = 1.0
        r = RateModel(beta=beta, delta={0: 1.0} | {i: 0.0 for i in range(1, 6)})
        only_leaf_1, every_leaf, every_node = np.zeros((3, g.n), dtype=bool)
        only_leaf_1[1] = every_leaf[1:] = every_node[:] = True
        # The edge kernel pushes from the infected side of the first chunk and
        # from the side that is not infected of the second.
        for chunk in ([only_leaf_1, every_leaf], [only_leaf_1, every_leaf, every_node]):
            for sums in escape_sums(g, r, np.array(chunk)):
                assert sums[0, 0] == -40.0 and (sums[1:, 0] < -40.0).all()
                assert (-np.expm1(sums[:, 0]) == 1.0).all()
        with escape_kernel(kind):
            outcomes = simulate_sis(g, r, seeds=range(1, 6), immunized=[], steps=50,
                                    trials=40, master_seed=3)
        assert all(o.infected_counts == (5,) + (6,) * 50 for o in outcomes)


class TestEdgeKernelOnSparseGraphs:
    """Graphs past the crossover n^2 > 64 (edges + n) take the edge kernel by
    default and give what the dense kernel gives."""

    @pytest.mark.parametrize("g", [
        Graph(300, [(i, (i + 1) % 300) for i in range(300)]),
        Graph(600, list(nx.barabasi_albert_graph(600, 2, seed=4).edges())),
    ], ids=["cycle-300", "ba-600-2"])
    def test_simulate_and_rank_equal_dense(self, g, monkeypatch):
        r = build_rates(g, (0.2, 0.6), (0.1, 0.3), seed=3)
        built = []
        edge_kernel = epidemic._EdgeEscape
        monkeypatch.setattr(epidemic, "_EdgeEscape",
                            lambda *args: built.append(args) or edge_kernel(*args))
        protocol = SimulationProtocol(steps=40, trials=6, master_seed=11)

        def run():
            return (simulate_sis(g, r, [0, 150], [5, 6], steps=60, trials=6, master_seed=11),
                    most_infected_ranking(g, r, protocol))

        sparse = run()
        assert len(built) == 2
        assert max(max(o.infected_counts) for o in sparse[0]) > 20
        with escape_kernel("dense"):
            assert run() == sparse
        assert len(built) == 2


class TestThreshold:
    def test_k2_above(self, k2):
        lam, spreads = threshold_lambda(modified_matrix(k2, constant_rates(k2, 0.5, 0.4)))
        assert lam == pytest.approx(1.1)
        assert spreads

    def test_k2_below(self, k2):
        lam, spreads = threshold_lambda(modified_matrix(k2, constant_rates(k2, 0.5, 0.95)))
        assert lam == pytest.approx(0.55)
        assert not spreads

    def test_isolated_node(self):
        g = Graph(1, [])
        lam, spreads = threshold_lambda(modified_matrix(g, RateModel(beta={}, delta={0: 0.2})))
        assert lam == pytest.approx(0.8)
        assert not spreads

    def test_edgeless_graph_is_max_persistence(self):
        g = Graph(4, [])
        lam, spreads = threshold_lambda(modified_matrix(g, constant_rates(g, 0.0, 0.5)))
        assert lam == pytest.approx(0.5)
        assert not spreads

    def test_full_cure_rate_leaves_beta_spectrum(self):
        # With delta = 1 the diagonal vanishes, so lambda_M is the top
        # eigenvalue of the beta-weighted off-diagonal part: below 1
        # whenever beta_hi < 1 / lambda_1(A).
        from netimmune import ieee118_graph, spectrum

        g = ieee118_graph()
        r = build_rates(g, (0.1, 0.2), (1.0, 1.0), seed=4)
        lam, spreads = threshold_lambda(modified_matrix(g, r))
        assert lam <= 0.2 * spectrum(g).lambda_1 + 1e-9
        assert not spreads


@st.composite
def spreading_cases(draw, scalable=False):
    """A graph and per-direction rates for the Perron bracket.

    Graphs: G(n, p) (disconnected ones and isolated nodes included, n = 1
    too), two disjoint copies of one, stars and paths (bipartite, so M is
    periodic at delta = 1). Rates: a beta in [1e-3, 1] per direction, beta
    = 0 in one direction of some edges (M reducible), or every beta 0
    (``scalable`` leaves that case out); any delta per node, or every delta
    1. Positive betas stay at least 1e-3 because the eigvals reference
    itself loses digits on nearly reducible blocks: with a beta of 3e-14
    beside entries of 1 it missed rho by 2.6e-12 relative where a
    400-digit eigensolve agreed with the bracket to every digit.
    """
    shape = draw(st.sampled_from(["gnp", "copies", "star", "path"]))
    if shape == "gnp":
        g = draw(gnp_graphs(max_n=9))
    elif shape == "copies":
        g = disjoint_copies(draw(gnp_graphs(max_n=5)))
    else:
        n = draw(st.integers(1, 9))
        g = star_graph(n - 1) if shape == "star" else Graph(n, [(i, i + 1) for i in range(n - 1)])
    betas = draw(st.sampled_from(["free", "one-way"] + ([] if scalable else ["zero"])))
    rate = st.floats(1e-3, 1.0)
    beta = {}
    for u, v in sorted(g.edges):
        beta[(u, v)], beta[(v, u)] = draw(rate), draw(rate)
        if betas == "one-way" and draw(st.booleans()):
            beta[draw(st.sampled_from([(u, v), (v, u)]))] = 0.0
        elif betas == "zero":
            beta[(u, v)] = beta[(v, u)] = 0.0
    if draw(st.booleans()):
        delta = {i: 1.0 for i in range(g.n)}
    else:
        delta = {i: draw(st.floats(0.0, 1.0)) for i in range(g.n)}
    return g, RateModel(beta=beta, delta=delta)


def eigvals_rho(matrix):
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def mpmath_rho(matrix):
    """rho from a 40-digit eigensolve, for where eigvals' own rounding shows."""
    with mpmath.workdps(40):
        values = mpmath.eig(mpmath.matrix(matrix.tolist()), left=False, right=False)
        return float(max(abs(v) for v in values))


def _non_normal_path():
    # Betas of 0.003-0.007 one way and 1 the other: eigvals reads
    # 1.1090948705478247, 2e-12 below the 60-digit root 1.10909487055016913
    # that the bracket [1.109094870550169, 1.109094870550169] holds.
    g = Graph(5, [(i, i + 1) for i in range(4)])
    beta = {(i + 1, i): 1.0 for i in range(4)}
    beta.update({(0, 1): 0.0029016768013690342, (1, 2): 0.004702036199895722,
                 (2, 3): 0.006777945621723766, (3, 4): 0.0033838532539624848})
    delta = {i: 0.0 for i in range(5)}
    delta[3] = 0.05202130106440961
    return g, RateModel(beta=beta, delta=delta)


class TestPerronBracket:
    @settings(max_examples=400, deadline=None)
    @given(spreading_cases())
    @example(_non_normal_path())
    def test_bracket_holds_eigvals(self, case):
        m = modified_matrix(*case)
        rho = eigvals_rho(m.matrix)
        lo, hi = threshold_bracket(m)
        lam_m, spreads = threshold_lambda(m)
        if not (lo * (1 - 1e-12) <= rho <= hi * (1 + 1e-12)
                and abs(lam_m - rho) <= 1e-12 * rho):
            rho = mpmath_rho(m.matrix)
        assert lo * (1 - 1e-12) <= rho <= hi * (1 + 1e-12)
        assert abs(lam_m - rho) <= 1e-12 * rho
        assert spreads == (lam_m >= 1.0)
        if abs(rho - 1.0) > 1e-12:
            assert spreads == (rho >= 1.0)

    @settings(max_examples=200, deadline=None)
    @given(spreading_cases())
    def test_strong_classes_partition_the_nodes(self, case):
        matrix = modified_matrix(*case).matrix
        classes = epidemic._strong_classes(matrix)
        nodes = np.concatenate(classes)
        assert sorted(nodes) == list(range(matrix.shape[0]))
        assert all((np.diff(idx) > 0).all() for idx in classes)
        _, labels = connected_components(matrix > 0, connection="strong")
        expected = {frozenset(np.flatnonzero(labels == c)) for c in set(labels)}
        assert {frozenset(idx) for idx in classes} == expected

    def test_reducible_block_splits_into_strong_classes(self, k2, monkeypatch):
        # Node 0 hears node 1 but not the reverse, and persists longer: the
        # Perron vector (1, 0) is not positive, but the classes {0} and {1}
        # give their diagonals exactly, with no eigensolve and no solve.
        def fail(*args):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        monkeypatch.setattr(np.linalg, "solve", fail)
        m = modified_matrix(k2, RateModel(beta={(0, 1): 0.5, (1, 0): 0.0},
                                          delta={0: 0.1, 1: 0.5}))
        assert threshold_bracket(m) == (0.9, 0.9)

    def test_defective_perron_root_is_exact(self):
        # Path 0-1-2-3 where 1 never hears 2: the classes {0, 1} and {2, 3}
        # both have Perron root 1, a defective double eigenvalue of M that
        # eigvals misses by about 6e-9.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        beta = {(u, v): 0.5 for a, b in g.edges for u, v in ((a, b), (b, a))}
        beta[(1, 2)] = 0.0
        m = modified_matrix(g, RateModel(beta=beta, delta={i: 0.5 for i in range(4)}))
        lam_m, spreads = threshold_lambda(m)
        assert abs(lam_m - 1.0) <= 1e-12
        assert spreads

    def test_irreducible_graphs_need_no_eigvals(self, monkeypatch):
        from netimmune import ieee118_graph

        def fail(a):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        g = ieee118_graph()
        for delta_range in ((0.2, 0.5), (1.0, 1.0)):
            m = modified_matrix(g, build_rates(g, (0.1, 0.4), delta_range, seed=3))
            lo, hi = threshold_bracket(m)
            assert 0 < hi - lo <= 1e-12 * hi

    def test_rounding_floor_decides_by_midpoint(self, monkeypatch):
        # delta_i = sum_j beta_ij makes every row of M sum to 1, so rho = 1;
        # the rounded row sums leave 1 inside a bracket one ulp wide, which
        # no solve can narrow: refinement stops at the first stalled solve.
        rng = np.random.default_rng(0)
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        beta = {}
        for u, v in g.edges:
            beta[(u, v)], beta[(v, u)] = rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)
        delta = {i: sum(b for (r, _), b in beta.items() if r == i) for i in range(g.n)}
        m = modified_matrix(g, RateModel(beta=beta, delta=delta))
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
        lo, hi = threshold_bracket(m)
        assert lo < 1.0 <= hi and hi - lo <= 1e-15
        assert len(solves) == 1
        lam_m, spreads = threshold_lambda(m)
        assert lam_m == 0.5 * (lo + hi) and spreads == (lam_m >= 1.0)

    def test_warm_start_keeps_the_bracket(self):
        g = random_graph(30, 0.15, 2)
        m = modified_matrix(g, build_rates(g, (0.1, 0.4), (0.2, 0.5), seed=5)).matrix
        lo, hi, x = epidemic._perron_bracket(m, 1.0)
        assert (x > 0).all()
        assert lo * (1 - 1e-12) <= eigvals_rho(m) <= hi * (1 + 1e-12)
        lo, hi, _ = epidemic._perron_bracket(m * 0.999, 1.0, x)
        assert lo * (1 - 1e-12) <= eigvals_rho(m * 0.999) <= hi * (1 + 1e-12)


class TestIterations:
    def test_linear_identity_fixed_point(self, k2):
        m = modified_matrix(k2, constant_rates(k2, 0.0, 0.0))
        traj = linear_iteration(m, [0.3, 0.8], 5)
        assert (traj == traj[0]).all()

    def test_linear_k2_one_step(self, k2):
        m = modified_matrix(k2, constant_rates(k2, 0.5, 0.4))
        traj = linear_iteration(m, [0.1, 0.1], 1)
        assert traj[1] == pytest.approx([0.11, 0.11])

    def test_linear_decays_below_threshold(self, k2):
        m = modified_matrix(k2, constant_rates(k2, 0.5, 0.95))
        traj = linear_iteration(m, [1.0, 1.0], 100)
        norms = np.linalg.norm(traj, axis=1)
        assert (np.diff(norms) <= 1e-15).all()
        assert norms[-1] < 1e-6

    def test_exact_zero_matrix_clears(self, p3):
        m = modified_matrix(p3, constant_rates(p3, 0.0, 1.0))
        traj = exact_probability_iteration(m, [1.0, 1.0, 1.0], 3)
        assert traj[1:] == pytest.approx(np.zeros((3, 3)))

    def test_exact_single_node_geometric(self):
        g = Graph(1, [])
        m = modified_matrix(g, RateModel(beta={}, delta={0: 0.3}))
        traj = exact_probability_iteration(m, [1.0], 6)
        assert traj[:, 0] == pytest.approx([0.7 ** t for t in range(7)])

    def test_exact_stays_in_unit_interval_and_linear_dominates(self):
        rng = np.random.default_rng(4)
        for seed in range(8):
            g = random_graph(9, 0.35, seed)
            r = build_rates(g, (0.0, 1.0), (0.0, 1.0), seed=seed)
            m = modified_matrix(g, r)
            p0 = rng.uniform(0, 1, size=g.n)
            exact = exact_probability_iteration(m, p0, 6)
            linear = linear_iteration(m, p0, 6)
            assert (exact >= 0).all() and (exact <= 1).all()
            assert (exact <= linear + 1e-12).all()

    def test_bad_p0_rejected(self, k2):
        m = modified_matrix(k2, constant_rates(k2, 0.5, 0.4))
        with pytest.raises(ValueError):
            linear_iteration(m, [0.5], 1)
        with pytest.raises(ValueError):
            exact_probability_iteration(m, [0.5, 1.5], 1)


class TestSimulateSis:
    def test_no_transmission_keeps_infection_in_seeds(self, c4):
        r = constant_rates(c4, 0.0, 0.3)
        for o in simulate_sis(c4, r, seeds=[0], immunized=[], steps=10, trials=20,
                              master_seed=1):
            assert set(o.final_infected) <= {0}

    def test_instant_cure_clears_everything(self, c4):
        r = constant_rates(c4, 0.0, 1.0)
        for o in simulate_sis(c4, r, seeds=[0, 2], immunized=[], steps=5, trials=10,
                              master_seed=2):
            assert o.infected_counts[0] == 2
            assert o.infected_counts[1:] == (0,) * 5
            assert o.final_infected == ()

    def test_certain_spread_matches_bfs_reachability(self):
        for seed in range(5):
            g = random_graph(12, 0.25, seed)
            r = constant_rates(g, 1.0, 0.0)
            immunized = [0, 5]
            seeds = [i for i in (3, 7) if i not in immunized]
            expected = reachable(g, seeds, set(immunized))
            for o in simulate_sis(g, r, seeds, immunized, steps=g.n, trials=3,
                                  master_seed=seed):
                assert set(o.final_infected) == expected

    def test_immunized_never_infected(self):
        for seed in range(5):
            g = random_graph(10, 0.4, seed)
            r = build_rates(g, (0.3, 0.9), (0.0, 0.3), seed=seed)
            immunized = {1, 4}
            seeds = [0] if 0 not in immunized else [2]
            for o in simulate_sis(g, r, seeds, immunized, steps=15, trials=10,
                                  master_seed=seed):
                assert not (set(o.final_infected) & immunized)

    def test_seed_immunized_overlap_rejected(self, c4):
        r = constant_rates(c4, 0.5, 0.5)
        with pytest.raises(ValueError):
            simulate_sis(c4, r, seeds=[0, 1], immunized=[1], steps=5, trials=2,
                         master_seed=0)

    @pytest.mark.parametrize("seeds, immunized, message", [
        ([0.5], [], "seed node 0.5 is not an integer id"),
        ([0], [True], "immunized node True is not an integer id"),
        ([0], [2.0], "immunized node 2.0 is not an integer id"),
        # Each id is checked before duplicates are merged: True == 1.0 == 1.
        ([0], [1, True], "immunized node True is not an integer id"),
        ([0], [1, 1.0], "immunized node 1.0 is not an integer id"),
        ([1, True], [], "seed node True is not an integer id"),
    ])
    def test_non_integer_node_ids_rejected(self, c4, seeds, immunized, message):
        r = constant_rates(c4, 0.5, 0.5)
        with pytest.raises(ValueError, match=message):
            simulate_sis(c4, r, seeds, immunized, steps=5, trials=2, master_seed=0)
        with pytest.raises(ValueError, match=message):
            simulate_sis_paired(c4, r, seeds, [immunized], steps=5, trials=2, master_seed=0)
        if not immunized:
            with pytest.raises(ValueError, match=message):
                most_infected_ranking(c4, r, SimulationProtocol(seeds=tuple(seeds)))

    def test_numpy_integer_node_ids_accepted(self, c4):
        r = constant_rates(c4, 0.5, 0.5)
        ints = simulate_sis(c4, r, [0], [2], steps=5, trials=2, master_seed=0)
        numpy = simulate_sis(c4, r, [np.int64(0)], [np.int32(2)], steps=5, trials=2,
                             master_seed=0)
        assert [o.infected_counts for o in numpy] == [o.infected_counts for o in ints]
        assert json.dumps([o.to_json_obj() for o in numpy]) == json.dumps(
            [o.to_json_obj() for o in ints])
        # Numpy counts and master seeds are recorded as Python ints too.
        numpy = simulate_sis(c4, r, [0], [2], steps=np.int64(5), trials=np.int32(2),
                             master_seed=np.uint64(0))
        assert json.dumps([o.to_json_obj() for o in numpy]) == json.dumps(
            [o.to_json_obj() for o in ints])
        protocol = SimulationProtocol(steps=np.int16(5), trials=np.int64(2),
                                      master_seed=np.int64(0))
        assert protocol == SimulationProtocol(steps=5, trials=2, master_seed=0)
        assert all(type(v) is int for v in (protocol.steps, protocol.trials,
                                             protocol.master_seed))

    def test_invalid_protocol_rejected(self, c4):
        r = constant_rates(c4, 0.5, 0.5)
        for steps, trials, master_seed, message in [
            (0, 2, 0, "steps must be an integer >= 1, got 0"),
            (5, 0, 0, "trials must be an integer >= 1, got 0"),
            (-3, 2, 0, "steps must be an integer >= 1, got -3"),
            (True, 2, 0, "steps must be an integer >= 1, got True"),
            (5, True, 0, "trials must be an integer >= 1, got True"),
            (2.5, 2, 0, "steps must be an integer >= 1, got 2.5"),
            (5, 2.0, 0, "trials must be an integer >= 1, got 2.0"),
            (5, 2, -1, "master_seed must be an integer >= 0, got -1"),
            (5, 2, True, "master_seed must be an integer >= 0, got True"),
            (5, 2, 1.5, "master_seed must be an integer >= 0, got 1.5"),
        ]:
            with pytest.raises(ValueError, match=message):
                simulate_sis(c4, r, [0], [], steps, trials, master_seed)
            with pytest.raises(ValueError, match=message):
                simulate_sis_paired(c4, r, [0], [[]], steps, trials, master_seed)
            with pytest.raises(ValueError, match=message):
                most_infected_ranking(c4, r, SimulationProtocol(None, steps, trials, master_seed))

    def test_trials_reproducible_and_order_independent(self, c4):
        r = build_rates(c4, (0.2, 0.6), (0.1, 0.5), seed=8)
        full = simulate_sis(c4, r, [0], [2], steps=20, trials=5, master_seed=99)
        again = simulate_sis(c4, r, [0], [2], steps=20, trials=5, master_seed=99)
        assert [o.infected_counts for o in full] == [o.infected_counts for o in again]
        # Trial t depends only on (master_seed, t), not on how many trials ran.
        prefix = simulate_sis(c4, r, [0], [2], steps=20, trials=2, master_seed=99)
        assert [o.infected_counts for o in prefix] == [o.infected_counts for o in full[:2]]

    def test_counts_respect_immunized_cap(self, c4):
        r = constant_rates(c4, 0.9, 0.1)
        for o in simulate_sis(c4, r, [0], [1], steps=10, trials=5, master_seed=3):
            assert max(o.infected_counts) <= c4.n - 1


class TestMonteCarloVsExactIteration:
    def test_k2_mean_matches_recursion(self, k2):
        # Moderate rates keep the pairwise-independence error of the
        # recursion well inside Monte-Carlo noise at this horizon.
        r = build_rates(k2, (0.05, 0.15), (0.6, 0.8), seed=7)
        trials, horizon = 4000, 5
        m = modified_matrix(k2, r)
        expected = exact_probability_iteration(m, [1.0, 0.0], horizon)
        counts = np.zeros(horizon + 1)
        for o in simulate_sis(k2, r, [0], [], steps=horizon, trials=trials, master_seed=0):
            counts += o.infected_counts
        mean_infected = counts / trials
        theory = expected.sum(axis=1)
        se = np.sqrt(np.maximum(theory, 1e-3) / trials)
        assert (np.abs(mean_infected - theory)[1:] <= 3 * se[1:]).all()


class TestMostInfected:
    def test_no_transmission_ranks_seed_first(self, c4):
        r = constant_rates(c4, 0.0, 0.2)
        ranking = most_infected_ranking(c4, r, SimulationProtocol(seeds=(2,), steps=10,
                                                                  trials=20, master_seed=5))
        assert ranking.order[0] == 2
        assert all(ranking.scores[i] == 0 for i in range(4) if i != 2)

    def test_k3_symmetric_rotation_is_balanced(self, k3):
        r = constant_rates(k3, 0.3, 0.3)
        ranking = most_infected_ranking(k3, r, SimulationProtocol(steps=30, trials=99,
                                                                  master_seed=6))
        scores = np.array(ranking.scores)
        assert scores.std() / scores.mean() < 0.1

    def test_star_hub_outscores_leaves(self, star5):
        r = constant_rates(star5, 0.4, 0.3)
        ranking = most_infected_ranking(star5, r, SimulationProtocol(seeds=(0,), steps=50,
                                                                     trials=100, master_seed=9))
        assert ranking.scores[0] >= max(ranking.scores[1:])


class TestScaleRates:
    def test_hits_target(self):
        g = random_graph(20, 0.3, 1)
        base = build_rates(g, (0.1, 0.4), (0.4, 0.6), seed=2)
        for target in (0.7, 1.3):
            scaled = scale_rates_to_threshold(g, base, target)
            lam, _ = threshold_lambda(modified_matrix(g, scaled))
            assert lam == pytest.approx(target, abs=1e-6)
            assert all(0 <= v <= 1 for v in scaled.beta.values())

    def test_unreachable_targets_rejected(self):
        g = random_graph(8, 0.4, 3)
        base = build_rates(g, (0.1, 0.4), (0.4, 0.6), seed=2)
        with pytest.raises(ValueError):
            scale_rates_to_threshold(g, base, 0.3)  # below max(1 - delta)
        with pytest.raises(ValueError):
            scale_rates_to_threshold(g, base, 50.0)

    def test_all_zero_beta_rejected(self, p3):
        base = build_rates(p3, (0, 0), (0.5, 0.5), seed=1)
        with pytest.raises(ValueError, match="every beta is 0"):
            scale_rates_to_threshold(p3, base, 0.6)


class TestScaleRatesBracket:
    @settings(max_examples=100, deadline=None)
    @given(spreading_cases(scalable=True), st.floats(0.05, 0.95))
    def test_scaled_eigvals_hits_target(self, case, where):
        g, r = case
        assume(g.edges)
        floor = max(1.0 - d for d in r.delta.values())
        top = max(r.beta.values())
        full = RateModel(beta={k: v / top for k, v in r.beta.items()}, delta=r.delta)
        ceiling = eigvals_rho(modified_matrix(g, full).matrix)
        assume(ceiling - floor > 1e-6)
        target = floor + where * (ceiling - floor)
        scaled = scale_rates_to_threshold(g, r, target)
        assert abs(eigvals_rho(modified_matrix(g, scaled).matrix) - target) <= 1e-9

    def test_keeps_provenance(self):
        g = random_graph(20, 0.3, 1)
        base = build_rates(g, (0.1, 0.4), (0.4, 0.6), seed=2)
        scaled = scale_rates_to_threshold(g, base, 0.7)
        edge = min(g.edges)
        scale = scaled.beta[edge] / base.beta[edge]
        assert scaled.delta_range == base.delta_range and scaled.seed == base.seed
        assert scaled.beta_range == pytest.approx((0.1 * scale, 0.4 * scale), rel=1e-15)
        # The ranges regenerate the rescaled model, to rounding.
        again = build_rates(g, scaled.beta_range, scaled.delta_range, scaled.seed)
        assert again.delta == scaled.delta
        for k, v in scaled.beta.items():
            assert again.beta[k] == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("beta", [1e-7, 1e-200])
    def test_scale_past_float_spacing_returns(self, k2, beta):
        # The scale sought is 4e-1 / beta, where adjacent floats lie farther
        # apart than tol, so the bisection must stop on float spacing.
        base = RateModel(beta={(0, 1): beta, (1, 0): beta}, delta={0: 0.5, 1: 0.5})
        scaled = scale_rates_to_threshold(k2, base, 0.9)
        assert scaled.beta[(0, 1)] == pytest.approx(0.4, rel=1e-12)
        assert eigvals_rho(modified_matrix(k2, scaled).matrix) == pytest.approx(0.9, abs=1e-12)

    def test_missing_provenance_stays_missing(self, k2):
        base = RateModel(beta={(0, 1): 0.3, (1, 0): 0.2}, delta={0: 0.5, 1: 0.5})
        scaled = scale_rates_to_threshold(k2, base, 0.6)
        assert (scaled.beta_range, scaled.delta_range, scaled.seed) == (None, None, None)


class TestThresholdConsistency:
    def test_twenty_er_graphs_die_or_persist(self):
        # 20 graphs x 2 regimes x 200 trials x 500 steps: about 10 s on two cores.
        n, trials, steps = 50, 200, 500
        rng = np.random.default_rng(1234)
        for case in range(20):
            g = random_graph(n, 0.12, seed=600 + case)
            base = build_rates(g, (0.1, 0.4), (0.5, 0.7), seed=case)
            low = float(rng.uniform(0.55, 0.9))
            high = float(rng.uniform(1.5, 2.0))
            for target, check in ((low, lambda m: m < 0.01 * n),
                                  (high, lambda m: m > 0.10 * n)):
                rates = scale_rates_to_threshold(g, base, target)
                outcomes = simulate_sis(g, rates, seeds=(0, 1, 2), immunized=(),
                                        steps=steps, trials=trials, master_seed=case)
                mean = float(np.mean([o.infected_counts[-1] for o in outcomes]))
                assert check(mean), f"graph {case}, lambda_M={target:.2f}: mean {mean}"
