"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every test is deterministic
(frozen seeds); the statistical checks were sized so their margins hold with
room to spare under the pinned protocol.
"""

import networkx as nx
import numpy as np
import pytest

from netimmune import (
    BudgetSpec,
    ExperimentConfig,
    Graph,
    av11_ranking,
    av11_select,
    build_rates,
    degree_ranking,
    dynamical_importance_ranking,
    exact_probability_iteration,
    masked_adjacency,
    modified_matrix,
    run_compare,
    scale_rates_to_threshold,
    separation_lower_bound,
    simulate_sis,
    spectrum,
    threshold_lambda,
    trace_power_bound,
)
from netimmune.epidemic import _masks, _trial_seed_sequence
from netimmune.oracle import optimal_removal

from conftest import dense_log_survival, star_graph


def lam1(matrix):
    return float(np.linalg.eigvalsh(matrix)[-1])


def ba_graph(n, m, seed):
    return Graph(n, list(nx.barabasi_albert_graph(n, m, seed=seed).edges()))


def er_graph(n, p, seed):
    return Graph(n, list(nx.gnp_random_graph(n, p, seed=seed).edges()))


def test_ordinal_comparison_ieee118():
    """IEEE 118 bus, budget 16% (19 nodes), default rates, 200 paired trials, T=200:
    the spectral selection has the strictly smallest mean final infected count and
    most-infected / dynamical-importance never reach the top two."""
    config = ExperimentConfig(graph="ieee118", budget=BudgetSpec.from_fraction(0.16))
    assert config.trials >= 200 and config.steps == 200
    table = run_compare(config)
    assert table.budget_k == 19
    names = [r.strategy.value for r in table.rows]
    means = [r.mean_final_infected for r in table.rows]
    assert names[0] == "av11", f"expected av11 first, got {names}"
    assert means[0] < means[1], "av11 must be strictly smallest"
    assert "most-infected" not in names[:2]
    assert "dynamical-importance" not in names[:2]
    # The AV11 set at the default master seed 42, with seed node 95 skipped.
    assert table.rows[0].immunized == (48, 99, 58, 76, 11, 16, 69, 36, 84, 31, 104, 61,
                                       91, 4, 55, 67, 18, 79, 24)
    print(f"\nACCEPTANCE PASS: ordinal comparison on IEEE 118 "
          f"(av11 mean {means[0]:.2f} vs runner-up {means[1]:.2f}; order {names})")


def test_spectral_drop_dominance_ba():
    """20 BA(100, 2) graphs, k=10: av11 residual lambda_1 beats the degree set
    in >= 18/20 instances and the dynamical-importance set in >= 15/20."""
    k = 10
    wins_deg = wins_dyn = 0
    for seed in range(20):
        g = ba_graph(100, 2, seed)
        _, av11_lam = av11_select(g, k)
        deg_lam = lam1(masked_adjacency(g, degree_ranking(g).top(k)))
        dyn_lam = lam1(masked_adjacency(g, dynamical_importance_ranking(g).top(k)))
        wins_deg += av11_lam <= deg_lam + 1e-12
        wins_dyn += av11_lam <= dyn_lam + 1e-12
    assert wins_deg >= 18, f"av11 <= degree in only {wins_deg}/20"
    assert wins_dyn >= 15, f"av11 <= dynamical importance in only {wins_dyn}/20"
    print(f"\nACCEPTANCE PASS: spectral-drop dominance on BA graphs "
          f"(vs degree {wins_deg}/20, vs dynamical importance {wins_dyn}/20)")


def test_trace_power_bound_always_holds():
    """100 random graphs (n <= 30), random masks, p in {2, 4, 8, 16}:
    d + lambda_1(h) <= (sum_i b_ii(h))^(1/p) + 1e-9 in every case, and the
    p=16 gap is strictly below the p=2 gap on every instance."""
    rng = np.random.default_rng(2718)
    checked = 0
    for case in range(100):
        n = int(rng.integers(2, 31))
        g = er_graph(n, float(rng.uniform(0.1, 0.6)), seed=case)
        mask_size = int(rng.integers(0, n))
        mask = [int(x) for x in rng.choice(n, size=mask_size, replace=False)]
        gaps = {}
        for p in (2, 4, 8, 16):
            bound, lam = trace_power_bound(g, mask, power=p)
            assert bound >= lam - 1e-9, f"bound violated at n={n} p={p}"
            gaps[p] = bound - lam
        assert gaps[16] < gaps[2], f"gap did not shrink at n={n}: {gaps}"
        checked += 1
    assert checked == 100
    print("\nACCEPTANCE PASS: trace power bound held on 100/100 instances, "
          "gap(p=16) < gap(p=2) on all")


def test_separation_chain_small_graphs():
    """500 sampled connected graphs with n <= 7, k <= 2:
    lambda_{k+1}(A) <= optimal residual <= av11 residual, at 1e-9."""
    rng = np.random.default_rng(31415)
    violations = 0
    for case in range(500):
        n = int(rng.integers(2, 8))
        while True:
            nxg = nx.gnp_random_graph(n, float(rng.uniform(0.3, 0.9)),
                                      seed=int(rng.integers(2**31)))
            if n == 1 or nx.is_connected(nxg):
                break
        g = Graph(n, list(nxg.edges()))
        spec = spectrum(g)
        for k in (1, 2):
            if k >= n:
                continue
            floor = separation_lower_bound(spec, k)
            _, opt_lam = optimal_removal(g, k)
            _, av11_lam = av11_select(g, k)
            if not (floor - 1e-9 <= opt_lam <= av11_lam + 1e-9):
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE PASS: separation chain floor <= optimal <= av11 on "
          "500 connected graphs (k <= 2), zero violations")


def test_threshold_behavior_er():
    """ER graphs (n=50), rates scaled to lambda_M: at 0.7 the mean infected
    count at T=500 over 200 trials is < 1% of n; at 1.8 it exceeds 10%."""
    n = 50
    g = er_graph(n, 0.12, seed=100)
    base = build_rates(g, (0.1, 0.4), (0.4, 0.6), seed=50)
    results = {}
    for target in (0.7, 1.8):
        rates = scale_rates_to_threshold(g, base, target)
        lam, _ = threshold_lambda(modified_matrix(g, rates))
        assert lam == pytest.approx(target, abs=1e-6)
        outcomes = simulate_sis(g, rates, seeds=(0, 1, 2), immunized=(), steps=500,
                                trials=200, master_seed=11)
        results[target] = float(np.mean([o.infected_counts[-1] for o in outcomes]))
    assert results[0.7] < 0.01 * n, f"subcritical mean {results[0.7]} >= 1% of n"
    assert results[1.8] > 0.10 * n, f"supercritical mean {results[1.8]} <= 10% of n"
    print(f"\nACCEPTANCE PASS: threshold behavior (lambda_M=0.7 -> "
          f"{results[0.7]:.3f} infected; lambda_M=1.8 -> {results[1.8]:.1f})")


def test_exact_dynamics_consistency():
    """K2 and P3: Monte-Carlo per-node infection probabilities over 10000
    trials match the nonlinear probability recursion within 3 standard errors
    for t <= 5."""
    trials, horizon = 10000, 5
    worst = 0.0
    for g, seeds in [(Graph(2, [(0, 1)]), (0,)), (Graph(3, [(0, 1), (1, 2)]), (1,))]:
        rates = build_rates(g, (0.05, 0.15), (0.6, 0.8), seed=7)
        m = modified_matrix(g, rates)
        p0 = np.array([1.0 if i in seeds else 0.0 for i in range(g.n)])
        theory = exact_probability_iteration(m, p0, horizon)

        seed_mask, immune_mask = _masks(g.n, seeds, ())
        log_s = dense_log_survival(g, rates)
        delta = np.array([rates.delta[i] for i in range(g.n)])
        acc = np.zeros((horizon + 1, g.n))
        for trial in range(trials):
            rng = np.random.default_rng(_trial_seed_sequence(0, trial))
            infected = seed_mask.copy()
            acc[0] += infected
            for t in range(1, horizon + 1):
                u_rec = rng.random(g.n)
                u_inf = rng.random(g.n)
                survivors = infected & (u_rec >= delta)
                p_hit = -np.expm1(log_s @ infected.astype(float))
                infected = survivors | (~survivors & ~immune_mask & (u_inf < p_hit))
                acc[t] += infected
        phat = acc / trials
        se = np.sqrt(np.maximum(phat * (1 - phat), 1e-6) / trials)
        ratio = np.abs(phat - theory)[1:] / se[1:]
        worst = max(worst, float(ratio.max()))
        assert (ratio <= 3.0).all(), f"MC deviates from the recursion: {ratio.max():.2f} SE"
    print(f"\nACCEPTANCE PASS: Monte Carlo matches the probability recursion on "
          f"K2 and P3 (worst deviation {worst:.2f} SE <= 3)")


def test_analytic_unit_anchors():
    """Exact anchors: the hub of any star is picked first with residual 0;
    P3 selects its center first; K3 resolves to id order."""
    for leaves in (2, 3, 4, 7, 12):
        star = star_graph(leaves)
        selected, residual = av11_select(star, 1)
        assert selected == [0]
        assert residual == 0.0
        assert av11_ranking(star).order[0] == 0
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert av11_select(p3, 1)[0] == [1]
    assert av11_ranking(p3).order == (1, 0, 2)
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert av11_ranking(k3).order == (0, 1, 2)
    print("\nACCEPTANCE PASS: analytic unit anchors (star hubs, P3 center, K3 order)")
