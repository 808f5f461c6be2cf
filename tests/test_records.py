"""The JSON form of each record, pinned key by key.

Each literal is the record's ``json.dumps`` text. A field that is added,
dropped or moved changes it, and with it the compare JSON, ``rank --format
json``, ``simulate --output`` or ``config_sha256``.
"""

import json
from dataclasses import fields, replace

import pytest

from netimmune import (
    BudgetSpec,
    ExperimentConfig,
    GapReport,
    Graph,
    Strategy,
    __version__,
    degree_ranking,
)
from netimmune.epidemic import RateModel, SimulationOutcome
from netimmune.harness import ComparisonTable, StrategyResult, table_json_obj

CONFIG = ExperimentConfig(graph="g.edges", budget=BudgetSpec.from_count(1), seeds=(0,),
                          strategies=(Strategy.DEGREE, Strategy.AV11), steps=3, trials=2,
                          output_csv="t.csv")

CONFIG_JSON = (
    '{"graph": "g.edges", "graph_format": null, "relabel": false, "budget": {"count": 1}, '
    '"seeds": [0], "strategies": ["degree", "av11"], "beta_range": [0.1, 0.4], '
    '"delta_range": [0.2, 0.5], "steps": 3, "trials": 2, "master_seed": 42, "power": 64, '
    '"calibration_trials": 100, "output_csv": "t.csv", "output_json": null}')

CONFIG_SHA256 = "5fe42da03ef002572171a19c81aaf343da7cf96435aa316512a1959299cc6bb7"

ROWS = (
    StrategyResult(rank=1, strategy=Strategy.AV11, immunized=(1,), mean_final_infected=0.5,
                   std_final_infected=0.5, pct_of_n=12.5, final_counts=(0, 1),
                   mean_trajectory=(1.0, 0.5)),
    StrategyResult(rank=2, strategy=Strategy.DEGREE, immunized=(2,), mean_final_infected=1.0,
                   std_final_infected=0.0, pct_of_n=25.0, final_counts=(1, 1),
                   mean_trajectory=(1.0, 1.0)),
)

ROWS_JSON = (
    '[{"rank": 1, "strategy": "av11", "immunized": [1], "mean_final_infected": 0.5, '
    '"std_final_infected": 0.5, "pct_of_n": 12.5, "final_counts": [0, 1], '
    '"mean_trajectory": [1.0, 0.5]}, '
    '{"rank": 2, "strategy": "degree", "immunized": [2], "mean_final_infected": 1.0, '
    '"std_final_infected": 0.0, "pct_of_n": 25.0, "final_counts": [1, 1], '
    '"mean_trajectory": [1.0, 1.0]}]')


def test_config_json():
    assert json.dumps(CONFIG.to_json_obj()) == CONFIG_JSON
    assert CONFIG.config_sha256() == CONFIG_SHA256


def test_fraction_budget_json():
    config = ExperimentConfig(graph="ieee118", budget=BudgetSpec.from_fraction(0.16))
    assert json.dumps(config.to_json_obj()) == (
        '{"graph": "ieee118", "graph_format": null, "relabel": false, '
        '"budget": {"fraction": 0.16}, "seeds": null, "strategies": ["av11", "degree", '
        '"closeness", "betweenness", "dynamical-importance", "estrada", "most-infected"], '
        '"beta_range": [0.1, 0.4], "delta_range": [0.2, 0.5], "steps": 200, "trials": 200, '
        '"master_seed": 42, "power": 64, "calibration_trials": 100, "output_csv": null, '
        '"output_json": null}')
    assert config.config_sha256() == (
        "e8b1ee2949cbaaef85f618c3847d899b9127d756c6c08d21885b6d3745886002")


def test_table_json():
    table = ComparisonTable(config=CONFIG, n=4, budget_k=1, rows=ROWS)
    assert json.dumps(table_json_obj(table)) == (
        f'{{"version": "{__version__}", "config_sha256": "{CONFIG_SHA256}", '
        f'"config": {CONFIG_JSON}, "n": 4, "budget_k": 1, "rows": {ROWS_JSON}}}')


def test_ranking_json():
    ranking = degree_ranking(Graph(3, [(0, 1), (1, 2)]))
    assert json.dumps(ranking.to_json_obj()) == (
        '{"strategy": "degree", "order": [1, 0, 2], "scores": [1.0, 2.0, 1.0]}')


def test_simulation_outcome_json():
    outcome = SimulationOutcome(
        infected_counts=(1, 2, 0), final_infected=(), trial_index=0, trial_seed=7,
        params={"steps": 2, "trials": 1, "seeds": [0], "immunized": [2], "master_seed": 3})
    assert json.dumps(outcome.to_json_obj()) == (
        '{"infected_counts": [1, 2, 0], "final_infected": [], "trial_index": 0, '
        '"trial_seed": 7, "params": {"steps": 2, "trials": 1, "seeds": [0], '
        '"immunized": [2], "master_seed": 3}}')


def test_gap_report_json():
    report = GapReport(k=1, power=16, floor_raw=-1.0, floor_clamped=0.0, optimal_set=(1,),
                       optimal_lambda1=0.0, av11_set=(1,), av11_lambda1=0.0)
    assert json.dumps(report.to_json_obj()) == (
        '{"k": 1, "power": 16, "floor_raw": -1.0, "floor_clamped": 0.0, "optimal_set": [1], '
        '"optimal_lambda1": 0.0, "av11_set": [1], "av11_lambda1": 0.0}')


def test_rate_model_json():
    rates = RateModel(beta={(1, 0): 0.25, (0, 1): 0.5}, delta={1: 0.125, 0: 0.75},
                      beta_range=(0.1, 0.4), delta_range=None, seed=3)
    assert json.dumps(rates.to_json_obj()) == (
        '{"beta": [[0, 1, 0.5], [1, 0, 0.25]], "delta": [[0, 0.75], [1, 0.125]], '
        '"beta_range": [0.1, 0.4], "delta_range": null, "seed": 3}')


def test_every_config_field_declares_its_json_reader():
    for f in fields(ExperimentConfig):
        assert callable(f.metadata.get("read")), f.name


# One value per field that differs from CONFIG's.
CHANGED = {
    "graph": "h.edges", "graph_format": "edgelist", "relabel": True,
    "budget": BudgetSpec.from_fraction(0.25), "seeds": (1,), "strategies": (Strategy.AV11,),
    "beta_range": (0.1, 0.3), "delta_range": (0.3, 0.5), "steps": 4, "trials": 3,
    "master_seed": 43, "power": 16, "calibration_trials": 99,
    "output_csv": "u.csv", "output_json": "u.json",
}


def test_changed_values_cover_every_field():
    assert list(CHANGED) == [f.name for f in fields(ExperimentConfig)]


@pytest.mark.parametrize("name", list(CHANGED))
def test_config_sha256_covers_every_parameter(name):
    """Every field but the two output paths enters the digest."""
    changed = replace(CONFIG, **{name: CHANGED[name]})
    assert getattr(changed, name) != getattr(CONFIG, name)
    same = name in ("output_csv", "output_json")
    assert (changed.config_sha256() == CONFIG_SHA256) is same
