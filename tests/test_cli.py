import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netimmune import (
    BudgetSpec,
    ExperimentConfig,
    Strategy,
    build_rates,
    cli,
    epidemic,
    harness,
    modified_matrix,
    serialize_graph,
    strategies,
)
from netimmune.cli import main
from netimmune.harness import (
    default_seeds,
    immunization_set,
    rate_seed_for,
    resolve_graph,
    run_compare,
    write_table_csv,
)

from conftest import gnp_graphs


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text("0 1\n1 2\n")
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.edges"
    path.write_text("".join(f"0 {i}\n" for i in range(1, 5)))
    return str(path)


def child_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child process that imports this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
                          timeout=60, check=False, **kwargs)


def test_python_dash_m_runs_the_cli():
    """``python -m netimmune`` is the CLI, and ``import netimmune`` does not
    load the entry module."""
    from netimmune import __version__

    def python(*args):
        run = child_python(*args)
        return run.returncode, run.stdout

    assert python("-m", "netimmune", "--version") == (0, f"netimmune {__version__}\n")
    check = "import sys, netimmune; print('netimmune.__main__' in sys.modules)"
    assert python("-c", check) == (0, "False\n")


class TestRankCommand:
    def test_degree_table_output(self, p3_file, capsys):
        assert main(["rank", "--graph", p3_file, "--strategy", "degree"]) == 0
        assert capsys.readouterr().out == "1 2\n0 1\n2 1\n"

    def test_av11_star_hub_first(self, star_file, capsys):
        assert main(["rank", "--graph", star_file, "--strategy", "av11"]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("0 ")

    def test_av11_reports_its_power_on_stderr(self, p3_file, capsys, tmp_path):
        assert main(["rank", "--graph", p3_file, "--strategy", "av11"]) == 0
        assert capsys.readouterr() == ("1 3\n0 2\n2 1\n", "power = 64\n")
        out = tmp_path / "r.json"
        assert main(["rank", "--graph", p3_file, "--strategy", "av11", "--power", "4",
                     "--format", "json", "--output", str(out)]) == 0
        assert capsys.readouterr() == ("", "power = 4\n")
        assert json.loads(out.read_text()) == {
            "strategy": "av11", "order": [1, 0, 2], "scores": [2.0, 3.0, 1.0]}
        assert main(["rank", "--graph", p3_file, "--strategy", "degree"]) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_strategy_usage_error(self, p3_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--graph", p3_file, "--strategy", "pagerank"])
        assert exc.value.code == 2
        assert "av11" in capsys.readouterr().err

    def test_json_and_csv_formats(self, p3_file, capsys, tmp_path):
        main(["rank", "--graph", p3_file, "--strategy", "degree", "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["order"] == [1, 0, 2]
        out = tmp_path / "r.csv"
        main(["rank", "--graph", p3_file, "--strategy", "degree", "--format", "csv",
              "--output", str(out)])
        assert out.read_text().splitlines()[0] == "node,score"

    def test_most_infected_runs_with_rotation_default(self, p3_file, capsys):
        assert main(["rank", "--graph", p3_file, "--strategy", "most-infected",
                     "--trials", "6", "--steps", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_builtin_ieee118(self, capsys):
        assert main(["rank", "--graph", "ieee118", "--strategy", "degree"]) == 0
        top = capsys.readouterr().out.splitlines()[0]
        assert top == "48 9"  # bus 49, the highest-degree bus

    def test_missing_file_exits_3(self, capsys):
        assert main(["rank", "--graph", "/nope/missing.edges", "--strategy", "degree"]) == 3
        assert "error" in capsys.readouterr().err

    def test_directory_graph_exits_3(self, tmp_path, capsys):
        assert main(["rank", "--graph", str(tmp_path), "--strategy", "degree"]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError("Eigenvalues did not converge"),
                                       FloatingPointError("overflow encountered in matmul")])
    def test_numeric_failure_exits_3(self, p3_file, capsys, monkeypatch, error):
        def fail(g):
            raise error

        monkeypatch.setattr(strategies, "dynamical_importance_ranking", fail)
        assert main(["rank", "--graph", p3_file, "--strategy", "dynamical-importance"]) == 3
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_av11_high_power_dense_graph(self, tmp_path, capsys):
        # (Z A Z + d I)^256 on G(200, 0.5) is far past float64's range; the
        # selection divides every eigenvalue by the largest before the power.
        nxg = nx.gnp_random_graph(200, 0.5, seed=1)
        path = tmp_path / "dense.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in nxg.edges()))
        assert main(["rank", "--graph", str(path), "--strategy", "av11", "--power", "256",
                     "--format", "json"]) == 0
        assert sorted(json.loads(capsys.readouterr().out)["order"]) == list(range(200))


class TestThresholdCommand:
    def test_k2_above_threshold(self, tmp_path, capsys):
        path = tmp_path / "k2.edges"
        path.write_text("0 1\n")
        assert main(["threshold", "--graph", str(path), "--beta-range", "0.5", "0.5",
                     "--delta-range", "0.4", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "lambda_M = 1.100000 (above threshold)" in out
        assert "lambda_1(A) = 1.000000" in out

    def test_below_threshold(self, tmp_path, capsys):
        path = tmp_path / "k2.edges"
        path.write_text("0 1\n")
        assert main(["threshold", "--graph", str(path), "--beta-range", "0.5", "0.5",
                     "--delta-range", "0.95", "0.95"]) == 0
        assert "below threshold" in capsys.readouterr().out

    def test_brackets_lambda_m_once(self, monkeypatch):
        calls = []
        bracket = epidemic._perron_bracket
        monkeypatch.setattr(epidemic, "_perron_bracket",
                            lambda *args: calls.append(args) or bracket(*args))
        assert main(["threshold", "--graph", "ieee118"]) == 0
        assert len(calls) == 1


class TestThresholdBracket:
    def test_disconnected_bracket_holds_eigvals(self, tmp_path, capsys):
        # Two K2 components, each with its own drawn rates.
        path = tmp_path / "two_k2.edges"
        path.write_text("0 1\n2 3\n")
        args = ["--beta-range", "0.1", "0.9", "--delta-range", "0.2", "0.5", "--seed", "7"]
        assert main(["threshold", "--graph", str(path)] + args) == 0
        line = next(s for s in capsys.readouterr().out.splitlines()
                    if s.startswith("lambda_M in ["))
        lo, hi = (float(v) for v in line[len("lambda_M in ["):-1].split(", "))
        g = resolve_graph(str(path))
        rates = build_rates(g, (0.1, 0.9), (0.2, 0.5), rate_seed_for(7))
        assert len(set(rates.beta.values())) == 4
        rho = float(np.abs(np.linalg.eigvals(modified_matrix(g, rates).matrix)).max())
        assert lo * (1 - 1e-12) <= rho <= hi * (1 + 1e-12)
        assert hi - lo <= 1e-12 * hi


class TestOracleCommand:
    def test_reports_three_residuals(self, star_file, capsys):
        assert main(["oracle", "--graph", star_file, "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "separation floor" in out
        assert "optimal residual" in out
        assert "av11 residual" in out

    def test_guard_exit_3_with_count(self, tmp_path, capsys):
        import networkx as nx

        path = tmp_path / "big.edges"
        nxg = nx.gnp_random_graph(40, 0.3, seed=1)
        path.write_text("".join(f"{u} {v}\n" for u, v in nxg.edges()))
        assert main(["oracle", "--graph", str(path), "-k", "12"]) == 3
        import math

        assert str(math.comb(40, 12)) in capsys.readouterr().err

    def test_table_csv(self, star_file, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["oracle", "--graph", star_file, "-k", "1", "--table", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "subset,residual_lambda1"

    def test_table_csv_equals_per_subset_loop(self, tmp_path, capsys):
        """The CSV is byte for byte the one a masked copy and one eigvalsh
        per subset give, in enumeration order."""
        edges = [(i, (i + 1) % 9) for i in range(9)] + [(0, 4), (2, 6), (3, 7), (1, 5)]
        path = tmp_path / "g.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        out = tmp_path / "table.csv"
        assert main(["oracle", "--graph", str(path), "-k", "3", "--table", str(out)]) == 0
        a = np.zeros((9, 9))
        for u, v in edges:
            a[u, v] = a[v, u] = 1.0
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["subset", "residual_lambda1"])
        for subset in combinations(range(9), 3):
            masked = a.copy()
            masked[list(subset), :] = 0.0
            masked[:, list(subset)] = 0.0
            lam = float(np.linalg.eigvalsh(masked)[-1])
            writer.writerow([" ".join(map(str, subset)), repr(lam)])
        assert out.read_bytes() == expected.getvalue().encode("utf-8")


class TestSimulateCommand:
    def test_writes_traces(self, star_file, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--graph", star_file, "--seeds", "1", "--immunized", "0",
                     "--steps", "5", "--trials", "4", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["outcomes"]) == 4
        assert all(len(o["infected_counts"]) == 6 for o in payload["outcomes"])

    def test_seed_immunized_clash_exits_3(self, star_file, capsys):
        assert main(["simulate", "--graph", star_file, "--seeds", "0",
                     "--immunized", "0"]) == 3

    def test_allocation_past_the_memory_limit_exits_3(self):
        """An allocation that fails with MemoryError exits 3 with a message, not
        a traceback; the 1 GiB address-space cap applies to the child only."""
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        run = child_python("-m", "netimmune", "simulate", "--graph", "ieee118",
                           "--trials", "1", "--steps", str(10**9),
                           preexec_fn=cap_address_space)
        assert run.returncode == 3
        assert run.stderr.startswith("error: out of memory") and "Traceback" not in run.stderr


class TestCompareCommand:
    def test_budget_zero_rows_identical(self, tmp_path, capsys):
        import networkx as nx

        path = tmp_path / "g.edges"
        nxg = nx.gnp_random_graph(12, 0.3, seed=4)
        path.write_text("".join(f"{u} {v}\n" for u, v in nxg.edges()))
        csv_out = tmp_path / "out.csv"
        assert main(["compare", "--graph", str(path), "--budget", "0",
                     "--steps", "10", "--trials", "8", "--seeds", "0", "1",
                     "--output-csv", str(csv_out)]) == 0
        rows = [line.split(",") for line in csv_out.read_text().splitlines()
                if not line.startswith("#")][1:]
        means = {row[2] for row in rows}
        stds = {row[3] for row in rows}
        assert len(means) == 1 and len(stds) == 1

    @settings(max_examples=25, deadline=None)
    @given(gnp_graphs(max_n=9), st.data())
    def test_budget_zero_immunizes_nothing(self, g, data):
        """At budget 0 no row immunizes a node, so under common random numbers
        every row replays the same trials."""
        seeds = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(serialize_graph(g, "json"))
            table = run_compare(ExperimentConfig(
                graph=path, budget=BudgetSpec.from_count(0), seeds=tuple(sorted(seeds)),
                steps=6, trials=5, calibration_trials=3,
                master_seed=data.draw(st.integers(0, 2**32 - 1))))
        assert [row.immunized for row in table.rows] == [()] * len(table.rows)
        assert len({row.final_counts for row in table.rows}) == 1

    def test_out_of_range_seed_exits_3_before_any_ranker(self, capsys, monkeypatch):
        def ranker(*args, **kwargs):
            raise AssertionError("a ranker ran")

        monkeypatch.setattr(harness, "compute_ranking", ranker)
        assert main(["compare", "--graph", "ieee118", "--budget", "16%",
                     "--seeds", "500"]) == 3
        assert capsys.readouterr().err == "error: seed node 500 out of range for n=118\n"

    def test_replay_byte_identical_csv(self, tmp_path):
        import networkx as nx

        path = tmp_path / "g.edges"
        nxg = nx.gnp_random_graph(14, 0.3, seed=5)
        path.write_text("".join(f"{u} {v}\n" for u, v in nxg.edges()))
        cfg = {
            "graph": str(path),
            "budget": {"count": 3},
            "seeds": [0, 7],
            "steps": 15,
            "trials": 10,
            "master_seed": 11,
            "output_csv": str(tmp_path / "a.csv"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["compare", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "a.csv").read_bytes()
        assert main(["compare", "--config", str(cfg_path),
                     "--output-csv", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "b.csv").read_bytes() == first

    def test_version_and_hash_embedded(self, tmp_path):
        import networkx as nx
        from netimmune import __version__

        path = tmp_path / "g.edges"
        nxg = nx.gnp_random_graph(10, 0.4, seed=6)
        path.write_text("".join(f"{u} {v}\n" for u, v in nxg.edges()))
        csv_out = tmp_path / "t.csv"
        json_out = tmp_path / "t.json"
        assert main(["compare", "--graph", str(path), "--budget", "2", "--steps", "5",
                     "--trials", "4", "--seeds", "0", "--output-csv", str(csv_out),
                     "--output-json", str(json_out)]) == 0
        text = csv_out.read_text()
        assert f"# netimmune {__version__}" in text
        assert "# config_sha256" in text
        payload = json.loads(json_out.read_text())
        assert payload["version"] == __version__
        assert payload["config_sha256"]
        again = ExperimentConfig.from_json_obj(payload["config"])
        assert again.config_sha256() == payload["config_sha256"]

    def test_budget_not_below_n_exits_3(self, p3_file, capsys):
        assert main(["compare", "--graph", p3_file, "--budget", "3",
                     "--seeds", "0"]) == 3

    def test_empty_seed_set_exits_3(self, p3_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": p3_file, "budget": {"count": 1},
                                   "seeds": [], "steps": 3, "trials": 2}))
        assert main(["compare", "--config", str(cfg)]) == 3
        assert "seed set" in capsys.readouterr().err

    def test_malformed_config_exits_3(self, p3_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": p3_file, "seeds": [0]}))
        assert main(["compare", "--config", str(cfg)]) == 3
        assert "'budget'" in capsys.readouterr().err
        cfg.write_text(json.dumps({"graph": p3_file, "budget": "1", "beta_range": 5}))
        assert main(["compare", "--config", str(cfg)]) == 3
        assert "'beta_range'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("seeds", "12"), ("seeds", [1.5]), ("beta_range", [0.1]), ("relabel", "no"),
        ("steps", 1.5), ("trials", True), ("master_seed", "7"), ("power", 4.0),
        ("calibration_trials", "4"), ("graph", 7), ("graph_format", 1),
        ("output_csv", 7), ("output_json", ["t.json"]), ("budget", {"count": 1.5}),
        ("budget", {"fraction": "0.5"}),
    ], ids=["seeds-text", "seeds-float", "range-short", "relabel-text", "steps-float",
            "trials-bool", "master-seed-text", "power-float", "calibration-text",
            "graph-int", "format-int", "output-csv-int", "output-json-list",
            "count-float", "fraction-text"])
    def test_ill_typed_config_value_exits_3(self, p3_file, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": p3_file, "budget": "1", "steps": 3, "trials": 2,
                                   key: value}))
        assert main(["compare", "--config", str(cfg)]) == 3
        assert f"{key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        ([], "nonempty list"), ("degree", "nonempty list"), (["degree", "av11", "degree"],
                                                            "names degree more than once"),
    ], ids=["empty", "bare-string", "duplicate"])
    def test_bad_strategy_list_exits_3(self, p3_file, tmp_path, capsys, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": p3_file, "budget": "1", "steps": 3, "trials": 2,
                                   "strategies": value}))
        assert main(["compare", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "'strategies'" in err and message in err

    def test_unknown_config_key_exits_3(self, p3_file, tmp_path, monkeypatch, capsys):
        def run(config):
            raise AssertionError("the comparison ran")

        monkeypatch.setattr(cli, "run_compare", run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": p3_file, "budget": "1", "trails": 3}))
        assert main(["compare", "--config", str(cfg)]) == 3
        assert "unknown key(s) 'trails'" in capsys.readouterr().err

    def test_flags_override_config_fields(self, p3_file, tmp_path, capsys):
        cfg, csv_out, json_out = (tmp_path / name for name in ("cfg.json", "t.csv", "t.json"))
        cfg.write_text(json.dumps({"graph": "ieee118", "budget": "5", "steps": 50,
                                   "power": 3, "calibration_trials": 4}))
        assert main(["compare", "--config", str(cfg), "--graph", p3_file, "--fmt", "edgelist",
                     "--relabel", "--budget", "1", "--strategies", "degree", "av11",
                     "--beta-range", "0.1", "0.2", "--delta-range", "0.3", "0.4",
                     "--steps", "3", "--trials", "2", "--seed", "7", "--power", "4",
                     "--seeds", "0", "--output-csv", str(csv_out),
                     "--output-json", str(json_out)]) == 0
        assert json.loads(json_out.read_text())["config"] == {
            "graph": p3_file, "graph_format": "edgelist", "relabel": True,
            "budget": {"count": 1}, "seeds": [0], "strategies": ["degree", "av11"],
            "beta_range": [0.1, 0.2], "delta_range": [0.3, 0.4], "steps": 3, "trials": 2,
            "master_seed": 7, "power": 4, "calibration_trials": 4,
            "output_csv": str(csv_out), "output_json": str(json_out)}
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "n = 3, budget k = 1, trials = 2, steps = 3, power = 4"

    def test_zero_beta_bounds_rows_by_seed_count(self, tmp_path):
        import networkx as nx

        path = tmp_path / "g.edges"
        nxg = nx.gnp_random_graph(10, 0.4, seed=3)
        path.write_text("".join(f"{u} {v}\n" for u, v in nxg.edges()))
        json_out = tmp_path / "t.json"
        assert main(["compare", "--graph", str(path), "--budget", "2",
                     "--beta-range", "0", "0", "--steps", "8", "--trials", "6",
                     "--seeds", "0", "3", "--output-json", str(json_out)]) == 0
        payload = json.loads(json_out.read_text())
        assert all(row["mean_final_infected"] <= 2 for row in payload["rows"])

    def test_bad_rate_range_exits_3(self, p3_file, capsys):
        assert main(["compare", "--graph", p3_file, "--budget", "1", "--seeds", "0",
                     "--beta-range", "0.9", "0.1"]) == 3


class TestHarnessPieces:
    def test_immunization_skips_seeds(self):
        assert immunization_set([5, 3, 1, 0], 2, seeds={3}) == [5, 1]
        with pytest.raises(ValueError):
            immunization_set([0, 1], 2, seeds={0, 1})

    def test_default_seeds_deterministic(self):
        from netimmune import ieee118_graph

        g = ieee118_graph()
        a = default_seeds(g, 42)
        assert a == default_seeds(g, 42)
        assert len(a) == 6
        assert a != default_seeds(g, 43)

    def test_config_json_roundtrip(self, tmp_path):
        config = ExperimentConfig(graph="ieee118", budget=BudgetSpec.from_fraction(0.16),
                                  seeds=(1, 2), strategies=(Strategy.AV11, Strategy.DEGREE))
        again = ExperimentConfig.from_json_obj(
            json.loads(json.dumps(config.to_json_obj())))
        assert again == config
        # Every field away from its default, so none can be dropped on load.
        everything = ExperimentConfig(
            graph="g.json", budget=BudgetSpec.from_count(3), seeds=(4,), graph_format="json",
            relabel=True, strategies=(Strategy.KCORE,), beta_range=(0.2, 0.3),
            delta_range=(0.3, 0.6), steps=7, trials=9, master_seed=5, power=8,
            calibration_trials=11, output_csv="t.csv", output_json="t.json")
        assert ExperimentConfig.from_json_obj(
            json.loads(json.dumps(everything.to_json_obj()))) == everything

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown key\\(s\\) 'trails', 'seed'"):
            ExperimentConfig.from_json_obj({"graph": "ieee118", "budget": "5", "trails": 3,
                                            "seed": 1})

    @pytest.mark.parametrize("budget", [
        {"count": 3, "fraction": 0.2}, {}, {"count": None, "fraction": None},
        {"count": 3, "share": 0.2},
    ], ids=["both", "empty", "both-null", "extra-key"])
    def test_config_budget_object_holds_one_value(self, budget):
        with pytest.raises(ValueError, match="'budget' rejects .* exactly one of"):
            ExperimentConfig.from_json_obj({"graph": "ieee118", "budget": budget})

    def test_config_budget_null_partner_allowed(self):
        def load(budget):
            return ExperimentConfig.from_json_obj({"graph": "ieee118", "budget": budget}).budget

        assert load({"count": 3, "fraction": None}) == BudgetSpec.from_count(3)
        assert load({"count": None, "fraction": 0.2}) == BudgetSpec.from_fraction(0.2)

    def test_config_rejects_odd_power(self, p3_file, monkeypatch, capsys):
        with pytest.raises(ValueError, match="power must be a positive even integer"):
            ExperimentConfig.from_json_obj({"graph": "ieee118", "budget": "5", "power": 3})

        def run(config):
            raise AssertionError("the comparison ran")

        monkeypatch.setattr(cli, "run_compare", run)
        assert main(["compare", "--graph", p3_file, "--budget", "1", "--power", "3"]) == 3
        assert "power must be a positive even integer" in capsys.readouterr().err

    def test_rows_sorted_ascending_and_pct(self, tmp_path):
        import networkx as nx
        from netimmune import Graph

        nxg = nx.gnp_random_graph(12, 0.35, seed=9)
        path = tmp_path / "g.json"
        g = Graph(12, list(nxg.edges()))
        from netimmune import serialize_graph

        path.write_text(serialize_graph(g, "json"))
        config = ExperimentConfig(graph=str(path), budget=BudgetSpec.from_count(2),
                                  seeds=(0,), steps=10, trials=6)
        table = run_compare(config)
        means = [r.mean_final_infected for r in table.rows]
        assert means == sorted(means)
        for r in table.rows:
            assert r.pct_of_n == pytest.approx(100 * r.mean_final_infected / 12)
            assert r.rank == table.rows.index(r) + 1
            assert not (set(r.immunized) & {0})

    def test_csv_writer_sorted_rows(self, tmp_path):
        import networkx as nx
        from netimmune import Graph, serialize_graph

        nxg = nx.gnp_random_graph(10, 0.4, seed=2)
        path = tmp_path / "g.json"
        path.write_text(serialize_graph(Graph(10, list(nxg.edges())), "json"))
        config = ExperimentConfig(graph=str(path), budget=BudgetSpec.from_count(1),
                                  seeds=(0,), steps=5, trials=4)
        table = run_compare(config)
        buf = io.StringIO()
        write_table_csv(table, buf)
        data_rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")][1:]
        assert [int(r.split(",")[0]) for r in data_rows] == list(range(1, len(data_rows) + 1))
