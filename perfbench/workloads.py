"""The four seeded workloads: inputs, one pass each, output checks and digests.

Every graph, rate model and seed set is generated here from the workload
seed; the package only receives the generated inputs. Each public call the
benchmark makes is one operation. It fails if it raises or if its output
check finds a problem.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import networkx as nx
import numpy as np

BETA_RANGE = (0.1, 0.4)
DELTA_RANGE = (0.2, 0.5)


class PassAborted(Exception):
    """An operation raised, so the rest of the pass cannot run."""


class Ops:
    """Counts the operations of one pass and the ones that failed."""

    def __init__(self, per_pass: int):
        self.per_pass = per_pass
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, check=None, **kwargs):
        self.attempted += 1
        name = getattr(fn, "__name__", repr(fn))
        try:
            result = fn(*args, **kwargs)
        except Exception as e:  # a failed operation is counted, not fatal
            self.failed += self.per_pass - self.attempted + 1
            self.attempted = self.per_pass
            self.errors.append(f"{name} raised {type(e).__name__}: {e}")
            raise PassAborted from e
        problem = check(result) if check is not None else None
        if problem:
            self.failed += 1
            self.errors.append(f"{name}: {problem}")
        return result


def sub_seeds(seed: int, count: int) -> list[int]:
    """Independent generator seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def build_graph(ni, nxg):
    return ni.graph.Graph(nxg.number_of_nodes(), [(int(u), int(v)) for u, v in nxg.edges()])


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def check_permutation(n: int):
    def check(ranking):
        if sorted(ranking.order) != list(range(n)):
            return f"{ranking.strategy.value} order is not a permutation of 0..{n - 1}"
        return None
    return check


def ranking_obj(r) -> dict:
    return {"order": list(r.order), "scores": [repr(s) for s in r.scores]}


class IeeeCompare:
    """The paper's protocol on IEEE 118 through the CLI: 7 strategies, 200 x 200 trials."""

    name = "ieee118-compare"
    ops_per_pass = 1
    SIZES = {"full": [], "toy": ["--steps", "20", "--trials", "10", "--power", "2"]}

    def __init__(self, ni, seed: int, size: str, out_dir: Path):
        self.ni = ni
        self.csv = out_dir / f"{self.name}.csv"
        self.json = out_dir / f"{self.name}.json"
        self.argv = ["compare", "--graph", "ieee118", "--budget", "16%", "--seed", str(seed),
                     "--output-csv", str(self.csv), "--output-json", str(self.json),
                     *self.SIZES[size]]
        self.first_csv: bytes | None = None

    def setup(self) -> None:
        self.csv.parent.mkdir(parents=True, exist_ok=True)

    def check(self, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        csv_bytes = self.csv.read_bytes()
        if self.first_csv is None:
            self.first_csv = csv_bytes
        elif csv_bytes != self.first_csv:
            return "CSV differs from the first pass"
        table = json.loads(self.json.read_text())
        n, k = table["n"], table["budget_k"]
        seeds = set(table["config"]["seeds"])
        means = [row["mean_final_infected"] for row in table["rows"]]
        if means != sorted(means):
            return "rows are not sorted by mean final infected"
        for row in table["rows"]:
            imm = row["immunized"]
            if len(set(imm)) != k or seeds & set(imm) or not all(0 <= i < n for i in imm):
                return f"{row['strategy']}: immunized set is not k={k} distinct non-seed nodes"
            if not all(0 <= c <= n for c in row["final_counts"]):
                return f"{row['strategy']}: final count outside [0, {n}]"
        return None

    def run_pass(self, ops: Ops) -> str:
        with contextlib.redirect_stdout(io.StringIO()):
            ops.call(self.ni.cli.main, self.argv, check=self.check)
        return hashlib.sha256(self.csv.read_bytes() + self.json.read_bytes()).hexdigest()


class BaRank:
    """Graph-only selection on BA(400, 3): AV11 k=64 and five rankers, no simulation."""

    name = "ba-rank"
    ops_per_pass = 6
    SIZES = {"full": (400, 64), "toy": (40, 8)}

    def __init__(self, ni, seed: int, size: str, out_dir: Path):
        self.ni = ni
        self.seed = seed
        self.n, self.power = self.SIZES[size]
        self.k = math.ceil(0.16 * self.n)

    def setup(self) -> None:
        (s,) = sub_seeds(self.seed, 1)
        self.g = build_graph(self.ni, nx.barabasi_albert_graph(self.n, 3, seed=s))

    def check_selection(self, result) -> str | None:
        selected, lam = result
        if len(set(selected)) != self.k or not all(0 <= i < self.n for i in selected):
            return f"av11_select did not return {self.k} distinct nodes"
        if not math.isfinite(lam):
            return "residual lambda_1 is not finite"
        return None

    def run_pass(self, ops: Ops) -> str:
        ni, g = self.ni, self.g
        selected, lam = ops.call(ni.spectral.av11_select, g, self.k, power=self.power,
                                 check=self.check_selection)
        perm = check_permutation(g.n)
        rankings = [
            ops.call(ni.spectral.dynamical_importance_ranking, g, check=perm),
            ops.call(ni.spectral.estrada_ranking, g, check=perm),
            ops.call(ni.centrality.closeness_ranking, g, check=perm),
            ops.call(ni.centrality.betweenness_ranking, g, check=perm),
            ops.call(ni.graph.degree_ranking, g, check=perm),
        ]
        return digest({"av11": [selected, repr(lam)],
                       "rankings": {r.strategy.value: ranking_obj(r) for r in rankings}})


class OracleGap:
    """Exhaustive k=4 oracle against AV11 on three n=30 graphs: 3 x C(30, 4) subsets."""

    name = "oracle-gap"
    ops_per_pass = 3
    SIZES = {"full": (30, 4, 64), "toy": (10, 2, 8)}

    def __init__(self, ni, seed: int, size: str, out_dir: Path):
        self.ni = ni
        self.seed = seed
        self.n, self.k, self.power = self.SIZES[size]

    def setup(self) -> None:
        n = self.n
        s = sub_seeds(self.seed, 3)
        self.graphs = [build_graph(self.ni, nxg) for nxg in (
            nx.barabasi_albert_graph(n, 2, seed=s[0]),
            nx.gnm_random_graph(n, 2 * n, seed=s[1]),
            nx.watts_strogatz_graph(n, 4, 0.2, seed=s[2]),
        )]

    @staticmethod
    def check(report) -> str | None:
        # Same round-off allowance as the package's own chain tests.
        if not report.floor_clamped - 1e-9 <= report.optimal_lambda1 <= report.av11_lambda1 + 1e-9:
            return (f"floor {report.floor_clamped} <= optimal {report.optimal_lambda1} "
                    f"<= av11 {report.av11_lambda1} does not hold")
        return None

    def run_pass(self, ops: Ops) -> str:
        reports = [ops.call(self.ni.oracle.gap_report, g, self.k, power=self.power,
                            check=self.check) for g in self.graphs]
        return digest([r.to_json_obj() for r in reports])


class BaThresholdSis:
    """Few trials on a large sparse graph: BA(1000, 3), threshold, 20 SIS + 20 calibration trials.

    40 + 40 trials took 7.2 s a pass with one BLAS thread, too long for
    several passes in one run; 20 + 20 takes about 3.9 s.
    """

    name = "ba-threshold-sis"
    ops_per_pass = 5
    SIZES = {"full": (1000, 20, 200), "toy": (60, 4, 20)}

    def __init__(self, ni, seed: int, size: str, out_dir: Path):
        self.ni = ni
        self.seed = seed
        self.n, self.trials, self.steps = self.SIZES[size]

    def setup(self) -> None:
        graph_seed, self.rate_seed = sub_seeds(self.seed, 2)
        self.g = build_graph(self.ni, nx.barabasi_albert_graph(self.n, 3, seed=graph_seed))
        self.seeds = self.ni.harness.default_seeds(self.g, self.seed)
        self.protocol = self.ni.epidemic.SimulationProtocol(
            seeds=None, steps=self.steps, trials=self.trials, master_seed=self.seed)

    def check_rates(self, rates) -> str | None:
        if len(rates.beta) != 2 * self.g.edge_count or len(rates.delta) != self.n:
            return "rate model does not cover every directed edge and node"
        return None

    def check_matrix(self, m) -> str | None:
        return None if m.matrix.shape == (self.n, self.n) else f"shape {m.matrix.shape}"

    def check_threshold(self, result) -> str | None:
        lam_m, spreads = result
        floor = 1.0 - DELTA_RANGE[1]
        if not (math.isfinite(lam_m) and lam_m >= floor and spreads == (lam_m >= 1.0)):
            return f"lambda_M = {lam_m}, spreads = {spreads} is inconsistent"
        return None

    def check_outcomes(self, outcomes) -> str | None:
        if len(outcomes) != self.trials:
            return f"{len(outcomes)} outcomes for {self.trials} trials"
        for o in outcomes:
            if len(o.infected_counts) != self.steps + 1:
                return f"trial {o.trial_index} has {len(o.infected_counts)} counts"
            if not all(0 <= c <= self.n for c in o.infected_counts):
                return f"trial {o.trial_index} count outside [0, {self.n}]"
            if o.infected_counts[-1] != len(o.final_infected):
                return f"trial {o.trial_index} final count disagrees with its final set"
        return None

    def run_pass(self, ops: Ops) -> str:
        ep, g = self.ni.epidemic, self.g
        rates = ops.call(ep.build_rates, g, BETA_RANGE, DELTA_RANGE, self.rate_seed,
                         check=self.check_rates)
        m = ops.call(ep.modified_matrix, g, rates, check=self.check_matrix)
        lam_m, spreads = ops.call(ep.threshold_lambda, m, check=self.check_threshold)
        outcomes = ops.call(ep.simulate_sis, g, rates, self.seeds, (), self.steps,
                            self.trials, self.seed, check=self.check_outcomes)
        ranking = ops.call(ep.most_infected_ranking, g, rates, self.protocol,
                           check=check_permutation(g.n))
        return digest({
            "matrix": hashlib.sha256(m.matrix.tobytes()).hexdigest(),
            "lambda_m": repr(lam_m),
            "spreads": spreads,
            "counts": [list(o.infected_counts) for o in outcomes],
            "most_infected": ranking_obj(ranking),
        })


WORKLOADS = {w.name: w for w in (IeeeCompare, BaRank, OracleGap, BaThresholdSis)}
