"""Comparison-protocol harness: config, paired simulation runs, table output.

For each strategy the top-k ranked nodes (skipping infection seeds) are
immunized and the same Monte-Carlo trials are replayed under common random
numbers, so differences between rows reflect the immunization sets rather
than sampling noise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import IO

import numpy as np

from ._version import __version__
# simulate_sis is not called here; it stays importable as harness.simulate_sis,
# the attribute perfbench's tracing wrappers patch.
from .epidemic import (  # noqa: F401
    SimulationProtocol,
    build_rates,
    simulate_sis,
    simulate_sis_paired,
)
from .graph import (
    DEFAULT_COMPARISON_STRATEGIES,
    BudgetSpec,
    Graph,
    Strategy,
    _is_int,
    _json_obj,
    _node_ids,
    ieee118_graph,
    load_graph_path,
)
from .spectral import DEFAULT_POWER, _check_power
from .strategies import compute_ranking

# Spawn-key prefixes for drawing the rate model / default seed set out of
# the master seed without touching the trial streams.
_RATE_STREAM = 7919
_SEED_STREAM = 5077


def _budget_spec(value) -> BudgetSpec:
    """A budget as text ("19", "16%", "0.16") or as {"count": k} or {"fraction": f}."""
    if isinstance(value, str):
        return BudgetSpec.parse(value)
    if isinstance(value, dict) and value.keys() <= {"count", "fraction"}:
        count, fraction = value.get("count"), value.get("fraction")
        if fraction is None and count is not None:
            return BudgetSpec.from_count(_int(count))
        if count is None and _is_number(fraction):
            return BudgetSpec.from_fraction(fraction)
    raise ValueError('budget must be text or an object with exactly one of integer '
                     '"count" and numeric "fraction"')


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _int(value) -> int:
    if not _is_int(value):
        raise ValueError("must be an integer")
    return value


def _seeds(value) -> tuple[int, ...]:
    if not (isinstance(value, list) and all(_is_int(v) for v in value)):
        raise ValueError("must be a list of integers")
    return tuple(value)


def _range(value) -> tuple[float, float]:
    """A [lo, hi] pair, kept as given so integer ends hash as they always have."""
    if not (isinstance(value, list) and len(value) == 2
            and all(_is_number(v) for v in value)):
        raise ValueError("must be a list of two numbers")
    return tuple(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError("must be a string")
    return value


def _strategies(value) -> tuple[Strategy, ...]:
    if not (isinstance(value, list) and value):
        raise ValueError("must be a nonempty list of strategy names")
    strategies = tuple(Strategy(name) for name in value)
    repeated = sorted({s.value for s in strategies if strategies.count(s) > 1})
    if repeated:
        raise ValueError(f"names {', '.join(repeated)} more than once")
    return strategies


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _key(read, default=MISSING, *, hashed: bool = True):
    """An ExperimentConfig field read from JSON by ``read``; with no default, a required key."""
    return field(default=default, metadata={"read": read, "hashed": hashed})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Fully describes one comparison run; JSON round-trips losslessly.

    The JSON form lists the fields in declaration order.
    """

    graph: str = _key(_text)
    graph_format: str | None = _key(_text, None)
    relabel: bool = _key(_flag, False)
    budget: BudgetSpec = _key(_budget_spec)
    seeds: tuple[int, ...] | None = _key(_seeds, None)
    strategies: tuple[Strategy, ...] = _key(_strategies, DEFAULT_COMPARISON_STRATEGIES)
    beta_range: tuple[float, float] = _key(_range, (0.1, 0.4))
    delta_range: tuple[float, float] = _key(_range, (0.2, 0.5))
    steps: int = _key(_int, 200)
    trials: int = _key(_int, 200)
    master_seed: int = _key(_int, 42)
    power: int = _key(_check_power, DEFAULT_POWER)
    calibration_trials: int = _key(_int, 100)
    output_csv: str | None = _key(_text, None, hashed=False)
    output_json: str | None = _key(_text, None, hashed=False)

    def to_json_obj(self) -> dict:
        return _json_obj(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; absent or null optional keys take the defaults."""
        if not isinstance(obj, dict):
            raise ValueError("experiment config must be a JSON object")
        names = {f.name for f in fields(cls)}
        unknown = [key for key in obj if key not in names]
        if unknown:
            raise ValueError(f"experiment config has unknown key(s) "
                             f"{', '.join(map(repr, unknown))}")
        for f in fields(cls):
            if f.default is MISSING and obj.get(f.name) is None:
                raise ValueError(f"experiment config is missing the required key {f.name!r}")
        kwargs = {}
        for f in fields(cls):
            if obj.get(f.name) is not None:
                try:
                    kwargs[f.name] = f.metadata["read"](obj[f.name])
                except (TypeError, ValueError) as e:
                    raise ValueError(f"experiment config key {f.name!r} rejects "
                                     f"{obj[f.name]!r}: {e}") from None
        return cls(**kwargs)

    def config_sha256(self) -> str:
        """Digest of the parameters: every field but those marked ``hashed=False`` (the outputs)."""
        skip = {f.name for f in fields(self) if not f.metadata["hashed"]}
        obj = {k: v for k, v in self.to_json_obj().items() if k not in skip}
        canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def resolve_graph(graph: str, fmt: str | None = None, relabel: bool = False) -> Graph:
    """Load ``graph``: a file path, or "ieee118" for the bundled IEEE 118-bus case."""
    if graph == "ieee118":
        return ieee118_graph()
    return load_graph_path(graph, fmt, relabel=relabel)


def default_seeds(g: Graph, master_seed: int) -> tuple[int, ...]:
    """Default infection sources: ~5% of nodes drawn deterministically.

    Cascades are initiated from several points spread over the network; a
    single source makes the comparison degenerate (any ranking that happens
    to cover that one neighborhood quarantines the infection outright).
    """
    count = max(1, round(0.05 * g.n))
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(_SEED_STREAM,)))
    return tuple(sorted(int(x) for x in rng.choice(g.n, size=count, replace=False)))


@dataclass(frozen=True)
class StrategyResult:
    rank: int
    strategy: Strategy
    immunized: tuple[int, ...]
    mean_final_infected: float
    std_final_infected: float
    pct_of_n: float
    final_counts: tuple[int, ...]
    mean_trajectory: tuple[float, ...]


@dataclass(frozen=True)
class ComparisonTable:
    """Per-strategy aggregate rows, sorted ascending by mean final infected."""

    config: ExperimentConfig
    n: int
    budget_k: int
    rows: tuple[StrategyResult, ...]

    def row(self, strategy: Strategy | str) -> StrategyResult:
        strategy = Strategy(strategy)
        for r in self.rows:
            if r.strategy is strategy:
                return r
        raise KeyError(strategy)


def immunization_set(order, k: int, seeds) -> list[int]:
    """First k ranked nodes, skipping infection seeds."""
    seed_set = set(seeds)
    chosen = [v for v in order if v not in seed_set][:k]
    if len(chosen) < k:
        raise ValueError(f"ranking exhausted before {k} non-seed nodes were found")
    return chosen


def rate_seed_for(master_seed: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(_RATE_STREAM,))
    return int(ss.generate_state(1)[0])


def run_compare(config: ExperimentConfig) -> ComparisonTable:
    """Execute the full comparison protocol for every configured strategy."""
    g = resolve_graph(config.graph, config.graph_format, config.relabel)
    k = config.budget.resolve(g.n)
    given = config.seeds if config.seeds is not None else default_seeds(g, config.master_seed)
    seeds = _node_ids(given, g.n, "seed node")
    if not seeds:
        raise ValueError("seed set must not be empty")
    if k > g.n - len(seeds):
        raise ValueError(f"budget {k} exceeds the {g.n - len(seeds)} non-seed nodes")
    # Recorded as given: config_sha256 hashes the seeds in this order.
    resolved = replace(config, seeds=tuple(given))

    rates = build_rates(g, config.beta_range, config.delta_range,
                        rate_seed_for(config.master_seed))
    # Rotating-seed calibration: most-infected scores generic spreading
    # propensity, not familiarity with this run's particular seed set.
    protocol = SimulationProtocol(seeds=None, steps=config.steps,
                                  trials=config.calibration_trials,
                                  master_seed=config.master_seed)

    immunized_sets = [
        immunization_set(compute_ranking(strategy, g, power=config.power, rates=rates,
                                         protocol=protocol).order, k, seeds)
        for strategy in config.strategies
    ]
    finals, totals = simulate_sis_paired(g, rates, seeds, immunized_sets, config.steps,
                                         config.trials, config.master_seed)
    raw_rows = list(zip(config.strategies, immunized_sets, finals, totals / config.trials))

    raw_rows.sort(key=lambda r: (float(np.mean(r[2])), r[0].value))
    rows = []
    for pos, (strategy, immunized, finals, traj) in enumerate(raw_rows, start=1):
        mean = float(np.mean(finals))
        rows.append(StrategyResult(
            strategy=strategy,
            immunized=tuple(immunized),
            mean_final_infected=mean,
            std_final_infected=float(np.std(finals)),
            pct_of_n=100.0 * mean / g.n,
            rank=pos,
            final_counts=tuple(int(x) for x in finals),
            mean_trajectory=tuple(float(x) for x in traj),
        ))
    return ComparisonTable(rows=tuple(rows), config=resolved, n=g.n, budget_k=k)


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def write_table_csv(table: ComparisonTable, out: IO[str]) -> None:
    out.write(f"# netimmune {__version__}\n")
    out.write(f"# config_sha256 {table.config.config_sha256()}\n")
    out.write("rank,strategy,mean_final_infected,std_final_infected,pct_of_n,immunized\n")
    for r in table.rows:
        immunized = " ".join(map(str, r.immunized))
        out.write(f"{r.rank},{r.strategy.value},{r.mean_final_infected!r},"
                  f"{r.std_final_infected!r},{r.pct_of_n!r},{immunized}\n")


def table_json_obj(table: ComparisonTable) -> dict:
    return {"version": __version__, "config_sha256": table.config.config_sha256(),
            **_json_obj(table)}


def write_outputs(table: ComparisonTable) -> list[str]:
    """Write the configured CSV/JSON outputs; returns the paths written."""
    written = []
    cfg = table.config
    if cfg.output_csv:
        with open(cfg.output_csv, "w", encoding="utf-8", newline="") as f:
            write_table_csv(table, f)
        written.append(cfg.output_csv)
    if cfg.output_json:
        with open(cfg.output_json, "w", encoding="utf-8") as f:
            json.dump(table_json_obj(table), f, indent=2)
            f.write("\n")
        written.append(cfg.output_json)
    return written
