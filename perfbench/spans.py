"""Timing spans around calls into netimmune's public functions.

Only the traced run installs the wrappers. Each wrapper replaces the module
attribute that the caller looks up at call time (``harness.simulate_sis``,
``strategies.av11_ranking``, ...), so it intercepts exactly that call site;
the originals are put back after every traced pass. Spans stay in memory
and the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

SETUP_PASS = "setup"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str
    counts: dict = field(default_factory=dict)


# Count hooks: (bound arguments, return value, tracer) -> counts for the span.
# Every count is taken from arguments and return values, so it repeats
# exactly for a fixed input.

def _av11_picks(args, result, tracer):
    return {"av11_picks": len(result[0])}


def _av11_order(args, result, tracer):
    tracer.av11_orders[id(result.order)] = result.order
    return {"av11_ranking_picks": len(result.order)}


def _picks_used(args, result, tracer):
    # Picks that immunization_set walked through before it had k nodes.
    order = args["order"]
    if id(order) not in tracer.av11_orders or not result:
        return {}
    return {"av11_picks_used": order.index(result[-1]) + 1}


def _trial_steps(args, result, tracer):
    return {"trial_steps": args["trials"] * args["steps"]}


def _calibration_steps(args, result, tracer):
    protocol = args["protocol"]
    return {"calibration_trial_steps": protocol.trials * protocol.steps}


def _subsets(args, result, tracer):
    return {"subsets": math.comb(args["g"].n, args["k"])}


# (module, attribute, span name, count hook). The attribute is the name the
# caller resolves at call time; one function wrapped at two attributes gets
# one span name, and each call passes through exactly one of them.
PASS_TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "run_compare", "harness.run_compare", None),
    ("cli", "write_outputs", "harness.write_outputs", None),
    ("harness", "ieee118_graph", "graph.ieee118_load", None),
    ("graph", "load_graph", "graph.build", None),
    ("harness", "build_rates", "epidemic.build_rates", None),
    ("harness", "compute_ranking", "strategies.compute_ranking", None),
    ("harness", "immunization_set", "harness.immunization_set", _picks_used),
    ("harness", "simulate_sis", "epidemic.simulate_sis", _trial_steps),
    ("strategies", "av11_ranking", "spectral.av11_ranking", _av11_order),
    ("strategies", "degree_ranking", "graph.degree_ranking", None),
    ("strategies", "closeness_ranking", "centrality.closeness", None),
    ("strategies", "betweenness_ranking", "centrality.betweenness", None),
    ("strategies", "dynamical_importance_ranking", "spectral.dynamical_importance", None),
    ("strategies", "estrada_ranking", "spectral.estrada", None),
    ("strategies", "most_infected_ranking", "epidemic.most_infected", _calibration_steps),
    ("spectral", "av11_select", "spectral.av11_select", _av11_picks),
    ("spectral", "dynamical_importance_ranking", "spectral.dynamical_importance", None),
    ("spectral", "estrada_ranking", "spectral.estrada", None),
    ("centrality", "closeness_ranking", "centrality.closeness", None),
    ("centrality", "betweenness_ranking", "centrality.betweenness", None),
    ("graph", "degree_ranking", "graph.degree_ranking", None),
    ("oracle", "gap_report", "oracle.gap_report", None),
    ("oracle", "optimal_removal", "oracle.optimal_removal", _subsets),
    ("oracle", "av11_select", "spectral.av11_select", _av11_picks),
    ("epidemic", "build_rates", "epidemic.build_rates", None),
    ("epidemic", "modified_matrix", "epidemic.modified_matrix", None),
    ("epidemic", "threshold_lambda", "epidemic.threshold_lambda", None),
    ("epidemic", "simulate_sis", "epidemic.simulate_sis", _trial_steps),
    ("epidemic", "most_infected_ranking", "epidemic.most_infected", _calibration_steps),
)

# Graph construction from the seeded edge lists happens once, in set-up.
SETUP_TARGETS = (("graph", "Graph", "graph.build", None),)


class Tracer:
    """Records spans with name, start, end, parent span and pass id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = SETUP_PASS
        self.av11_orders: dict[int, tuple] = {}
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    def begin_pass(self, pass_id: str) -> None:
        self.pass_id = pass_id
        self.av11_orders = {}

    def wrap(self, fn, name: str, hook=None):
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self.pass_id))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx].start, self.spans[idx].end = start, end
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx].counts = hook(bound.arguments, result, self)
            return result

        return traced

    @contextmanager
    def installed(self, modules, targets):
        """Replace each target attribute by its traced wrapper, then restore it."""
        saved = []
        try:
            for mod_name, attr, name, hook in targets:
                mod = getattr(modules, mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, name, hook))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def to_json_obj(self) -> list[dict]:
        out = []
        for s in self.spans:
            d = asdict(s)
            d["start"] -= self.t0
            d["end"] -= self.t0
            out.append(d)
        return out


@dataclass
class PassTable:
    """Per-span-name totals for one pass."""

    dur: defaultdict = field(default_factory=lambda: defaultdict(float))
    self_time: defaultdict = field(default_factory=lambda: defaultdict(float))
    calls: defaultdict = field(default_factory=lambda: defaultdict(int))
    counts: defaultdict = field(default_factory=lambda: defaultdict(int))


def pass_tables(spans: list[Span]) -> dict[str, PassTable]:
    """Group spans by pass; self time is a span's duration minus its children's."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    tables: dict[str, PassTable] = defaultdict(PassTable)
    for i, s in enumerate(spans):
        t = tables[s.pass_id]
        t.dur[s.name] += s.end - s.start
        t.self_time[s.name] += s.end - s.start - child[i]
        t.calls[s.name] += 1
        for key, value in s.counts.items():
            t.counts[key] += value
    return tables


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def layer_values(t: PassTable) -> dict[str, float]:
    """Per-layer metrics of one traced pass. A layer the pass never reaches reads 0."""
    d, c, n = t.dur, t.calls, t.counts

    def self_of(prefix: str) -> float:
        return sum(v for k, v in t.self_time.items() if k.startswith(prefix))

    return {
        "epidemic.simulate_sis_s": d["epidemic.simulate_sis"],
        "epidemic.trial_steps_per_s": _ratio(n["trial_steps"], d["epidemic.simulate_sis"]),
        "epidemic.simulate_sis_calls": c["epidemic.simulate_sis"],
        "epidemic.trial_steps": n["trial_steps"],
        "epidemic.most_infected_s": d["epidemic.most_infected"],
        "epidemic.calibration_trial_steps": n["calibration_trial_steps"],
        "epidemic.build_rates_s": d["epidemic.build_rates"],
        "epidemic.modified_matrix_s": d["epidemic.modified_matrix"],
        "epidemic.threshold_lambda_s": d["epidemic.threshold_lambda"],
        "spectral.av11_ranking_s": d["spectral.av11_ranking"],
        "spectral.av11_picks": n["av11_picks"],
        "spectral.av11_pick_use_ratio": _ratio(n["av11_picks_used"], n["av11_ranking_picks"]),
        "spectral.av11_select_s": d["spectral.av11_select"],
        "spectral.dynamical_importance_s": d["spectral.dynamical_importance"],
        "spectral.estrada_s": d["spectral.estrada"],
        "centrality.closeness_s": d["centrality.closeness"],
        "centrality.betweenness_s": d["centrality.betweenness"],
        "oracle.gap_report_s": d["oracle.gap_report"],
        "oracle.optimal_removal_s": d["oracle.optimal_removal"],
        "oracle.subsets": n["subsets"],
        "oracle.subsets_per_s": _ratio(n["subsets"], d["oracle.optimal_removal"]),
        "oracle.self_s": self_of("oracle."),
        "graph.ieee118_load_s": d["graph.ieee118_load"],
        "graph.build_s": d["graph.build"],
        "graph.degree_ranking_s": d["graph.degree_ranking"],
        "strategies.compute_ranking_s": d["strategies.compute_ranking"],
        "strategies.compute_ranking_calls": c["strategies.compute_ranking"],
        "harness.run_compare_s": d["harness.run_compare"],
        "harness.self_s": self_of("harness."),
        "harness.write_outputs_s": d["harness.write_outputs"],
        "cli.main_s": d["cli.main"],
        "cli.self_s": self_of("cli."),
    }


def layer_metrics(spans: list[Span], traced_ids: list[str]) -> dict[str, float]:
    """Median over traced passes of each per-layer value.

    ``graph.build_s`` also counts the graphs built once in set-up, so it
    reads as graph-construction time per pass on every workload.
    """
    tables = pass_tables(spans)
    per_pass = [layer_values(tables[p]) for p in traced_ids]
    metrics = {}
    for name in per_pass[0]:
        values = [v[name] for v in per_pass]
        # Counts stay whole numbers; they repeat exactly across passes.
        pick = statistics.median_low if all(isinstance(x, int) for x in values) else statistics.median
        metrics[name] = pick(values)
    metrics["graph.build_s"] += tables[SETUP_PASS].dur["graph.build"]
    return metrics


def self_time_check(spans: list[Span], traced_walls: dict[str, float]) -> list[dict]:
    """Per traced pass: the sum of all span self times next to the pass's wall time."""
    tables = pass_tables(spans)
    return [{"pass": p, "self_sum_s": sum(tables[p].self_time.values()), "wall_s": wall}
            for p, wall in traced_walls.items()]
