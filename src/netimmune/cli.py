"""Command-line front end: rank, compare, threshold, simulate, oracle.

Exit codes: 0 success, 2 usage errors (argparse), 3 validation or guard
failures (bad ranges, budget too large, enumeration guard, parse errors).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from ._version import __version__
from .epidemic import (
    SimulationProtocol,
    _threshold_verdict,
    build_rates,
    modified_matrix,
    simulate_sis,
    threshold_bracket,
)
from .graph import GraphFormat, GraphFormatError, Strategy
from .harness import (
    ExperimentConfig,
    default_seeds,
    rate_seed_for,
    resolve_graph,
    run_compare,
    write_outputs,
)
from .oracle import gap_report, removal_table, write_enumeration_csv
from .spectral import DEFAULT_POWER, spectrum
from .strategies import compute_ranking

_FORMAT_NAMES = [f.value for f in GraphFormat]
_STRATEGY_NAMES = [s.value for s in Strategy]
_POWER_HELP = f"even power p of AV11's (Z A Z + d I)^p (default {DEFAULT_POWER})"


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True,
                   help='graph file path, or "ieee118" for the bundled IEEE 118-bus case')
    p.add_argument("--fmt", choices=_FORMAT_NAMES, default=None,
                   help="graph format (default: inferred from suffix)")
    p.add_argument("--relabel", action="store_true",
                   help="remap non-contiguous integer ids to 0..n-1")


def _add_rate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta-range", nargs=2, type=float, default=ExperimentConfig.beta_range,
                   metavar=("LO", "HI"), help="uniform range for infection rates")
    p.add_argument("--delta-range", nargs=2, type=float, default=ExperimentConfig.delta_range,
                   metavar=("LO", "HI"), help="uniform range for cure rates")
    p.add_argument("--seed", type=int, default=ExperimentConfig.master_seed,
                   help="master RNG seed")


def cmd_rank(args) -> int:
    g = resolve_graph(args.graph, args.fmt, args.relabel)
    rates = protocol = None
    if Strategy(args.strategy) is Strategy.MOST_INFECTED:
        rates = build_rates(g, args.beta_range, args.delta_range, rate_seed_for(args.seed))
        seeds = tuple(args.seeds) if args.seeds else None
        protocol = SimulationProtocol(seeds=seeds, steps=args.steps,
                                      trials=args.trials, master_seed=args.seed)
    if Strategy(args.strategy) is Strategy.AV11:
        print(f"power = {args.power}", file=sys.stderr)
    ranking = compute_ranking(args.strategy, g, power=args.power,
                              rates=rates, protocol=protocol)
    if args.format == "json":
        text = json.dumps(ranking.to_json_obj(), indent=2) + "\n"
    elif args.format == "csv":
        lines = ["node,score"]
        lines += [f"{node},{ranking.scores[node]:g}" for node in ranking.order]
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(f"{node} {ranking.scores[node]:g}\n" for node in ranking.order)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_compare(args) -> int:
    if args.graph is None and args.config is None:
        raise ValueError("no graph given (use --graph or a config file)")
    obj = {"budget": "16%"}
    if args.config:
        obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
    # Flags replace the file's values before any is checked, so a flag can
    # stand in for a bad one; from_json_obj rejects a file that is no object.
    if isinstance(obj, dict):
        for f in fields(ExperimentConfig):
            if getattr(args, f.name, None) is not None:
                obj[f.name] = getattr(args, f.name)
    config = ExperimentConfig.from_json_obj(obj)

    table = run_compare(config)
    print(f"n = {table.n}, budget k = {table.budget_k}, "
          f"trials = {config.trials}, steps = {config.steps}, power = {config.power}")
    print(f"{'rank':>4}  {'strategy':<22}{'mean':>10}{'std':>10}{'pct':>9}")
    for r in table.rows:
        print(f"{r.rank:>4}  {r.strategy.value:<22}{r.mean_final_infected:>10.3f}"
              f"{r.std_final_infected:>10.3f}{r.pct_of_n:>8.2f}%")
    for path in write_outputs(table):
        print(f"wrote {path}")
    return 0


def cmd_threshold(args) -> int:
    g = resolve_graph(args.graph, args.fmt, args.relabel)
    rates = build_rates(g, args.beta_range, args.delta_range, rate_seed_for(args.seed))
    m = modified_matrix(g, rates)
    lo, hi = threshold_bracket(m)
    lam_m, spreads = _threshold_verdict(lo, hi)
    lam_1 = spectrum(g).lambda_1
    print(f"lambda_M = {lam_m:.6f} ({'above' if spreads else 'below'} threshold)")
    print(f"lambda_M in [{lo!r}, {hi!r}]")
    print(f"spreads = {spreads}")
    print(f"lambda_1(A) = {lam_1:.6f}")
    return 0


def cmd_simulate(args) -> int:
    g = resolve_graph(args.graph, args.fmt, args.relabel)
    rates = build_rates(g, args.beta_range, args.delta_range, rate_seed_for(args.seed))
    seeds = tuple(args.seeds) if args.seeds else default_seeds(g, args.seed)
    immunized = tuple(args.immunized or ())
    outcomes = simulate_sis(g, rates, seeds, immunized, args.steps, args.trials, args.seed)
    finals = np.array([o.infected_counts[-1] for o in outcomes])
    print(f"trials = {len(outcomes)}, steps = {args.steps}, "
          f"seeds = {sorted(seeds)}, immunized = {sorted(immunized)}")
    print(f"mean final infected = {finals.mean():.3f} "
          f"({100.0 * finals.mean() / g.n:.2f}% of n = {g.n})")
    if args.output:
        payload = {
            "version": __version__,
            "graph": args.graph,
            "rates": rates.to_json_obj(),
            "outcomes": [o.to_json_obj() for o in outcomes],
        }
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"wrote {args.output}")
    return 0


def cmd_oracle(args) -> int:
    g = resolve_graph(args.graph, args.fmt, args.relabel)
    report = gap_report(g, args.k, power=args.power)
    print(f"separation floor lambda_{args.k + 1} = {report.floor_raw:.6f} "
          f"(clamped {report.floor_clamped:.6f})")
    print(f"optimal residual lambda_1 = {report.optimal_lambda1:.6f} "
          f"set = {list(report.optimal_set)}")
    print(f"av11 residual lambda_1 = {report.av11_lambda1:.6f} "
          f"set = {list(report.av11_set)}")
    if args.table:
        with open(args.table, "w", encoding="utf-8", newline="") as f:
            write_enumeration_csv(removal_table(g, args.k), f)
        print(f"wrote {args.table}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netimmune",
        description="Budgeted node immunization and SIS spreading analysis")
    parser.add_argument("--version", action="version", version=f"netimmune {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank nodes by one strategy")
    _add_graph_args(p)
    p.add_argument("--strategy", required=True, choices=_STRATEGY_NAMES)
    p.add_argument("--power", type=int, default=DEFAULT_POWER, help=_POWER_HELP)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--output", default=None, help="write instead of stdout")
    _add_rate_args(p)
    p.add_argument("--seeds", nargs="+", type=int, default=None,
                   help="initial infected nodes (most-infected calibration)")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_rank)

    # Each flag below --config stores to the ExperimentConfig field of the
    # same name and overrides the config file's value when given.
    p = sub.add_parser("compare", help="run the full immunization comparison protocol")
    p.add_argument("--config", default=None, help="JSON experiment config")
    p.add_argument("--graph", default=None,
                   help='graph file path or "ieee118" (overrides config)')
    p.add_argument("--fmt", choices=_FORMAT_NAMES, default=None, dest="graph_format")
    p.add_argument("--relabel", action="store_true", default=None)
    p.add_argument("--budget", default=None, help='nodes to immunize: "19", "16%%" or "0.16"')
    p.add_argument("--strategies", nargs="+", choices=_STRATEGY_NAMES, default=None)
    p.add_argument("--beta-range", nargs=2, type=float, default=None, metavar=("LO", "HI"))
    p.add_argument("--delta-range", nargs=2, type=float, default=None, metavar=("LO", "HI"))
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, dest="master_seed",
                   help="master RNG seed")
    p.add_argument("--power", type=int, default=None, help=_POWER_HELP)
    p.add_argument("--seeds", nargs="+", type=int, default=None,
                   help="initial infected nodes (excluded from immunization)")
    p.add_argument("--output-csv", default=None)
    p.add_argument("--output-json", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("threshold", help="spectral threshold diagnostic")
    _add_graph_args(p)
    _add_rate_args(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("simulate", help="Monte-Carlo SIS under a fixed immunization set")
    _add_graph_args(p)
    _add_rate_args(p)
    p.add_argument("--seeds", nargs="+", type=int, default=None,
                   help="initial infected nodes (default: about 5%% of the nodes, "
                        "drawn from --seed)")
    p.add_argument("--immunized", nargs="+", type=int, default=None)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--output", default=None, help="write full traces as JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="exact optimal removal vs the greedy selection")
    _add_graph_args(p)
    p.add_argument("-k", type=int, required=True, help="number of nodes to remove")
    p.add_argument("--power", type=int, default=DEFAULT_POWER, help=_POWER_HELP)
    p.add_argument("--table", default=None, help="write the full enumeration table as CSV")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # ValueError also covers np.linalg.LinAlgError; ArithmeticError covers
    # OverflowError and FloatingPointError.
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, GraphFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # a last resort for sizes that no check rejects first
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
