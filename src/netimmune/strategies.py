"""Single dispatch point mapping a Strategy to its ranking computation."""

from __future__ import annotations

from .centrality import betweenness_ranking, closeness_ranking
from .epidemic import RateModel, SimulationProtocol, most_infected_ranking
from .graph import Graph, Ranking, Strategy, degree_ranking, kcore_ranking
from .spectral import (
    DEFAULT_POWER,
    av11_ranking,
    dynamical_importance_ranking,
    estrada_ranking,
)


def _most_infected(g: Graph, *, rates, protocol, **_) -> Ranking:
    if rates is None or protocol is None:
        raise ValueError("most-infected ranking needs a rate model and a protocol")
    return most_infected_ranking(g, rates, protocol)


# Each entry looks its ranker up by module-global name at call time, so a
# module attribute replaced later (a timing wrapper, say) is the one called.
_RANKERS = {
    Strategy.AV11: lambda g, **kw: av11_ranking(g, power=kw["power"]),
    Strategy.DEGREE: lambda g, **_: degree_ranking(g),
    Strategy.CLOSENESS: lambda g, **_: closeness_ranking(g),
    Strategy.BETWEENNESS: lambda g, **_: betweenness_ranking(g),
    Strategy.DYNAMICAL_IMPORTANCE: lambda g, **_: dynamical_importance_ranking(g),
    Strategy.ESTRADA_INDEX: lambda g, **_: estrada_ranking(g),
    Strategy.KCORE: lambda g, **_: kcore_ranking(g),
    Strategy.MOST_INFECTED: _most_infected,
}


def compute_ranking(strategy: Strategy | str, g: Graph, *,
                    power: int = DEFAULT_POWER,
                    rates: RateModel | None = None,
                    protocol: SimulationProtocol | None = None) -> Ranking:
    """Compute a full node ranking for any implemented strategy.

    ``most-infected`` is the only strategy that needs rates and a simulation
    protocol; the rest are pure functions of the graph (AV11 also takes the
    matrix power).
    """
    return _RANKERS[Strategy(strategy)](g, power=power, rates=rates, protocol=protocol)
