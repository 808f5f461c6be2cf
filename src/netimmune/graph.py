"""Graph container, file ingestion, and the degree / k-core structural rankers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from importlib import resources
from itertools import islice
from typing import IO, Iterable, Sequence

import numpy as np


class GraphFormatError(ValueError):
    """A graph source could not be parsed into a valid simple graph."""


class GraphFormat(str, Enum):
    EDGELIST = "edgelist"
    JSON = "json"


class Strategy(str, Enum):
    """Node-ranking strategies available for immunization."""

    AV11 = "av11"
    DEGREE = "degree"
    CLOSENESS = "closeness"
    BETWEENNESS = "betweenness"
    DYNAMICAL_IMPORTANCE = "dynamical-importance"
    ESTRADA_INDEX = "estrada"
    KCORE = "kcore"
    MOST_INFECTED = "most-infected"


# k-core tracks degree too closely to add information, so it is kept out of
# the default comparison set (still available by name).
DEFAULT_COMPARISON_STRATEGIES: tuple[Strategy, ...] = (
    Strategy.AV11,
    Strategy.DEGREE,
    Strategy.CLOSENESS,
    Strategy.BETWEENNESS,
    Strategy.DYNAMICAL_IMPORTANCE,
    Strategy.ESTRADA_INDEX,
    Strategy.MOST_INFECTED,
)


def _is_int(x) -> bool:
    """A Python or numpy integer; bool subclasses int, but true/false are not ids or counts."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _node_ids(ids: Iterable, n: int, what: str) -> list[int]:
    """Sorted distinct ints; ValueError at the first id that is not an integer in [0, n)."""
    ids = list(ids)
    for i in ids:
        if not _is_int(i):
            raise ValueError(f"{what} {i!r} is not an integer id")
        if not 0 <= i < n:
            raise ValueError(f"{what} {i} out of range for n={n}")
    return sorted(set(map(int, ids)))


class Graph:
    """Immutable undirected simple graph on contiguous node ids 0..n-1.

    Edges are stored as canonical (u, v) pairs with u < v. Directed or
    duplicated input pairs are symmetrized and deduplicated on construction;
    self-loops are rejected. ``labels`` optionally carries one external name
    per node id, a string (e.g. original bus numbers of a relabeled file).
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Sequence[str] | None = None):
        if not _is_int(n) or n < 1:
            raise GraphFormatError(f"node count must be a positive integer, got {n!r}")
        canon = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:  # numpy ids are stored as ints
                if not (_is_int(u) and _is_int(v)):
                    raise GraphFormatError(f"edge ({u!r}, {v!r}): node ids must be integers")
                u, v = int(u), int(v)
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        if labels is not None:
            given, labels = labels, tuple(labels)
            if isinstance(given, str) or not all(isinstance(x, str) for x in labels):
                raise GraphFormatError(f"labels must be a sequence of strings, got {given!r}")
            if len(labels) != n:
                raise GraphFormatError(
                    f"labels length {len(labels)} does not match node count {n}")
        self.n = int(n)
        self.edges = frozenset(canon)
        self.labels = labels
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in canon:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._neighbors = tuple(tuple(sorted(a)) for a in nbrs)
        self._adj: np.ndarray | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors[i]

    def degree(self, i: int) -> int:
        return len(self._neighbors[i])

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self._neighbors], dtype=int)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (read-only; copy before mutating)."""
        if self._adj is None:
            a = np.zeros((self.n, self.n))
            for u, v in self.edges:
                a[u, v] = 1.0
                a[v, u] = 1.0
            a.flags.writeable = False
            self._adj = a
        return self._adj

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.edges, self.labels) == (other.n, other.edges, other.labels)

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class BudgetSpec:
    """Immunization budget: an absolute node count or a fraction of n."""

    count: int | None = None
    fraction: float | None = None

    def __post_init__(self):
        if (self.count is None) == (self.fraction is None):
            raise ValueError("specify exactly one of count or fraction")
        if self.count is not None and (not _is_int(self.count) or self.count < 0):
            raise ValueError(f"budget count must be a non-negative integer, got {self.count!r}")
        object.__setattr__(self, "count", None if self.count is None else int(self.count))
        if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"budget fraction must be in [0, 1], got {self.fraction!r}")

    @classmethod
    def from_count(cls, k: int) -> "BudgetSpec":
        return cls(count=k)

    @classmethod
    def from_fraction(cls, f: float) -> "BudgetSpec":
        return cls(fraction=float(f))

    @classmethod
    def parse(cls, text: str) -> "BudgetSpec":
        """Parse CLI-style budgets: '19' (count), '16%' or '0.16' (fraction)."""
        s = text.strip()
        if s.endswith("%"):
            return cls.from_fraction(float(s[:-1]) / 100.0)
        if "." in s or "e" in s.lower():
            return cls.from_fraction(float(s))
        return cls.from_count(int(s))

    def resolve(self, n: int) -> int:
        k = self.count if self.count is not None else math.ceil(self.fraction * n)
        if k > n:
            raise ValueError(f"budget {k} exceeds node count {n}")
        return k


@dataclass(frozen=True)
class Ranking:
    """A strategy's full node ordering (best first) with per-node scores.

    ``scores[i]`` is node i's score; ``order`` is a permutation of 0..n-1
    sorted by score descending, ties broken by ascending node id.
    """

    strategy: Strategy
    order: tuple[int, ...]
    scores: tuple[float, ...]

    @classmethod
    def from_scores(cls, strategy: Strategy, scores: Sequence[float]) -> "Ranking":
        vals = tuple(float(s) for s in scores)
        order = tuple(sorted(range(len(vals)), key=lambda i: (-vals[i], i)))
        return cls(strategy=strategy, order=order, scores=vals)

    def top(self, k: int) -> list[int]:
        return list(self.order[:k])

    def to_json_obj(self) -> dict:
        return _json_obj(self)


def _json_obj(value):
    """JSON data of a record: a dataclass becomes a dict of its fields in
    declaration order (a BudgetSpec keeps only its one set key), tuples become
    lists and enums their values, recursively."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json_obj(v) for v in value]
    if not is_dataclass(value):
        return value
    obj = {f.name: _json_obj(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, BudgetSpec):
        return {k: v for k, v in obj.items() if v is not None}
    return obj


# ---------------------------------------------------------------------------
# Loading / serialization
# ---------------------------------------------------------------------------

def _parse_edgelist(text: str) -> list[tuple[int, int]]:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected two whitespace-separated node ids, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: node ids must be integers, got {raw!r}") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at node {u}")
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative node id in {raw!r}")
        pairs.append((u, v))
    if not pairs:
        raise GraphFormatError("edge list contains no edges")
    return pairs


def load_graph(source: str | bytes | IO, fmt: GraphFormat | str,
               *, relabel: bool = False) -> Graph:
    """Build a Graph from edge-list or JSON content.

    ``source`` is the file content (text, bytes, or an open file object).
    Directed pairs are symmetrized and duplicates dropped. With
    ``relabel=True`` arbitrary integer ids are remapped to 0..n-1 in sorted
    order and the originals kept as labels; otherwise non-contiguous ids are
    rejected.
    """
    fmt = GraphFormat(fmt)
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")

    if fmt is GraphFormat.JSON:
        return _graph_from_json(source)

    pairs = _parse_edgelist(source)
    ids = sorted({x for p in pairs for x in p})
    if relabel:
        remap = {orig: new for new, orig in enumerate(ids)}
        edges = [(remap[u], remap[v]) for u, v in pairs]
        return Graph(len(ids), edges, labels=[str(i) for i in ids])
    n = ids[-1] + 1
    if len(ids) != n:
        gaps = (m for a, b in zip([-1] + ids, ids) for m in range(a + 1, b))
        missing = list(islice(gaps, 6))
        shown = ", ".join(map(str, missing[:5])) + (", ..." if len(missing) > 5 else "")
        raise GraphFormatError(
            f"node ids are not contiguous 0..{n - 1} (missing {shown}); "
            "pass relabel=True to remap them")
    return Graph(n, pairs)


def _graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphFormatError('JSON graph must be an object with "n" and "edges"')
    n = obj["n"]
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in edges):
        raise GraphFormatError('"edges" must be a list of [u, v] pairs')
    labels = obj.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)):
        raise GraphFormatError('"labels" must be a list of strings or null')
    return Graph(n, [(e[0], e[1]) for e in edges], labels=labels)


def load_graph_path(path, fmt: GraphFormat | str | None = None,
                    *, relabel: bool = False) -> Graph:
    """Read a graph file, inferring the format from the suffix unless given."""
    from pathlib import Path

    p = Path(path)
    if fmt is None:
        fmt = GraphFormat.JSON if p.suffix.lower() == ".json" else GraphFormat.EDGELIST
    return load_graph(p.read_text(encoding="utf-8"), fmt, relabel=relabel)


def serialize_graph(g: Graph, fmt: GraphFormat | str) -> str:
    """Serialize so that load_graph(serialize_graph(g), fmt) reproduces g."""
    fmt = GraphFormat(fmt)
    if fmt is GraphFormat.EDGELIST:
        if g.labels is not None:
            raise ValueError("edge-list format cannot carry node labels; use JSON")
        if any(g.degree(i) == 0 for i in range(g.n)):
            raise ValueError("edge-list format cannot express isolated nodes; use JSON")
        return "".join(f"{u} {v}\n" for u, v in g.sorted_edges())
    obj = {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"


def ieee118_graph() -> Graph:
    """IEEE 118-bus test system topology (118 nodes, 179 distinct branches).

    Bus numbers are 1-based in the bundled case data; nodes are relabeled to
    0..117 with the original bus numbers kept as labels.
    """
    text = resources.files("netimmune.data").joinpath("ieee118_branches.edges").read_text()
    return load_graph(text, GraphFormat.EDGELIST, relabel=True)


# ---------------------------------------------------------------------------
# Structural rankers
# ---------------------------------------------------------------------------

def degree_ranking(g: Graph) -> Ranking:
    """Rank nodes by number of incident links."""
    return Ranking.from_scores(Strategy.DEGREE, g.degrees())


def core_numbers(g: Graph) -> list[int]:
    """Core number per node via iterative minimum-degree peeling."""
    deg = [g.degree(i) for i in range(g.n)]
    core = [0] * g.n
    remaining = set(range(g.n))
    k = 0
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        k = max(k, deg[v])
        core[v] = k
        remaining.discard(v)
        for u in g.neighbors(v):
            if u in remaining:
                deg[u] -= 1
    return core


def kcore_ranking(g: Graph) -> Ranking:
    """Rank nodes by core number (largest c with the node inside the c-core)."""
    return Ranking.from_scores(Strategy.KCORE, core_numbers(g))
