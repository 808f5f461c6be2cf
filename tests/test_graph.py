import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netimmune import (
    BudgetSpec,
    Graph,
    GraphFormat,
    GraphFormatError,
    core_numbers,
    degree_ranking,
    ieee118_graph,
    kcore_ranking,
    load_graph,
    serialize_graph,
)

from conftest import gnp_graphs, random_graph


class TestLoadGraph:
    def test_p3_edgelist(self):
        g = load_graph("0 1\n1 2", GraphFormat.EDGELIST)
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_dedup_and_symmetrize(self):
        g = load_graph("0 1\n1 0\n0 1", GraphFormat.EDGELIST)
        assert g.n == 2
        assert g.edges == frozenset({(0, 1)})

    def test_comments_and_blank_lines(self):
        g = load_graph("# header\n\n0 1  # trailing\n1 2\n", GraphFormat.EDGELIST)
        assert g.edge_count == 2

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph("0 1\n0 1 2", GraphFormat.EDGELIST)
        with pytest.raises(GraphFormatError, match="line 1"):
            load_graph("a b", GraphFormat.EDGELIST)

    def test_self_loop_reports_node(self):
        with pytest.raises(GraphFormatError, match="node 3"):
            load_graph("0 1\n3 3", GraphFormat.EDGELIST)

    def test_non_contiguous_rejected_without_relabel(self):
        with pytest.raises(GraphFormatError, match="contiguous"):
            load_graph("0 1\n1 5", GraphFormat.EDGELIST)

    def test_missing_ids_listed_without_the_whole_id_range(self):
        """An id of 2**40 names the first missing ids at once. The load runs in
        a child capped at 1 GiB of address space, so code that builds
        range(largest id) fails there instead of filling the host's memory."""
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        code = ("from netimmune import load_graph\n"
                f"load_graph('0 1\\n1 {2**40}\\n', 'edgelist')")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, preexec_fn=cap,
                             timeout=60, check=False)
        last = run.stderr.strip().splitlines()[-1]
        assert last.startswith("netimmune.graph.GraphFormatError: node ids are not "
                               f"contiguous 0..{2**40} (missing 2, 3, 4, 5, 6, ...)")

    def test_relabel_keeps_original_ids_as_labels(self):
        g = load_graph("10 20\n20 30", GraphFormat.EDGELIST, relabel=True)
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.labels == ("10", "20", "30")

    def test_json_roundtrip_fields(self):
        g = load_graph('{"n": 4, "edges": [[0, 1], [2, 3]], "labels": ["a", "b", "c", "d"]}',
                       GraphFormat.JSON)
        assert g.n == 4
        assert g.labels == ("a", "b", "c", "d")

    def test_json_errors(self):
        with pytest.raises(GraphFormatError):
            load_graph('{"edges": []}', GraphFormat.JSON)
        with pytest.raises(GraphFormatError):
            load_graph('{"n": 2, "edges": [[0, 5]]}', GraphFormat.JSON)
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph('{"n": 2, "edges": [[1, 1]]}', GraphFormat.JSON)
        with pytest.raises(GraphFormatError):
            load_graph("not json", GraphFormat.JSON)
        with pytest.raises(GraphFormatError):
            load_graph('{"n": true, "edges": []}', GraphFormat.JSON)
        with pytest.raises(GraphFormatError):
            load_graph('{"n": 3, "edges": [[true, 2]]}', GraphFormat.JSON)
        for labels in ("5", '"ab"', '{"0": "a", "1": "b"}', '[1, null]', '["a", 2]',
                       '["a", ["b"]]'):
            with pytest.raises(GraphFormatError, match="labels"):
                load_graph(f'{{"n": 2, "edges": [[0, 1]], "labels": {labels}}}',
                           GraphFormat.JSON)

    def test_bytes_input(self):
        g = load_graph(b"0 1\n", GraphFormat.EDGELIST)
        assert g.edge_count == 1


class TestGraphInvariants:
    def test_constructor_rejects_bad_input(self):
        with pytest.raises(GraphFormatError):
            Graph(0, [])
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 0)])
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 2)])
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 1)], labels=["only-one"])
        for labels in ([1, None], ["a", 2], "ab", [b"a", b"b"]):
            with pytest.raises(GraphFormatError, match="labels"):
                Graph(2, [(0, 1)], labels=labels)
        with pytest.raises(GraphFormatError):
            Graph(True, [])
        with pytest.raises(GraphFormatError):
            Graph(3, [(True, 2)])

    def test_numpy_ids_stored_as_python_ints(self):
        g = Graph(np.int64(3), [(np.int64(0), np.int32(1)), (2, np.uint8(1))])
        assert g == Graph(3, [(0, 1), (1, 2)])
        assert type(g.n) is int
        assert all(type(i) is int for e in g.edges for i in e)
        assert all(type(i) is int for i in g.neighbors(1))
        with pytest.raises(GraphFormatError, match="node ids must be integers"):
            Graph(3, [(np.float64(0), 1)])
        with pytest.raises(GraphFormatError, match="node count"):
            Graph(np.bool_(True), [])

    def test_adjacency_symmetric_zero_diagonal(self):
        for seed in range(5):
            g = random_graph(12, 0.3, seed)
            a = g.adjacency_matrix()
            assert (a == a.T).all()
            assert (a.diagonal() == 0).all()
            assert set(a.flatten()) <= {0.0, 1.0}

    def test_degree_sum_is_twice_edges(self):
        for seed in range(10):
            g = random_graph(15, 0.25, seed)
            assert g.degrees().sum() == 2 * g.edge_count

    def test_roundtrip_both_formats(self):
        for seed in range(5):
            g = random_graph(10, 0.3, seed)
            assert load_graph(serialize_graph(g, "json"), "json") == g
            if all(g.degree(i) > 0 for i in range(g.n)):
                assert load_graph(serialize_graph(g, "edgelist"), "edgelist") == g

    def test_edgelist_format_cannot_express_isolates(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="isolated"):
            serialize_graph(g, "edgelist")

    def test_roundtrip_with_labels(self):
        g = load_graph("5 7\n7 9", GraphFormat.EDGELIST, relabel=True)
        again = load_graph(serialize_graph(g, "json"), "json")
        assert again == g

    def test_edgelist_format_cannot_carry_labels(self):
        g = Graph(2, [(0, 1)], labels=["a", "b"])
        with pytest.raises(ValueError):
            serialize_graph(g, "edgelist")

    @settings(max_examples=200, deadline=None)
    @given(gnp_graphs(max_n=15), st.data())
    def test_roundtrip_property(self, g, data):
        labels = data.draw(st.none() | st.lists(st.text(), min_size=g.n, max_size=g.n))
        labeled = Graph(g.n, g.edges, labels=labels)
        again = load_graph(serialize_graph(labeled, "json"), "json")
        assert (again.n, again.edges, again.labels) == (g.n, g.edges, labeled.labels)
        # Edge lists carry neither labels nor isolated nodes.
        if all(g.degree(i) > 0 for i in range(g.n)):
            again = load_graph(serialize_graph(g, "edgelist"), "edgelist")
            assert (again.n, again.edges, again.labels) == (g.n, g.edges, None)


class TestIEEE118:
    def test_shape(self):
        g = ieee118_graph()
        assert g.n == 118
        assert g.edge_count == 179

    def test_connected_with_bus_labels(self):
        g = ieee118_graph()
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(g.n))
        assert nx.is_connected(nxg)
        assert g.labels[0] == "1"
        assert g.labels[117] == "118"

    def test_roundtrip(self):
        g = ieee118_graph()
        assert load_graph(serialize_graph(g, "json"), "json") == g


class TestDegreeRanking:
    def test_p3(self, p3):
        r = degree_ranking(p3)
        assert r.scores == (1.0, 2.0, 1.0)
        assert r.order == (1, 0, 2)

    def test_star_hub_first(self, star5):
        r = degree_ranking(star5)
        assert r.order[0] == 0
        assert r.scores[0] == 4.0

    def test_k3_tie_break_by_id(self, k3):
        r = degree_ranking(k3)
        assert r.scores == (2.0, 2.0, 2.0)
        assert r.order == (0, 1, 2)


class TestKCore:
    def test_k4_all_three(self, k4):
        assert core_numbers(k4) == [3, 3, 3, 3]

    def test_p3_all_one(self, p3):
        assert core_numbers(p3) == [1, 1, 1]

    def test_k4_plus_pendant(self, k4):
        g = Graph(5, list(k4.edges) + [(0, 4)])
        assert core_numbers(g) == [3, 3, 3, 3, 1]

    def test_core_at_most_degree(self):
        for seed in range(10):
            g = random_graph(14, 0.3, seed)
            cores = core_numbers(g)
            assert all(cores[i] <= g.degree(i) for i in range(g.n))

    def test_matches_networkx(self):
        for seed in range(10):
            g = random_graph(20, 0.2, seed)
            nxg = nx.Graph(list(g.edges))
            nxg.add_nodes_from(range(g.n))
            expected = nx.core_number(nxg)
            assert core_numbers(g) == [expected[i] for i in range(g.n)]

    def test_ranking_orders_by_core(self, k4):
        g = Graph(5, list(k4.edges) + [(0, 4)])
        r = kcore_ranking(g)
        assert r.order[-1] == 4


class TestBudgetSpec:
    def test_count(self):
        assert BudgetSpec.from_count(3).resolve(10) == 3

    def test_fraction_ceil(self):
        assert BudgetSpec.from_fraction(0.16).resolve(118) == 19
        assert BudgetSpec.from_fraction(0.5).resolve(3) == 2

    def test_bounds(self):
        with pytest.raises(ValueError):
            BudgetSpec.from_count(5).resolve(3)
        with pytest.raises(ValueError):
            BudgetSpec.from_fraction(1.5)
        with pytest.raises(ValueError):
            BudgetSpec.from_count(-1)
        with pytest.raises(ValueError):
            BudgetSpec(count=1, fraction=0.5)
        with pytest.raises(ValueError, match="budget count must be a non-negative integer"):
            BudgetSpec(count=True)

    def test_numpy_count_stored_as_python_int(self):
        budget = BudgetSpec(count=np.int64(2))
        assert budget == BudgetSpec.from_count(2)
        assert type(budget.count) is int
        assert json.dumps(budget.__dict__) == '{"count": 2, "fraction": null}'

    def test_parse(self):
        assert BudgetSpec.parse("19").count == 19
        assert BudgetSpec.parse("16%").fraction == pytest.approx(0.16)
        assert BudgetSpec.parse("0.16").fraction == pytest.approx(0.16)


class TestRanking:
    def test_order_is_permutation_sorted_by_score(self):
        r = degree_ranking(random_graph(20, 0.3, 0))
        assert sorted(r.order) == list(range(20))
        for a, b in zip(r.order, r.order[1:]):
            assert (r.scores[a], -a) >= (r.scores[b], -b)

    def test_json_obj(self, p3):
        obj = degree_ranking(p3).to_json_obj()
        assert json.loads(json.dumps(obj)) == obj
