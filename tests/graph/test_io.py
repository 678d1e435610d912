"""Unit tests for repro.graph.io."""

import json

import pytest
from hypothesis import given

from repro.errors import GraphError
from repro.graph.examples import paper_example_dag
from repro.graph.io import (
    format_edge_list,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    load_graph_json,
    parse_edge_list,
    save_graph_json,
)
from tests.strategies import task_graphs


class TestJsonRoundtrip:
    def test_roundtrip_preserves_graph(self):
        g = paper_example_dag()
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_file_roundtrip(self, tmp_path):
        g = paper_example_dag()
        path = tmp_path / "g.json"
        save_graph_json(g, path)
        assert load_graph_json(path) == g

    def test_dict_is_json_safe(self):
        json.dumps(graph_to_dict(paper_example_dag()))

    def test_bad_schema_rejected(self):
        with pytest.raises(GraphError, match="schema"):
            graph_from_dict({"schema": 99})

    def test_missing_field_rejected(self):
        with pytest.raises(GraphError, match="missing"):
            graph_from_dict({"schema": 1, "weights": [1]})

    def test_invalid_content_rejected(self):
        data = graph_to_dict(paper_example_dag())
        data["edges"].append([5, 5, 1])  # self-loop
        with pytest.raises(GraphError):
            graph_from_dict(data)

    def test_name_preserved(self):
        g = paper_example_dag()
        assert graph_from_dict(graph_to_dict(g)).name == g.name

    @pytest.mark.parametrize("cost", [500.0, 1.0])
    def test_duplicate_edge_rejected_in_either_order(self, cost):
        # A mapping would keep whichever row came last, so the graph
        # (and its answer) would depend on the order of the two rows.
        data = graph_to_dict(paper_example_dag())
        u, v, _ = data["edges"][0]
        for rows in ([[u, v, cost]] + data["edges"], data["edges"] + [[u, v, cost]]):
            with pytest.raises(GraphError, match=rf"duplicate edge \({u}, {v}\)"):
                graph_from_dict({**data, "edges": rows})


class TestDot:
    def test_contains_all_nodes_and_edges(self):
        g = paper_example_dag()
        dot = graph_to_dot(g)
        assert dot.startswith("digraph")
        for n in range(g.num_nodes):
            assert g.label(n) in dot
        assert dot.count("->") == g.num_edges

    def test_weights_shown(self):
        dot = graph_to_dot(paper_example_dag())
        assert "(2)" in dot  # n1's weight


class TestEdgeList:
    def test_roundtrip(self):
        g = paper_example_dag()
        parsed = parse_edge_list(format_edge_list(g))
        assert parsed.weights == g.weights
        assert parsed.edges == g.edges

    def test_comments_and_blanks_ignored(self):
        text = """
        # a comment
        node 0 1.5

        node 1 2.5  # trailing comment
        edge 0 1 3
        """
        g = parse_edge_list(text)
        assert g.num_nodes == 2
        assert g.comm_cost(0, 1) == 3.0

    def test_sparse_ids_rejected(self):
        with pytest.raises(GraphError, match="dense"):
            parse_edge_list("node 0 1\nnode 2 1")

    def test_garbage_line_rejected(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_edge_list("nonsense here")

    def test_empty_rejected(self):
        with pytest.raises(GraphError, match="no node"):
            parse_edge_list("# nothing\n")

    def test_duplicate_node_reports_line(self):
        with pytest.raises(GraphError, match="line 3: node 0 declared twice"):
            parse_edge_list("node 0 1\nnode 1 2\nnode 0 500")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphError, match=r"line 4: duplicate edge \(0, 1\)"):
            parse_edge_list("node 0 1\nnode 1 1\nedge 0 1 7\nedge 0 1 500")

    def test_bad_number_reports_line(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("node 0 1\nnode x 2")


@given(task_graphs())
def test_json_roundtrip_property(graph):
    assert graph_from_dict(graph_to_dict(graph)) == graph


@given(task_graphs())
def test_edge_list_roundtrip_property(graph):
    parsed = parse_edge_list(format_edge_list(graph))
    assert parsed.weights == graph.weights
    assert parsed.edges == graph.edges
