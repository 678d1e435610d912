"""Unit tests for STG-format support."""

import pytest
from hypothesis import given

from repro.errors import GraphError
from repro.graph.examples import paper_example_dag
from repro.graph.stg import format_stg, load_stg, parse_stg, save_stg
from tests.strategies import task_graphs

CLASSIC_STG = """\
5
0 0 0
1 4 1 0
2 3 1 0
3 5 2 1 2
4 0 1 3
# a classic STG: virtual entry 0 and exit 4
"""


class TestParse:
    def test_classic_document(self):
        g = parse_stg(CLASSIC_STG)
        assert g.num_nodes == 5
        assert g.weight(1) == 4.0
        assert g.preds(3) == (1, 2)
        # Virtual tasks got epsilon weights.
        assert 0 < g.weight(0) < 1e-3

    def test_extended_edge_costs(self):
        text = "3\n0 2 0\n1 3 1 0:7\n2 4 2 0:1 1:2\n"
        g = parse_stg(text)
        assert g.comm_cost(0, 1) == 7.0
        assert g.comm_cost(1, 2) == 2.0

    def test_default_comm(self):
        g = parse_stg(CLASSIC_STG, default_comm=5.0)
        assert g.comm_cost(1, 3) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            parse_stg("")

    def test_bad_count_rejected(self):
        with pytest.raises(GraphError, match="task count"):
            parse_stg("banana\n")

    def test_wrong_line_count(self):
        with pytest.raises(GraphError, match="expected 3 task lines"):
            parse_stg("3\n0 1 0\n1 1 1 0\n")

    def test_forward_reference_rejected(self):
        with pytest.raises(GraphError, match="earlier task"):
            parse_stg("2\n0 1 1 1\n1 1 0\n")

    def test_sparse_ids_rejected(self):
        with pytest.raises(GraphError, match="dense"):
            parse_stg("2\n0 1 0\n5 1 0\n")

    def test_bad_predecessor_token(self):
        with pytest.raises(GraphError, match="bad predecessor"):
            parse_stg("2\n0 1 0\n1 1 1 x\n")

    def test_duplicate_predecessor_rejected(self):
        with pytest.raises(GraphError, match="task 1: duplicate predecessor 0"):
            parse_stg("2\n0 1 0\n1 1 2 0:7 0:500\n")


class TestRoundtrip:
    def test_paper_example_roundtrip(self):
        g = paper_example_dag()
        parsed = parse_stg(format_stg(g))
        assert parsed.weights == g.weights
        assert parsed.edges == g.edges

    def test_file_roundtrip(self, tmp_path):
        g = paper_example_dag()
        path = tmp_path / "example.stg"
        save_stg(g, path)
        loaded = load_stg(path)
        assert loaded.weights == g.weights
        assert loaded.edges == g.edges
        assert loaded.name == "example"

    def test_zero_comm_graph_uses_classic_syntax(self):
        from repro.graph.taskgraph import TaskGraph

        g = TaskGraph([1, 2], {(0, 1): 0})
        text = format_stg(g)
        assert ":" not in text.splitlines()[2]

    def test_non_topological_ids_rejected(self):
        from repro.graph.taskgraph import TaskGraph

        g = TaskGraph([1, 2], {(1, 0): 3})  # edge against id order
        with pytest.raises(GraphError, match="topologically"):
            format_stg(g)


@given(task_graphs(max_nodes=7))
def test_stg_roundtrip_property(graph):
    parsed = parse_stg(format_stg(graph))
    assert parsed.weights == graph.weights
    assert parsed.edges == graph.edges
