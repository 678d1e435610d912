"""Unit tests for repro.graph.taskgraph."""

import pytest
from hypothesis import given

from repro.errors import CycleError, GraphError
from repro.graph.taskgraph import TaskGraph
from tests.strategies import task_graphs


def simple_graph():
    return TaskGraph([1, 2, 3], {(0, 1): 5, (0, 2): 6, (1, 2): 7})


class TestConstruction:
    def test_basic_properties(self):
        g = simple_graph()
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.weight(1) == 2.0
        assert g.comm_cost(0, 2) == 6.0

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([], {})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 0], {})
        with pytest.raises(GraphError):
            TaskGraph([1, -2], {})

    def test_negative_edge_cost_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 1], {(0, 1): -1})

    def test_zero_edge_cost_allowed(self):
        g = TaskGraph([1, 1], {(0, 1): 0})
        assert g.comm_cost(0, 1) == 0.0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 1], {(0, 0): 1})

    def test_unknown_node_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 1], {(0, 5): 1})

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            TaskGraph([1, 1, 1], {(0, 1): 1, (1, 2): 1, (2, 0): 1})

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            TaskGraph([1, 1], {(0, 1): 1, (1, 0): 1})

    def test_default_labels_one_based(self):
        g = simple_graph()
        assert g.labels == ("n1", "n2", "n3")

    def test_custom_labels(self):
        g = TaskGraph([1, 1], {(0, 1): 1}, labels=["src", "dst"])
        assert g.label(0) == "src"
        assert g.index_of("dst") == 1

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            simple_graph().index_of("nope")

    def test_label_length_mismatch(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 1], {}, labels=["only-one"])

    def test_from_lists(self):
        g = TaskGraph.from_lists([1, 1], [(0, 1, 9)])
        assert g.comm_cost(0, 1) == 9.0

    def test_from_lists_rejects_a_duplicate_edge(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
            TaskGraph.from_lists([1, 1], [(0, 1, 9), (0, 1, 3)])


class TestAdjacency:
    def test_preds_succs(self):
        g = simple_graph()
        assert g.preds(2) == (0, 1)
        assert g.succs(0) == (1, 2)
        assert g.preds(0) == ()
        assert g.succs(2) == ()

    def test_entry_exit(self):
        g = simple_graph()
        assert g.entry_nodes == (0,)
        assert g.exit_nodes == (2,)

    def test_multi_entry_exit(self):
        g = TaskGraph([1, 1, 1, 1], {(0, 2): 1, (1, 3): 1})
        assert g.entry_nodes == (0, 1)
        assert g.exit_nodes == (2, 3)

    def test_pred_edges(self):
        g = simple_graph()
        assert list(g.pred_edges(2)) == [(0, 6.0), (1, 7.0)]

    def test_succ_edges(self):
        g = simple_graph()
        assert list(g.succ_edges(0)) == [(1, 5.0), (2, 6.0)]


class TestTopologicalOrder:
    def test_respects_precedence(self):
        g = simple_graph()
        order = g.topological_order
        pos = {n: i for i, n in enumerate(order)}
        for (u, v) in g.edges:
            assert pos[u] < pos[v]

    def test_deterministic_smallest_first(self):
        g = TaskGraph([1, 1, 1], {})
        assert g.topological_order == (0, 1, 2)


class TestAggregates:
    def test_totals(self):
        g = simple_graph()
        assert g.total_computation == 6.0
        assert g.total_communication == 18.0
        assert g.mean_computation == 2.0
        assert g.mean_communication == 6.0

    def test_edgeless_mean_comm_zero(self):
        g = TaskGraph([1, 2], {})
        assert g.mean_communication == 0.0


class TestValueSemantics:
    def test_equality(self):
        assert simple_graph() == simple_graph()

    def test_inequality_weights(self):
        a = TaskGraph([1, 1], {(0, 1): 1})
        b = TaskGraph([1, 2], {(0, 1): 1})
        assert a != b

    def test_hash_consistent(self):
        assert hash(simple_graph()) == hash(simple_graph())

    def test_repr_contains_counts(self):
        assert "v=3" in repr(simple_graph())


class TestInducedPrefix:
    def test_valid_prefix(self):
        g = simple_graph()
        sub = g.induced_prefix([0, 1])
        assert sub.num_nodes == 2
        assert sub.edges == {(0, 1): 5.0}

    def test_non_downward_closed_rejected(self):
        with pytest.raises(GraphError):
            simple_graph().induced_prefix([1, 2])

    def test_full_prefix_is_whole_graph(self):
        g = simple_graph()
        sub = g.induced_prefix(range(3))
        assert sub.num_nodes == 3
        assert sub.edges == g.edges


@given(task_graphs())
def test_topological_order_property(graph):
    pos = {n: i for i, n in enumerate(graph.topological_order)}
    assert sorted(pos) == list(range(graph.num_nodes))
    for (u, v) in graph.edges:
        assert pos[u] < pos[v]


@given(task_graphs())
def test_entry_exit_consistency(graph):
    for n in graph.entry_nodes:
        assert graph.preds(n) == ()
    for n in graph.exit_nodes:
        assert graph.succs(n) == ()
    assert len(graph.entry_nodes) >= 1
    assert len(graph.exit_nodes) >= 1
