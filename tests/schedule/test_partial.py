"""Unit tests for repro.schedule.partial — the search-state payload."""

import pytest
from hypothesis import given

from repro.errors import ScheduleError
from repro.schedule.partial import PartialSchedule
from repro.schedule.validate import schedule_violations
from repro.system.processors import ProcessorSystem
from tests.strategies import task_graphs


class TestEmptyState:
    def test_initial_invariants(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system)
        assert ps.num_scheduled == 0
        assert ps.makespan == 0.0
        assert ps.mask == 0
        assert ps.last_node == -1
        assert not ps.is_complete()

    def test_only_entry_ready(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system)
        assert ps.ready_nodes() == [0]


class TestExtend:
    def test_first_placement(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system).extend(0, 0)
        assert ps.num_scheduled == 1
        assert ps.starts[0] == 0.0
        assert ps.finishes[0] == 2.0
        assert ps.makespan == 2.0
        assert ps.ready_time[0] == 2.0
        assert ps.last_node == 0

    def test_ready_set_updates(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system).extend(0, 0)
        assert ps.ready_nodes() == [1, 2, 3]

    def test_same_pe_no_comm(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system).extend(0, 0)
        # n2 on the same PE starts right after n1 (no communication).
        assert ps.est(1, 0) == 2.0

    def test_cross_pe_comm_delay(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system).extend(0, 0)
        # n2 on another PE waits for the c(n1,n2)=1 message.
        assert ps.est(1, 1) == 3.0
        # n4 has edge cost 2.
        assert ps.est(3, 1) == 4.0

    def test_pe_busy_delays_start(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system)
        ps = ps.extend(0, 0).extend(1, 0)
        # PE 0 is busy until 5; n3 can only start then (local data at 2).
        assert ps.est(2, 0) == 5.0

    def test_immutability(self, fig1_graph, fig1_system):
        base = PartialSchedule.empty(fig1_graph, fig1_system)
        child = base.extend(0, 0)
        assert base.num_scheduled == 0
        assert child is not base

    def test_unready_node_rejected(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system)
        with pytest.raises(ScheduleError, match="not ready"):
            ps.extend(5, 0)  # exit node needs all parents first

    def test_double_schedule_rejected(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system).extend(0, 0)
        with pytest.raises(ScheduleError):
            ps.extend(0, 1)

    def test_unknown_pe_rejected(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system)
        with pytest.raises(ScheduleError, match="unknown PE"):
            ps.extend(0, 9)

    def test_heterogeneous_exec_time(self):
        from repro.graph.taskgraph import TaskGraph

        g = TaskGraph([10, 10], {(0, 1): 0})
        s = ProcessorSystem(2, speeds=[1.0, 2.0])
        ps = PartialSchedule.empty(g, s).extend(0, 1)
        assert ps.finishes[0] == 5.0


class TestPaperWalkthrough:
    """Re-derive the g values of the paper's Figure-3 search tree."""

    def test_level2_costs(self, fig1_graph, fig1_system):
        root = PartialSchedule.empty(fig1_graph, fig1_system).extend(0, 0)
        # n2 -> PE 0: g = 5; n2 -> PE 1: g = 6.
        assert root.extend(1, 0).makespan == 5.0
        assert root.extend(1, 1).makespan == 6.0
        # n4 -> PE 0: g = 6; n4 -> PE 1: g = 8.
        assert root.extend(3, 0).makespan == 6.0
        assert root.extend(3, 1).makespan == 8.0

    def test_goal_path(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system)
        ps = ps.extend(0, 0).extend(1, 0).extend(2, 1).extend(3, 2)
        ps = ps.extend(4, 0).extend(5, 0)
        assert ps.is_complete()
        assert ps.makespan == 14.0
        sched = ps.to_schedule()
        assert schedule_violations(sched) == []


class TestSignature:
    def test_order_independent(self, fig1_graph, fig1_system):
        a = PartialSchedule.empty(fig1_graph, fig1_system)
        x = a.extend(0, 0).extend(1, 0).extend(3, 1)
        y = a.extend(0, 0).extend(3, 1).extend(1, 0)
        assert x.signature == y.signature
        assert x == y
        assert hash(x) == hash(y)

    def test_pe_choice_changes_signature(self, fig1_graph, fig1_system):
        a = PartialSchedule.empty(fig1_graph, fig1_system).extend(0, 0)
        assert a.extend(1, 0).signature != a.extend(1, 1).signature


class TestCompletion:
    def test_incomplete_to_schedule_rejected(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system).extend(0, 0)
        with pytest.raises(ScheduleError, match="covers"):
            ps.to_schedule()

    def test_used_pes_mask(self, fig1_graph, fig1_system):
        ps = PartialSchedule.empty(fig1_graph, fig1_system)
        ps = ps.extend(0, 0).extend(1, 2)
        assert ps.used_pes == 0b101


@given(task_graphs(max_nodes=6))
def test_topological_completion_is_valid(graph):
    """Scheduling any topological order greedily yields a feasible schedule."""
    system = ProcessorSystem.fully_connected(2)
    ps = PartialSchedule.empty(graph, system)
    for i, node in enumerate(graph.topological_order):
        ps = ps.extend(node, i % 2)
    assert ps.is_complete()
    assert schedule_violations(ps.to_schedule()) == []


@given(task_graphs(max_nodes=6))
def test_makespan_monotone_under_extension(graph):
    system = ProcessorSystem.fully_connected(2)
    ps = PartialSchedule.empty(graph, system)
    prev = 0.0
    for node in graph.topological_order:
        ps = ps.extend(node, 0)
        assert ps.makespan >= prev
        prev = ps.makespan
