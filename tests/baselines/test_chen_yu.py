"""Unit tests for the Chen & Yu baseline."""

import time

import pytest
from hypothesis import given, settings

from repro.baselines.chen_yu import ChenYuCost, chen_yu_schedule
from repro.schedule.partial import PartialSchedule
from repro.schedule.validate import schedule_violations
from repro.search.astar import astar_schedule
from repro.search.enumerate import enumerate_optimal
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget
from tests.strategies import scheduling_instances, task_graphs


class TestChenYuCost:
    def test_empty_state_zero(self, fig1_graph, fig1_system):
        cost = ChenYuCost(fig1_graph, fig1_system)
        assert cost.h(PartialSchedule.empty(fig1_graph, fig1_system)) == 0.0

    def test_exit_node_zero_remaining(self, fig1_graph, fig1_system):
        cost = ChenYuCost(fig1_graph, fig1_system)
        assert cost._max_path_bound(5, 0) == 0.0

    def test_path_enumeration_equals_dp(self, fig1_graph, fig1_system):
        """Exhaustive path matching equals the closed-form DP (see module
        docstring) — validated on the worked example for every (node, pe)."""
        cost = ChenYuCost(fig1_graph, fig1_system, max_paths=10_000)
        for node in range(fig1_graph.num_nodes):
            for pe in range(fig1_system.num_pes):
                assert cost._max_path_bound(node, pe) == pytest.approx(
                    cost.dp_bound(node, pe)
                )

    def test_instrumentation_counts_paths(self, fig1_graph, fig1_system):
        cost = ChenYuCost(fig1_graph, fig1_system)
        ps = PartialSchedule.empty(fig1_graph, fig1_system).extend(0, 0)
        cost.h(ps)
        assert cost.paths_enumerated > 0

    def test_cap_fallback_still_admissible(self, fig1_graph, fig1_system):
        """With a tiny path cap the bound may tighten but must stay ≤ true
        remaining (checked via full completion)."""
        capped = ChenYuCost(fig1_graph, fig1_system, max_paths=1)
        ps = PartialSchedule.empty(fig1_graph, fig1_system).extend(0, 0)
        f = ps.makespan + capped.h(ps)
        assert f <= 14.0 + 1e-9  # optimal completion through any prefix state


class TestChenYuSchedule:
    def test_paper_example_optimal(self, fig1_graph, fig1_system):
        result = chen_yu_schedule(fig1_graph, fig1_system)
        assert result.optimal
        assert result.length == 14.0
        assert schedule_violations(result.schedule) == []

    def test_more_expensive_than_astar(self, fig1_graph, fig1_system):
        """The Table-1 claim: same answer, far costlier cost evaluation."""

        def fastest(solve, runs=7):
            # The least of several runs: one millisecond-scale timing is
            # at the mercy of whatever else the host is doing.
            best = float("inf")
            for _ in range(runs):
                t0 = time.perf_counter()
                result = solve(fig1_graph, fig1_system)
                best = min(best, time.perf_counter() - t0)
            return result, best

        chen, chen_time = fastest(chen_yu_schedule)
        astar, astar_time = fastest(astar_schedule)
        assert chen.length == astar.length
        # Per-evaluation cost dominates: Chen & Yu walks path sets while
        # the paper's h reads one array; compare per-state cost.
        chen_per_state = chen_time / max(1, chen.stats.cost_evaluations)
        astar_per_state = astar_time / max(1, astar.stats.cost_evaluations)
        assert chen_per_state > astar_per_state

    def test_budget(self, fig1_graph, fig1_system):
        result = chen_yu_schedule(
            fig1_graph, fig1_system, budget=Budget(max_expanded=2)
        )
        assert not result.optimal
        assert result.schedule is not None

    def test_algorithm_label(self, fig1_graph, fig1_system):
        assert chen_yu_schedule(fig1_graph, fig1_system).algorithm == "chen-yu"

    def test_paths_recorded_in_stats(self, fig1_graph, fig1_system):
        result = chen_yu_schedule(fig1_graph, fig1_system)
        assert result.stats.pruning.extra["paths_enumerated"] > 0


@settings(max_examples=25, deadline=None)
@given(scheduling_instances(max_nodes=5, max_pes=2))
def test_chen_yu_matches_exhaustive(instance):
    graph, system = instance
    c = chen_yu_schedule(graph, system)
    e = enumerate_optimal(graph, system)
    assert c.optimal
    assert c.length == pytest.approx(e.length)


@settings(max_examples=20, deadline=None)
@given(task_graphs(max_nodes=5))
def test_path_dp_equality_property(graph):
    """max-over-paths of min-matching == tree DP, on random DAGs."""
    system = ProcessorSystem.fully_connected(2)
    cost = ChenYuCost(graph, system, max_paths=100_000)
    for node in range(graph.num_nodes):
        for pe in range(system.num_pes):
            assert cost._max_path_bound(node, pe) == pytest.approx(
                cost.dp_bound(node, pe)
            )


@settings(max_examples=15, deadline=None)
@given(scheduling_instances(max_nodes=4, max_pes=2))
def test_chen_yu_distance_scaled(instance):
    graph, _ = instance
    system = ProcessorSystem(3, links=[(0, 1), (1, 2)], distance_scaled=True)
    c = chen_yu_schedule(graph, system)
    e = enumerate_optimal(graph, system)
    assert c.length == pytest.approx(e.length)
