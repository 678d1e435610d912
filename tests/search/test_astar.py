"""Unit tests for the serial A* scheduler."""

import pytest
from hypothesis import given, settings

from repro.graph.generators.classic import (
    chain_graph,
    fork_join_graph,
    independent_tasks,
)
from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.taskgraph import TaskGraph
from repro.schedule.preprocess import preprocess_instance
from repro.schedule.validate import schedule_violations
from repro.search.astar import astar_schedule
from repro.search.enumerate import enumerate_optimal
from repro.search.pruning import PruningConfig
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget
from repro.workloads.suite import paper_suite
from tests.strategies import scheduling_instances


class TestPaperExample:
    def test_optimal_length_14(self, fig1_graph, fig1_system):
        result = astar_schedule(fig1_graph, fig1_system)
        assert result.optimal
        assert result.schedule.length == 14.0

    def test_schedule_feasible(self, fig1_graph, fig1_system):
        result = astar_schedule(fig1_graph, fig1_system)
        assert schedule_violations(result.schedule) == []

    def test_pruning_shrinks_search(self, fig1_graph, fig1_system):
        full = astar_schedule(fig1_graph, fig1_system, pruning=PruningConfig.all())
        none = astar_schedule(fig1_graph, fig1_system, pruning=PruningConfig.none())
        assert full.length == none.length == 14.0
        assert full.stats.states_generated < none.stats.states_generated
        assert full.stats.states_expanded < none.stats.states_expanded

    def test_far_below_exhaustive_tree(self, fig1_graph, fig1_system):
        # The paper: exhaustive tree > 3^6 = 729 states; pruned A* well under.
        result = astar_schedule(fig1_graph, fig1_system)
        assert result.stats.states_generated < 100


class TestTrivialInstances:
    def test_single_node(self):
        g = TaskGraph([5], {})
        result = astar_schedule(g, ProcessorSystem(2))
        assert result.optimal
        assert result.schedule.length == 5.0

    def test_chain_on_one_pe(self):
        g = chain_graph(4, comp=10, comm=100)
        result = astar_schedule(g, ProcessorSystem(3))
        assert result.schedule.length == 40.0
        assert result.schedule.num_used_pes == 1

    def test_independent_spread(self):
        g = independent_tasks(3, comp=10)
        result = astar_schedule(g, ProcessorSystem(3))
        assert result.schedule.length == 10.0

    def test_fork_join(self):
        g = fork_join_graph(2, comp=10, comm=1)
        result = astar_schedule(g, ProcessorSystem(2))
        # fork + parallel(10,10 with comm 1) + join: 10 + 11 + 10 = 31.
        assert result.schedule.length == 31.0

    def test_single_pe_is_serialization(self):
        g = fork_join_graph(3, comp=10, comm=5)
        result = astar_schedule(g, ProcessorSystem(1))
        assert result.schedule.length == g.total_computation


class TestCostFunctions:
    @pytest.mark.parametrize("cost", ["paper", "zero", "improved"])
    def test_all_costs_agree(self, cost, fig1_graph, fig1_system):
        result = astar_schedule(fig1_graph, fig1_system, cost=cost)
        assert result.optimal
        assert result.schedule.length == 14.0

    def test_paper_cheaper_per_eval_than_improved(self, fig1_graph, fig1_system):
        paper = astar_schedule(fig1_graph, fig1_system, cost="paper")
        improved = astar_schedule(fig1_graph, fig1_system, cost="improved")
        # The tighter bound expands no more states.
        assert improved.stats.states_expanded <= paper.stats.states_expanded


class TestHeterogeneous:
    def test_prefers_fast_pe(self):
        g = chain_graph(2, comp=10, comm=0)
        s = ProcessorSystem(2, speeds=[1.0, 2.0])
        result = astar_schedule(g, s)
        assert result.schedule.length == 10.0  # both tasks on the 2x PE

    def test_hetero_matches_enumeration(self, small_random_graphs):
        s = ProcessorSystem(2, speeds=[1.0, 2.0])
        for g in small_random_graphs[:3]:
            a = astar_schedule(g, s)
            e = enumerate_optimal(g, s)
            assert a.length == pytest.approx(e.length)


class TestDistanceScaled:
    def test_matches_enumeration(self, small_random_graphs):
        s = ProcessorSystem(3, links=[(0, 1), (1, 2)], distance_scaled=True)
        for g in small_random_graphs[:3]:
            a = astar_schedule(g, s)
            e = enumerate_optimal(g, s)
            assert a.length == pytest.approx(e.length)


class TestBudget:
    def test_budget_returns_fallback(self, fig1_graph, fig1_system):
        result = astar_schedule(
            fig1_graph, fig1_system, budget=Budget(max_expanded=2)
        )
        assert not result.optimal
        assert result.schedule is not None
        assert schedule_violations(result.schedule) == []
        assert "budget" in result.algorithm

    def test_generation_budget(self, fig1_graph, fig1_system):
        result = astar_schedule(
            fig1_graph, fig1_system, budget=Budget(max_generated=3)
        )
        assert not result.optimal
        assert result.schedule is not None


class TestFloorExit:
    """A running floor that meets ``U`` proves the incumbent: A* stops
    there instead of expanding on until its budget or a goal."""

    def test_suite_row_proves_its_list_schedule(self):
        row = paper_suite().get(0.1, 16)
        result = astar_schedule(row.graph, row.system,
                                budget=Budget(max_expanded=20_000))
        assert result.algorithm == "astar(floor)"
        assert result.certificate == "proven"
        assert result.length == result.lower_bound == 380.0
        assert result.stats.states_expanded <= 10

    @pytest.mark.parametrize("commutation", [False, True])
    def test_preprocessed_instance_proves_with_and_without_commutation(
        self, commutation
    ):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=16, ccr=0.1, seed=7))
        system = ProcessorSystem.fully_connected(2)
        pre = preprocess_instance(graph, system)
        result = astar_schedule(pre.graph, system, cost="combined",
                                pruning=PruningConfig(commutation=commutation))
        assert result.certificate == "proven"
        assert result.length == 540.0
        assert result.stats.states_expanded <= 10

    def test_floor_exit_expands_no_children(self, fig1_graph, fig1_system):
        """The last pop counts as an expansion with no children, as the
        goal pop does; the worked example meets ``U`` only at its goal."""
        result = astar_schedule(fig1_graph, fig1_system)
        assert result.algorithm == "astar"
        assert result.stats.states_expanded == 35


class TestStats:
    def test_counters_populated(self, fig1_graph, fig1_system):
        result = astar_schedule(fig1_graph, fig1_system)
        s = result.stats
        assert s.states_generated > 0
        assert s.states_expanded > 0
        assert s.cost_evaluations >= s.states_generated
        assert s.wall_seconds >= 0
        assert s.max_open_size > 0

    def test_bound_is_one_for_exact(self, fig1_graph, fig1_system):
        assert astar_schedule(fig1_graph, fig1_system).bound == 1.0


@settings(max_examples=40, deadline=None)
@given(scheduling_instances(max_nodes=5, max_pes=3))
def test_astar_matches_exhaustive(instance):
    """A* with full pruning equals exhaustive optimum (ground truth)."""
    graph, system = instance
    a = astar_schedule(graph, system)
    e = enumerate_optimal(graph, system)
    assert a.optimal
    assert a.length == pytest.approx(e.length)
    assert schedule_violations(a.schedule) == []


@settings(max_examples=25, deadline=None)
@given(scheduling_instances(max_nodes=5, max_pes=2))
def test_each_pruning_rule_preserves_optimality(instance):
    graph, system = instance
    reference = enumerate_optimal(graph, system).length
    for kwargs in (
        dict(processor_isomorphism=True),
        dict(node_equivalence=True),
        dict(priority_ordering=True),
        dict(upper_bound=True),
    ):
        config = PruningConfig.only(**kwargs)
        result = astar_schedule(graph, system, pruning=config)
        assert result.length == pytest.approx(reference), (
            f"pruning {config.describe()} broke optimality"
        )
