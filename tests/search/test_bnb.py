"""Unit tests for depth-first branch-and-bound."""

import pytest
from hypothesis import given, settings

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.schedule.partial import PartialSchedule
from repro.schedule.validate import schedule_violations
from repro.search.astar import astar_schedule
from repro.search.bnb import bnb_schedule
from repro.search.enumerate import enumerate_optimal
from repro.search.pruning import PruningConfig
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget
from tests.strategies import scheduling_instances


class TestPaperExample:
    def test_optimal(self, fig1_graph, fig1_system):
        result = bnb_schedule(fig1_graph, fig1_system)
        assert result.optimal
        assert result.length == 14.0
        assert schedule_violations(result.schedule) == []

    def test_memory_light_mode(self, fig1_graph, fig1_system):
        result = bnb_schedule(fig1_graph, fig1_system, use_visited=False)
        assert result.optimal
        assert result.length == 14.0

    def test_agrees_with_astar(self, fig1_graph, fig1_system):
        a = astar_schedule(fig1_graph, fig1_system)
        b = bnb_schedule(fig1_graph, fig1_system)
        assert a.length == b.length

    def test_budget(self, fig1_graph, fig1_system):
        result = bnb_schedule(fig1_graph, fig1_system, budget=Budget(max_expanded=1))
        assert not result.optimal
        assert result.schedule is not None  # incumbent = heuristic schedule

    def test_cost_variants(self, fig1_graph, fig1_system):
        for cost in ("paper", "improved", "zero"):
            assert bnb_schedule(fig1_graph, fig1_system, cost=cost).length == 14.0

    def test_stack_memory_smaller_than_astar_open(self, fig1_graph, fig1_system):
        a = astar_schedule(fig1_graph, fig1_system)
        b = bnb_schedule(fig1_graph, fig1_system)
        # DFS keeps a much smaller frontier than best-first OPEN.
        assert b.stats.max_open_size <= a.stats.max_open_size * 2


@settings(max_examples=30, deadline=None)
@given(scheduling_instances(max_nodes=5, max_pes=2))
def test_bnb_matches_exhaustive(instance):
    graph, system = instance
    b = bnb_schedule(graph, system)
    e = enumerate_optimal(graph, system)
    assert b.optimal
    assert b.length == pytest.approx(e.length)


@settings(max_examples=15, deadline=None)
@given(scheduling_instances(max_nodes=4, max_pes=2))
def test_bnb_no_pruning_matches(instance):
    graph, system = instance
    b = bnb_schedule(graph, system, pruning=PruningConfig.none())
    e = enumerate_optimal(graph, system)
    assert b.length == pytest.approx(e.length)


@pytest.mark.parametrize("use_visited", [True, False])
@pytest.mark.parametrize("cost", ["paper", "combined", "load", "zero"])
def test_only_children_the_bound_keeps_are_built(monkeypatch, cost, use_visited):
    """Each child is costed and cut before it is built: ``extend`` runs
    once per generated child, plus once per node for the list-schedule
    fallback — never for a child the bound cuts or a duplicate."""
    graph = paper_random_graph(PaperGraphSpec(num_nodes=9, ccr=1.0, seed=11))
    system = ProcessorSystem.fully_connected(2)
    plain = bnb_schedule(graph, system, cost=cost, use_visited=use_visited)
    calls = 0
    original = PartialSchedule.extend

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PartialSchedule, "extend", counted)
    result = bnb_schedule(graph, system, cost=cost, use_visited=use_visited)
    assert result.length == plain.length and result.optimal
    stats = result.stats
    assert stats.states_generated == plain.stats.states_generated
    assert stats.pruning.upper_bound_cuts > 0
    assert calls == stats.states_generated + graph.num_nodes
