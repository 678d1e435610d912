"""Unit tests for the simulated parallel A*."""

import pytest
from hypothesis import given, settings

from repro.parallel.machine import MachineSpec
from repro.parallel.parallel_astar import parallel_astar_schedule
from repro.schedule.validate import schedule_violations
from repro.search.enumerate import enumerate_optimal
from repro.util.timing import Budget
from repro.workloads.suite import paper_suite
from tests.strategies import scheduling_instances


class TestPaperExample:
    def test_two_ppes_optimal(self, fig1_graph, fig1_system):
        # The configuration of the paper's Figure-5 walk-through.
        par = parallel_astar_schedule(
            fig1_graph, fig1_system, MachineSpec(num_ppes=2, topology="mesh")
        )
        assert par.result.optimal
        assert par.result.length == 14.0
        assert schedule_violations(par.schedule) == []

    @pytest.mark.parametrize("q", [1, 2, 4, 8, 16])
    def test_all_ppe_counts_agree(self, q, fig1_graph, fig1_system):
        par = parallel_astar_schedule(
            fig1_graph, fig1_system, MachineSpec(num_ppes=q)
        )
        assert par.result.length == 14.0

    @pytest.mark.parametrize("topology", ["mesh", "ring", "chain", "clique", "star"])
    def test_topologies_agree(self, topology, fig1_graph, fig1_system):
        par = parallel_astar_schedule(
            fig1_graph, fig1_system, MachineSpec(num_ppes=4, topology=topology)
        )
        assert par.result.length == 14.0

    def test_simulation_accounting(self, fig1_graph, fig1_system):
        par = parallel_astar_schedule(
            fig1_graph, fig1_system, MachineSpec(num_ppes=4)
        )
        assert par.makespan_units > 0
        assert par.phases >= 1
        assert len(par.per_ppe_expansions) == 4
        assert par.total_expansions >= sum(par.per_ppe_expansions)
        assert par.load_imbalance >= 1.0

    def test_extra_states_vs_serial(self, fig1_graph, fig1_system):
        """Figure-5 effect: the parallel run generates extra states."""
        from repro.search.astar import astar_schedule

        serial = astar_schedule(fig1_graph, fig1_system)
        par = parallel_astar_schedule(
            fig1_graph, fig1_system, MachineSpec(num_ppes=4)
        )
        assert par.result.stats.states_generated >= serial.stats.states_generated

    def test_budget_terminates(self, fig1_graph, fig1_system):
        par = parallel_astar_schedule(
            fig1_graph,
            fig1_system,
            MachineSpec(num_ppes=2),
            budget=Budget(max_expanded=4),
        )
        assert par.schedule is not None

    def test_epsilon_bound(self, fig1_graph, fig1_system):
        par = parallel_astar_schedule(
            fig1_graph, fig1_system, MachineSpec(num_ppes=4), epsilon=0.5
        )
        assert par.result.length <= 1.5 * 14.0 + 1e-9
        assert par.result.bound == pytest.approx(1.5)


class TestBudgets:
    """The PPEs run the serial loop, so its budget checks and floor
    exit hold for the whole simulated machine."""

    def test_expansion_budget_is_exact(self):
        inst = paper_suite().get(1.0, 12)
        par = parallel_astar_schedule(
            inst.graph, inst.system, MachineSpec(num_ppes=4),
            budget=Budget(max_expanded=2000),
        )
        assert par.result.interrupted == "expansions"
        assert par.result.stats.states_expanded == 2000
        assert par.result.stats.states_expanded == par.total_expansions

    def test_tracked_states_ceiling_stops_the_run(self):
        inst = paper_suite().get(10.0, 12)
        par = parallel_astar_schedule(
            inst.graph, inst.system, MachineSpec(num_ppes=4),
            budget=Budget(max_tracked_states=500),
        )
        assert par.result.interrupted == "memory"
        assert not par.result.optimal

    def test_seed_phase_floor_proves_the_list_schedule(self):
        """Serial A* proves this row in 2 expansions; so does the seed
        phase, and no PPE expands anything."""
        inst = paper_suite().get(0.1, 16)
        par = parallel_astar_schedule(
            inst.graph, inst.system, MachineSpec(num_ppes=4),
            budget=Budget(max_expanded=200_000),
        )
        assert par.result.optimal
        assert par.result.length == 380.0
        assert par.phases == 0
        assert par.total_expansions == par.seed_expansions == 2


class TestLoadSharing:
    def test_moved_state_is_kept_when_the_receiver_has_seen_it(self):
        """A receiver's CLOSED list starts with every seed, also those
        dealt to the donor, so a moved state it "has seen" may be held
        nowhere else.  On this instance load sharing used to drop such
        a state (f = 34, on the only optimal path) and 2 PPEs proved 35."""
        from repro.graph.taskgraph import TaskGraph
        from repro.system.processors import ProcessorSystem

        graph = TaskGraph(
            [1.0, 1.0, 15.0, 5.0, 16.0, 13.0, 14.0],
            {(0, 1): 1.0, (0, 2): 8.0, (1, 3): 0.0, (1, 4): 9.0,
             (1, 6): 0.0, (3, 5): 7.0, (4, 6): 0.0, (5, 6): 0.0},
        )
        system = ProcessorSystem.fully_connected(2)
        assert enumerate_optimal(graph, system).length == 34.0
        par = parallel_astar_schedule(graph, system, MachineSpec(num_ppes=2))
        assert par.result.optimal
        assert par.result.length == 34.0


class TestDefaults:
    def test_default_spec(self, fig1_graph, fig1_system):
        par = parallel_astar_schedule(fig1_graph, fig1_system)
        assert par.spec.num_ppes == 4
        assert par.result.length == 14.0


class TestPopTailHeapTrick:
    def test_pop_tail_preserves_heap_invariant(self):
        """Removing the last array element of a binary heap is always safe
        (it is a leaf); verify pops stay sorted afterwards."""
        import heapq
        import random

        from repro.parallel.parallel_astar import _PPE

        rng = random.Random(7)
        ppe = _PPE(index=0)
        for i in range(200):
            heapq.heappush(ppe.open_heap, (rng.random(), 0.0, i, None))
        removed = [ppe.pop_tail() for _ in range(50)]
        assert len(ppe.open_heap) == 150
        drained = [heapq.heappop(ppe.open_heap)[0] for _ in range(150)]
        assert drained == sorted(drained)
        # Tail pops never stole the global minimum.
        assert min(e[0] for e in removed) >= drained[0]


@settings(max_examples=20, deadline=None)
@given(scheduling_instances(max_nodes=5, max_pes=2))
def test_parallel_matches_exhaustive(instance):
    """The parallel engine proves the same optima as exhaustive search."""
    graph, system = instance
    par = parallel_astar_schedule(graph, system, MachineSpec(num_ppes=4))
    opt = enumerate_optimal(graph, system).length
    assert par.result.optimal
    assert par.result.length == pytest.approx(opt)


@settings(max_examples=12, deadline=None)
@given(scheduling_instances(max_nodes=5, max_pes=2))
def test_parallel_focal_respects_bound(instance):
    graph, system = instance
    opt = enumerate_optimal(graph, system).length
    for eps in (0.2, 0.5):
        par = parallel_astar_schedule(
            graph, system, MachineSpec(num_ppes=4), epsilon=eps
        )
        assert par.result.length <= (1 + eps) * opt + 1e-9


class TestEpsilonTerminationDrift:
    """Regression (ISSUE 3): the ε-termination comparison used raw
    floats with an inconsistent absolute epsilon; exact (ε = 0) runs on
    costs like 0.1 + 0.2 could terminate one ulp early or fail to stop
    on a plateau that only exists as rounding noise."""

    def _drifty_instance(self):
        from repro.graph.taskgraph import TaskGraph
        from repro.system.processors import ProcessorSystem

        # Fork-join over binary-drifty weights: the two branch sums
        # (0.1 + 0.2 vs 0.3) are mathematically equal but differ in the
        # last ulp, so f-values on the optimal plateau disagree by drift.
        graph = TaskGraph(
            [0.1, 0.1, 0.2, 0.3, 0.1],
            {(0, 1): 0.1, (0, 3): 0.1, (1, 2): 0.2, (2, 4): 0.1, (3, 4): 0.2},
            name="drift",
        )
        return graph, ProcessorSystem.fully_connected(2)

    def test_exact_run_terminates_and_matches_serial(self):
        from repro.search.astar import astar_schedule

        graph, system = self._drifty_instance()
        serial = astar_schedule(graph, system)
        par = parallel_astar_schedule(graph, system, epsilon=0.0)
        assert par.result.optimal
        assert serial.optimal
        assert par.result.schedule.length == pytest.approx(
            serial.length, abs=1e-12
        )

    def test_epsilon_run_respects_bound_on_drifty_costs(self):
        import math

        from repro.search.astar import astar_schedule

        graph, system = self._drifty_instance()
        serial = astar_schedule(graph, system)
        par = parallel_astar_schedule(graph, system, epsilon=0.2)
        assert math.isfinite(par.result.bound)
        assert par.result.schedule.length <= 1.2 * serial.length * (1 + 1e-9)
