"""The Budget memory guard: searches stop at the ceiling, gracefully.

An exact search on a hostile instance grows OPEN/CLOSED without bound;
the guard turns "the OOM killer got us" into "here is the incumbent,
the tightest proven lower bound, and reason='memory'".  Two ceilings
exist: ``max_tracked_states`` (engine-reported open+closed footprint,
checked every call — deterministic, used by most tests here) and
``max_memory_mb`` (process RSS, sampled periodically).
"""

from __future__ import annotations

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.parallel.machine import MachineSpec
from repro.parallel.parallel_astar import parallel_astar_schedule
from repro.schedule.validate import validate_schedule
from repro.search.astar import astar_schedule
from repro.search.bnb import bnb_schedule
from repro.search.focal import focal_schedule
from repro.search.idastar import idastar_schedule
from repro.search.weighted import weighted_astar_schedule
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget, process_rss_mb


def hard_instance(seed: int = 7, v: int = 16):
    graph = paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=1.0, seed=seed))
    return graph, ProcessorSystem.fully_connected(4)


ENGINES = [
    ("astar", lambda g, s, b: astar_schedule(g, s, budget=b)),
    ("bnb", lambda g, s, b: bnb_schedule(g, s, budget=b)),
    ("idastar", lambda g, s, b: idastar_schedule(g, s, budget=b)),
    ("wastar", lambda g, s, b: weighted_astar_schedule(g, s, 0.2, budget=b)),
    ("focal", lambda g, s, b: focal_schedule(g, s, 0.2, budget=b)),
    ("parallel_astar", lambda g, s, b: parallel_astar_schedule(
        g, s, MachineSpec(num_ppes=4), budget=b).result),
]


class TestTrackedStatesCeiling:
    @pytest.mark.parametrize("name,run", ENGINES, ids=[e[0] for e in ENGINES])
    def test_engines_stop_at_ceiling_with_incumbent(self, name, run):
        """Every engine aborts at the tracked-state ceiling and still
        returns a feasible incumbent, an unproven certificate, and a
        memory interrupt reason — never an exception."""
        graph, system = hard_instance()
        budget = Budget(max_tracked_states=50)
        result = run(graph, system, budget)
        assert result.schedule is not None
        validate_schedule(result.schedule)
        assert not result.optimal
        assert result.certificate == "budget"
        assert result.interrupted == "memory"
        assert budget.reason == "memory"

    @pytest.mark.parametrize("name,run", ENGINES, ids=[e[0] for e in ENGINES])
    def test_lower_bound_at_ceiling_is_sound(self, name, run):
        """The lower bound reported on a memory abort must bracket the
        true optimum from below (and never exceed the incumbent)."""
        graph, system = hard_instance(seed=11, v=12)
        optimal = astar_schedule(graph, system).length
        budget = Budget(max_tracked_states=40)
        result = run(graph, system, budget)
        assert result.lower_bound <= optimal + 1e-9
        assert result.lower_bound <= result.length + 1e-9
        assert result.lower_bound > 0.0

    def test_unconstrained_budget_never_reports_memory(self):
        graph, system = hard_instance(seed=3, v=10)
        budget = Budget()
        result = astar_schedule(graph, system, budget=budget)
        assert result.optimal
        assert result.interrupted is None
        assert budget.reason is None


class TestRssCeiling:
    def test_process_rss_mb_reports_positive(self):
        """The /proc (or getrusage) probe works on this platform — the
        RSS guard is not silently disabled."""
        rss = process_rss_mb()
        assert rss > 1.0  # a Python interpreter is many MB

    def test_tiny_rss_ceiling_aborts_immediately(self):
        """An RSS ceiling below the interpreter's own footprint trips
        on the first check: the search still returns its incumbent."""
        graph, system = hard_instance(seed=5, v=12)
        budget = Budget(max_memory_mb=1.0)
        result = astar_schedule(graph, system, budget=budget)
        assert result.schedule is not None
        assert not result.optimal
        assert result.interrupted == "memory"

    def test_generous_rss_ceiling_does_not_trip(self):
        graph, system = hard_instance(seed=5, v=10)
        budget = Budget(max_memory_mb=1024 * 1024.0)  # 1 TiB
        result = astar_schedule(graph, system, budget=budget)
        assert result.optimal
        assert result.interrupted is None


class TestBudgetReasonPriority:
    def test_interrupt_wins_over_everything(self):
        budget = Budget(max_expanded=1, max_memory_mb=0.001)
        budget.start()
        budget.interrupt()
        assert budget.exhausted(10**9, 10**9, tracked=10**9)
        assert budget.reason == "interrupt"

    def test_expansions_reported_before_memory(self):
        budget = Budget(max_expanded=5, max_tracked_states=1)
        budget.start()
        assert budget.exhausted(5, 0, tracked=100)
        assert budget.reason == "expansions"

    def test_memory_reason_from_tracked_states(self):
        budget = Budget(max_tracked_states=10)
        budget.start()
        assert not budget.exhausted(1, 1, tracked=9)
        assert budget.exhausted(1, 1, tracked=10)
        assert budget.reason == "memory"
