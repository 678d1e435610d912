"""The anytime contract: budget exhaustion returns incumbent + bound.

Every engine promises that on ANY budget exit (expansions, time,
memory, interrupt) the :class:`SearchResult` carries

* a feasible incumbent schedule (never ``None``, never an exception),
* ``lower_bound`` — a certified floor on the optimal makespan
  (``lower_bound <= optimal <= length``), and
* ``interrupted`` — which budget dimension ended the search.

That bracket is what lets the portfolio hand out *certified
approximate* answers when the exact search cannot finish.
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
from repro.util.timing import Budget

ENGINES = [
    ("astar", lambda g, s, b: astar_schedule(g, s, budget=b)),
    ("bnb", lambda g, s, b: bnb_schedule(g, s, budget=b)),
    ("idastar", lambda g, s, b: idastar_schedule(g, s, budget=b)),
    ("wastar", lambda g, s, b: weighted_astar_schedule(g, s, 0.2, budget=b)),
    ("focal", lambda g, s, b: focal_schedule(g, s, 0.2, budget=b)),
    ("parallel_astar", lambda g, s, b: parallel_astar_schedule(
        g, s, MachineSpec(num_ppes=4), budget=b).result),
]

INSTANCES = [(9, 0.5, 2), (10, 1.0, 7), (9, 5.0, 13)]


@pytest.fixture(scope="module")
def optima():
    """True optimal lengths, computed once per instance."""
    out = {}
    for v, ccr, seed in INSTANCES:
        graph = paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=ccr, seed=seed))
        system = ProcessorSystem.fully_connected(3)
        out[(v, ccr, seed)] = (graph, system, astar_schedule(graph, system).length)
    return out


class TestBudgetExitBracket:
    @pytest.mark.parametrize("name,run", ENGINES, ids=[e[0] for e in ENGINES])
    @pytest.mark.parametrize("key", INSTANCES, ids=str)
    def test_expansion_budget_brackets_optimum(self, name, run, key, optima):
        graph, system, opt = optima[key]
        budget = Budget(max_expanded=8)
        result = run(graph, system, budget)
        assert result.schedule is not None
        validate_schedule(result.schedule)
        assert result.interrupted == "expansions"
        assert result.lower_bound <= opt + 1e-9
        assert result.length >= opt - 1e-9
        assert result.lower_bound <= result.length + 1e-9

    @pytest.mark.parametrize("name,run", ENGINES, ids=[e[0] for e in ENGINES])
    def test_interrupt_is_an_anytime_exit_too(self, name, run, optima):
        """An interrupt landing mid-search (the SIGINT path — a signal
        handler calling ``budget.interrupt()`` while the engine runs)
        behaves exactly like any other exhaustion: incumbent + bound,
        no exception.  Delivered deterministically on the third budget
        check rather than from a real timer."""
        graph, system, opt = optima[INSTANCES[0]]
        budget = Budget()
        real_exhausted = budget.exhausted
        checks = 0

        def interrupt_on_third(expanded, generated, tracked=0):
            nonlocal checks
            checks += 1
            if checks == 3:
                budget.interrupt()
            return real_exhausted(expanded, generated, tracked)

        budget.exhausted = interrupt_on_third  # instance attr shadows method
        result = run(graph, system, budget)
        assert result.schedule is not None
        assert result.interrupted == "interrupt"
        assert result.lower_bound <= opt + 1e-9

    @pytest.mark.parametrize("name,run", ENGINES, ids=[e[0] for e in ENGINES])
    @pytest.mark.parametrize("key", INSTANCES, ids=str)
    def test_unbudgeted_run_reports_exact_bracket(self, name, run, key, optima):
        """With no budget pressure the bracket closes: for exact
        engines lower_bound == length == optimal; for the bounded-
        suboptimal engines the bound certifies the epsilon guarantee
        (length <= (1+eps) * lower_bound)."""
        graph, system, opt = optima[key]
        result = run(graph, system, Budget())
        assert result.interrupted is None
        assert result.lower_bound <= opt + 1e-9
        if name in ("astar", "bnb", "idastar", "parallel_astar"):
            assert result.optimal
            assert result.lower_bound == pytest.approx(result.length)
            assert result.length == pytest.approx(opt)
        else:
            assert result.length <= 1.2 * result.lower_bound + 1e-9

    def test_growing_budget_tightens_monotonically(self, optima):
        """More budget never loosens the bracket: the incumbent only
        improves and the floor only rises (per-engine running max)."""
        graph, system, opt = optima[(10, 1.0, 7)]
        prev_len, prev_lb = float("inf"), 0.0
        for cap in (4, 16, 64, 100_000):
            result = astar_schedule(graph, system, budget=Budget(max_expanded=cap))
            assert result.length <= prev_len + 1e-9
            assert result.lower_bound >= prev_lb - 1e-9
            prev_len, prev_lb = result.length, result.lower_bound
        assert result.optimal and result.length == pytest.approx(opt)
