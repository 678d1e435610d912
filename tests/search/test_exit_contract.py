"""Every engine reports through the same exit contract.

Each engine is driven to its goal, budget and exhausted exits, the
best-first engines also to their floor exit, and each result must hold:

* ``lower_bound <= length``;
* the certificate is ``proven`` exactly when ``lower_bound == length``;
* ``stats.cost_evaluations`` equals the ``evaluations`` count of the
  :class:`CostFunction` instance passed in (every engine but ``hda``,
  whose workers build their own cost function from its name);
* where the engine takes a probe, the final timeline sample carries the
  result's length and lower bound.

The exhausted exit is forced with a cost function that puts every
child above the list-schedule bound ``U``, so OPEN (or the stack) runs
dry without a goal.  HDA* takes a cost *name*, so its exhausted exit is
forced instead with the optimum as the incumbent: its ``f ≥ U`` cut
then drops every state.

The floor exit runs on the paper suite's v16/CCR 0.1 row, whose list
schedule is optimal: the best-first loop's floor meets ``U`` at its
second pop, before any goal, so A* and Aε* stop there
(``astar(floor)``, ``focal(eps=0.5,floor)``) and HDA*'s seed phase
proves the answer before any worker starts; IDA*'s second threshold,
set by the root's children, meets ``U``, so it stops before that
probe (``idastar(floor)``) after 1 expansion.
"""

from __future__ import annotations

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.obs.probe import SearchProbe
from repro.parallel.hda import hda_astar_schedule
from repro.parallel.machine import MachineSpec
from repro.parallel.parallel_astar import parallel_astar_schedule
from repro.search.astar import astar_schedule
from repro.search.bnb import bnb_schedule
from repro.search.costs import CostFunction, PaperCost
from repro.search.focal import focal_schedule
from repro.search.idastar import idastar_schedule
from repro.search.weighted import weighted_astar_schedule
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget
from repro.workloads.suite import paper_suite

ENGINES = ("astar", "wastar", "focal", "bnb", "idastar", "parallel_astar", "hda")
EXITS = ("goal", "budget", "exhausted")
#: Engines whose loop stops where its floor meets ``U``.
FLOORED = ("astar", "focal", "idastar", "hda")
#: Engines that take a ``probe=``.
PROBED = {"astar", "wastar", "focal", "bnb", "idastar", "hda"}


class _AboveBound(CostFunction):
    """Inadmissible on purpose: every incomplete state but the root
    costs far more than any schedule, so the upper-bound cut drops
    every child.  The root costs 0: IDA*'s first threshold is its ``f``,
    and one above ``U`` would take the floor exit instead."""

    name = "above-bound"

    def h(self, ps) -> float:
        self.evaluations += 1
        return 0.0 if ps.num_scheduled in (0, self.graph.num_nodes) else 1e9


def _instance(exit_):
    if exit_ == "floor":
        row = paper_suite().get(0.1, 16)
        return row.graph, row.system
    graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=77))
    return graph, ProcessorSystem.fully_connected(2)


def _solve(engine, graph, system, *, cost, budget, incumbent, probe):
    kw = {"cost": cost, "budget": budget}
    if engine == "parallel_astar":
        return parallel_astar_schedule(
            graph, system, MachineSpec(num_ppes=2), **kw,
        ).result
    kw.update(incumbent=incumbent, probe=probe)
    if engine == "astar":
        return astar_schedule(graph, system, **kw)
    if engine == "wastar":
        return weighted_astar_schedule(graph, system, 0.5, **kw)
    if engine == "focal":
        return focal_schedule(graph, system, 0.5, **kw)
    if engine == "bnb":
        return bnb_schedule(graph, system, **kw)
    if engine == "idastar":
        return idastar_schedule(graph, system, **kw)
    return hda_astar_schedule(graph, system, workers=2, **kw)


@pytest.mark.timeout(120)
@pytest.mark.parametrize(("engine", "exit_"), [
    *((engine, exit_) for engine in ENGINES for exit_ in EXITS),
    *((engine, "floor") for engine in FLOORED),
])
def test_exit_contract(engine, exit_):
    graph, system = _instance(exit_)
    budget = Budget(max_expanded=3) if exit_ == "budget" else None
    incumbent = None
    if engine == "hda":
        cost_fn = None
        cost = "paper"
        if exit_ == "exhausted":
            incumbent = astar_schedule(graph, system).schedule
    else:
        cls = _AboveBound if exit_ == "exhausted" else PaperCost
        cost_fn = cost = cls(graph, system)
    probe = SearchProbe(every=16) if engine in PROBED else None

    res = _solve(engine, graph, system, cost=cost, budget=budget,
                 incumbent=incumbent, probe=probe)

    if exit_ == "budget":
        assert not res.optimal
        assert res.interrupted == "expansions"
    else:
        assert res.interrupted is None
        assert res.certificate in ("proven", "epsilon")
    if exit_ == "exhausted" and engine in ("astar", "wastar", "focal", "idastar"):
        assert "exhausted" in res.algorithm
    if exit_ == "floor":
        assert res.certificate == "proven"
        assert res.stats.states_expanded == (1 if engine == "idastar" else 2)
        assert ("floor" if engine != "hda" else "seed") in res.algorithm
    assert res.lower_bound <= res.length
    assert res.optimal == (res.lower_bound == res.length)
    if cost_fn is not None:
        assert res.stats.cost_evaluations == cost_fn.evaluations
    if probe is not None:
        last = res.timeline[-1]
        assert last.incumbent == res.length
        assert last.lower_bound == res.lower_bound
