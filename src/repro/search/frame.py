"""One search frame: the set-up and the exit every engine shares.

Every engine runs the paper's one state-space search (§3.1–3.4), so a
:class:`SearchFrame`, built once per solve, owns all but the engine's
own loop: the ``pruning``/``cost``/``budget`` defaults and the budget's
start, the :class:`SearchStats`/:class:`StateExpander` pair, the
list-schedule fallback and ``U``, the root state, the timer, and the
one exit, :meth:`SearchFrame.finish`, which decides the certificate.
An engine keeps its loop, its ``U``-cut test, its floor and its labels;
the frame adds no call per child.
"""

from __future__ import annotations

import math
import time

from repro.graph.taskgraph import TaskGraph
from repro.heuristics.listsched import fast_upper_bound_schedule
from repro.obs.probe import SearchProbe
from repro.schedule.partial import PartialSchedule
from repro.schedule.schedule import Schedule
from repro.search.costs import CostFunction, make_cost_function
from repro.search.expansion import StateExpander
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult, SearchStats, certify
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget

__all__ = ["SearchFrame"]


class SearchFrame:
    """The set-up and the exit of one solve.

    ``fallback`` is the §3.2 list schedule, or the caller's
    ``incumbent`` when that is shorter; ``upper`` is ``U``, its length
    (``inf`` with the upper-bound rule off).
    """

    __slots__ = ("graph", "pruning", "cost_fn", "budget", "stats", "expander",
                 "fallback", "upper", "probe", "root", "_t0")

    def __init__(
        self,
        graph: TaskGraph,
        system: ProcessorSystem,
        *,
        pruning: PruningConfig | None = None,
        cost: str | CostFunction = "paper",
        budget: Budget | None = None,
        incumbent: Schedule | None = None,
        state_cls: type = PartialSchedule,
        probe: SearchProbe | None = None,
    ) -> None:
        self.graph = graph
        if pruning is None:
            pruning = PruningConfig.all()
        self.pruning = pruning
        self.cost_fn = (make_cost_function(cost, graph, system)
                        if isinstance(cost, str) else cost)
        self.budget = budget = budget if budget is not None else Budget.unlimited()
        budget.start()
        self.stats = SearchStats()
        self.expander = StateExpander(graph, system, pruning, self.stats.pruning)
        # Upper-bound pruning cost U (§3.2) and fallback schedule.
        fallback = fast_upper_bound_schedule(graph, system)
        if incumbent is not None and incumbent.length < fallback.length:
            fallback = incumbent
        self.fallback = fallback
        self.upper = fallback.length if pruning.upper_bound else math.inf
        self.probe = probe
        self._t0 = time.perf_counter()
        self.root = state_cls.empty(graph, system)

    def elapsed(self) -> float:
        """Seconds since the search started."""
        return time.perf_counter() - self._t0

    @property
    def stop_reason(self) -> str:
        """The ``interrupted`` label of a run its budget stopped."""
        return self.budget.reason or "budget"

    def finish(
        self, schedule: Schedule | None, lower: float, *, algorithm: str,
        bound: float = 1.0, interrupted: str | None = None,
        open_size: int = 0,
    ) -> SearchResult:
        """The one exit: stamp the stats, close the probe, build the result.

        ``schedule`` is the best the engine found (``None``: the
        fallback), ``lower`` its proven floor on the optimum, ``bound``
        the ratio a run that ends on its own proves (``1 + ε``) and
        ``interrupted`` why a budget or a failure stopped it (the bound
        is then ``inf``).  :func:`~repro.search.result.certify` decides.
        """
        if schedule is None:
            schedule = self.fallback
        stats, probe, length = self.stats, self.probe, schedule.length
        stats.wall_seconds = self.elapsed()
        # += not =: the HDA* coordinator has already folded its workers'
        # evaluations in; every other engine arrives here with 0.
        stats.cost_evaluations += self.cost_fn.evaluations
        verdict = certify(length, lower,
                          bound if interrupted is None else math.inf,
                          interrupted)
        if probe is not None:
            probe.finish(stats.states_expanded, open_size, length,
                         verdict.lower_bound)
        return SearchResult(
            schedule=schedule, optimal=verdict.optimal, bound=verdict.bound,
            stats=stats, algorithm=algorithm, lower_bound=verdict.lower_bound,
            interrupted=verdict.interrupted,
            timeline=probe.timeline() if probe is not None else (),
        )
