"""The serial A* scheduling algorithm (paper §3.1-3.2) and the one
best-first loop that A*, weighted A* and Aε* share.

Algorithm (paper, "THE SERIAL A* SCHEDULING ALGORITHM"):

1. Put the initial (empty) state in OPEN with ``f(Φ) = 0``.
2. Remove from OPEN the state with the smallest ``f``; move it to CLOSED.
3. If it is a goal state (complete schedule) — stop: the schedule is
   optimal (Theorem 1: ``h`` admissible).
4. Otherwise expand it by exhaustively matching ready nodes to
   processors (filtered by the §3.2 pruning rules), compute
   ``f = g + h`` for each child, insert into OPEN, go to 2.

Implementation notes:

* Step 2's "smallest ``f``" is the only line that differs between A*
  and its bounded-suboptimal relatives (weighted A*, Aε* §3.4), so the
  loop (:func:`_best_first`) takes OPEN as an *order* object and never
  asks which engine called it.  A* and weighted A* pass
  :class:`_WeightedOrder`; :mod:`repro.search.focal` passes its
  FOCAL structure.
* A*'s OPEN is a binary heap ordered by ``(f, h, seq)`` — the ``h``
  tie-break prefers states closer to a goal, ``seq`` makes equal
  entries FIFO and the whole search deterministic.
* OPEN/CLOSED duplicate detection share one signature set: a state's
  signature fully determines ``g`` and ``h``, so a duplicate can never
  need re-opening — the first copy always has the same ``f``.
* States whose ``f`` exceeds the upper bound ``U`` (linear-time list
  schedule, §3.2) are discarded at generation time; ``U`` tightens to
  every shorter complete schedule generated.
* On budget exhaustion the best complete schedule seen so far (or the
  ``U`` heuristic schedule) is returned with ``optimal=False``.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import NamedTuple

from repro.graph.taskgraph import TaskGraph
from repro.heuristics.listsched import fast_upper_bound_schedule
from repro.obs.probe import SearchProbe
from repro.schedule.partial import PartialSchedule
from repro.schedule.schedule import Schedule
from repro.search.costs import CostFunction, make_cost_function
from repro.search.dedup import SignatureSet
from repro.search.diagnostics import SearchTrace
from repro.search.expansion import StateExpander
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult, SearchStats
from repro.system.processors import ProcessorSystem
from repro.util import tolerance as tol
from repro.util.timing import Budget

__all__ = ["astar_schedule"]


class _Outcome(NamedTuple):
    """How :func:`_best_first` stopped; each engine labels it."""

    status: str  # "goal", "budget" or "exhausted"
    schedule: Schedule
    lower_bound: float
    stats: SearchStats
    interrupted: str | None
    timeline: tuple


class _WeightedOrder:
    """OPEN as one heap keyed ``(g + w·h, h, seq)``.

    ``w = 1`` is A*; ``w = 1 + ε`` is weighted A*, whose first goal
    popped is within ``w`` of optimal (:mod:`repro.search.weighted`).
    """

    __slots__ = ("factor", "_heap", "_seq")

    def __init__(self, w: float) -> None:
        #: Proven ratio of the first goal popped to the optimum.
        self.factor = w
        self._heap: list[tuple[float, float, int, PartialSchedule]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def floor(self) -> float:
        # Some optimal-path state sits in OPEN with g + h ≤ f_opt, so
        # its key g + w·h ≤ w·f_opt: the minimum key over w is a floor.
        return self._heap[0][0] / self.factor

    def push(self, state: PartialSchedule, f: float, h: float) -> None:
        heapq.heappush(
            self._heap, (state.makespan + self.factor * h, h, self._seq, state)
        )
        self._seq += 1

    def pop(self) -> tuple[PartialSchedule, float, float]:
        key, h, _seq, state = heapq.heappop(self._heap)
        return state, h, key / self.factor


def _best_first(
    graph: TaskGraph,
    system: ProcessorSystem,
    order,
    *,
    pruning: PruningConfig | None,
    cost: str | CostFunction,
    budget: Budget | None,
    state_cls: type,
    incumbent: Schedule | None,
    probe: SearchProbe | None,
    trace: SearchTrace | None = None,
) -> _Outcome:
    """Best-first search over the §3.2 state space, expanding in ``order``.

    ``order`` is the engine's OPEN.  It offers ``push(state, f, h)``,
    ``len()``, ``floor()`` — a proven lower bound on the optimum while
    OPEN is non-empty — ``pop() -> (state, h, floor)`` with the floor
    taken just before the pop, and ``factor``, the proven ratio of the
    first goal it pops to the optimum.  Everything else is done here,
    once: set-up and the list-schedule bound ``U``, budget/probe/trace
    bookkeeping, child evaluation and the goal, budget and exhausted
    exits.
    """
    if pruning is None:
        pruning = PruningConfig.all()
    if isinstance(cost, str):
        cost_fn = make_cost_function(cost, graph, system)
    else:
        cost_fn = cost
    if budget is None:
        budget = Budget.unlimited()
    budget.start()

    stats = SearchStats()
    expander = StateExpander(graph, system, pruning, stats.pruning)

    # Upper-bound pruning cost U (§3.2) and fallback schedule.
    fallback: Schedule = fast_upper_bound_schedule(graph, system)
    if incumbent is not None and incumbent.length < fallback.length:
        fallback = incumbent
    upper = fallback.length if pruning.upper_bound else math.inf

    t0 = time.perf_counter()
    root = state_cls.empty(graph, system)
    push, pop = order.push, order.pop
    push(root, 0.0, 0.0)
    seen = SignatureSet(verify=pruning.verify_signatures)
    if pruning.duplicate_detection:
        seen.add(root.dedup_key, lambda: root.signature)
    best: Schedule | None = None  # best complete schedule *generated*
    # Anytime lower bound: while OPEN is non-empty some state on an
    # optimal path sits in it (g exact per signature, h admissible), so
    # each floor is a certified floor on the optimum, and their
    # running max survives budget aborts as the tightest proven bound.
    lower = 0.0

    dup_on = pruning.duplicate_detection
    ub_on = pruning.upper_bound
    status = "exhausted"
    schedule: Schedule | None = None

    while order:
        if budget.exhausted(stats.states_expanded, stats.states_generated,
                            len(order) + len(seen)):
            lower = max(lower, order.floor())
            status = "budget"
            break
        state, h, floor = pop()
        if floor > lower:
            lower = floor
        stats.states_expanded += 1

        if state.is_complete():
            # The first goal popped is within order.factor of optimal
            # (Theorem 1 for A*, where the factor is 1).
            if trace is not None:
                trace.record_goal(state, state.makespan + h)
            status = "goal"
            schedule = state.to_schedule()
            break

        if probe is not None:
            probe.tick(
                stats.states_expanded, len(order),
                best.length if best is not None else math.inf,
                lower,
            )
        if trace is not None:
            trace.record_expansion(state, state.makespan + h, state.makespan, h)

        for child in expander.children(state, seen if dup_on else None):
            ch = cost_fn.h(child)
            cf = child.makespan + ch
            if ub_on and tol.gt(cf, upper):
                stats.pruning.upper_bound_cuts += 1
                continue
            stats.states_generated += 1
            if child.is_complete():
                # Track as incumbent for budget fallbacks and tighten U:
                # a complete state's f equals its length.  A state cut
                # against it has f above the incumbent's, and the
                # incumbent sits in OPEN, so every order pops the
                # incumbent first: the cut changes no expansion.
                if best is None or child.makespan < best.length:
                    best = child.to_schedule()
                    if ub_on and best.length < upper:
                        upper = best.length
            push(child, cf, ch)
            if trace is not None:
                trace.record_generation(state, child, cf, child.makespan, ch)
        size = len(order)
        if size > stats.max_open_size:
            stats.max_open_size = size

    stats.wall_seconds = time.perf_counter() - t0
    stats.cost_evaluations = cost_fn.evaluations
    if schedule is None:
        schedule = best if best is not None else fallback
    if status == "exhausted":
        # OPEN ran dry without popping a goal, so no state beat U and
        # the best schedule seen is optimal (see astar_schedule); the
        # floor still claims no more than the order's guarantee.
        lower = max(lower, schedule.length / order.factor)
    lower = min(lower, schedule.length)
    if probe is not None:
        probe.finish(stats.states_expanded, len(order), schedule.length, lower)
    return _Outcome(
        status, schedule, lower, stats,
        (budget.reason or "budget") if status == "budget" else None,
        probe.timeline() if probe is not None else (),
    )


def astar_schedule(
    graph: TaskGraph,
    system: ProcessorSystem,
    *,
    pruning: PruningConfig | None = None,
    cost: str | CostFunction = "paper",
    budget: Budget | None = None,
    trace: SearchTrace | None = None,
    state_cls: type = PartialSchedule,
    incumbent: Schedule | None = None,
    probe: SearchProbe | None = None,
) -> SearchResult:
    """Find an optimal schedule of ``graph`` on ``system`` via A*.

    Parameters
    ----------
    graph, system:
        The problem instance.
    pruning:
        §3.2 technique switches; defaults to all enabled.
    cost:
        Cost-function name (``"paper"``, ``"improved"``, ``"zero"``) or a
        pre-built :class:`CostFunction`.
    budget:
        Optional resource limits; on exhaustion the best schedule seen so
        far is returned with ``optimal=False``.
    trace:
        Optional :class:`SearchTrace` recording the search tree (used by
        the worked-example scripts).
    state_cls:
        Search-state implementation (default: the delta-encoded
        :class:`PartialSchedule`; the equivalence tests pass the
        tuple-based reference class).
    incumbent:
        Optional known-feasible schedule (e.g. from an earlier portfolio
        stage); when shorter than the internal list-schedule bound it
        seeds the upper-bound cut ``U`` and the budget fallback.
    probe:
        Optional :class:`SearchProbe` sampling ``(wall_time,
        expansions, open_size, incumbent, lower_bound)`` every N
        expansions onto ``result.timeline``.

    Returns
    -------
    SearchResult
        ``result.optimal`` is True iff the search ran to completion, in
        which case ``result.schedule`` has provably minimal length.
    """
    out = _best_first(
        graph, system, _WeightedOrder(1.0), pruning=pruning, cost=cost,
        budget=budget, state_cls=state_cls, incumbent=incumbent,
        probe=probe, trace=trace,
    )
    # "exhausted" (OPEN ran dry without popping a goal) is a proof too.
    # With upper-bound pruning enabled this can only happen when every
    # optimal completion ties the bound exactly and was cut by a
    # float-equal boundary — the drift-aware `tol.gt` cut prevents that;
    # reaching it therefore means the incumbent (or fallback = the list
    # schedule) is optimal.
    proven = out.status != "budget"
    return SearchResult(
        schedule=out.schedule, optimal=proven,
        bound=1.0 if proven else math.inf, stats=out.stats,
        algorithm="astar" if out.status == "goal" else f"astar({out.status})",
        lower_bound=out.lower_bound, interrupted=out.interrupted,
        timeline=out.timeline,
    )
