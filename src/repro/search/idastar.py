"""IDA*: iterative-deepening A* for memory-bounded optimal scheduling.

The paper criticises prior branch-and-bound schedulers for their "huge
memory requirement to store the search states"; its own A* stores every
generated state too.  IDA* (Korf 1985) is the classic answer: repeated
depth-first probes with an f-cost threshold equal to the smallest f
value that exceeded the previous threshold.  Memory is O(depth) — here
O(v) — while optimality is preserved for the same admissible cost
functions.

Trade-off: without a CLOSED list, transposition duplicates are re-explored
on every probe, so IDA* re-expands work A* would skip.  An optional
transposition table (bounded, per-probe) recovers most of that at a
memory cost the caller controls — exposing exactly the time/memory dial
the paper's discussion is about.

The §3.2 pruning rules that act at expansion time (processor
isomorphism, node equivalence, priority ordering, upper bound) apply
unchanged; duplicate detection maps onto the transposition table.
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
from repro.search.dedup import SignatureSet
from repro.search.expansion import StateExpander
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult, SearchStats
from repro.system.processors import ProcessorSystem
from repro.util import tolerance as tol
from repro.util.timing import Budget

__all__ = ["idastar_schedule"]


def idastar_schedule(
    graph: TaskGraph,
    system: ProcessorSystem,
    *,
    pruning: PruningConfig | None = None,
    cost: str | CostFunction = "paper",
    budget: Budget | None = None,
    transposition_limit: int = 100_000,
    state_cls: type = PartialSchedule,
    incumbent: Schedule | None = None,
    probe: SearchProbe | None = None,
) -> SearchResult:
    """Find an optimal schedule via iterative-deepening A*.

    Parameters mirror :func:`repro.search.astar.astar_schedule`
    (including the ``incumbent`` warm start, which seeds the upper
    -bound cut and the budget fallback); ``transposition_limit``
    bounds the per-probe duplicate table (``0`` disables it entirely
    for true O(v) memory).

    Returns the same :class:`SearchResult` contract: ``optimal=True``
    iff the search ran to completion.
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
    fallback: Schedule = fast_upper_bound_schedule(graph, system)
    if incumbent is not None and incumbent.length < fallback.length:
        fallback = incumbent
    upper = fallback.length if pruning.upper_bound else math.inf

    t0 = time.perf_counter()
    root = state_cls.empty(graph, system)
    threshold = root.makespan + cost_fn.h(root)
    incumbent = None  # rebound: best complete schedule *found here*
    use_table = transposition_limit > 0 and pruning.duplicate_detection
    # Per-child names, bound once: the probes below run for every child.
    children_of = expander.children
    h_of = cost_fn.h
    pstats = stats.pruning
    v = graph.num_nodes

    while True:
        next_threshold = math.inf
        # Per-probe transposition table of duplicate keys (seen at or
        # below the current threshold).  Rebuilt each probe because the
        # admission condition depends on the threshold.
        table = SignatureSet(verify=pruning.verify_signatures)
        verify = pruning.verify_signatures
        stack: list[tuple[float, PartialSchedule]] = [(threshold, root)]
        goal_found: Schedule | None = None

        while stack:
            if budget.exhausted(stats.states_expanded, stats.states_generated,
                                len(stack) + len(table)):
                best = incumbent if incumbent is not None else fallback
                stats.wall_seconds = time.perf_counter() - t0
                stats.cost_evaluations = cost_fn.evaluations
                # Prior probes exhausted every state with f below the
                # current threshold (and the first threshold is the
                # admissible h(root)), so the threshold itself is a
                # proven floor on the optimum.
                bound = min(threshold, best.length)
                if probe is not None:
                    probe.finish(stats.states_expanded, len(stack),
                                 best.length, bound)
                return SearchResult(
                    schedule=best, optimal=False, bound=math.inf,
                    stats=stats, algorithm="idastar(budget)",
                    lower_bound=bound,
                    interrupted=budget.reason or "budget",
                    timeline=probe.timeline() if probe is not None else (),
                )
            f, state = stack.pop()
            if state.num_scheduled == v:
                stats.states_expanded += 1
                if goal_found is None or state.makespan < goal_found.length:
                    goal_found = state.to_schedule()
                    # Also keep it as incumbent for budget exits mid-probe.
                    if incumbent is None or goal_found.length < incumbent.length:
                        incumbent = goal_found
                continue
            stats.states_expanded += 1
            if probe is not None:
                # Prior probes exhausted everything below the current
                # threshold, so the threshold is the running proven floor.
                probe.tick(
                    stats.states_expanded, len(stack),
                    incumbent.length if incumbent is not None else math.inf,
                    min(threshold,
                        incumbent.length if incumbent is not None
                        else math.inf),
                )
            children: list[tuple[float, PartialSchedule]] = []
            for child in children_of(state):
                cf = child.makespan + h_of(child)
                if tol.gt(cf, upper):
                    pstats.upper_bound_cuts += 1
                    continue
                if tol.gt(cf, threshold):
                    # Beyond this probe: remember the tightest overshoot.
                    if cf < next_threshold:
                        next_threshold = cf
                    continue
                if use_table:
                    sig = child.dedup_key
                    exact = (lambda c=child: c.signature) if verify else None
                    if table.seen(sig, exact):
                        pstats.duplicate_hits += 1
                        continue
                    if len(table) < transposition_limit:
                        table.add(sig, exact)
                stats.states_generated += 1
                children.append((cf, child))
            children.sort(key=lambda t: -t[0])  # best child on top
            stack.extend(children)
            if len(stack) > stats.max_open_size:
                stats.max_open_size = len(stack)

        if goal_found is not None:
            # The first threshold at which a goal appears is the optimal
            # cost: every state with f below it was exhausted.
            stats.wall_seconds = time.perf_counter() - t0
            stats.cost_evaluations = cost_fn.evaluations
            if probe is not None:
                probe.finish(stats.states_expanded, 0,
                             goal_found.length, goal_found.length)
            return SearchResult(
                schedule=goal_found, optimal=True, bound=1.0,
                stats=stats, algorithm="idastar",
                lower_bound=goal_found.length,
                timeline=probe.timeline() if probe is not None else (),
            )
        if next_threshold is math.inf:
            # Space exhausted below the upper bound: the fallback (or a
            # generated incumbent) is optimal — same reasoning as A*'s
            # OPEN-exhaustion case.
            stats.wall_seconds = time.perf_counter() - t0
            stats.cost_evaluations = cost_fn.evaluations
            best = incumbent if incumbent is not None else fallback
            if probe is not None:
                probe.finish(stats.states_expanded, 0,
                             best.length, best.length)
            return SearchResult(
                schedule=best, optimal=True, bound=1.0,
                stats=stats, algorithm="idastar(exhausted)",
                lower_bound=best.length,
                timeline=probe.timeline() if probe is not None else (),
            )
        threshold = next_threshold
