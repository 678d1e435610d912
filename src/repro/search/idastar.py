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

from repro.graph.taskgraph import TaskGraph
from repro.obs.probe import SearchProbe
from repro.schedule.partial import PartialSchedule
from repro.schedule.schedule import Schedule
from repro.search.costs import CostFunction
from repro.search.dedup import SignatureSet
from repro.search.frame import SearchFrame
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult
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

    Returns the same :class:`SearchResult` contract: the first goal a
    probe reaches is optimal, a threshold that meets ``U`` stops the
    search (``idastar(floor)``), and ``optimal`` is True iff the floor
    reached (the threshold) meets the returned length.
    """
    frame = SearchFrame(graph, system, pruning=pruning, cost=cost, budget=budget,
                        incumbent=incumbent, state_cls=state_cls, probe=probe)
    budget, stats, pruning = frame.budget, frame.stats, frame.pruning
    upper, root = frame.upper, frame.root
    threshold = root.makespan + frame.cost_fn.h(root)
    # The goal a probe reaches; until then the fallback is the incumbent.
    goal = None
    held = frame.fallback.length
    use_table = transposition_limit > 0 and pruning.duplicate_detection
    verify = pruning.verify_signatures
    # Per-child names, bound once: the probes below run for every child.
    children_of = frame.expander.children
    h_of = frame.cost_fn.h
    pstats = stats.pruning
    v = graph.num_nodes

    status = None
    stack: list[tuple[float, PartialSchedule]] = []
    while True:
        if tol.geq(threshold, upper):
            # The threshold, a proven floor (see below), meets U.
            status = "floor"
            break
        next_threshold = math.inf
        # Per-probe transposition table of duplicate keys (seen at or
        # below the current threshold).  Rebuilt each probe because the
        # admission condition depends on the threshold.
        table = SignatureSet(verify=verify)
        stack = [(threshold, root)]

        while stack:
            if budget.exhausted(stats.states_expanded, stats.states_generated,
                                len(stack) + len(table)):
                status = "budget"
                break
            f, state = stack.pop()
            if state.num_scheduled == v:
                # Prior probes exhausted every state with f below the
                # threshold, so the first goal within it is optimal.
                stats.states_expanded += 1
                goal = state.to_schedule()
                status = "goal"
                break
            stats.states_expanded += 1
            if probe is not None:
                # Prior probes exhausted everything below the current
                # threshold, so the threshold is the running proven floor.
                probe.tick(stats.states_expanded, len(stack), held,
                           min(threshold, held))
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

        if status is not None:
            break
        if next_threshold is math.inf:
            # Space exhausted below the upper bound: the fallback is
            # optimal — same reasoning as A*'s OPEN-exhaustion case.
            status = "exhausted"
            break
        threshold = next_threshold

    # Prior probes exhausted every state with f below the current
    # threshold (and the first threshold is the admissible h(root)), so
    # the threshold itself is a proven floor on the optimum; an
    # exhausted space left nothing below U, so the fallback is optimal.
    return frame.finish(
        goal, math.inf if status == "exhausted" else threshold,
        algorithm="idastar" if status == "goal" else f"idastar({status})",
        interrupted=frame.stop_reason if status == "budget" else None,
        open_size=len(stack),
    )
