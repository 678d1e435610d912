"""Depth-first branch-and-bound on the scheduling state space.

The memory-light alternative to A*: explores children best-``f``-first
in depth-first order, keeps the best complete schedule found as the
incumbent, and prunes any state whose ``f`` cannot beat it.  With the
admissible cost functions of :mod:`repro.search.costs` the final
incumbent is optimal.

This engine plays two roles in the reproduction:

* a self-check: A* and B&B must agree on the optimal length everywhere
  (integration tests assert this);
* the structural skeleton shared with the Chen & Yu baseline
  (:mod:`repro.baselines.chen_yu`), which differs only in its far more
  expensive underestimate.

Depth-first order finds complete schedules early, so the incumbent
tightens quickly — the classic B&B trade: more expansions than A*, but
O(depth) open memory (plus the optional visited set).

Each child is costed off its parent (``est``, ``h_preview``) and cut
against the incumbent's :func:`~repro.util.tolerance.cut_line` before
it is keyed, checked against the visited set and built, as in HDA*'s
workers; a cut child's key is never recorded.
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

__all__ = ["bnb_schedule"]


def bnb_schedule(
    graph: TaskGraph,
    system: ProcessorSystem,
    *,
    pruning: PruningConfig | None = None,
    cost: str | CostFunction = "paper",
    budget: Budget | None = None,
    use_visited: bool = True,
    state_cls: type = PartialSchedule,
    incumbent: Schedule | None = None,
    probe: SearchProbe | None = None,
) -> SearchResult:
    """Find an optimal schedule via depth-first branch-and-bound.

    Parameters mirror :func:`repro.search.astar.astar_schedule`;
    ``use_visited=False`` trades time for O(depth) memory by disabling
    the visited-placement set (the search then re-explores transposition
    duplicates but remains correct).  ``incumbent`` optionally seeds the
    bound with a known-feasible schedule (portfolio stages pass their
    best-so-far), tightening the cut from the first expansion.
    """
    frame = SearchFrame(graph, system, pruning=pruning, cost=cost, budget=budget,
                        incumbent=incumbent, state_cls=state_cls, probe=probe)
    budget, stats, pruning = frame.budget, frame.stats, frame.pruning
    best_sched = frame.fallback
    best_len = frame.upper
    stopped = None  # the budget's reason, once it stops the run

    # Stack of (f, state); children pushed worst-first so the best child
    # is explored first (LIFO).
    stack: list[tuple[float, PartialSchedule]] = [(0.0, frame.root)]
    visited = SignatureSet(verify=pruning.verify_signatures)
    dup_on = use_visited and pruning.duplicate_detection
    dedup_by_key = dup_on and not pruning.verify_signatures
    dedup_exact = dup_on and pruning.verify_signatures
    # Drift-aware: an f on or past the line cannot beat the incumbent.
    cut = tol.cut_line(best_len)
    # Per-child names, bound once: the loop below runs for every child.
    candidate_rows = frame.expander.candidate_rows
    h_preview = frame.cost_fn.h_preview
    check_add = visited.check_add
    weights, speeds = graph.weights, system.speeds
    pstats = stats.pruning
    v = graph.num_nodes

    while stack:
        if budget.exhausted(stats.states_expanded, stats.states_generated,
                            len(stack) + len(visited)):
            stopped = frame.stop_reason
            break
        f, state = stack.pop()
        if state.num_scheduled == v:
            stats.states_expanded += 1
            if state.makespan < best_len:
                best_len = state.makespan
                best_sched = state.to_schedule()
                cut = tol.cut_line(best_len)
            continue
        # Re-check against the incumbent: it may have tightened since push.
        if f >= cut:
            pstats.upper_bound_cuts += 1
            continue

        stats.states_expanded += 1
        if probe is not None:
            # DFS has no cheap running proven floor; the probe's running
            # max keeps the series monotone and the final sample carries
            # the real bound.
            probe.tick(stats.states_expanded, len(stack),
                       best_sched.length, 0.0)
        g = state.makespan
        last = state.num_scheduled + 1 == v
        est = state.est
        child_signature = state.child_signature
        extend = state.extend
        children: list[tuple[float, PartialSchedule]] = []
        for node, pes in candidate_rows(state):
            weight = weights[node]
            for pe in pes:
                start = est(node, pe)
                finish = start + weight / speeds[pe]
                cf = ((finish if finish > g else g)
                      + h_preview(state, node, pe, start, finish))
                if cf >= cut:
                    # A complete child is dropped silently, not counted.
                    if not last:
                        pstats.upper_bound_cuts += 1
                    continue
                key = child_signature(node, pe, start)[0] if dup_on else None
                if dedup_by_key and check_add(key):
                    pstats.duplicate_hits += 1
                    continue
                child = extend(node, pe, _start=start, _sig=key)
                if dedup_exact and check_add(key, lambda c=child: c.signature):
                    pstats.duplicate_hits += 1
                    continue
                children.append((cf, child))
        stats.states_generated += len(children)
        # Best child on top of the stack.
        children.sort(key=lambda t: -t[0])
        stack.extend(children)
        if len(stack) > stats.max_open_size:
            stats.max_open_size = len(stack)

    # Every subtree not on the stack was either explored to completion
    # or cut against the incumbent, so the optimum is the incumbent
    # itself or lies below some stacked state: its length is at least
    # min(min stacked f, incumbent length).  A finished run's stack is
    # empty, so its floor is the length: proven.
    return frame.finish(
        best_sched, min((f for f, _ in stack), default=math.inf),
        algorithm="bnb(budget)" if stopped else "bnb", open_size=len(stack),
        interrupted=stopped,
    )
