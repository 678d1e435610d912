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
  FOCAL structure; :func:`_search` labels what the loop returns.  The
  HDA* coordinator's seed phase (:mod:`repro.parallel.hda`) runs the
  same loop, stopped once OPEN is wide enough to feed its workers.
* A*'s OPEN is a binary heap ordered by ``(f, h, seq)`` — the ``h``
  tie-break prefers states closer to a goal, ``seq`` makes equal
  entries FIFO and the whole search deterministic.
* OPEN/CLOSED duplicate detection share one signature set: a state's
  signature fully determines ``g`` and ``h``, so a duplicate can never
  need re-opening — the first copy always has the same ``f``.
* States whose ``f`` exceeds the upper bound ``U`` (linear-time list
  schedule, §3.2) are discarded at generation time; ``U`` tightens to
  every shorter complete schedule generated.
* A running floor that meets ``U`` proves the incumbent, so the loop
  stops there as it does on a goal.
* On budget exhaustion the best complete schedule seen so far (or the
  ``U`` heuristic schedule) is returned with the floor reached.
"""

from __future__ import annotations

import heapq
import math

from repro.graph.taskgraph import TaskGraph
from repro.obs.probe import SearchProbe
from repro.schedule.partial import PartialSchedule
from repro.schedule.schedule import Schedule
from repro.search.costs import CostFunction
from repro.search.dedup import SignatureSet
from repro.search.diagnostics import SearchTrace
from repro.search.frame import SearchFrame
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult
from repro.system.processors import ProcessorSystem
from repro.util import tolerance as tol
from repro.util.timing import Budget

__all__ = ["astar_schedule"]


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

    def __iter__(self):
        # The ``(key, h, seq, state)`` entries in heap order: the HDA*
        # coordinator deals its seed frontier from them.
        return iter(self._heap)

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
    frame: SearchFrame, order, *, trace: SearchTrace | None = None,
    width: float = math.inf, seen: SignatureSet | None = None,
    limit: float = math.inf,
) -> tuple[str, Schedule | None, Schedule | None, float]:
    """Best-first search over the §3.2 state space, expanding in ``order``.

    ``order`` is the engine's OPEN.  It offers ``push(state, f, h)``,
    ``len()``, ``floor()`` — a proven lower bound on the optimum while
    OPEN is non-empty — ``pop() -> (state, h, floor)`` with the floor
    taken just before the pop, and ``factor``, the proven ratio of the
    first goal it pops to the optimum.  ``frame`` supplies the set-up
    (:mod:`repro.search.frame`); this loop does the budget/probe/trace
    bookkeeping, child evaluation and the drift-aware ``U`` cut, and
    writes the tightened ``U`` back to ``frame.upper``.

    The loop stops on the first goal popped (``"goal"``), a running
    floor that meets ``U`` (``"floor"``: the incumbent is optimal), a
    spent budget (``"budget"``), an empty OPEN (``"exhausted"``),
    ``limit`` expansions into the call (``"limit"``: a simulated PPE's
    local phase) or, after an expansion, OPEN holding ``width`` states
    (``"width"``: a seed phase, which then deals OPEN to its HDA*
    workers or PPEs).  A caller that passes its CLOSED set as ``seen``
    has filled OPEN itself.  A goal or floor exit counts its last pop as
    an expansion with no children.  Returns
    ``(status, goal, best, lower)``: the goal popped, the best complete
    schedule generated (each ``None`` when there is none) and the
    proven floor on the optimum.
    """
    budget, stats, pruning = frame.budget, frame.stats, frame.pruning
    probe, upper, root = frame.probe, frame.upper, frame.root
    push, pop = order.push, order.pop
    if seen is None:
        push(root, 0.0, 0.0)
        seen = SignatureSet(verify=pruning.verify_signatures)
        if pruning.duplicate_detection:
            seen.add(root.dedup_key, lambda: root.signature)
    stop_at = stats.states_expanded + limit
    best: Schedule | None = None  # best complete schedule *generated*
    # The probe samples the incumbent held: the fallback until a
    # shorter schedule is generated (the probe keeps the running min).
    held = frame.fallback.length
    # Anytime lower bound: while OPEN is non-empty some state on an
    # optimal path sits in it (g exact per signature, h admissible), so
    # each floor is a certified floor on the optimum, and their
    # running max survives budget aborts as the tightest proven bound.
    lower = 0.0

    dup_on = pruning.duplicate_detection
    ub_on = pruning.upper_bound
    status = "exhausted"
    goal: Schedule | None = None
    # Per-child names, bound once: the loop below runs for every child.
    children = frame.expander.children
    h_of = frame.cost_fn.h
    pstats = stats.pruning
    v = frame.graph.num_nodes

    while order:
        if budget.exhausted(stats.states_expanded, stats.states_generated,
                            len(order) + len(seen)):
            status = "budget"
            break
        if stats.states_expanded >= stop_at:
            status = "limit"
            break
        state, h, floor = pop()
        if floor > lower:
            lower = floor
        stats.states_expanded += 1

        if state.num_scheduled == v:
            # The first goal popped is within order.factor of optimal
            # (Theorem 1 for A*, where the factor is 1).
            if trace is not None:
                trace.record_goal(state, state.makespan + h)
            status = "goal"
            goal = state.to_schedule()
            break
        if tol.geq(lower, upper):
            # No state left in OPEN can beat the incumbent: proven.
            status = "floor"
            break

        if probe is not None:
            probe.tick(
                stats.states_expanded, len(order),
                best.length if best is not None else held, lower,
            )
        if trace is not None:
            trace.record_expansion(state, state.makespan + h, state.makespan, h)

        for child in children(state, seen if dup_on else None):
            ch = h_of(child)
            cf = child.makespan + ch
            if ub_on and tol.gt(cf, upper):
                pstats.upper_bound_cuts += 1
                continue
            stats.states_generated += 1
            if child.num_scheduled == v:
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
        if size >= width:
            status = "width"
            break

    frame.upper = upper
    if status == "exhausted":
        # OPEN ran dry without popping a goal, so no state beat U and
        # the best schedule seen is optimal (see _search); the floor
        # still claims no more than the order's guarantee.
        schedule = best if best is not None else frame.fallback
        lower = max(lower, schedule.length / order.factor)
    elif status in ("budget", "width", "limit"):
        # Stopped with OPEN non-empty: its floor holds.
        lower = max(lower, order.floor())
    return status, goal, best, lower


def _search(
    frame: SearchFrame, order, name: str, epsilon: float | None = None,
    trace: SearchTrace | None = None,
) -> SearchResult:
    """Run :func:`_best_first` to its end and label the result ``name``
    for the A*, WA* and Aε* family: an exact engine when ``epsilon`` is
    None, else one proven within ``1 + epsilon``."""
    status, goal, best, lower = _best_first(frame, order, trace=trace)
    if epsilon is None:
        algorithm = name if status == "goal" else f"{name}({status})"
    else:
        tag = f"eps={epsilon}" if status == "goal" else f"eps={epsilon},{status}"
        algorithm = f"{name}({tag})"
    return frame.finish(
        goal if goal is not None else best, lower, algorithm=algorithm,
        bound=order.factor, open_size=len(order),
        interrupted=frame.stop_reason if status == "budget" else None,
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
        far is returned with the floor reached (``optimal`` only when
        that floor meets its length).
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
        ``result.optimal`` is True iff the proven floor meets the
        schedule's length, which every run to completion reaches.
    """
    frame = SearchFrame(graph, system, pruning=pruning, cost=cost, budget=budget,
                        incumbent=incumbent, state_cls=state_cls, probe=probe)
    return _search(frame, _WeightedOrder(1.0), "astar", trace=trace)
