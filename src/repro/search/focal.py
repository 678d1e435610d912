"""The approximate Aε* algorithm (paper §3.4, after Pearl & Kim).

Aε* keeps, next to OPEN, a FOCAL list holding the states whose cost is
within a factor ``(1 + ε)`` of the minimum cost in OPEN:

    ``FOCAL = { s' : f(s') ≤ (1 + ε) · min_{s ∈ OPEN} f(s) }``

and always expands from FOCAL, choosing by a *secondary* heuristic —
here the number of unscheduled nodes, so deeper states (closer to a
complete schedule) are preferred and goals are reached quickly.

Theorem 2 (ε-admissibility): when a goal is popped from FOCAL,
``f(goal) ≤ (1+ε)·f_min ≤ (1+ε)·f_opt`` because OPEN always contains a
state on an optimal path with ``f ≤ f_opt`` (admissibility of ``h``).
The returned schedule is therefore within ``(1 + ε)`` of optimal.

Implementation: three heaps sharing lazily-invalidated entries —

* ``all_by_f``   — every live state, ordered by ``f`` (tracks f_min);
* ``focal``      — the FOCAL subset, ordered by ``(unscheduled, f)``;
* ``non_focal``  — the rest, ordered by ``f`` (admission queue).

Because the paper's ``h`` is admissible but not consistent, ``f_min``
may temporarily *decrease*; FOCAL entries are therefore re-validated
against the current bound at pop time (stale ones are demoted back to
``non_focal``).
"""

from __future__ import annotations

import heapq
import math

from repro.errors import SearchError
from repro.graph.taskgraph import TaskGraph
from repro.obs.probe import SearchProbe
from repro.schedule.partial import PartialSchedule
from repro.schedule.schedule import Schedule
from repro.search.astar import _best_first
from repro.search.costs import CostFunction
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult
from repro.system.processors import ProcessorSystem
from repro.util import tolerance as tol
from repro.util.timing import Budget

__all__ = ["focal_schedule"]


class _FocalOrder:
    """Aε*'s OPEN for :func:`repro.search.astar._best_first`: the three
    heaps of the module docstring over one ``seq -> (state, h)`` store."""

    def __init__(self, epsilon: float, num_nodes: int) -> None:
        #: Theorem 2's guarantee on the first goal popped.
        self.factor = 1.0 + epsilon
        self._v = num_nodes
        # seq -> (state, h); dead seqs are skipped lazily in all heaps.
        self._store: dict[int, tuple[PartialSchedule, float]] = {}
        self._dead: set[int] = set()
        self._all_by_f: list[tuple[float, int]] = []
        self._focal: list[tuple[int, float, int]] = []  # (unscheduled, f, seq)
        self._non_focal: list[tuple[float, int]] = []
        self._in_focal: set[int] = set()
        self._seq = 0
        # (1+ε)·f_min at the last pop; before the first pop (the root)
        # every state belongs in FOCAL.
        self._bound = math.inf

    def __len__(self) -> int:
        return len(self._store)

    def floor(self) -> float:
        # f_min over OPEN never exceeds f_opt (Theorem 2's premise).
        all_by_f, dead = self._all_by_f, self._dead
        while all_by_f[0][1] in dead:
            heapq.heappop(all_by_f)
        return all_by_f[0][0]

    def push(self, state: PartialSchedule, f: float, h: float) -> None:
        s = self._seq
        self._seq += 1
        self._store[s] = (state, h)
        heapq.heappush(self._all_by_f, (f, s))
        # Drift-aware FOCAL admission (repro.util.tolerance): a state
        # that ties (1+ε)·f_min up to rounding belongs in FOCAL.
        if tol.leq(f, self._bound):
            heapq.heappush(self._focal, (self._v - state.num_scheduled, f, s))
            self._in_focal.add(s)
        else:
            heapq.heappush(self._non_focal, (f, s))

    def pop(self) -> tuple[PartialSchedule, float, float]:
        fmin = self.floor()
        bound = self._bound = self.factor * fmin
        focal, non_focal = self._focal, self._non_focal
        dead, in_focal = self._dead, self._in_focal
        while True:
            # Admit newly-qualifying states into FOCAL.
            while non_focal:
                f, s = non_focal[0]
                if s in dead:
                    heapq.heappop(non_focal)
                    continue
                if tol.leq(f, bound):
                    heapq.heappop(non_focal)
                    state, _ = self._store[s]
                    heapq.heappush(focal, (self._v - state.num_scheduled, f, s))
                    in_focal.add(s)
                else:
                    break

            # Pop the FOCAL state with fewest unscheduled nodes,
            # re-validating against the current bound (f_min may have
            # decreased).
            while focal:
                _d, f, s = heapq.heappop(focal)
                if s in dead or s not in in_focal:
                    continue
                in_focal.discard(s)
                if tol.gt(f, bound):
                    heapq.heappush(non_focal, (f, s))
                    continue
                dead.add(s)
                state, h = self._store.pop(s)
                return state, h, fmin
            # FOCAL drained by demotions; re-admit (the f_min state
            # always qualifies, so progress is guaranteed).


def focal_schedule(
    graph: TaskGraph,
    system: ProcessorSystem,
    epsilon: float,
    *,
    pruning: PruningConfig | None = None,
    cost: str | CostFunction = "paper",
    budget: Budget | None = None,
    state_cls: type = PartialSchedule,
    incumbent: Schedule | None = None,
    probe: SearchProbe | None = None,
) -> SearchResult:
    """Find a schedule within ``(1 + epsilon)`` of optimal via Aε*.

    Parameters mirror :func:`repro.search.astar.astar_schedule`
    (including the ``incumbent`` warm start); ``epsilon = 0`` reduces
    to plain A* (with extra bookkeeping).

    Raises
    ------
    SearchError
        For negative ``epsilon``.
    """
    if epsilon < 0:
        raise SearchError(f"epsilon must be >= 0, got {epsilon}")
    # The *unrelaxed* upper bound stays valid for Aε*: states on an
    # optimal path have f ≤ f_opt ≤ U and therefore survive the cut, so
    # the termination argument (a goal within (1+ε)·f_min pops) is
    # untouched — and OPEN stays as small as exact A*'s.
    out = _best_first(
        graph, system, _FocalOrder(epsilon, graph.num_nodes), pruning=pruning,
        cost=cost, budget=budget, state_cls=state_cls, incumbent=incumbent,
        probe=probe,
    )
    tag = f"eps={epsilon}" if out.status == "goal" else f"eps={epsilon},{out.status}"
    return SearchResult(
        schedule=out.schedule,
        optimal=out.status == "goal" and epsilon == 0.0,
        bound=math.inf if out.status == "budget" else 1.0 + epsilon,
        stats=out.stats, algorithm=f"focal({tag})",
        lower_bound=out.lower_bound, interrupted=out.interrupted,
        timeline=out.timeline,
    )
