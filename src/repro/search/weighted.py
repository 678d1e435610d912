"""Weighted A*: the other classic bounded-suboptimality scheduler.

Weighted A* (Pohl 1970) inflates the heuristic — ``f_w = g + w·h`` with
``w = 1 + ε`` — instead of keeping a FOCAL list.  With an admissible
``h``, the first goal popped satisfies ``length ≤ w · optimal``: along
any optimal path some state s sits in OPEN with
``g(s) + h(s) ≤ f_opt``, so the popped goal has
``length = f_w(goal) ≤ g(s) + w·h(s) ≤ w·(g(s) + h(s)) ≤ w·f_opt``.

Shipping both WA* and the paper's Aε* lets the benchmark harness compare
the two bounded-suboptimality mechanisms on identical instances — an
ablation the paper leaves open (it only evaluates Aε*).  The practical
difference: WA* distorts the expansion *order* (greedier), while Aε*
keeps the A* frontier and re-prioritises only within the (1+ε) band.
"""

from __future__ import annotations

# Unused here: perfbench's layer wrappers proxy and pin weighted.heapq by name.
import heapq  # repro: ignore[unused-import]

from repro.errors import SearchError
from repro.graph.taskgraph import TaskGraph
from repro.obs.probe import SearchProbe
from repro.schedule.partial import PartialSchedule
from repro.schedule.schedule import Schedule
from repro.search.astar import _search, _WeightedOrder
from repro.search.costs import CostFunction
from repro.search.frame import SearchFrame
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget

__all__ = ["weighted_astar_schedule"]


def weighted_astar_schedule(
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
    """Schedule within ``(1 + epsilon)`` of optimal via weighted A*.

    ``epsilon = 0`` reduces exactly to plain A*.  A known-feasible
    ``incumbent`` seeds the upper-bound cut and the budget fallback,
    as in :func:`repro.search.astar.astar_schedule`.

    Raises
    ------
    SearchError
        For negative ``epsilon``.
    """
    if epsilon < 0:
        raise SearchError(f"epsilon must be >= 0, got {epsilon}")
    w = 1.0 + epsilon
    # The unrelaxed upper bound stays valid (optimal-path states have
    # plain f ≤ f_opt ≤ U and survive the cut).
    frame = SearchFrame(graph, system, pruning=pruning, cost=cost, budget=budget,
                        incumbent=incumbent, state_cls=state_cls, probe=probe)
    return _search(frame, _WeightedOrder(w), "wastar", epsilon)
