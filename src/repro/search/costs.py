"""Cost functions guiding the state-space search.

The paper's function (§3.1):

* ``g(s) = max_i FT(n_i)`` — the length of the partial schedule.
* ``h(s) = max_{n_j ∈ succ(n_max)} sl(n_j)`` — the largest *static
  level* among the successors of the node ``n_max`` that attains the
  maximum finish time; 0 when ``n_max`` has no successors (and for the
  empty state, where ``f(Φ) = 0``).

Theorem 1 (admissibility): every successor ``n_j`` of ``n_max`` starts
no earlier than ``FT(n_max) = g(s)`` because its parent must complete
first, and the longest node-weight-only path from ``n_j`` to an exit
must then execute, so the final makespan is at least
``g(s) + sl(n_j)`` for each such ``n_j``.  Hence ``h ≤ h*``.

When several scheduled nodes tie at the maximum finish time we take the
max over all of them — each tied node yields an admissible bound, so
their maximum is admissible and at least as tight.

For heterogeneous systems the static levels are computed with the
*fastest* processor speed so that the bound stays admissible.

Alternatives provided for the cost-function ablation (the paper's core
argument is that a *cheap* h beats an expensive one in wall-clock —
E1/E4 quantify this):

* :class:`ZeroCost` — ``h = 0``; A* degenerates toward uniform-cost /
  exhaustive enumeration (§3.1: "the search ... then degenerates to an
  exhaustive enumeration of states").
* :class:`ImprovedCost` — a strictly tighter admissible bound that
  scans *all* scheduled nodes with unscheduled successors (O(v + e) per
  evaluation instead of O(v)).
* :class:`LoadBoundCost` — the load-balance lower bound dominant in the
  duplicate-free state-space literature (Orr & Sinnen 2019): remaining
  work cannot finish before the machine capacity beyond each PE's
  committed ready time absorbs it.  O(P log P) per evaluation off the
  state's delta-maintained aggregates — no materialization.
* :class:`CombinedCost` — ``max(paper, load)``: the critical-path-style
  paper bound and the capacity bound fail on complementary instances
  (long chains vs. wide layers), so their maximum dominates both at the
  cost of one extra O(P log P) term (Akram et al. 2024 make the same
  composition their default).
"""

from __future__ import annotations

from repro.errors import SearchError
from repro.graph.analysis import compute_levels
from repro.graph.taskgraph import TaskGraph
from repro.schedule.partial import PartialSchedule
from repro.system.processors import ProcessorSystem

__all__ = [
    "CostFunction",
    "PaperCost",
    "ZeroCost",
    "ImprovedCost",
    "LoadBoundCost",
    "CombinedCost",
    "COST_FUNCTIONS",
    "make_cost_function",
]


class CostFunction:
    """Base class: per-instance precomputation plus a fast ``h``.

    Subclasses must set :attr:`name` and implement :meth:`h`.
    ``f(s) = s.makespan + h(s)`` is assembled by the search engines.
    """

    name = "abstract"

    def __init__(self, graph: TaskGraph, system: ProcessorSystem) -> None:
        self.graph = graph
        self.system = system
        self.evaluations = 0  # instrumentation for Table-1 style reports

    def h(self, ps: PartialSchedule) -> float:
        """Admissible estimate of the remaining schedule length."""
        raise NotImplementedError

    def h_preview(
        self, ps: PartialSchedule, node: int, pe: int, start: float, finish: float
    ) -> float:
        """``h(ps.extend(node, pe))``, the same float, for the child that
        places ``node`` on ``pe`` over ``[start, finish)``; counts one
        evaluation.

        ``start`` is ``ps.est(node, pe)`` and ``finish`` is ``start`` plus
        the node's execution time on ``pe``, computed exactly as
        :meth:`~repro.schedule.partial.PartialSchedule.extend` does.  A
        subclass that can read its bound off the parent overrides this so
        that a child cut by the bound is never built; this fallback
        builds it.
        """
        return self.h(ps.extend(node, pe, _start=start))


class PaperCost(CostFunction):
    """The paper's h: max static level among successors of ``n_max``."""

    name = "paper"

    def __init__(self, graph: TaskGraph, system: ProcessorSystem) -> None:
        super().__init__(graph, system)
        fastest = max(system.speeds)
        levels = compute_levels(graph)
        sl = tuple(s / fastest for s in levels.static_level)
        # Each task's term of the max, scanned once here instead of per
        # evaluation: the largest successor static level (0.0 for an
        # exit task, the value the per-successor scan started from).
        self._succ_level = tuple(
            max((sl[j] for j in graph.succs(n)), default=0.0)
            for n in range(graph.num_nodes)
        )

    def h(self, ps: PartialSchedule) -> float:
        self.evaluations += 1
        if ps.makespan == 0.0:  # empty state: f(Φ) = 0
            return 0.0
        # All nodes attaining the max finish time contribute (tie
        # handling).  The state maintains the argmax-finish set
        # incrementally and the per-task term is precomputed, so this
        # is O(|ties|) rather than an O(v) scan of the finish array.
        nodes = ps.max_finish_nodes
        if len(nodes) == 1:
            return self._succ_level[nodes[0]]
        return max(map(self._succ_level.__getitem__, nodes))

    def h_preview(
        self, ps: PartialSchedule, node: int, pe: int, start: float, finish: float
    ) -> float:
        # The child's argmax-finish set is {node} when ``finish`` passes
        # the parent's makespan, the parent's set plus ``node`` when it
        # ties, and the parent's set otherwise (extend's three cases).
        self.evaluations += 1
        table = self._succ_level
        g = ps.makespan
        if finish > g:
            return table[node]
        if g == 0.0:  # the child's makespan is 0 too, as h reads it
            return 0.0
        nodes = ps.max_finish_nodes
        hp = table[nodes[0]] if len(nodes) == 1 else max(map(table.__getitem__, nodes))
        if finish == g and table[node] > hp:
            return table[node]
        return hp


class ZeroCost(CostFunction):
    """``h = 0``: the trivial admissible bound (exhaustive-search ablation)."""

    name = "zero"

    def h(self, ps: PartialSchedule) -> float:
        self.evaluations += 1
        return 0.0

    def h_preview(
        self, ps: PartialSchedule, node: int, pe: int, start: float, finish: float
    ) -> float:
        self.evaluations += 1
        return 0.0


class ImprovedCost(CostFunction):
    """A tighter admissible bound scanning every frontier edge.

    ``h = max(paper-h, max over unscheduled j of EST_lb(j) + sl(j) − g)``
    where ``EST_lb(j)`` is the largest finish time among j's *scheduled*
    parents (0 when none are scheduled).  Any completion must run j no
    earlier than each scheduled parent's finish, then execute j's longest
    static path, so each term lower-bounds the final makespan.

    Strictly dominates :class:`PaperCost` (for ``j ∈ succ(n_max)``,
    ``EST_lb(j) ≥ g``), at ~(v+e)/v times the evaluation cost — the
    trade-off the paper's Table 1 discussion is about.
    """

    name = "improved"

    def __init__(self, graph: TaskGraph, system: ProcessorSystem) -> None:
        super().__init__(graph, system)
        fastest = max(system.speeds)
        levels = compute_levels(graph)
        self._sl = tuple(s / fastest for s in levels.static_level)

    def h(self, ps: PartialSchedule) -> float:
        self.evaluations += 1
        g = ps.makespan
        mask = ps.mask
        # O(v + e) by design: the full finish array is required, so this
        # cost function forces lazy delta states to materialize — the
        # trade-off the paper's Table 1 discussion is about.
        finishes = ps.finishes
        sl = self._sl
        graph = self.graph
        offsets = graph.pred_offsets
        preds = graph.pred_flat
        pmasks = graph.pred_masks
        best = 0.0
        for j in range(len(finishes)):
            if (mask >> j) & 1:
                continue
            pm = pmasks[j]
            scheduled = pm & mask
            if not scheduled:
                # No scheduled parent: EST_lb(j) = 0, no edge scan needed.
                bound = sl[j] - g
                if bound > best:
                    best = bound
                continue
            est = 0.0
            if scheduled == pm:
                # Every parent scheduled: the per-parent membership test
                # is vacuous, so the inner loop is pure max-reduction.
                for i in range(offsets[j], offsets[j + 1]):
                    f = finishes[preds[i]]
                    if f > est:
                        est = f
            else:
                for i in range(offsets[j], offsets[j + 1]):
                    p = preds[i]
                    if (mask >> p) & 1 and finishes[p] > est:
                        est = finishes[p]
            bound = est + sl[j] - g
            if bound > best:
                best = bound
        return best


class LoadBoundCost(CostFunction):
    """The load-balance lower bound, adjusted for per-PE ready times.

    In any completion with makespan ``M``, a task newly placed on PE
    ``p`` starts no earlier than the PE's committed ready time ``RT_p``
    (the append-only EST rule), so PE ``p`` can absorb at most
    ``speed_p · max(0, M − RT_p)`` of the remaining node weight.  The
    bound is the smallest ``M`` whose total capacity

        ``Σ_p speed_p · max(0, M − RT_p)  ≥  W_remaining``

    covers the remaining weight; ``h = max(0, M − g)``.  When every PE
    ends busy past the frontier this closes to the classic
    ``(W_remaining + committed idle) / Σ speeds`` form from Orr &
    Sinnen's duplicate-free state-space work — the ready-time-adjusted
    solve is never looser.

    Communication delays are ignored entirely (pure machine capacity),
    which is exactly why this bound and the critical-path-style
    :class:`PaperCost` fail on complementary instances.  Evaluation is
    O(P log P) off the state's delta-maintained ``remaining_weight`` /
    ``ready_time`` aggregates — no array materialization ever.
    """

    name = "load"

    def __init__(self, graph: TaskGraph, system: ProcessorSystem) -> None:
        super().__init__(graph, system)
        self._speeds = system.speeds
        #: The one speed of a homogeneous system (``None`` otherwise):
        #: the sweep then sorts the ready times alone.
        self._uniform = (
            system.speeds[0] if len(set(system.speeds)) == 1 else None
        )

    def h(self, ps: PartialSchedule) -> float:
        self.evaluations += 1
        w_rem = ps.remaining_weight
        if w_rem <= 0.0:
            return 0.0
        # Sweep the ready times in ascending order, opening each PE's
        # capacity as the candidate makespan M passes its ready time.
        # Within the segment [r_k, r_{k+1}) the capacity is linear, so
        # M = (W_rem + Σ_{i≤k} s_i·r_i) / Σ_{i≤k} s_i; the first
        # candidate that lands inside its own segment is the solution
        # (if segment k undershoots, the k+1 candidate provably lands
        # past r_{k+1}).
        speed_sum = 0.0
        weighted_rt = 0.0
        m = 0.0
        speed = self._uniform
        if speed is not None:
            # Equal speeds: sorting (rt, speed) pairs orders by rt
            # alone, so this runs the same float operations in the
            # same order as the heterogeneous sweep below.
            for rt in sorted(ps.ready_time):
                if speed_sum and m <= rt:
                    break  # the previous candidate lands before this PE opens
                speed_sum += speed
                weighted_rt += speed * rt
                m = (w_rem + weighted_rt) / speed_sum
        else:
            for rt, speed in sorted(zip(ps.ready_time, self._speeds)):
                if speed_sum and m <= rt:
                    break
                speed_sum += speed
                weighted_rt += speed * rt
                m = (w_rem + weighted_rt) / speed_sum
        g = ps.makespan
        return m - g if m > g else 0.0

    def h_preview(
        self, ps: PartialSchedule, node: int, pe: int, start: float, finish: float
    ) -> float:
        # The child's aggregates: one node's weight less to place, one
        # PE's ready time moved to ``finish``.
        self.evaluations += 1
        w_rem = ps.remaining_weight - self.graph.weights[node]
        if w_rem <= 0.0:
            return 0.0
        ready = list(ps.ready_time)
        ready[pe] = finish
        m = _capacity_makespan(w_rem, ready, self._speeds, self._uniform)
        g = ps.makespan
        if finish > g:
            g = finish
        return m - g if m > g else 0.0


class CombinedCost(CostFunction):
    """``max(paper, load)`` — the composite exact-search default.

    The maximum of two admissible bounds is admissible, dominates each
    component state-for-state, and costs one :class:`PaperCost`
    evaluation plus one O(P log P) capacity solve.  The paper bound wins
    on communication-heavy chains, the load bound on wide layers of
    independent work — composing them is what cuts exact-search
    expansions across the whole §4.1 sweep (see
    ``benchmarks/bench_bounds.py``).
    """

    name = "combined"

    def __init__(self, graph: TaskGraph, system: ProcessorSystem) -> None:
        super().__init__(graph, system)
        load = LoadBoundCost(graph, system)
        self._succ_level = PaperCost(graph, system)._succ_level
        self._speeds = load._speeds
        self._uniform = load._uniform

    def h(self, ps: PartialSchedule) -> float:
        # Both terms are worked out here, one call per child: the paper
        # term is PaperCost.h's table lookup and the load term
        # LoadBoundCost.h's sweep, inlined (the property tests pin all
        # three to plain reference scans).
        self.evaluations += 1
        g = ps.makespan
        if g == 0.0:
            hp = 0.0
        else:
            nodes = ps.max_finish_nodes
            table = self._succ_level
            hp = (table[nodes[0]] if len(nodes) == 1
                  else max(map(table.__getitem__, nodes)))
        w_rem = ps.remaining_weight
        if w_rem <= 0.0:
            return hp
        speed_sum = 0.0
        weighted_rt = 0.0
        m = 0.0
        speed = self._uniform
        if speed is not None:
            for rt in sorted(ps.ready_time):
                if speed_sum and m <= rt:
                    break
                speed_sum += speed
                weighted_rt += speed * rt
                m = (w_rem + weighted_rt) / speed_sum
        else:
            for rt, speed in sorted(zip(ps.ready_time, self._speeds)):
                if speed_sum and m <= rt:
                    break
                speed_sum += speed
                weighted_rt += speed * rt
                m = (w_rem + weighted_rt) / speed_sum
        # hp >= 0.0, so a negative load term never wins the max.
        hl = m - g
        return hp if hp >= hl else hl

    def h_preview(
        self, ps: PartialSchedule, node: int, pe: int, start: float, finish: float
    ) -> float:
        # PaperCost.h_preview's argmax cases and LoadBoundCost.h_preview's
        # child aggregates, combined as in h.
        self.evaluations += 1
        table = self._succ_level
        g = ps.makespan
        if finish > g:
            g = finish
            hp = table[node]
        elif g == 0.0:
            hp = 0.0
        else:
            nodes = ps.max_finish_nodes
            hp = (table[nodes[0]] if len(nodes) == 1
                  else max(map(table.__getitem__, nodes)))
            if finish == g and table[node] > hp:
                hp = table[node]
        w_rem = ps.remaining_weight - self.graph.weights[node]
        if w_rem <= 0.0:
            return hp
        ready = list(ps.ready_time)
        ready[pe] = finish
        hl = _capacity_makespan(w_rem, ready, self._speeds, self._uniform) - g
        return hp if hp >= hl else hl


def _capacity_makespan(
    w_rem: float,
    ready_time: list[float],
    speeds: tuple[float, ...],
    uniform: float | None,
) -> float:
    """The capacity sweep of :meth:`LoadBoundCost.h` (inlined there and
    in :meth:`CombinedCost.h`), the same float operations in the same
    order: the smallest ``M`` whose capacity beyond the ready times
    covers ``w_rem``.  ``uniform`` is the one speed of a homogeneous
    system, else ``None``."""
    speed_sum = 0.0
    weighted_rt = 0.0
    m = 0.0
    if uniform is not None:
        for rt in sorted(ready_time):
            if speed_sum and m <= rt:
                break
            speed_sum += uniform
            weighted_rt += uniform * rt
            m = (w_rem + weighted_rt) / speed_sum
    else:
        for rt, speed in sorted(zip(ready_time, speeds)):
            if speed_sum and m <= rt:
                break
            speed_sum += speed
            weighted_rt += speed * rt
            m = (w_rem + weighted_rt) / speed_sum
    return m


#: Registry of cost-function constructors by name.
COST_FUNCTIONS: dict[str, type[CostFunction]] = {
    "paper": PaperCost,
    "zero": ZeroCost,
    "improved": ImprovedCost,
    "load": LoadBoundCost,
    "combined": CombinedCost,
}


def make_cost_function(
    name: str, graph: TaskGraph, system: ProcessorSystem
) -> CostFunction:
    """Instantiate a registered cost function.

    Raises
    ------
    SearchError
        For unknown names.
    """
    try:
        cls = COST_FUNCTIONS[name]
    except KeyError:
        raise SearchError(
            f"unknown cost function {name!r}; choose from {sorted(COST_FUNCTIONS)}"
        ) from None
    return cls(graph, system)
