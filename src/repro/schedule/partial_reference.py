"""The pre-delta tuple-based search state, kept as a test/bench oracle.

This is the original :class:`~repro.schedule.partial.PartialSchedule`
implementation: every state materializes full ``pes/starts/finishes``
tuples (five O(v) copies per :meth:`extend`) and identifies itself by
the exact ``(mask, pes, starts)`` tuple signature.  The production class
was replaced by the delta-encoded, Zobrist-hashed representation (see
DESIGN.md); this copy exists so that

* the state-equivalence property tests can run every search engine
  against both representations and assert byte-identical schedules,
  expansion counts, and pruning statistics, and
* the ``bench_states_micro`` benchmark can measure the speedup of the
  delta representation against its predecessor.

Do not use it outside tests and benchmarks.  The class mirrors the
production state API exactly (``dedup_key``, ``last_pe``,
``max_finish_nodes`` are thin additions over the historical code) so the
engines accept it via their ``state_cls`` parameter.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.schedule.schedule import Schedule
from repro.system.processors import ProcessorSystem

__all__ = ["ReferencePartialSchedule"]


class ReferencePartialSchedule:
    """An immutable partial schedule with fully-materialized tuples."""

    __slots__ = (
        "graph",
        "system",
        "mask",
        "pes",
        "starts",
        "finishes",
        "ready_time",
        "makespan",
        "num_scheduled",
        "last_node",
        "last_pe",
        "remaining_weight",
        "_unsched_preds",
        "_sig",
    )

    def __init__(
        self,
        graph: TaskGraph,
        system: ProcessorSystem,
        mask: int,
        pes: tuple[int, ...],
        starts: tuple[float, ...],
        finishes: tuple[float, ...],
        ready_time: tuple[float, ...],
        makespan: float,
        num_scheduled: int,
        unsched_preds: tuple[int, ...],
        last_node: int = -1,
        last_pe: int = -1,
        remaining_weight: float = 0.0,
    ) -> None:
        self.graph = graph
        self.system = system
        self.mask = mask
        self.pes = pes
        self.starts = starts
        self.finishes = finishes
        self.ready_time = ready_time
        self.makespan = makespan
        self.num_scheduled = num_scheduled
        # Most recently placed node (-1 for the empty state).  Metadata
        # only: deliberately excluded from the signature so different
        # placement orders of the same partial schedule still collide.
        self.last_node = last_node
        self.last_pe = last_pe
        # Load-bound aggregate, delta-maintained exactly like the
        # production state so the floats stay bit-identical between the
        # two representations (the equivalence tests depend on it).
        self.remaining_weight = remaining_weight
        self._unsched_preds = unsched_preds
        self._sig: tuple | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(
        cls, graph: TaskGraph, system: ProcessorSystem
    ) -> "ReferencePartialSchedule":
        """The initial state: nothing scheduled anywhere."""
        v = graph.num_nodes
        return cls(
            graph=graph,
            system=system,
            mask=0,
            pes=(-1,) * v,
            starts=(-1.0,) * v,
            finishes=(-1.0,) * v,
            ready_time=(0.0,) * system.num_pes,
            makespan=0.0,
            num_scheduled=0,
            unsched_preds=tuple(len(graph.preds(n)) for n in range(v)),
            remaining_weight=sum(graph.weights),
        )

    # -- queries -------------------------------------------------------------

    def is_scheduled(self, node: int) -> bool:
        """True when ``node`` is already placed."""
        return (self.mask >> node) & 1 == 1

    def is_complete(self) -> bool:
        """True when every node is placed (goal state, paper §3.1)."""
        return self.num_scheduled == self.graph.num_nodes

    def ready_nodes(self) -> list[int]:
        """Unscheduled nodes whose predecessors are all scheduled."""
        mask = self.mask
        counts = self._unsched_preds
        return [
            n
            for n in range(self.graph.num_nodes)
            if counts[n] == 0 and not (mask >> n) & 1
        ]

    def is_ready(self, node: int) -> bool:
        """True when ``node`` is unscheduled with all parents scheduled."""
        return self._unsched_preds[node] == 0 and not (self.mask >> node) & 1

    def est(self, node: int, pe: int) -> float:
        """Earliest start time of ``node`` on ``pe`` (append-only rule)."""
        graph = self.graph
        start = self.ready_time[pe]
        finishes = self.finishes
        pes = self.pes
        distance_scaled = self.system.distance_scaled
        if distance_scaled:
            dist = self.system.hop_distance
        for parent, c in graph.pred_edges(node):
            ppe = pes[parent]
            if ppe == pe:
                arrival = finishes[parent]
            elif distance_scaled:
                arrival = finishes[parent] + c * dist[ppe][pe]
            else:
                arrival = finishes[parent] + c
            if arrival > start:
                start = arrival
        return start

    def data_ready_time(self, node: int, pe: int) -> float:
        """Arrival time of the last parent message at ``pe`` (ignores RT_p)."""
        graph = self.graph
        drt = 0.0
        finishes = self.finishes
        pes = self.pes
        for parent, c in graph.pred_edges(node):
            ppe = pes[parent]
            arrival = finishes[parent] + self.system.comm_time(c, ppe, pe)
            if arrival > drt:
                drt = arrival
        return drt

    @property
    def used_pes(self) -> int:
        """Bitmask of PEs with at least one scheduled task (O(v) scan)."""
        return sum(1 << pe for pe in set(self.pes) if pe >= 0)

    @property
    def ready_mask(self) -> int:
        """Bitmask of the ready nodes (O(v) scan)."""
        return sum(1 << n for n in self.ready_nodes())

    @property
    def max_finish_nodes(self) -> tuple[int, ...]:
        """All scheduled nodes attaining the maximum finish time.

        The historical :class:`PaperCost` re-derived this by scanning all
        ``v`` finishes per evaluation; exposing the same scan as a
        property lets one cost-function implementation serve both state
        representations with identical values.
        """
        makespan = self.makespan
        if makespan == 0.0:
            return ()
        finishes = self.finishes
        return tuple(n for n in range(len(finishes)) if finishes[n] == makespan)

    # -- expansion -------------------------------------------------------------

    def child_signature(self, node: int, pe: int,
                        _start: float | None = None) -> tuple[tuple, float]:
        """Signature the child ``extend(node, pe)`` would have, plus its
        start time — *without* constructing the child (two tuple splices).
        ``_start`` is a precomputed :meth:`est` (trusted).
        """
        start = self.est(node, pe) if _start is None else _start
        sig = (
            self.mask | (1 << node),
            self.pes[:node] + (pe,) + self.pes[node + 1 :],
            self.starts[:node] + (start,) + self.starts[node + 1 :],
        )
        return sig, start

    def extend(
        self,
        node: int,
        pe: int,
        *,
        _start: float | None = None,
        _sig: tuple | None = None,
    ) -> "ReferencePartialSchedule":
        """Place ``node`` on ``pe`` at its earliest start time.

        ``_start``/``_sig`` are the performance path for callers that
        already ran :meth:`child_signature` (values are trusted).

        Raises
        ------
        ScheduleError
            When ``node`` is not ready or ``pe`` is out of range.
        """
        if not self.is_ready(node):
            raise ScheduleError(f"node {node} is not ready for scheduling")
        if not (0 <= pe < self.system.num_pes):
            raise ScheduleError(f"unknown PE {pe}")
        start = self.est(node, pe) if _start is None else _start
        finish = start + self.system.exec_time(self.graph.weight(node), pe)

        pes = list(self.pes)
        starts = list(self.starts)
        finishes = list(self.finishes)
        ready_time = list(self.ready_time)
        counts = list(self._unsched_preds)
        pes[node] = pe
        starts[node] = start
        finishes[node] = finish
        ready_time[pe] = finish
        for child in self.graph.succs(node):
            counts[child] -= 1

        child = ReferencePartialSchedule(
            graph=self.graph,
            system=self.system,
            mask=self.mask | (1 << node),
            pes=tuple(pes),
            starts=tuple(starts),
            finishes=tuple(finishes),
            ready_time=tuple(ready_time),
            makespan=finish if finish > self.makespan else self.makespan,
            num_scheduled=self.num_scheduled + 1,
            unsched_preds=tuple(counts),
            last_node=node,
            last_pe=pe,
            remaining_weight=self.remaining_weight - self.graph.weight(node),
        )
        if _sig is not None:
            child._sig = _sig
        return child

    # -- identity ---------------------------------------------------------------

    @property
    def signature(self) -> tuple:
        """Canonical identity of this placement for duplicate detection."""
        if self._sig is None:
            self._sig = (self.mask, self.pes, self.starts)
        return self._sig

    @property
    def dedup_key(self) -> tuple:
        """Duplicate-detection key: the exact signature itself."""
        return self.signature

    def to_schedule(self) -> Schedule:
        """Materialize a complete :class:`Schedule`.

        Raises
        ------
        ScheduleError
            When the partial schedule is not complete.
        """
        if not self.is_complete():
            raise ScheduleError(
                f"partial schedule covers {self.num_scheduled}"
                f"/{self.graph.num_nodes} nodes"
            )
        return Schedule(
            self.graph,
            self.system,
            {n: (self.pes[n], self.starts[n]) for n in range(self.graph.num_nodes)},
        )

    # -- dunder -------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"ReferencePartialSchedule({self.num_scheduled}/"
            f"{self.graph.num_nodes} nodes, makespan={self.makespan:g})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ReferencePartialSchedule):
            return NotImplemented
        return (
            self.graph is other.graph or self.graph == other.graph
        ) and self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)
