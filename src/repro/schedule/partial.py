"""Incremental partial schedules — the payload of every search state.

A state in the scheduling state-space is a partial schedule: a
downward-closed sub-graph of the DAG placed onto processors (paper
§3.1).  This class is **immutable**; :meth:`extend` returns a new
partial schedule with one more node placed, sharing nothing mutable with
its parent.

Representation (delta encoding; see DESIGN.md):

* each expansion changes exactly one node's placement, so a child state
  stores only the delta ``(parent, node, pe, start, finish)`` plus O(1)
  incrementally-maintained aggregates — makespan, scheduled count, the
  scheduled-set bitmask, a used-PE bitmask, per-PE ready times, the set
  of nodes attaining the maximum finish time (so the paper cost function
  stops scanning all v finishes), a 64-bit Zobrist signature over
  the ``(node, pe, start)`` placement triples, and the load-bound
  aggregates — remaining total node weight, per-PE committed busy time,
  and total committed idle.  The composite lower bound
  (:class:`repro.search.costs.LoadBoundCost`) reads ``remaining_weight``
  and ``ready_time`` — O(P log P) per evaluation, never materializing
  anything; ``busy_time``/``total_idle`` decompose the ready times for
  reports and verification (``Σ busy + idle == Σ ready_time`` is
  property-tested);
* the full ``pes``/``starts``/``finishes`` arrays are materialized
  lazily by replaying the parent chain, and only for states that
  actually need them — i.e. states that get *expanded* (their children's
  ESTs read parent finishes) or turned into complete schedules.  The
  80-90% of candidates that die in duplicate detection or the upper
  bound never pay an O(v) copy;
* readiness is a bitmask test: node ``n`` is ready iff it is unscheduled
  and ``graph.pred_masks[n]`` is a subset of the scheduled mask;
* the duplicate-detection key is ``(mask, zobrist)`` — O(1) to derive
  for a candidate child via one XOR, making two different scheduling
  orders of the same placement collide — precisely the "state visited
  before" pruning in the paper's Figure-3 walk-through.  The exact
  ``(mask, pes, starts)`` signature remains available (lazily) for
  verification and diagnostics.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.errors import ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.schedule.schedule import Schedule
from repro.system.processors import ProcessorSystem
from repro.util.hashing import MASK64 as _MASK64
from repro.util.hashing import PE64 as _PE64
from repro.util.hashing import PHI64 as _PHI64
from repro.util.hashing import splitmix64 as _splitmix64

__all__ = ["PartialSchedule", "placement_key"]


def placement_key(node: int, pe: int, start: float) -> int:
    """64-bit Zobrist key of one ``(node, pe, start)`` placement.

    The per-placement keys XOR into the state signature, so they must be
    order-independent and individually well-mixed.  The "quantization" of
    the start time is its exact value via ``hash(float)`` (deterministic,
    not salted): equal placements always produce bit-identical starts
    because the EST is a max over identical operands whatever the
    placement order, so no epsilon bucketing is needed — or wanted, since
    bucketing would merge genuinely different states.  The mix is the
    splitmix64 finalizer, giving full avalanche over the 64-bit lane.

    NOTE: :meth:`PartialSchedule.child_signature` inlines this function
    for speed; the two copies must stay bit-identical (regression-tested
    in ``tests/property/test_state_equivalence.py``).
    """
    return _splitmix64(
        (node + 1) * _PHI64 + (pe + 1) * _PE64 + (hash(start) & _MASK64)
    )


class PartialSchedule:
    """An immutable, delta-encoded partial schedule of ``graph`` on ``system``.

    Use :meth:`empty` for the initial (empty) state and :meth:`extend`
    for expansion.  Direct construction is internal.
    """

    __slots__ = (
        "graph",
        "system",
        "mask",
        "ready_mask",
        "ready_time",
        "makespan",
        "num_scheduled",
        "last_node",
        "last_pe",
        "last_start",
        "last_finish",
        "zkey",
        "used_pes",
        "remaining_weight",
        "busy_time",
        "total_idle",
        "_parent",
        "_max_finish_nodes",
        "_pes",
        "_starts",
        "_finishes",
        "_sig",
    )

    def __init__(
        self,
        graph: TaskGraph,
        system: ProcessorSystem,
        *,
        mask: int,
        ready_mask: int,
        ready_time: tuple[float, ...],
        makespan: float,
        num_scheduled: int,
        zkey: int,
        used_pes: int,
        remaining_weight: float,
        busy_time: tuple[float, ...],
        total_idle: float,
        max_finish_nodes: tuple[int, ...],
        parent: "PartialSchedule | None" = None,
        last_node: int = -1,
        last_pe: int = -1,
        last_start: float = -1.0,
        last_finish: float = -1.0,
        pes: tuple[int, ...] | None = None,
        starts: tuple[float, ...] | None = None,
        finishes: tuple[float, ...] | None = None,
    ) -> None:
        self.graph = graph
        self.system = system
        self.mask = mask
        self.ready_mask = ready_mask
        self.ready_time = ready_time
        self.makespan = makespan
        self.num_scheduled = num_scheduled
        # Most recently placed node (-1 for the empty state) and its
        # placement — the delta relative to ``_parent``.  ``last_node``
        # is metadata for the commutation rule and deliberately excluded
        # from the signature so different placement orders of the same
        # partial schedule still collide.
        self.last_node = last_node
        self.last_pe = last_pe
        self.last_start = last_start
        self.last_finish = last_finish
        self.zkey = zkey
        self.used_pes = used_pes
        # Load-bound aggregates (delta-maintained): total weight still
        # to be placed (weight units) — read by LoadBoundCost together
        # with ready_time — plus per-PE committed execution time and
        # the total idle committed between same-PE placements (time
        # units), which decompose the ready times for reports and
        # verification: ``busy_time[p] + gaps on p == ready_time[p]``.
        self.remaining_weight = remaining_weight
        self.busy_time = busy_time
        self.total_idle = total_idle
        self._parent = parent
        self._max_finish_nodes = max_finish_nodes
        self._pes = pes
        self._starts = starts
        self._finishes = finishes
        self._sig: tuple | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, graph: TaskGraph, system: ProcessorSystem) -> "PartialSchedule":
        """The initial state: nothing scheduled anywhere."""
        v = graph.num_nodes
        ready_mask = 0
        for n in graph.entry_nodes:
            ready_mask |= 1 << n
        return cls(
            graph=graph,
            system=system,
            mask=0,
            ready_mask=ready_mask,
            ready_time=(0.0,) * system.num_pes,
            makespan=0.0,
            num_scheduled=0,
            zkey=0,
            used_pes=0,
            remaining_weight=sum(graph.weights),
            busy_time=(0.0,) * system.num_pes,
            total_idle=0.0,
            max_finish_nodes=(),
            pes=(-1,) * v,
            starts=(-1.0,) * v,
            finishes=(-1.0,) * v,
        )

    # -- lazy materialization ------------------------------------------------

    def _materialize(self) -> None:
        """Build the full per-node arrays by replaying the parent chain.

        Finds the nearest ancestor with cached arrays (the root always
        has them) and applies the deltas forward.  Cached on ``self``
        only — intermediate ancestors stay compact unless they are
        themselves asked.
        """
        chain: list[PartialSchedule] = []
        s = self
        while s._pes is None:
            chain.append(s)
            s = s._parent  # type: ignore[assignment]  # root always materialized
        pes = list(s._pes)  # type: ignore[arg-type]
        starts = list(s._starts)  # type: ignore[arg-type]
        finishes = list(s._finishes)  # type: ignore[arg-type]
        for st in reversed(chain):
            n = st.last_node
            pes[n] = st.last_pe
            starts[n] = st.last_start
            finishes[n] = st.last_finish
        self._pes = tuple(pes)
        self._starts = tuple(starts)
        self._finishes = tuple(finishes)

    @property
    def pes(self) -> tuple[int, ...]:
        """Per-node PE assignment (-1 = unscheduled); materialized lazily."""
        if self._pes is None:
            self._materialize()
        return self._pes  # type: ignore[return-value]

    @property
    def starts(self) -> tuple[float, ...]:
        """Per-node start times (-1.0 = unscheduled); materialized lazily."""
        if self._starts is None:
            self._materialize()
        return self._starts  # type: ignore[return-value]

    @property
    def finishes(self) -> tuple[float, ...]:
        """Per-node finish times (-1.0 = unscheduled); materialized lazily."""
        if self._finishes is None:
            self._materialize()
        return self._finishes  # type: ignore[return-value]

    def placements(self) -> Iterable[tuple[int, int, float, float]]:
        """Yield every ``(node, pe, start, finish)``, most recent first.

        Walks the parent chain without materializing any arrays — O(1)
        per scheduled node.  The chain may terminate in a *snapshot
        root* instead of the empty state (a state rebuilt by
        :meth:`from_wire` carries arrays but no parent chain); its
        placements are then read from the arrays, in no particular
        order relative to each other.
        """
        s = self
        while s.last_node >= 0:
            yield s.last_node, s.last_pe, s.last_start, s.last_finish
            s = s._parent  # type: ignore[assignment]
        if s.num_scheduled:
            pes = s._pes
            starts = s._starts
            finishes = s._finishes
            m = s.mask
            while m:
                low = m & -m
                n = low.bit_length() - 1
                m ^= low
                yield n, pes[n], starts[n], finishes[n]  # type: ignore[index]

    # -- queries -------------------------------------------------------------

    def is_scheduled(self, node: int) -> bool:
        """True when ``node`` is already placed."""
        return (self.mask >> node) & 1 == 1

    def is_complete(self) -> bool:
        """True when every node is placed (goal state, paper §3.1)."""
        return self.num_scheduled == self.graph.num_nodes

    def ready_nodes(self) -> list[int]:
        """Unscheduled nodes whose predecessors are all scheduled.

        Ascending node-id order; the search reorders by priority.  The
        ready set is maintained incrementally as a bitmask (scheduling a
        node can only ready its successors), so this just decodes the
        set bits — O(|ready|) instead of an O(v) readiness scan.
        """
        out = []
        m = self.ready_mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    def is_ready(self, node: int) -> bool:
        """True when ``node`` is unscheduled with all parents scheduled."""
        return (self.ready_mask >> node) & 1 == 1

    def est(self, node: int, pe: int) -> float:
        """Earliest start time of ``node`` on ``pe`` (append-only rule).

        ``ST(n, p) = max(RT_p, max_parents(FT(parent) + comm))`` where
        comm is zero for same-PE parents (paper §2).  The caller must
        ensure ``node`` is ready.  Iterates the graph's flat CSR in-edge
        slice; materializes this state's arrays on first use (states
        being expanded pay that once, their generated children never do).
        """
        start = self.ready_time[pe]
        pairs = self.graph.pred_pairs[node]
        if not pairs:
            return start
        if self._finishes is None:
            self._materialize()
        finishes = self._finishes
        pes = self._pes
        if self.system.distance_scaled:
            dist = self.system.hop_distance
            for parent, c in pairs:
                ppe = pes[parent]  # type: ignore[index]
                if ppe == pe:
                    arrival = finishes[parent]  # type: ignore[index]
                else:
                    arrival = finishes[parent] + c * dist[ppe][pe]  # type: ignore[index]
                if arrival > start:
                    start = arrival
        else:
            for parent, c in pairs:
                if pes[parent] == pe:  # type: ignore[index]
                    arrival = finishes[parent]  # type: ignore[index]
                else:
                    arrival = finishes[parent] + c  # type: ignore[index]
                if arrival > start:
                    start = arrival
        return start

    def data_ready_time(self, node: int, pe: int) -> float:
        """Arrival time of the last parent message at ``pe`` (ignores RT_p)."""
        graph = self.graph
        offsets = graph.pred_offsets
        preds = graph.pred_flat
        costs = graph.pred_costs
        drt = 0.0
        finishes = self.finishes
        pes = self.pes
        for i in range(offsets[node], offsets[node + 1]):
            parent = preds[i]
            arrival = finishes[parent] + self.system.comm_time(costs[i], pes[parent], pe)
            if arrival > drt:
                drt = arrival
        return drt

    def used_pes_mask(self) -> int:
        """Bitmask of PEs with at least one scheduled task.

        Maintained incrementally (:attr:`used_pes`); this accessor is
        kept for the historical API.
        """
        return self.used_pes

    @property
    def max_finish_nodes(self) -> tuple[int, ...]:
        """All scheduled nodes attaining the maximum finish time.

        Maintained incrementally on :meth:`extend` so the paper cost
        function reads the argmax set in O(1) instead of scanning all v
        finishes.  Empty for the empty state.
        """
        return self._max_finish_nodes

    # -- expansion -------------------------------------------------------------

    def child_signature(self, node: int, pe: int) -> tuple[tuple[int, int], float]:
        """Duplicate key of the child ``extend(node, pe)`` would produce,
        plus its start time — *without* constructing the child.

        Duplicate detection rejects ~80-90% of expansion candidates on
        typical instances (profiled); previewing the key costs one EST
        plus one XOR instead of full child construction, so engines check
        the CLOSED set first and only materialize survivors.  The
        returned start time can be handed back to :meth:`extend` to avoid
        recomputing the EST.
        """
        start = self.est(node, pe)
        # placement_key() inlined — this runs once per expansion
        # candidate and the call overhead is measurable.
        h = ((node + 1) * _PHI64 + (pe + 1) * _PE64 + (hash(start) & _MASK64)) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
        return (self.mask | (1 << node), self.zkey ^ h), start

    def extend(
        self,
        node: int,
        pe: int,
        *,
        _start: float | None = None,
        _sig: tuple[int, int] | None = None,
    ) -> "PartialSchedule":
        """Place ``node`` on ``pe`` at its earliest start time.

        ``_start``/``_sig`` are the performance path for callers that
        already ran :meth:`child_signature` (values are trusted).

        Every engine pays this once per child it builds, so the child is
        filled slot by slot instead of through the keyword
        :meth:`__init__`; ``tests/property/test_extend_construction.py``
        pins the two to the same state.  The child is always a plain
        :class:`PartialSchedule`.

        Raises
        ------
        ScheduleError
            When ``node`` is not ready or ``pe`` is out of range.
        """
        bit = 1 << node
        if not self.ready_mask & bit:
            raise ScheduleError(f"node {node} is not ready for scheduling")
        system = self.system
        if not 0 <= pe < system.num_pes:
            raise ScheduleError(f"unknown PE {pe}")
        graph = self.graph
        start = self.est(node, pe) if _start is None else _start
        weight = graph.weights[node]
        finish = start + weight / system.speeds[pe]

        child = object.__new__(PartialSchedule)
        makespan = self.makespan
        if finish > makespan:
            child.makespan = finish
            child._max_finish_nodes = (node,)
        elif finish == makespan:
            child.makespan = makespan
            child._max_finish_nodes = self._max_finish_nodes + (node,)
        else:
            child.makespan = makespan
            child._max_finish_nodes = self._max_finish_nodes
        # Scheduling `node` can only ready its own successors: drop it
        # from the ready set and admit each successor whose parents are
        # now all scheduled.
        mask = self.mask | bit
        ready = self.ready_mask ^ bit
        pmasks = graph.pred_masks
        for s in graph.succs(node):
            pm = pmasks[s]
            if pm & mask == pm:
                ready |= 1 << s
        # One-slot tuple updates via a list: half the cost of slicing.
        rt = self.ready_time
        ready_time = list(rt)
        ready_time[pe] = finish
        busy = list(self.busy_time)
        busy[pe] += finish - start
        child.graph = graph
        child.system = system
        child.mask = mask
        child.ready_mask = ready
        child.ready_time = tuple(ready_time)
        child.num_scheduled = self.num_scheduled + 1
        child.last_node = node
        child.last_pe = pe
        child.last_start = start
        child.last_finish = finish
        child.zkey = (
            self.zkey ^ placement_key(node, pe, start) if _sig is None else _sig[1]
        )
        child.used_pes = self.used_pes | (1 << pe)
        child.remaining_weight = self.remaining_weight - weight
        child.busy_time = tuple(busy)
        child.total_idle = self.total_idle + (start - rt[pe])
        child._parent = self
        child._pes = None
        child._starts = None
        child._finishes = None
        child._sig = None
        return child

    # -- identity ---------------------------------------------------------------

    @property
    def dedup_key(self) -> tuple[int, int]:
        """Duplicate-detection key ``(scheduled mask, zobrist)``.

        Two partial schedules that place the same nodes on the same PEs
        at the same times share this key regardless of the order in which
        the placements happened; the converse holds up to a ~2^-64
        Zobrist collision between same-node-set states (the mask makes
        cross-node-set collisions impossible).  See
        :class:`repro.search.dedup.SignatureSet` for the verified mode.
        """
        return (self.mask, self.zkey)

    @property
    def signature(self) -> tuple:
        """Exact canonical identity ``(mask, pes, starts)``.

        Order-independent like :attr:`dedup_key` but collision-free;
        materializes the arrays, so the hot path uses :attr:`dedup_key`
        and this remains for verification, diagnostics, and ground-truth
        enumeration.
        """
        if self._sig is None:
            self._sig = (self.mask, self.pes, self.starts)
        return self._sig

    # -- serialization -----------------------------------------------------------

    def compact(self) -> tuple[tuple[int, int, float], ...]:
        """Compact picklable encoding: ``(node, pe, start)`` triples.

        Sorted by ``(start, node)`` — a valid replay order (the
        append-only EST rule makes same-PE placement order equal start
        order, and every parent finishes strictly before its child
        starts).  O(d) to build via the parent chain.  HDA* sends its
        final result back to the parent process in this form; seeds and
        transferred states travel as :meth:`to_wire` snapshots.
        """
        items = [(node, pe, start) for node, pe, start, _finish in self.placements()]
        items.sort(key=lambda t: (t[2], t[0]))
        return tuple(items)

    def to_wire(self) -> tuple:
        """Full-fidelity snapshot for cross-process transfer: every
        aggregate plus the materialized arrays, as one picklable tuple.

        The HDA* transfer format, for the seeds and for every child sent
        to its owner: rebuilding via :meth:`from_wire` is one O(v)
        construction instead of an O(depth) :meth:`extend` replay with
        its per-step EST scans (measured ~10x cheaper at §4.1 depths,
        see DESIGN.md).  :meth:`compact` carries only the final result.
        """
        if self._pes is None:
            self._materialize()
        # New aggregates append at the END: the HDA* workers read the
        # duplicate key straight off the tuple as (wire[0], wire[5]) —
        # those positions are part of the wire contract.
        return (
            self.mask,
            self.ready_mask,
            self.ready_time,
            self.makespan,
            self.num_scheduled,
            self.zkey,
            self.used_pes,
            self._max_finish_nodes,
            self._pes,
            self._starts,
            self._finishes,
            self.remaining_weight,
            self.busy_time,
            self.total_idle,
        )

    @classmethod
    def from_wire(
        cls, graph: TaskGraph, system: ProcessorSystem, wire: tuple
    ) -> "PartialSchedule":
        """Rebuild a state from :meth:`to_wire` output.

        The result is a *snapshot root*: no parent chain and no last-
        placement delta (``last_node = -1``), so the commutation rule
        simply has nothing to prune against it, and :meth:`placements`
        reads its nodes from the arrays.  Identity (``dedup_key``,
        ``signature``) and all search-visible behaviour are preserved.
        """
        (mask, ready_mask, ready_time, makespan, num_scheduled, zkey,
         used_pes, max_finish_nodes, pes, starts, finishes,
         remaining_weight, busy_time, total_idle) = wire
        return cls(
            graph=graph,
            system=system,
            mask=mask,
            ready_mask=ready_mask,
            ready_time=ready_time,
            makespan=makespan,
            num_scheduled=num_scheduled,
            zkey=zkey,
            used_pes=used_pes,
            remaining_weight=remaining_weight,
            busy_time=busy_time,
            total_idle=total_idle,
            max_finish_nodes=max_finish_nodes,
            pes=pes,
            starts=starts,
            finishes=finishes,
        )

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
            {node: (pe, start) for node, pe, start, _f in self.placements()},
        )

    # -- dunder -------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"PartialSchedule({self.num_scheduled}/{self.graph.num_nodes} nodes, "
            f"makespan={self.makespan:g})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, PartialSchedule):
            return NotImplemented
        if self.mask != other.mask or self.zkey != other.zkey:
            # Equal placements always hash equal (EST determinism), so a
            # key mismatch proves the placements differ.
            return False
        return (
            self.graph is other.graph or self.graph == other.graph
        ) and self.pes == other.pes and self.starts == other.starts

    def __hash__(self) -> int:
        return hash((self.mask, self.zkey))
