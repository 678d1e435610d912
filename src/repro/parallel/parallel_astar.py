"""The parallel A* scheduling algorithm (paper §3.3) — simulated.

Faithful to the paper's listing:

1.  Every PPE expands the initial (empty) state; redundant equivalent
    states are eliminated by the same §3.2 rules as the serial engine.
2.  If fewer seed states than PPEs exist, expansion continues
    best-first until ``k ≥ q`` (Case 3 of the initial distribution);
    the seed pool is then sorted by cost and dealt interleaved
    (:mod:`repro.parallel.partition`), extras round-robin.
3.  The PPEs then iterate: run local A* for ``T`` expansions, then a
    communication round — exchange best-cost information with the
    neighbouring PPEs, import the elected best state, and run the
    round-robin load sharing of :mod:`repro.parallel.loadbalance`.
    ``T`` starts at ``v/2`` and halves every round down to 2.  Each
    local run is one call of the serial engine's best-first loop
    (:func:`repro.search.astar._best_first`) on the PPE's OPEN and
    CLOSED lists; it ends early when the PPE pops a goal or its floor
    meets the incumbent.
4.  A goal found by any PPE is broadcast; the search terminates when
    the incumbent held (the list schedule until a goal is found) is
    ≤ (1+ε) × the minimum ``f`` across all OPEN lists (ε = 0 for exact
    search), which proves (ε-)optimality.  The seed phase is serial
    A*, so it ends the search outright when it pops a goal or its
    floor meets the incumbent, and then no local phase runs.

Each PPE checks duplicates **only against its own CLOSED list** (paper:
a global CLOSED list would serialize the search), so the same placement
may be explored by several PPEs — the "extra states not generated in
serial A*" of the paper's Figure 5, and one of the two reasons its
speedups are sub-linear (the other being communication time).

The budget is the serial engine's, checked before every pop of every
PPE: a run stops at exactly ``max_expanded`` expansions (seed phase
included), and ``max_tracked_states`` bounds each PPE's OPEN + CLOSED.

Simulated time: one expansion costs ``spec.expansion_cost`` units; each
message ``spec.comm_latency``.  Phases are barrier-synchronous: a
phase's duration is the maximum per-PPE work in it, plus the
communication round (max per-PPE messages × latency).  Speedup is then
``serial work units / parallel makespan`` (:mod:`repro.parallel.metrics`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.graph.taskgraph import TaskGraph
from repro.parallel.loadbalance import plan_round_robin_shares
from repro.parallel.machine import MachineSpec, PPENetwork
from repro.parallel.partition import distribute_seeds
from repro.schedule.partial import PartialSchedule
from repro.schedule.schedule import Schedule
from repro.search.astar import _best_first, _WeightedOrder
from repro.search.costs import CostFunction
from repro.search.dedup import SignatureSet
from repro.search.frame import SearchFrame
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult
from repro.system.processors import ProcessorSystem
from repro.util import tolerance as tol
from repro.util.timing import Budget

__all__ = ["ParallelResult", "parallel_astar_schedule"]

_FOCAL_WINDOW = 32

# OPEN entries are (f, h, seq, state); heapq orders by the leading triple.
_Entry = tuple[float, float, int, PartialSchedule]


@dataclass
class _PPE:
    """One simulated physical processing element: its OPEN list, as an
    order for :func:`repro.search.astar._best_first` (``push``, ``pop``,
    ``floor``, ``len``, ``factor``), and its own CLOSED list ``seen``."""

    index: int
    open_heap: list[_Entry] = field(default_factory=list)
    seen: SignatureSet = field(default_factory=SignatureSet)
    #: Entry numbers, shared by all PPEs so that entries moved between
    #: them never tie.
    seq: Iterator[int] = field(default_factory=itertools.count)
    #: ``1 + ε`` of the windowed pop; 1.0 pops the minimum.
    relax: float = 1.0
    #: Keys in ``seen`` whose state this PPE handed on (a seed dealt to
    #: another PPE, a state given away in load sharing).
    gone: set = field(default_factory=set)
    expansions: int = 0
    messages: int = 0

    #: The loop's floors over one PPE's OPEN bound only that PPE's share
    #: of the space, so its caller takes the floor over all PPEs instead.
    factor = 1.0

    def __len__(self) -> int:
        return len(self.open_heap)

    def floor(self) -> float:
        return self.open_heap[0][0] if self.open_heap else math.inf

    def push(self, state: PartialSchedule, f: float, h: float) -> None:
        heapq.heappush(self.open_heap, (f, h, next(self.seq), state))

    def pop(self) -> tuple[PartialSchedule, float, float]:
        """Pop the next state to expand (windowed FOCAL for ε > 0).

        With ``relax`` 1.0 this is a plain minimum pop (serial-
        equivalent).  Otherwise up to ``_FOCAL_WINDOW`` lowest-f
        entries are examined and the deepest one within
        ``relax·f_min`` is taken — a bounded-width FOCAL list.  The
        ε-admissibility of the *result* is enforced at the termination
        check, so the window only affects speed.

        Once an incumbent goal exists, the caller sets ``relax`` back
        to 1.0: the termination test needs the *global* minimum f to
        rise to ``incumbent/(1+ε)``, and popping the band bottom raises
        it fastest (deep-first would stall it — the find-then-prove
        pattern of anytime search).
        """
        heap = self.open_heap
        first = heapq.heappop(heap)
        if self.relax == 1.0 or not heap:
            return first[3], first[1], first[0]
        bound = self.relax * first[0]
        window: list[_Entry] = [first]
        while heap and len(window) < _FOCAL_WINDOW and tol.leq(heap[0][0], bound):
            window.append(heapq.heappop(heap))
        # Deepest state (most nodes scheduled) within the bound wins.
        chosen = window.pop(min(range(len(window)), key=lambda i: (
            -window[i][3].num_scheduled, window[i][0])))
        for entry in window:
            heapq.heappush(heap, entry)
        return chosen[3], chosen[1], first[0]

    def pop_tail(self) -> _Entry:
        """Remove one poor (large-f) entry in O(1).

        The last element of a binary-heap array is always a leaf and
        never the minimum, so removing it preserves the heap invariant —
        a cheap way for load-sharing donors to shed *surplus* (bad-ish)
        states without an O(n) worst-extraction.
        """
        return self.open_heap.pop()


@dataclass
class ParallelResult:
    """Outcome of a simulated parallel search.

    ``result`` carries the schedule and aggregate work counters; the
    remaining fields describe the simulated execution itself.
    """

    result: SearchResult
    spec: MachineSpec
    makespan_units: float
    phases: int
    comm_rounds: int
    total_messages: int
    per_ppe_expansions: list[int]
    seed_expansions: int
    comm_units: float

    @property
    def schedule(self) -> Schedule | None:
        """The schedule found (None only on budget exhaustion)."""
        return self.result.schedule

    @property
    def total_expansions(self) -> int:
        """Work across all PPEs including duplicated seed work."""
        return sum(self.per_ppe_expansions) + self.seed_expansions

    @property
    def load_imbalance(self) -> float:
        """max/mean per-PPE expansion ratio (1.0 = perfectly balanced)."""
        counts = self.per_ppe_expansions
        mean = sum(counts) / len(counts)
        return (max(counts) / mean) if mean > 0 else 1.0


def parallel_astar_schedule(
    graph: TaskGraph,
    system: ProcessorSystem,
    spec: MachineSpec | None = None,
    *,
    epsilon: float = 0.0,
    pruning: PruningConfig | None = None,
    cost: str | CostFunction = "paper",
    budget: Budget | None = None,
) -> ParallelResult:
    """Schedule ``graph`` on ``system`` with parallel A* on ``spec`` PPEs.

    ``epsilon > 0`` runs the parallel Aε* of §3.4 on the same machinery
    (this is the configuration behind the paper's Figure 7).
    """
    if spec is None:
        spec = MachineSpec()
    frame = SearchFrame(graph, system, pruning=pruning, cost=cost, budget=budget)
    stats, pruning = frame.stats, frame.pruning
    network = PPENetwork(spec)
    q = spec.num_ppes
    relax = 1.0 + epsilon
    dup_on = pruning.duplicate_detection

    # ---- seed phase: every PPE expands the empty state identically -------
    # (paper: "Every PPE initializes the OPEN list by expanding the
    # initial empty state"; Case 3 keeps expanding until k >= q.)  It
    # is serial A*, run once, and its goal, floor and empty-OPEN exits
    # end the whole search; a goal it pops ties the best schedule it
    # generated.  The root never recurs (every child places one more
    # task), so CLOSED starts empty.
    seed = _WeightedOrder(1.0)
    seed.push(frame.root, 0.0, 0.0)
    seed_seen = SignatureSet(verify=pruning.verify_signatures)
    status, _, incumbent, lower = _best_first(
        frame, seed, seen=seed_seen, width=max(q, 2),
    )
    seed_expansions = stats.states_expanded
    stopped = frame.stop_reason if status == "budget" else None

    # Every PPE ran the identical seed expansion, so every PPE's CLOSED
    # list starts with the seed-phase signatures.
    seq = itertools.count()
    ppes = [_PPE(index=i, seen=seed_seen.copy(), seq=seq) for i in range(q)]
    if status == "width":
        seeds = [(f, (state, f, h)) for f, h, _s, state in seed]
        dealt = {state.dedup_key for _f, _h, _s, state in seed}
        for ppe, bucket in zip(ppes, distribute_seeds(seeds, q)):
            ppe.gone = dealt - {state.dedup_key for state, _f, _h in bucket}
            for state, f, h in bucket:
                ppe.push(state, f, h)

    # ---- phase loop --------------------------------------------------------
    T = max(2, graph.num_nodes // 2)
    makespan = float(seed_expansions) * spec.expansion_cost
    comm_units = 0.0
    phases = 0
    comm_rounds = 0
    total_messages = 0

    while status == "width":
        # -- local search phase: up to T expansions per PPE ----------------
        phases += 1
        work = []
        for ppe in ppes:
            ppe.relax = relax if incumbent is None else 1.0
            before = stats.states_expanded
            local, _, found, _ = _best_first(frame, ppe, seen=ppe.seen, limit=T)
            work.append(stats.states_expanded - before)
            ppe.expansions += work[-1]
            # A goal a PPE pops was generated earlier, so only the best
            # schedule it generated can beat the incumbent.
            if found is not None and (
                incumbent is None or found.length < incumbent.length
            ):
                incumbent = found
            if local == "budget":
                stopped = frame.stop_reason
                break
        makespan += max(work) * spec.expansion_cost
        open_total = sum(len(p) for p in ppes)
        if open_total > stats.max_open_size:
            stats.max_open_size = open_total

        # -- barrier: the drift-aware ε-termination test
        # (repro.util.tolerance) against the incumbent held; an empty
        # frontier left no state below U.
        lower = min(p.floor() for p in ppes)
        held = frame.fallback if incumbent is None else incumbent
        if stopped or lower == math.inf or tol.proves_bound(
            held.length, epsilon, lower
        ):
            break

        # -- communication round ------------------------------------------------
        comm_rounds += 1
        for ppe in ppes:
            ppe.messages = 0

        # (a) Neighbourhood vote: each PPE imports the elected best state.
        heads: list[_Entry | None] = [
            p.open_heap[0] if p.open_heap else None for p in ppes
        ]
        for ppe in ppes:
            group = network.group(ppe.index)
            ppe.messages += len(group) - 1  # cost-exchange with neighbours
            best: _Entry | None = None
            for member in group:
                head = heads[member]
                if head is not None and (best is None or head[0] < best[0]):
                    best = head
            if best is None:
                continue
            own = heads[ppe.index]
            if own is not None and best is own:
                continue  # already holds the elected state
            f, h, _s, state = best
            sig = state.dedup_key
            # Imported states go through seen()/add() with the exact
            # signature so verify mode covers cross-PPE traffic too.
            exact = (lambda s=state: s.signature) if ppe.seen.verify else None
            if dup_on and ppe.seen.seen(sig, exact):
                stats.pruning.duplicate_hits += 1
                continue
            if dup_on:
                ppe.seen.add(sig, exact)
            ppe.push(state, f, h)
            ppe.messages += 1
            total_messages += 1
            stats.states_generated += 1  # duplicated copy = extra state

        # (b) Round-robin load sharing of OPEN counts (§3.3 listing);
        # a moved entry keeps its number.
        counts = [len(p) for p in ppes]
        for donor, receiver, amount in plan_round_robin_shares(counts):
            moved = 0
            for _ in range(amount):
                if not ppes[donor].open_heap:
                    break
                entry = ppes[donor].pop_tail()
                state = entry[3]
                sig = state.dedup_key
                ppes[donor].gone.add(sig)
                recv = ppes[receiver]
                exact = (lambda s=state: s.signature) if recv.seen.verify else None
                # The receiver holds or has expanded a state its CLOSED
                # list has, unless it handed that state on: then the
                # donor's copy may be the only one left.
                if dup_on and sig not in recv.gone and recv.seen.seen(sig, exact):
                    stats.pruning.duplicate_hits += 1
                    continue
                recv.gone.discard(sig)
                if dup_on:
                    recv.seen.add(sig, exact)
                heapq.heappush(recv.open_heap, entry)
                moved += 1
            ppes[donor].messages += moved
            ppes[receiver].messages += moved
            total_messages += moved

        round_cost = max(p.messages for p in ppes) * spec.comm_latency
        makespan += round_cost
        comm_units += round_cost

        # (c) Exponentially decreasing communication period.
        T = max(2, T // 2)

    if stopped:
        algorithm = "parallel-astar(budget)"
    else:
        algorithm = "parallel-astar" if epsilon == 0.0 else f"parallel-focal(eps={epsilon})"
    # Every PPE's OPEN holds the unexplored rest of the space, so the
    # last barrier's global minimum f is a proven floor on the optimum
    # (or the seed phase's floor, when it ended the search).
    result = frame.finish(
        incumbent, lower, algorithm=algorithm, bound=relax, interrupted=stopped,
    )
    return ParallelResult(
        result=result,
        spec=spec,
        makespan_units=makespan,
        phases=phases,
        comm_rounds=comm_rounds,
        total_messages=total_messages,
        per_ppe_expansions=[p.expansions for p in ppes],
        seed_expansions=seed_expansions,
        comm_units=comm_units,
    )

