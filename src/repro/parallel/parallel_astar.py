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
    ``T`` starts at ``v/2`` and halves every round down to 2.
4.  A goal found by any PPE is broadcast; the search terminates when
    the best goal's length is ≤ (1+ε) × the minimum ``f`` across all
    OPEN lists (ε = 0 for exact search), which proves (ε-)optimality.

Each PPE checks duplicates **only against its own CLOSED list** (paper:
a global CLOSED list would serialize the search), so the same placement
may be explored by several PPEs — the "extra states not generated in
serial A*" of the paper's Figure 5, and one of the two reasons its
speedups are sub-linear (the other being communication time).

Simulated time: one expansion costs ``spec.expansion_cost`` units; each
message ``spec.comm_latency``.  Phases are barrier-synchronous: a
phase's duration is the maximum per-PPE work in it, plus the
communication round (max per-PPE messages × latency).  Speedup is then
``serial work units / parallel makespan`` (:mod:`repro.parallel.metrics`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.graph.taskgraph import TaskGraph
from repro.parallel.loadbalance import plan_round_robin_shares
from repro.parallel.machine import MachineSpec, PPENetwork
from repro.parallel.partition import distribute_seeds
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

__all__ = ["ParallelResult", "parallel_astar_schedule"]

_FOCAL_WINDOW = 32

# OPEN entries are (f, h, seq, state); heapq orders by the leading triple.
_Entry = tuple[float, float, int, PartialSchedule]


@dataclass
class _PPE:
    """One simulated physical processing element."""

    index: int
    open_heap: list[_Entry] = field(default_factory=list)
    seen: SignatureSet = field(default_factory=SignatureSet)
    expansions: int = 0
    phase_expansions: int = 0
    messages: int = 0

    def peek_f(self) -> float:
        return self.open_heap[0][0] if self.open_heap else math.inf

    def push(self, entry: _Entry) -> None:
        heapq.heappush(self.open_heap, entry)

    def pop_best(self, epsilon: float, have_incumbent: bool = False) -> _Entry:
        """Pop the next state to expand (windowed FOCAL for ε > 0).

        For ε = 0 this is a plain minimum pop (serial-equivalent).  For
        ε > 0, up to ``_FOCAL_WINDOW`` lowest-f entries are examined and
        the deepest one within ``(1+ε)·f_min`` is taken — a bounded-width
        FOCAL list.  The ε-admissibility of the *result* is enforced at
        the termination check, so the window only affects speed.

        Once an incumbent goal exists (``have_incumbent``), selection
        reverts to pure f-order: the termination test needs the *global*
        minimum f to rise to ``incumbent/(1+ε)``, and popping the band
        bottom raises it fastest (deep-first would stall it — the
        find-then-prove pattern of anytime search).
        """
        heap = self.open_heap
        if epsilon == 0.0 or have_incumbent or len(heap) == 1:
            return heapq.heappop(heap)
        first = heapq.heappop(heap)
        bound = (1.0 + epsilon) * first[0]
        window: list[_Entry] = [first]
        while heap and len(window) < _FOCAL_WINDOW and tol.leq(heap[0][0], bound):
            window.append(heapq.heappop(heap))
        # Deepest state (most nodes scheduled) within the bound wins.
        best_i = 0
        best_key = (-window[0][3].num_scheduled, window[0][0])
        for i in range(1, len(window)):
            key = (-window[i][3].num_scheduled, window[i][0])
            if key < best_key:
                best_i, best_key = i, key
        chosen = window.pop(best_i)
        for entry in window:
            heapq.heappush(heap, entry)
        return chosen

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
    budget, stats, pruning = frame.budget, frame.stats, frame.pruning
    network = PPENetwork(spec)
    q = spec.num_ppes
    relax = 1.0 + epsilon
    # The unrelaxed U stays valid for ε > 0: optimal-path states have
    # f ≤ f_opt ≤ U and survive, so the (1+ε)·global-min termination
    # test still fires (see repro.search.focal for the argument).
    upper = frame.upper
    incumbent: Schedule | None = None

    dup_on = pruning.duplicate_detection
    ub_on = pruning.upper_bound
    seq = 0
    # Per-child names, bound once: every PPE's loop runs for every child.
    children = frame.expander.children
    h_of = frame.cost_fn.h
    v = graph.num_nodes

    def evaluate(child: PartialSchedule) -> _Entry | None:
        """Cost a child; None when the upper-bound rule discards it."""
        nonlocal seq, incumbent, upper
        ch = h_of(child)
        cf = child.makespan + ch
        if ub_on and tol.gt(cf, upper):
            stats.pruning.upper_bound_cuts += 1
            return None
        if child.num_scheduled == v and (
            incumbent is None or child.makespan < incumbent.length
        ):
            incumbent = child.to_schedule()
            if ub_on:
                upper = min(upper, incumbent.length)
        seq += 1
        return (cf, ch, seq, child)

    # ---- seed phase: every PPE expands the empty state identically -------
    # (paper: "Every PPE initializes the OPEN list by expanding the
    # initial empty state"; Case 3 keeps expanding until k >= q.)
    root = frame.root
    seed_heap: list[_Entry] = [(0.0, 0.0, 0, root)]
    seed_seen = SignatureSet(verify=pruning.verify_signatures)
    seed_seen.add(root.dedup_key, lambda: root.signature)
    seed_expansions = 0
    while seed_heap and len(seed_heap) < max(q, 2):
        f, h, _s, state = heapq.heappop(seed_heap)
        if state.num_scheduled == v:
            # Degenerate: the whole space fit below q states.
            heapq.heappush(seed_heap, (f, h, _s, state))
            break
        seed_expansions += 1
        for child in children(state, seed_seen if dup_on else None):
            entry = evaluate(child)
            if entry is not None:
                stats.states_generated += 1
                heapq.heappush(seed_heap, entry)

    ppes = [_PPE(index=i) for i in range(q)]
    for ppe in ppes:
        # Every PPE ran the identical seed expansion, so every PPE's
        # CLOSED list starts with the seed-phase signatures.
        ppe.seen = seed_seen.copy()
    seeds = [(entry[0], entry) for entry in seed_heap]
    for i, bucket in enumerate(distribute_seeds(seeds, q)):
        for entry in bucket:
            ppes[i].push(entry)  # type: ignore[arg-type]

    # ---- phase loop --------------------------------------------------------
    T = max(2, v // 2)
    makespan = float(seed_expansions) * spec.expansion_cost
    comm_units = 0.0
    phases = 0
    comm_rounds = 0
    total_messages = 0
    stopped = None  # the budget's reason, once it stops the run

    while True:
        # -- local search phase: up to T expansions per PPE ----------------
        phases += 1
        for ppe in ppes:
            ppe.phase_expansions = 0
            heap = ppe.open_heap
            while heap and ppe.phase_expansions < T:
                entry = ppe.pop_best(epsilon, incumbent is not None)
                f, h, _s, state = entry
                ppe.phase_expansions += 1
                ppe.expansions += 1
                stats.states_expanded += 1
                if state.num_scheduled == v:
                    if incumbent is None or state.makespan < incumbent.length:
                        incumbent = state.to_schedule()
                        if ub_on:
                            upper = min(upper, incumbent.length)
                    continue
                if ub_on and tol.gt(f, upper):
                    stats.pruning.upper_bound_cuts += 1
                    continue
                for child in children(state, ppe.seen if dup_on else None):
                    child_entry = evaluate(child)
                    if child_entry is not None:
                        stats.states_generated += 1
                        ppe.push(child_entry)
        phase_work = max(p.phase_expansions for p in ppes)
        makespan += phase_work * spec.expansion_cost
        open_total = sum(len(p.open_heap) for p in ppes)
        if open_total > stats.max_open_size:
            stats.max_open_size = open_total

        # -- barrier: termination and budget checks --------------------------
        global_min_f = min(p.peek_f() for p in ppes)
        # The drift-aware ε-termination test (repro.util.tolerance); an
        # empty frontier left no state below the bound.
        if global_min_f is math.inf or (
            incumbent is not None
            and tol.proves_bound(incumbent.length, epsilon, global_min_f)
        ):
            break
        if budget.exhausted(stats.states_expanded, stats.states_generated):
            stopped = frame.stop_reason
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
            exact = (
                (lambda s=state: s.signature) if ppe.seen.verify else None
            )
            if dup_on and ppe.seen.seen(sig, exact):
                stats.pruning.duplicate_hits += 1
                continue
            if dup_on:
                ppe.seen.add(sig, exact)
            seq += 1
            ppe.push((f, h, seq, state))
            ppe.messages += 1
            total_messages += 1
            stats.states_generated += 1  # duplicated copy = extra state

        # (b) Round-robin load sharing of OPEN counts (§3.3 listing).
        counts = [len(p.open_heap) for p in ppes]
        for donor, receiver, amount in plan_round_robin_shares(counts):
            moved = 0
            for _ in range(amount):
                if not ppes[donor].open_heap:
                    break
                entry = ppes[donor].pop_tail()
                state = entry[3]
                sig = state.dedup_key
                recv_seen = ppes[receiver].seen
                exact = (
                    (lambda s=state: s.signature) if recv_seen.verify else None
                )
                if dup_on and recv_seen.seen(sig, exact):
                    stats.pruning.duplicate_hits += 1
                    # The donor dropped it; receiver already has it.
                    continue
                if dup_on:
                    recv_seen.add(sig, exact)
                ppes[receiver].push(entry)
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
    # last barrier's global minimum f is a proven floor on the optimum.
    result = frame.finish(
        incumbent, global_min_f, algorithm=algorithm, bound=relax,
        interrupted=stopped,
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
