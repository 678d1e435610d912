"""HDA*: hash-distributed parallel A* on real OS processes.

This is the §3.3 parallel search idea implemented the way the
follow-up literature converged on (Kishimoto et al.'s HDA*; Orr &
Sinnen's parallel duplicate-free scheduling search): instead of
independent sub-searches over a statically-partitioned frontier (the
paper's PPEs, simulated in :mod:`repro.parallel.parallel_astar`),
every state has exactly one *owner*
among the workers, determined by hashing its duplicate key
(:func:`repro.parallel.shared.owner_of`).  Consequences:

* **Exact global duplicate detection, no shared CLOSED list.**  Both
  expansion orders of the same placement hash to the same owner, whose
  local :class:`~repro.search.dedup.SignatureSet` kills the second copy
  — the "extra states" overhead of the paper's local-CLOSED design
  disappears without any serializing global structure.
* **Dynamic load balance for free.**  The hash scatters each
  expansion's children uniformly across workers, so no explicit
  round-robin sharing phase (§3.3's listing) is needed.
* **Asynchronous communication.**  Children owned elsewhere travel in
  batches over per-worker :mod:`multiprocessing` queues as
  ``(f, h, wire)`` records.  The wire form, for the seeds and for
  every transfer, is the snapshot
  :meth:`~repro.schedule.partial.PartialSchedule.to_wire` — one O(v)
  reconstruction on the owner instead of replaying the delta chain
  placement by placement (measured ~10x cheaper per transfer).  Only
  the final result travels back to the parent, in the O(depth)
  :meth:`~repro.schedule.partial.PartialSchedule.compact` form.
  ``f``/``h`` travel along so the owner never
  re-runs the cost function, and the duplicate key is readable off the
  wire tuple so duplicates die *before* paying the reconstruction.
* **Shared incumbent.**  The one global datum is the best known
  complete-schedule length (:class:`~repro.parallel.shared.
  SharedIncumbent`), seeded with the §3.2 list-schedule bound (or a
  caller-provided incumbent) and tightened by every goal any worker
  generates.  Workers prune states that provably cannot beat it.
* **Sender-side duplicate filtering.**  A worker records the keys it
  forwards in the same signature set as its own states, so the 80-90%
  of candidates that are transposition duplicates generated *by the
  same worker* die at the sender — before the cost function, the
  compact encoding, and the queue.

Termination is quiescence, not a goal pop: workers prune with
``(1+ε)·f ≥ U`` (tolerance-aware, :mod:`repro.util.tolerance`), so
when every worker is idle and no batch is in flight — detected by the
counter protocol of :class:`~repro.parallel.shared.WorkerBoard` — every
un-expanded state provably satisfied the bound and the incumbent is
(ε-)optimal.  For ε = 0 this returns the same optimal makespan as
serial A*, byte for byte (property-tested); the *work* differs, the
answer cannot.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing as mp
import queue as queue_mod
import time
from typing import Any

from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.heuristics.listsched import fast_upper_bound_schedule
from repro.obs.probe import SearchProbe
from repro.obs.trace import Tracer
from repro.parallel.mp_backend import pool_context, system_from_args, system_to_args
from repro.parallel.shared import Outbox, SharedIncumbent, WorkerBoard, owner_of
from repro.schedule.partial import PartialSchedule
from repro.schedule.schedule import Schedule
from repro.search.costs import make_cost_function
from repro.search.dedup import SignatureSet
from repro.search.expansion import StateExpander
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult, SearchStats
from repro.system.processors import ProcessorSystem
from repro.testing import faults
from repro.util import tolerance as tol
from repro.util.timing import Budget, process_rss_mb

__all__ = ["hda_astar_schedule"]

#: States per queue message (amortizes pickling and pipe writes).
_BATCH_SIZE = 64
#: Inbox depth in batches — back pressure so a fast producer cannot
#: buffer unbounded states at a drowning consumer (see Outbox).
_QUEUE_DEPTH = 64
#: Expansions between inbox drains in the worker loop.
_CHUNK = 128
#: Worker sleep while idle, and the parent's monitor poll period.
_IDLE_SLEEP = 0.0005
_MONITOR_SLEEP = 0.002
#: Seconds the parent waits for worker results/joins after stop.
_SHUTDOWN_GRACE = 10.0

# Shared flags word: bit 0 = some worker exhausted its budget share,
# bit 1 = some worker died with an exception, bit 2 = some worker hit
# its memory ceiling (tracked states or RSS).
_FLAG_BUDGET = 1
_FLAG_ERROR = 2
_FLAG_MEMORY = 4

#: Default no-progress timeout before a live worker is declared hung.
_STALL_TIMEOUT = 30.0


def hda_astar_schedule(
    graph: TaskGraph,
    system: ProcessorSystem,
    *,
    workers: int = 2,
    epsilon: float = 0.0,
    pruning: PruningConfig | None = None,
    cost: str = "paper",
    budget: Budget | None = None,
    incumbent: Schedule | None = None,
    oversubscribe: int = 4,
    state_cls: type = PartialSchedule,
    worker_stall_timeout: float = _STALL_TIMEOUT,
    probe: SearchProbe | None = None,
    tracer: Tracer | None = None,
) -> SearchResult:
    """Optimal (or ε-optimal) scheduling on ``workers`` OS processes.

    Parameters mirror :func:`repro.search.astar.astar_schedule`, plus:

    workers:
        Worker process count; ``<= 1`` falls back to the serial engine
        (as does running inside a daemonic pool worker, which may not
        spawn children, or with a non-default ``state_cls`` — the wire
        formats are the delta states' ``to_wire()``/``compact()``).
    epsilon:
        ε ≥ 0; workers prune states with ``(1+ε)·f ≥ U``, so quiescence
        proves the returned schedule within ``1+ε`` of optimal (exactly
        optimal for ε = 0).
    oversubscribe:
        The serial seed phase expands best-first until the frontier
        holds ``workers × oversubscribe`` states before dealing them to
        their owners — enough initial work that no worker starves while
        the first expansion waves propagate.
    worker_stall_timeout:
        Seconds without a heartbeat before a live worker is declared
        hung and the run aborts with the incumbent (a dead process is
        caught faster via ``is_alive``); the quiescence protocol alone
        would wait on a wedged worker forever.
    probe:
        Optional :class:`SearchProbe`.  The seed phase ticks it
        directly; workers buffer local samples and the coordinator
        merges them into one global timeline (expansions summed across
        workers at sorted wall offsets).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  Workers buffer
        span/event records locally and ship them back over the results
        queue; the coordinator absorbs them under its current span.

    Returns the same :class:`SearchResult` contract as the serial
    engines; ``algorithm`` is ``hda(workers=N)`` and ``optimal`` is
    True only for proven ε = 0 runs.
    """
    from repro.search.astar import astar_schedule

    if pruning is None:
        pruning = PruningConfig.all()
    serial_fallback = (
        workers <= 1
        or state_cls is not PartialSchedule
        or mp.current_process().daemon
    )
    if serial_fallback:
        if epsilon > 0.0:
            # Keep the ε contract: Aε* proves the same 1+ε bound the
            # distributed pruning would have.
            from repro.search.focal import focal_schedule

            return focal_schedule(
                graph, system, epsilon, pruning=pruning, cost=cost,
                budget=budget, state_cls=state_cls, incumbent=incumbent,
                probe=probe,
            )
        return astar_schedule(
            graph, system, pruning=pruning, cost=cost, budget=budget,
            incumbent=incumbent, state_cls=state_cls, probe=probe,
        )
    if budget is None:
        budget = Budget.unlimited()
    budget.start()
    t0 = time.perf_counter()

    cost_fn = make_cost_function(cost, graph, system)
    stats = SearchStats()
    expander = StateExpander(graph, system, pruning, stats.pruning)

    fallback = fast_upper_bound_schedule(graph, system)
    if incumbent is not None and incumbent.length < fallback.length:
        fallback = incumbent
    upper = fallback.length if pruning.upper_bound else math.inf
    relax = 1.0 + epsilon
    label = (
        f"hda(workers={workers})"
        if epsilon == 0.0
        else f"hda(eps={epsilon},workers={workers})"
    )

    # -- serial seed phase ---------------------------------------------------
    # Best-first expansion until the frontier is wide enough to feed
    # every worker (the paper's initial load-distribution phase).
    target = max(2, workers * max(1, oversubscribe))
    root = state_cls.empty(graph, system)
    frontier: list[tuple[float, float, int, PartialSchedule]] = [
        (0.0, 0.0, 0, root)
    ]
    seen = SignatureSet(verify=pruning.verify_signatures)
    seen.add(root.dedup_key, lambda: root.signature)
    seq = 1
    best_goal: Schedule | None = None
    dup_on = pruning.duplicate_detection
    ub_on = pruning.upper_bound
    # Per-child names, bound once: the loops below run for every child.
    children = expander.children
    h_of = cost_fn.h
    v = graph.num_nodes

    # Anytime lower bound, same argument as serial A*: each popped
    # frontier minimum (and, once dealt, the deal-time frontier
    # minimum) is a certified floor on the optimum.
    lower = 0.0

    def _finish(
        schedule: Schedule, proven: bool, algorithm: str,
        interrupted: str | None = None,
    ) -> SearchResult:
        stats.wall_seconds = time.perf_counter() - t0
        # += not =: the reduce step has already folded the workers'
        # evaluation counts in; the parent's own are the seed phase's.
        stats.cost_evaluations += cost_fn.evaluations
        lb = (
            schedule.length if proven and epsilon == 0.0
            else min(
                max(lower, schedule.length / relax) if proven else lower,
                schedule.length,
            )
        )
        if probe is not None:
            probe.finish(stats.states_expanded, 0, schedule.length, lb)
        return SearchResult(
            schedule=schedule,
            optimal=proven and epsilon == 0.0,
            bound=relax if proven else math.inf,
            stats=stats,
            algorithm=algorithm,
            lower_bound=lb,
            interrupted=interrupted,
            timeline=probe.timeline() if probe is not None else (),
        )

    while frontier and len(frontier) < target:
        if len(frontier) > stats.max_open_size:
            stats.max_open_size = len(frontier)
        if budget.exhausted(stats.states_expanded, stats.states_generated,
                            len(frontier) + len(seen)):
            best = best_goal if best_goal is not None else fallback
            lower = max(lower, frontier[0][0])
            return _finish(best, False, f"hda(budget,workers={workers})",
                           interrupted=budget.reason or "budget")
        f, h, _s, state = heapq.heappop(frontier)
        if f > lower:
            lower = f
        stats.states_expanded += 1
        if probe is not None:
            probe.tick(
                stats.states_expanded, len(frontier),
                best_goal.length if best_goal is not None else math.inf,
                lower,
            )
        if state.num_scheduled == v:
            # A goal popped at the frontier minimum is already optimal.
            return _finish(state.to_schedule(), True, f"hda(seed,workers={workers})")
        for child in children(state, seen if dup_on else None):
            ch = h_of(child)
            cf = child.makespan + ch
            complete = child.num_scheduled == v
            # Raw `<` is deliberate: a complete child is only exempted
            # from the cut when it *strictly* beats the incumbent bound,
            # mirroring the serial engines' exact goal-improvement test
            # so the equivalence suites stay byte-identical.
            if ub_on and tol.geq(relax * cf, upper) and not (
                complete
                and child.makespan < upper  # repro: ignore[float-compare]
            ):
                stats.pruning.upper_bound_cuts += 1
                continue
            stats.states_generated += 1
            if complete:
                if best_goal is None or child.makespan < best_goal.length:
                    best_goal = child.to_schedule()
                    if ub_on:
                        upper = min(upper, best_goal.length)
            heapq.heappush(frontier, (cf, ch, seq, child))
            seq += 1
    if not frontier:
        # Every candidate fell to the bound: the incumbent is optimal.
        best = best_goal if best_goal is not None else fallback
        return _finish(best, True, f"hda(seed,workers={workers})")

    # -- deal seeds to their owners -----------------------------------------
    seed_buckets: list[list[tuple[float, float, tuple]]] = [
        [] for _ in range(workers)
    ]
    # Deal-time floor: the optimal completion passes through (or ties)
    # some dealt state, so min f over the dealt frontier bounds the
    # optimum from below for the rest of the run.
    lower = max(lower, frontier[0][0])
    frontier_keys: set[tuple[int, int]] = set()
    for f, h, _s, state in frontier:
        if state.num_scheduled == v:
            continue  # already folded into best_goal / upper
        key = state.dedup_key
        frontier_keys.add(key)
        seed_buckets[owner_of(key, workers)].append((f, h, state.to_wire()))
    # Seed-phase CLOSED keys ride along so no worker re-explores the
    # (tiny) region the seed phase already covered.  The frontier's own
    # keys must NOT ship: the signature set recorded them at generation
    # time, and pre-loading them would make every worker discard its
    # seeds as duplicates — instant (false) quiescence.  In verify mode
    # the exact signatures ship too, so the workers' collision
    # re-verification still covers the imported keys.
    if pruning.verify_signatures:
        closed_keys = [
            (k, sigs) for k, sigs in seen.exact_entries()
            if k not in frontier_keys
        ]
    else:
        closed_keys = [
            (k, None) for k in seen.keys() if k not in frontier_keys
        ]

    # -- shared state and worker spawn --------------------------------------
    ctx = pool_context()
    inc = SharedIncumbent(ctx, upper)
    board = WorkerBoard(ctx, workers)
    stop = ctx.Event()
    flags = ctx.Value("i", 0)
    inboxes = [ctx.Queue(maxsize=_QUEUE_DEPTH) for _ in range(workers)]
    results_q = ctx.Queue()

    # Remaining *global* expansion/generation budgets — workers check
    # the shared sums (WorkerBoard.publish_progress), so an imbalanced
    # worker can never strand the others' share.
    expansion_budget = None
    if budget.max_expanded is not None:
        expansion_budget = max(0, budget.max_expanded - stats.states_expanded)
    generation_budget = None
    if budget.max_generated is not None:
        generation_budget = max(0, budget.max_generated - stats.states_generated)

    job = {
        "graph": graph_to_dict(graph),
        "system": system_to_args(system),
        "cost": cost,
        "epsilon": epsilon,
        "pruning": pruning,
        "workers": workers,
        "closed_keys": closed_keys,
        "max_expanded": expansion_budget,
        "max_generated": generation_budget,
        # Memory ceilings are per worker *process*: RSS is a per-process
        # quantity, and the tracked-state cap divides evenly because the
        # ownership hash scatters states uniformly.
        "max_memory_mb": budget.max_memory_mb,
        "max_tracked": (
            None if budget.max_tracked_states is None
            else max(1, budget.max_tracked_states // workers)
        ),
        # Telemetry: workers buffer locally, the coordinator merges.
        "probe_every": probe.every if probe is not None else None,
        "trace": tracer is not None and tracer.enabled,
        "trace_root": (
            tracer.current_span_id()
            if tracer is not None and tracer.enabled else None
        ),
    }
    board.stamp_all()
    spawn_offset = probe.elapsed() if probe is not None else 0.0
    procs = [
        ctx.Process(
            target=_hda_worker,
            args=(wid, job, seed_buckets[wid], inboxes, results_q,
                  stop, inc, board, flags),
            daemon=True,
        )
        for wid in range(workers)
    ]
    for p in procs:
        p.start()

    # -- monitor loop --------------------------------------------------------
    proven = False
    failed = False
    dirty = False  # a worker died HARD (possible truncated pipe writes)
    cause: str | None = None
    while True:
        if board.quiescent():
            proven = True
            break
        fl = flags.value
        if fl & _FLAG_ERROR:
            failed = True
            cause = "worker-failure"
            break
        if fl & _FLAG_MEMORY:
            cause = "memory"
            break
        if fl & _FLAG_BUDGET:
            cause = "budget"
            break
        if budget.max_seconds is not None and (
            time.perf_counter() - t0
        ) >= budget.max_seconds:
            cause = "time"
            break
        if any(not p.is_alive() for p in procs):
            # Died without raising through _hda_worker: SIGKILL, OOM
            # kill, os._exit.  Unlike the clean _FLAG_ERROR path, the
            # death may have truncated a message mid-pipe.
            failed = True
            dirty = True
            cause = "worker-failure"
            break
        if worker_stall_timeout and board.stale_workers(worker_stall_timeout):
            # Alive but not beating: wedged inside one expansion or an
            # injected stall.  Quiescence can never complete — abort
            # with the incumbent instead of hanging forever.
            failed = True
            cause = "worker-stall"
            break
        time.sleep(_MONITOR_SLEEP)
    stop.set()

    # -- shutdown: drain until every worker exited, then collect -------------
    # The parent must keep draining ALL inboxes while ANY worker is
    # alive: worker exit joins its queue feeders (see the worker-side
    # truncation note), and a feeder blocked on a full pipe can only
    # finish if someone keeps reading it.
    records: dict[int, dict[str, Any]] = {}
    if dirty:
        # A hard-dead worker may have been killed mid-write, leaving a
        # TRUNCATED message in any pipe.  Reading one blocks forever
        # inside Connection._recv (the header promised more bytes than
        # exist), so the parent must not touch the queues at all here —
        # and live peers may already be wedged on the same truncated
        # data, so they get a terminate, not a drain.  The incumbent in
        # hand (seed phase + fallback) stays the answer; the portfolio
        # recovers exactness by retrying / falling back to serial.
        for p in procs:
            p.terminate()
        terminated = True
        for p in procs:
            p.join(timeout=2.0)
    else:
        # A worker that already exited can no longer deliver a result —
        # its record is either in the pipe (the final sweep gets it) or
        # lost — so the drain waits on *live* workers only; waiting on
        # a dead worker's record would burn the whole grace for
        # nothing.  A stalled worker will not answer ``stop`` at all,
        # so only its (fast-exiting) peers get a short grace before the
        # terminate.
        grace = 2.0 if cause == "worker-stall" else _SHUTDOWN_GRACE
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline and any(p.is_alive() for p in procs):
            for q in inboxes:
                try:
                    while True:
                        q.get_nowait()
                except queue_mod.Empty:
                    pass
            try:
                rec = results_q.get(timeout=0.02)
                records[rec["wid"]] = rec
            except queue_mod.Empty:
                pass
        terminated = False
        for p in procs:
            p.join(timeout=0.5)
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
                failed = True
                terminated = True
    if not terminated:
        # Final sweep: results may still sit in the pipe after a clean
        # exit.  Skipped after terminate() — a kill mid-write leaves a
        # truncated message that would block even a timed get.
        try:
            while len(records) < workers:
                rec = results_q.get(timeout=0.5)
                records[rec["wid"]] = rec
        except queue_mod.Empty:
            pass
    if len(records) < workers:
        failed = True

    # -- reduce ---------------------------------------------------------------
    best = best_goal if best_goal is not None else fallback
    seed_expanded = stats.states_expanded
    worker_samples: list[tuple[float, int, int, int, float]] = []
    for rec in records.values():
        if rec.get("error"):
            failed = True
            continue
        # One shared aggregation path with the portfolio's stage fold
        # (SearchStats.merge): counters add, max_open takes the peak
        # per-process OPEN (comparable to serial's, which is also
        # per-process memory — NOT a sum: per-worker maxima occur at
        # different times), wall stays end-to-end.
        stats.merge({
            "states_expanded": rec["expanded"],
            "states_generated": rec["generated"],
            "cost_evaluations": rec["cost_evals"],
            "max_open_size": rec["max_open"],
            "pruning": rec["pruning"],
        })
        if tracer is not None:
            tracer.absorb(rec.get("trace"))
        if probe is not None and rec.get("timeline"):
            for off, exp, open_size, blen in rec["timeline"]:
                worker_samples.append((off, rec["wid"], exp, open_size, blen))
        if rec["best"] is not None:
            sched = Schedule(
                graph, system,
                {n: (pe, st) for n, pe, st in rec["best"]},
            )
            if sched.length < best.length:
                best = sched
    if probe is not None and worker_samples:
        # Reconstruct a global convergence timeline: walk all worker
        # samples in wall order, tracking each worker's latest expansion
        # count — the sum (plus the seed phase) approximates total
        # expansions at that instant; the incumbent is the running min
        # and the deal-time floor carries through as the lower bound.
        worker_samples.sort()
        latest: dict[int, int] = {}
        for off, rec_wid, exp, open_size, blen in worker_samples:
            latest[rec_wid] = exp
            probe.record_at(
                spawn_offset + off,
                seed_expanded + sum(latest.values()),
                open_size, blen, lower,
            )
    if failed:
        # Worker crash / stall / lost results — not a budget stop:
        # label it so reports can't misdiagnose an error as exhaustion.
        # The best incumbent is still feasible (and carries the
        # deal-time lower bound), just not proven optimal.
        return _finish(best, False, f"hda(failed,workers={workers})",
                       interrupted=cause or "worker-failure")
    if not proven:
        return _finish(best, False, f"hda(budget,workers={workers})",
                       interrupted=cause or budget.reason or "budget")
    return _finish(best, True, label)


# -- worker side (top-level: picklable under spawn) ---------------------------


def _hda_worker(
    wid: int,
    job: dict[str, Any],
    seeds: list[tuple[float, float, tuple]],
    inboxes: list[Any],
    results_q: Any,
    stop: Any,
    inc: SharedIncumbent,
    board: WorkerBoard,
    flags: Any,
) -> None:
    """One HDA* worker: owns the states that hash to ``wid``."""
    try:
        _hda_worker_loop(
            wid, job, seeds, inboxes, results_q, stop, inc, board, flags
        )
    except Exception as exc:  # pragma: no cover - crash path
        with flags.get_lock():
            flags.value |= _FLAG_ERROR
        try:
            results_q.put({"wid": wid, "error": f"{type(exc).__name__}: {exc}"})
        # Best-effort error report while already crashing: the queue may
        # be torn down, and the original exception (re-raised below) plus
        # the _FLAG_ERROR bit already carry the failure to the parent.
        # repro: ignore[swallowed-error]
        except Exception:
            pass
        raise


def _hda_worker_loop(
    wid: int,
    job: dict[str, Any],
    seeds: list[tuple[float, float, tuple]],
    inboxes: list[Any],
    results_q: Any,
    stop: Any,
    inc: SharedIncumbent,
    board: WorkerBoard,
    flags: Any,
) -> None:
    graph = graph_from_dict(job["graph"])
    system = system_from_args(job["system"])
    cost_fn = make_cost_function(job["cost"], graph, system)
    pruning: PruningConfig = job["pruning"]
    workers: int = job["workers"]
    relax = 1.0 + job["epsilon"]
    max_expanded = job["max_expanded"]
    max_generated = job["max_generated"]
    budget_caps = max_expanded is not None or max_generated is not None
    max_memory_mb = job.get("max_memory_mb")
    max_tracked = job.get("max_tracked")
    ub_on = pruning.upper_bound
    dup_on = pruning.duplicate_detection
    verify = pruning.verify_signatures

    pstats = SearchStats()
    expander = StateExpander(graph, system, pruning, pstats.pruning)
    # Per-child names, bound once: the loop below runs for every child.
    children = expander.children
    h_of = cost_fn.h
    v = graph.num_nodes
    seen = SignatureSet(verify=verify)
    for key, sigs in job["closed_keys"]:
        if sigs:
            for sig in sigs:
                seen.add(key, lambda s=sig: s)
        else:
            seen.add(key)

    inbox = inboxes[wid]
    outbox = Outbox(wid, inboxes, board, batch_size=_BATCH_SIZE)
    open_heap: list[tuple[float, float, int, PartialSchedule]] = []
    seq = 0
    expanded = 0
    generated = 0
    max_open = 0
    best_len = math.inf
    best_compact: tuple | None = None

    # Worker-local telemetry buffers: convergence samples every
    # ``probe_every`` expansions and (optionally) trace records, both
    # shipped back in the results record and merged by the coordinator.
    probe_every = job.get("probe_every")
    probe_next = probe_every or 0
    samples: list[tuple[float, int, int, float]] = []
    wt0 = time.perf_counter()
    wtracer = Tracer(root=job.get("trace_root")) if job.get("trace") else None
    wspan = None
    if wtracer is not None:
        wspan = wtracer.span("hda.worker", attrs={"wid": wid})
        wspan.__enter__()

    def admit(f: float, h: float, wire: tuple) -> None:
        """Dedup-check an arriving record; rebuild and enqueue survivors.

        The duplicate key is read straight off the wire tuple (mask is
        field 0, zobrist field 5), so duplicates and bound-dead states
        never pay the state reconstruction.
        """
        nonlocal seq
        key = (wire[0], wire[5])
        state: PartialSchedule | None = None
        if dup_on:
            if verify:
                state = PartialSchedule.from_wire(graph, system, wire)
                if seen.check_add(key, lambda s=state: s.signature):
                    pstats.pruning.duplicate_hits += 1
                    return
            elif seen.check_add(key):
                pstats.pruning.duplicate_hits += 1
                return
        if ub_on and tol.geq(relax * f, inc.value):
            # Key stays recorded: the bound only tightens, so any later
            # copy of this state is dead too.
            pstats.pruning.upper_bound_cuts += 1
            return
        if state is None:
            state = PartialSchedule.from_wire(graph, system, wire)
        seq += 1
        heapq.heappush(open_heap, (f, h, seq, state))

    for f, h, wire in seeds:
        admit(f, h, wire)

    budget_flagged = False
    while not stop.is_set():
        # Liveness stamp every iteration (idle ones too): the parent's
        # stall detector keys off this, not off is_alive.
        board.heartbeat(wid)
        drained = False
        while True:
            try:
                batch = inbox.get_nowait()
            except queue_mod.Empty:
                break
            board.set_idle(wid, False)
            board.count_received(wid)
            drained = True
            for f, h, wire in batch:
                admit(f, h, wire)

        if open_heap and not budget_flagged:
            board.set_idle(wid, False)
            # Chaos hooks — inert unless REPRO_FAULTS arms them.
            faults.crash_point("hda-worker-crash")
            faults.raise_point("hda-worker-raise")
            faults.stall_point("hda-worker-stall")
            if (
                max_tracked is not None
                and len(open_heap) + len(seen) >= max_tracked
            ) or (
                max_memory_mb is not None
                and process_rss_mb() >= max_memory_mb
            ):
                # Same coast-and-drain discipline as the work budgets:
                # raise the memory flag, stop expanding, keep the pipes
                # moving until the parent stops everyone.
                budget_flagged = True
                with flags.get_lock():
                    flags.value |= _FLAG_MEMORY
                if wtracer is not None:
                    wtracer.event("hda.worker.memory", attrs={"wid": wid})
                continue
            if budget_caps:
                # Global budget check, once per chunk: publish my
                # counts, compare the shared sums — so a hash-
                # imbalanced worker can never strand the others' share
                # the way a static split would (overshoot <= one chunk
                # per worker).  On exhaustion raise the flag and coast
                # (keep draining so peers never block) until the parent
                # stops everyone; the idle flag stays clear — OPEN is
                # not empty, so quiescence must not be reported.
                board.publish_progress(wid, expanded, generated)
                total_exp, total_gen = board.total_progress()
                if (max_expanded is not None and total_exp >= max_expanded) or (
                    max_generated is not None and total_gen >= max_generated
                ):
                    budget_flagged = True
                    with flags.get_lock():
                        flags.value |= _FLAG_BUDGET
                    if wtracer is not None:
                        wtracer.event("hda.worker.budget", attrs={"wid": wid})
                    continue
            n = 0
            while open_heap and n < _CHUNK:
                upper = inc.value
                f, h, _s, state = heapq.heappop(open_heap)
                if ub_on and tol.geq(relax * f, upper):
                    pstats.pruning.upper_bound_cuts += 1
                    continue
                n += 1
                expanded += 1
                if probe_every and expanded >= probe_next:
                    probe_next = expanded + probe_every
                    samples.append((
                        time.perf_counter() - wt0, expanded,
                        len(open_heap), best_len,
                    ))
                for child in children(state, seen if dup_on else None):
                    ch = h_of(child)
                    cf = child.makespan + ch
                    if child.num_scheduled == v:
                        generated += 1
                        if child.makespan < best_len:
                            best_len = child.makespan
                            best_compact = child.compact()
                            inc.try_improve(best_len)
                        continue
                    if ub_on and tol.geq(relax * cf, upper):
                        pstats.pruning.upper_bound_cuts += 1
                        continue
                    generated += 1
                    dest = owner_of(child.dedup_key, workers)
                    if dest == wid:
                        seq += 1
                        heapq.heappush(open_heap, (cf, ch, seq, child))
                    else:
                        outbox.send(dest, (cf, ch, child.to_wire()))
            if len(open_heap) > max_open:
                max_open = len(open_heap)
            outbox.flush_all()
        elif not drained:
            flushed = outbox.flush_all()
            if not open_heap and flushed and not outbox.pending:
                board.set_idle(wid, True)
            time.sleep(_IDLE_SLEEP)

    # -- shutdown -------------------------------------------------------------
    outbox.drop_all()
    if wspan is not None:
        wspan.__exit__(None, None, None)
    results_q.put(
        {
            "wid": wid,
            "best": list(best_compact) if best_compact is not None else None,
            "best_len": best_len,
            "expanded": expanded,
            "generated": generated,
            "max_open": max_open,
            "cost_evals": cost_fn.evaluations,
            "pruning": pstats.pruning.as_dict(),
            "timeline": samples if probe_every else None,
            "trace": wtracer.drain() if wtracer is not None else None,
        }
    )
    # No cancel_join_thread here, deliberately: killing a feeder can
    # truncate a message mid-pipe, and the *reader* of a truncated
    # message blocks forever inside get_nowait's _recv_bytes (observed
    # as a stuck worker surviving stop).  Process exit instead joins
    # the feeders so every write completes; the parent guarantees the
    # pipes keep draining until every worker has exited.


# Downward registration (parallel -> search is a legal import): the
# registry in repro.search never imports this package, and
# repro/__init__ imports this module eagerly, so "hda" is always
# present in repro.search.ENGINES by the time any caller resolves it.
from repro.search import register_engine  # noqa: E402

register_engine("hda", lambda: hda_astar_schedule)
