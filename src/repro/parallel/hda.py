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
  batches over one one-way pipe per ordered worker pair
  (:class:`~repro.parallel.shared.Links`), written by the worker's own
  thread — no queue feeder thread — and only while the pipe's credit
  window has room, so no write blocks and every message (≤ 16 KiB) is
  one ``write``.  A record is ``(f, h, wire)`` with ``wire`` the packed
  :meth:`~repro.schedule.partial.PartialSchedule.to_wire` form:
  duplicate key first, scalar aggregates, then one ``bytes`` blob of
  the per-task and per-PE arrays.  The sender builds a remote child's
  wire by patching the blob of the parent it is expanding
  (:func:`~repro.schedule.partial.child_wire`); the owner checks the
  bound and the duplicate key straight off the tuple, keeps survivors
  packed on OPEN, and decodes one only when it pops it.  ``f``/``h``
  travel along so the owner never re-runs the cost function.  Seeds
  travel in the same form; only the final result travels back to the
  parent, in the O(depth)
  :meth:`~repro.schedule.partial.PartialSchedule.compact` form.
* **Shared incumbent.**  The one global datum is the best known
  complete-schedule length (:class:`~repro.parallel.shared.
  SharedIncumbent`), seeded with the §3.2 list-schedule bound (or a
  caller-provided incumbent) and tightened by every goal any worker
  generates.  Workers prune states that provably cannot beat it.
* **Cut before build.**  A worker takes each candidate placement of
  the state it expands through one order: its start (``est``), its
  finish, its bound (the cost class's ``h_preview``, read off the
  parent), the ``(1+ε)·f ≥ U`` cut, its duplicate key, the CLOSED
  check, and only then ``extend``.  Most candidates die under the
  bound (65% on the v16 / CCR 10 row whose list schedule is optimal,
  against 4.5% as duplicates), and those are never built, keyed or
  recorded.  A worker records the keys it forwards in the same
  signature set as its own states, so a same-worker duplicate dies at
  the sender, before the encoding and the pipe.

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
import pickle
import queue as queue_mod
import time
from typing import Any

from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.obs.probe import SearchProbe
from repro.obs.trace import Tracer
from repro.parallel.mp_backend import pool_context
from repro.parallel.shared import (
    Links, Outbox, SharedIncumbent, WorkerBoard, owner_of,
)
from repro.schedule.partial import PartialSchedule, child_wire, widest_wire
from repro.schedule.schedule import Schedule
from repro.search.astar import _best_first, _WeightedOrder, astar_schedule
from repro.search.costs import make_cost_function
from repro.search.dedup import SignatureSet
from repro.search.expansion import StateExpander
from repro.search.frame import SearchFrame
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult, SearchStats
from repro.system.processors import ProcessorSystem, system_from_dict, system_to_dict
from repro.testing import faults
from repro.util import tolerance as tol
from repro.util.timing import Budget, process_rss_mb

__all__ = ["hda_astar_schedule"]

#: Expansions between inbound-pipe drains in the worker loop.
_CHUNK = 128
#: How long an idle worker blocks on its inbound pipes before it beats
#: and checks ``stop`` again; a worker whose batch waits on a full
#: credit window retries its flush sooner.
_IDLE_WAIT = 0.005
_RETRY_WAIT = 0.0005
#: The parent's monitor poll period.
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
        queue; the coordinator absorbs them under its current span and
        attaches each worker's transfer counters to its ``hda.worker``
        span: states/batches/bytes sent and received, and seconds spent
        encoding (pickle + write per outgoing batch), decoding (read +
        unpickle + admission per incoming batch) and idle (blocked on
        the inbound pipes).

    Returns the same :class:`SearchResult` contract as the serial
    engines; ``algorithm`` is ``hda(workers=N)`` and ``optimal`` is
    True when the floor reached meets the returned length (every
    finished ε = 0 run).
    """
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
    frame = SearchFrame(graph, system, pruning=pruning, cost=cost, budget=budget,
                        incumbent=incumbent, state_cls=state_cls, probe=probe)
    budget, stats = frame.budget, frame.stats
    relax = 1.0 + epsilon
    label = (
        f"hda(workers={workers})"
        if epsilon == 0.0
        else f"hda(eps={epsilon},workers={workers})"
    )

    # -- serial seed phase ---------------------------------------------------
    # The kernel's best-first loop, stopped once the frontier is wide
    # enough to feed every worker (the paper's initial load-distribution
    # phase).  Its cut is serial A*'s `f > U`: a state that ties U is
    # dealt and cut by its owner's `admit`.
    order = _WeightedOrder(1.0)
    status, goal, best_goal, lower = _best_first(
        frame, order, width=max(2, workers * max(1, oversubscribe)),
    )
    if status == "budget":
        return frame.finish(
            best_goal, lower, algorithm=f"hda(budget,workers={workers})",
            interrupted=frame.stop_reason,
        )
    if status != "width" or tol.geq(relax * lower, frame.upper):
        # The seed phase ended the search (a goal, a floor that met U or
        # a dry OPEN), or its final floor proves the incumbent within
        # 1 + ε before any worker starts.
        return frame.finish(
            goal if goal is not None else best_goal, lower,
            algorithm=f"hda(seed,workers={workers})", bound=relax,
        )

    # -- deal seeds to their owners -----------------------------------------
    # `lower` includes the deal-time floor: the optimal completion passes
    # through (or ties) some dealt state, so min f over the dealt
    # frontier bounds the optimum from below for the rest of the run.
    v = graph.num_nodes
    seed_buckets: list[list[tuple[float, float, tuple]]] = [
        [] for _ in range(workers)
    ]
    for f, h, _s, state in order:
        if state.num_scheduled != v:  # goals are already in best_goal / U
            seed_buckets[owner_of(state.dedup_key, workers)].append(
                (f, h, state.to_wire()))

    # -- shared state and worker spawn --------------------------------------
    ctx = pool_context()
    inc = SharedIncumbent(ctx, frame.upper)
    board = WorkerBoard(ctx, workers)
    stop = ctx.Event()
    flags = ctx.Value("i", 0)
    links = Links(ctx, workers)
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
        "system": system_to_dict(system),
        "cost": cost,
        "epsilon": epsilon,
        "pruning": frame.pruning,
        "workers": workers,
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
            args=(wid, job, seed_buckets[wid], links, results_q,
                  stop, inc, board, flags),
            daemon=True,
        )
        for wid in range(workers)
    ]
    for p in procs:
        p.start()

    # -- monitor loop --------------------------------------------------------
    finished = False
    failed = False
    dirty = False  # a worker died HARD (possible truncated pipe writes)
    cause: str | None = None
    while True:
        if board.quiescent():
            finished = True
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
            frame.elapsed() >= budget.max_seconds
        ):
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

    # -- shutdown: collect results until every worker exited ----------------
    # No worker write can block on a peer (credit windows), so nothing
    # but the results queue needs reading while the workers wind down.
    records: dict[int, dict[str, Any]] = {}
    if dirty:
        # A hard-dead worker may have been killed mid-write to the
        # results queue, leaving a TRUNCATED message in its pipe.
        # Reading one blocks forever inside Connection._recv (the
        # header promised more bytes than exist), so the parent must
        # not read from it at all here; the live peers get a terminate.
        # The incumbent in hand (seed phase + fallback) stays the
        # answer; the portfolio recovers exactness by retrying /
        # falling back to serial.
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
    links.close()
    if len(records) < workers:
        failed = True

    # -- reduce ---------------------------------------------------------------
    best = best_goal if best_goal is not None else frame.fallback
    # The merged timeline never reports above the incumbent dealt with.
    held = min(best.length, frame.fallback.length)
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
        stats.merge(rec["stats"])
        if tracer is not None:
            trace = rec.get("trace") or []
            for record in trace:
                if record["kind"] == "span_start" and record["name"] == "hda.worker":
                    record["attrs"] = {**record.get("attrs", {}), **rec["transfer"]}
            tracer.absorb(trace)
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
                open_size, min(blen, held), lower,
            )
    if failed or not finished:
        # A worker crash / stall / lost results is labelled apart from a
        # budget stop, so reports can't misdiagnose an error as
        # exhaustion.  The incumbent and the deal-time floor still hold.
        return frame.finish(
            best, lower,
            algorithm=f"hda({'failed' if failed else 'budget'},workers={workers})",
            interrupted=cause or ("worker-failure" if failed else frame.stop_reason),
        )
    return frame.finish(
        best, max(lower, best.length / relax), algorithm=label, bound=relax,
    )


# -- worker side (top-level: picklable under spawn) ---------------------------


def _record_bytes(v: int, p: int) -> int:
    """Upper bound on the pickled size of one ``(f, h, wire)`` record
    inside a message, for ``v`` tasks on ``p`` PEs: the widest record
    pickled alone, plus slack for the memo references a batch may put
    in place of tuples its records share."""
    big = 1.7976931348623157e308
    record = (big, big, widest_wire(v, p))
    return len(pickle.dumps(record, pickle.HIGHEST_PROTOCOL)) + 8


def _hda_worker(
    wid: int,
    job: dict[str, Any],
    seeds: list[tuple[float, float, tuple]],
    links: Links,
    results_q: Any,
    stop: Any,
    inc: SharedIncumbent,
    board: WorkerBoard,
    flags: Any,
) -> None:
    """One HDA* worker: owns the states that hash to ``wid``."""
    try:
        _hda_worker_loop(
            wid, job, seeds, links, results_q, stop, inc, board, flags
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
    links: Links,
    results_q: Any,
    stop: Any,
    inc: SharedIncumbent,
    board: WorkerBoard,
    flags: Any,
) -> None:
    graph = graph_from_dict(job["graph"])
    system = system_from_dict(job["system"])
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
    # A child is checked against CLOSED by its key before it is built,
    # or, in verify mode, by its exact signature after.
    dedup_by_key = dup_on and not verify
    dedup_exact = dup_on and verify

    pstats = SearchStats()
    expander = StateExpander(graph, system, pruning, pstats.pruning)
    # Per-child names, bound once: the loop below runs for every child.
    candidate_rows = expander.candidate_rows
    h_preview = cost_fn.h_preview
    weights = graph.weights
    speeds = system.speeds
    from_wire = PartialSchedule.from_wire
    v = graph.num_nodes
    seen = SignatureSet(verify=verify)
    check_add = seen.check_add

    outbox = Outbox(wid, links, board, _record_bytes(v, system.num_pes))
    # A record too large for one message (thousands of tasks) cannot
    # travel: every child then stays with the worker that generated it.
    # Still exact — ownership only spares duplicate work.
    share = outbox.per_message > 0
    # OPEN holds built states (children generated here) and packed
    # records (states received from peers, decoded when popped).
    open_heap: list[tuple[float, float, int, Any]] = []
    seq = 0
    expanded = 0
    generated = 0
    max_open = 0
    best_len = math.inf
    best_compact: tuple | None = None
    # Inbound transfer counters, updated per message; idle seconds per
    # blocking wait.
    recv_states = 0
    recv_messages = 0
    recv_bytes = 0
    decode_s = 0.0
    idle_s = 0.0

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

    def admit(f: float, h: float, wire: tuple, line: float) -> None:
        """Bound- and dedup-check an arriving record; queue survivors.

        The bound comes first: ``f`` travels with the record, and a state
        whose ``(1+ε)·f`` reaches ``line`` (the incumbent's cut line,
        read once per message) is neither recorded nor decoded (every
        copy of it carries the same ``f`` and the bound only tightens,
        so every later copy is cut too).  The duplicate key is read straight off
        the wire tuple (fields 0 and 1), so duplicates never pay the
        decode; survivors wait on OPEN still packed.
        """
        nonlocal seq
        if ub_on and relax * f >= line:
            pstats.pruning.upper_bound_cuts += 1
            return
        key = (wire[0], wire[1])
        item: Any = wire
        if dup_on:
            if verify:
                # Exact re-verification needs the signature: decode now.
                item = from_wire(graph, system, wire)
                if check_add(key, lambda s=item: s.signature):
                    pstats.pruning.duplicate_hits += 1
                    return
            elif check_add(key):
                pstats.pruning.duplicate_hits += 1
                return
        seq += 1
        heapq.heappush(open_heap, (f, h, seq, item))

    line = tol.cut_line(inc.value)
    for f, h, wire in seeds:
        admit(f, h, wire, line)

    budget_flagged = False
    wait_s = 0.0
    while not stop.is_set():
        # Liveness stamp every iteration (idle ones too): the parent's
        # stall detector keys off this, not off is_alive.
        board.heartbeat(wid)
        t0 = time.perf_counter()
        msgs = links.receive(wid, wait_s)
        t1 = time.perf_counter()
        if wait_s:
            idle_s += t1 - t0
        if msgs:
            board.set_idle(wid, False)
            for msg in msgs:
                board.count_received(wid)
                batch = pickle.loads(msg)
                recv_states += len(batch)
                recv_messages += 1
                recv_bytes += len(msg)
                line = tol.cut_line(inc.value)
                for f, h, wire in batch:
                    admit(f, h, wire, line)
            decode_s += time.perf_counter() - t1

        if open_heap and not budget_flagged:
            wait_s = 0.0
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
                # (keep draining so peers' windows keep moving) until
                # the parent stops everyone; the idle flag stays clear
                # — OPEN is not empty, so quiescence must not be
                # reported.
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
                # One cut line per pop, for the pop and its children.
                line = tol.cut_line(inc.value)
                f, h, _s, item = heapq.heappop(open_heap)
                if ub_on and relax * f >= line:
                    pstats.pruning.upper_bound_cuts += 1
                    continue
                if type(item) is tuple:
                    # A peer's packed record, decoded only now; its blob
                    # is the patch base for this state's remote children.
                    state = from_wire(graph, system, item)
                    blob = item[-1]
                else:
                    state = item
                    blob = None
                n += 1
                expanded += 1
                if probe_every and expanded >= probe_next:
                    probe_next = expanded + probe_every
                    samples.append((
                        time.perf_counter() - wt0, expanded,
                        len(open_heap), best_len,
                    ))
                # Cost and cut each placement off the parent; only a
                # survivor of the bound is keyed, checked against CLOSED
                # and built.  Verify mode builds before the CLOSED check,
                # whose exact signature needs the child.
                g = state.makespan
                last = state.num_scheduled + 1 == v
                est = state.est
                child_signature = state.child_signature
                extend = state.extend
                for node, pes in candidate_rows(state):
                    weight = weights[node]
                    for pe in pes:
                        start = est(node, pe)
                        finish = start + weight / speeds[pe]
                        cg = finish if finish > g else g
                        if last:
                            generated += 1
                            if cg < best_len:
                                best_len = cg
                                best_compact = extend(node, pe, _start=start).compact()
                                inc.try_improve(best_len)
                            continue
                        ch = h_preview(state, node, pe, start, finish)
                        cf = cg + ch
                        if ub_on and relax * cf >= line:
                            pstats.pruning.upper_bound_cuts += 1
                            continue
                        key = child_signature(node, pe, start)[0]
                        if dedup_by_key and check_add(key):
                            pstats.pruning.duplicate_hits += 1
                            continue
                        child = extend(node, pe, _start=start, _sig=key)
                        if dedup_exact and check_add(key, lambda c=child: c.signature):
                            pstats.pruning.duplicate_hits += 1
                            continue
                        generated += 1
                        if share:
                            dest = owner_of(key, workers)
                            if dest != wid:
                                if blob is None:
                                    blob = state.to_wire()[-1]
                                outbox.send(dest, (cf, ch, child_wire(child, blob)))
                                continue
                        seq += 1
                        heapq.heappush(open_heap, (cf, ch, seq, child))
            if len(open_heap) > max_open:
                max_open = len(open_heap)
            outbox.flush_all()
        else:
            # Idle, or coasting past a budget flag: block on the inbound
            # pipes until a message or the next beat.  A worker is idle
            # only with OPEN empty and every batch shipped — a batch the
            # credit window holds back keeps it busy.
            flushed = outbox.flush_all()
            if not open_heap and flushed:
                board.set_idle(wid, True)
            wait_s = _IDLE_WAIT if flushed else _RETRY_WAIT

    # -- shutdown -------------------------------------------------------------
    outbox.drop_all()
    if wspan is not None:
        wspan.__exit__(None, None, None)
    pstats.states_expanded = expanded
    pstats.states_generated = generated
    pstats.max_open_size = max_open
    pstats.cost_evaluations = cost_fn.evaluations
    results_q.put(
        {
            "wid": wid,
            "best": list(best_compact) if best_compact is not None else None,
            "stats": pstats,
            "timeline": samples if probe_every else None,
            "trace": wtracer.drain() if wtracer is not None else None,
            "transfer": {
                "states_sent": outbox.sent_states,
                "batches_sent": outbox.sent_messages,
                "bytes_sent": outbox.sent_bytes,
                "states_received": recv_states,
                "batches_received": recv_messages,
                "bytes_received": recv_bytes,
                "encode_s": outbox.encode_s,
                "decode_s": decode_s,
                "idle_s": idle_s,
            },
        }
    )
    # No cancel_join_thread here, deliberately: killing the results
    # queue's feeder can truncate the record mid-pipe.  Process exit
    # joins the feeder instead, and the parent keeps reading the
    # results queue until every worker has exited.


# Downward registration (parallel -> search is a legal import): the
# registry in repro.search never imports this package, and
# repro/__init__ imports this module eagerly, so "hda" is always
# present in repro.search.ENGINES by the time any caller resolves it.
from repro.search import register_engine  # noqa: E402

register_engine("hda", lambda: hda_astar_schedule)
