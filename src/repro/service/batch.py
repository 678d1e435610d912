"""The batch front-end: many instances in, results + throughput out.

This is the service layer's request loop.  Given a list of
:class:`BatchItem` (from a directory of graph JSON files, a JSON-lines
stream, or the §4.1 suite), :func:`run_batch`:

1. fingerprints every request (:mod:`repro.schedule.fingerprint`);
2. **dedupes in flight**: requests sharing a fingerprint are solved
   once, and the result fans out to every requester — in its own node
   numbering, via the canonical assignment mapping;
3. consults the :class:`~repro.service.cache.ResultCache` so warm
   instances skip search entirely;
4. dispatches the remaining unique instances across OS processes (a
   :class:`~repro.parallel.mp_backend.SolverPool`, jobs as plain
   dicts), each solved by the portfolio ladder or the single-engine
   fast path;
5. writes fresh results back to the cache and reports aggregate
   throughput (instances/second, hit/dedupe counts).

JSON-lines request format (one object per line)::

    {"name": "job-1", "graph": {...graph schema v1...},
     "system": {...system args...} | omitted, "pes": 4 | omitted}

When ``system`` is omitted the instance targets the §4.1 convention —
a fully-connected homogeneous machine with ``pes`` (default: v) PEs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import WorkloadError
from repro.graph.io import graph_from_dict, graph_to_dict, load_graph_json
from repro.graph.taskgraph import TaskGraph
from repro.obs.trace import Tracer, null_tracer
from repro.parallel.mp_backend import SolverPool, system_from_args, system_to_args
from repro.schedule.schedule import Schedule
from repro.service.cache import CacheEntry, ResultCache
from repro.schedule.fingerprint import (
    assignment_from_canonical,
    canonical_assignment,
    canonical_order,
    instance_fingerprint,
)
from repro.testing import faults
from repro.service.portfolio import portfolio_schedule, select_cost, solve_auto
from repro.system.processors import ProcessorSystem
from repro.workloads.suite import WorkloadSuite, paper_suite, paper_target_system

__all__ = [
    "BatchItem",
    "ItemOutcome",
    "BatchReport",
    "item_from_request",
    "load_items",
    "items_from_suite",
    "run_batch",
]


@dataclass(frozen=True)
class BatchItem:
    """One solve request."""

    name: str
    graph: TaskGraph
    system: ProcessorSystem


@dataclass(frozen=True)
class ItemOutcome:
    """One request's answer plus how the service produced it."""

    name: str
    fingerprint: str
    makespan: float
    certificate: str  # "proven" | "epsilon" | "budget"
    algorithm: str
    winner: str  # portfolio stage ("" for cache hits / fast path)
    cached: bool  # served from the result cache
    shared: bool  # deduped onto another in-flight request
    seconds: float  # solver seconds (0 for cached/shared)
    schedule: Schedule = field(compare=False, repr=False, default=None)  # type: ignore[assignment]

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe row for result streams."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "makespan": self.makespan,
            "certificate": self.certificate,
            "algorithm": self.algorithm,
            "winner": self.winner,
            "cached": self.cached,
            "shared": self.shared,
            "seconds": self.seconds,
            "assignment": [
                [t.node, t.pe, t.start] for t in self.schedule.tasks
            ],
        }


@dataclass(frozen=True)
class BatchReport:
    """Everything :func:`run_batch` learned, plus throughput."""

    outcomes: tuple[ItemOutcome, ...]
    wall_seconds: float
    solved: int  # instances that actually ran a search
    cache_hits: int
    deduped: int  # requests served by an in-flight twin
    cache_counters: dict[str, int]
    #: True when the batch was cut short (SIGINT/SIGTERM): outcomes
    #: holds only the requests answered before the interrupt.
    interrupted: bool = False

    @property
    def instances_per_second(self) -> float:
        """End-to-end request throughput."""
        if self.wall_seconds <= 0:
            return float("inf")
        return len(self.outcomes) / self.wall_seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "instances": len(self.outcomes),
            "wall_seconds": self.wall_seconds,
            "instances_per_second": self.instances_per_second,
            "solved": self.solved,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "cache_counters": dict(self.cache_counters),
        }

    def render(self) -> str:
        """Human-readable summary table."""
        from repro.util.tables import render_table

        rows = [
            [
                o.name,
                o.makespan,
                o.certificate,
                "cache" if o.cached else ("dedup" if o.shared else o.algorithm),
                o.seconds,
            ]
            for o in self.outcomes
        ]
        table = render_table(
            ["instance", "length", "certificate", "via", "seconds"],
            rows,
            title="batch results",
            float_fmt="{:g}",
        )
        summary = (
            f"{len(self.outcomes)} instances in {self.wall_seconds:.3f}s "
            f"({self.instances_per_second:.2f}/s) — "
            f"{self.solved} solved, {self.cache_hits} cache hits, "
            f"{self.deduped} deduped"
        )
        if self.interrupted:
            summary += " [interrupted — partial results]"
        return f"{table}\n{summary}"


# -- request loading ---------------------------------------------------------


def _default_system(graph: TaskGraph, pes: int | None) -> ProcessorSystem:
    if pes is None:
        return paper_target_system(graph.num_nodes)
    return ProcessorSystem.fully_connected(pes, name=f"clique-{pes}")


def item_from_request(obj: dict[str, Any], name: str = "request") -> BatchItem:
    """Parse one request object (the module-level JSON schema) into a
    :class:`BatchItem`.  Shared by the JSON-lines loader and the HTTP
    daemon's ``POST /v1/solve`` body parser — one schema, one parser."""
    graph = graph_from_dict(obj["graph"])
    if "system" in obj and obj["system"] is not None:
        system = system_from_args(obj["system"])
    else:
        system = _default_system(graph, obj.get("pes"))
    return BatchItem(name=obj.get("name", name), graph=graph, system=system)


def load_items(path: str | Path, *, pes: int | None = None) -> list[BatchItem]:
    """Load solve requests from a directory or a JSON-lines file.

    A directory is scanned for ``*.json`` graph files (schema v1), each
    paired with the default §4.1 target system (or ``pes`` fully
    connected PEs).  Any other path is parsed as JSON lines in the
    module-level request format.

    Raises
    ------
    WorkloadError
        When the path holds no requests.
    """
    path = Path(path)
    items: list[BatchItem] = []
    if path.is_dir():
        for file in sorted(path.glob("*.json")):
            graph = load_graph_json(file)
            items.append(
                BatchItem(
                    name=file.stem, graph=graph,
                    system=_default_system(graph, pes),
                )
            )
    else:
        for i, line in enumerate(path.read_text().splitlines()):
            line = line.strip()
            if not line:
                continue
            items.append(item_from_request(json.loads(line), name=f"line-{i + 1}"))
    if not items:
        raise WorkloadError(f"no instances found at {path}")
    return items


def items_from_suite(suite: WorkloadSuite | None = None) -> list[BatchItem]:
    """The §4.1 workload as batch requests (default: the default suite)."""
    if suite is None:
        suite = paper_suite()
    # Named from the sweep coordinates, not inst.key: the key embeds the
    # fingerprint, and computing it here would canonicalize every graph
    # a second time just for a display name (run_batch fingerprints
    # everything itself).
    return [
        BatchItem(
            name=f"v{inst.size}-ccr{inst.ccr}-seed{inst.seed}",
            graph=inst.graph,
            system=inst.system,
        )
        for inst in suite
    ]


# -- the batch loop ----------------------------------------------------------


def run_batch(
    items: list[BatchItem],
    *,
    cache: ResultCache | None = None,
    workers: int = 1,
    solver_workers: int = 1,
    pool: SolverPool | None = None,
    deadline: float | None = None,
    epsilon: float = 0.25,
    cost: str = "auto",
    max_expansions: int | None = 200_000,
    mode: str = "portfolio",
    require_proven: bool = False,
    max_memory_mb: float | None = None,
    tracer: Tracer | None = None,
    probe_every: int | None = None,
    preprocess: bool = False,
) -> BatchReport:
    """Solve a batch of requests with dedupe, caching, and fan-out.

    Parameters
    ----------
    items:
        The requests.
    cache:
        Result cache consulted before and written after solving; ``None``
        disables caching (every unique fingerprint is solved).
    workers:
        OS processes for the solve fan-out (1 = in-process, no pool).
        Ignored when ``pool`` is given.
    solver_workers:
        Worker processes *per instance* for the exact search stage
        (the HDA* engine).  Effective on the in-process path and inside
        a caller-provided :class:`SolverPool` (its executor workers are
        non-daemonic); inside a transient ``workers > 1`` fan-out the
        two axes of parallelism compete for the same cores, so prefer
        one or the other.
    pool:
        A persistent :class:`~repro.parallel.mp_backend.SolverPool` to
        dispatch on.  The caller owns its lifetime — ``run_batch``
        neither warms nor closes it — which is how the solver daemon
        amortizes process startup across many requests.  ``None`` keeps
        the historical behavior: a transient pool per call when
        ``workers > 1``.
    deadline:
        Per-instance wall-clock budget in seconds.
    mode:
        ``"portfolio"`` runs the stage ladder per instance; ``"auto"``
        runs the single statically-selected engine.
    require_proven:
        Treat cached entries without an optimality proof as stale
        (re-solve and overwrite them).
    max_memory_mb:
        Per-solve process-RSS ceiling; a search that reaches it returns
        its incumbent and lower bound instead of growing unbounded.
    tracer:
        Structured-trace sink (:mod:`repro.obs.trace`).  Pool workers
        buffer their spans locally and the buffers are absorbed into
        this tracer when results return, so one trace file covers the
        whole batch.  ``None`` disables tracing at zero cost.
    probe_every:
        Convergence-sampling interval forwarded to each solve's
        :class:`~repro.obs.probe.SearchProbe`; the resulting timelines
        are emitted as ``search.timeline`` trace events.  ``None``
        disables the probe.
    preprocess:
        Forwarded to each solve (:mod:`repro.schedule.preprocess`):
        makespan-preserving graph reductions run before search and
        results are restored to request node space.  Fingerprints and
        cache entries are unchanged — an entry written with
        ``preprocess=True`` is a valid answer for the same instance
        without it (and vice versa), precisely because the reductions
        preserve the optimum.

    Returns
    -------
    BatchReport
        Outcomes in request order plus aggregate throughput.
    """
    if mode not in ("portfolio", "auto"):
        raise ValueError(f"unknown batch mode {mode!r}")
    tr = tracer if tracer is not None else null_tracer
    t0 = time.perf_counter()

    # Canonicalization is the per-request fixed cost; content-equal
    # graphs (the dedupe workload) share one WL run via the
    # fingerprint module's memo.
    orders = [canonical_order(item.graph) for item in items]
    # Resolve the "auto" cost sentinel BEFORE fingerprinting (pure in
    # each instance's static features), so auto-costed requests share
    # fingerprints — dedupe and cache entries — with requests naming
    # the resolved cost explicitly.
    costs = [
        select_cost(item.graph, item.system)
        if cost in (None, "auto") else cost
        for item in items
    ]
    fps = [
        instance_fingerprint(item.graph, item.system, cost=c, order=order)
        for item, c, order in zip(items, costs, orders)
    ]

    # In-flight dedupe: first request per fingerprint is the representative.
    rep_index: dict[str, int] = {}
    for i, fp in enumerate(fps):
        rep_index.setdefault(fp, i)

    # Cache pass over the unique fingerprints.
    entries: dict[str, CacheEntry] = {}
    cache_hit_fps: set[str] = set()
    for fp, rep in rep_index.items():
        if cache is None:
            continue
        entry = cache.get(fp, require_proven=require_proven)
        if entry is not None and entry.fits(items[rep].graph):
            entries[fp] = entry
            cache_hit_fps.add(fp)
            tr.event("cache.hit", attrs={"fingerprint": fp})

    # Solve the remainder (the representative instance per fingerprint).
    todo = [fp for fp in rep_index if fp not in entries]
    solve_seconds: dict[str, float] = {}
    winners: dict[str, str] = {}
    interrupted = False
    if todo:
        jobs = [
            _job_for(items[rep_index[fp]], fp, deadline, epsilon,
                     costs[rep_index[fp]], max_expansions, mode,
                     solver_workers, max_memory_mb,
                     trace=tr.enabled,
                     trace_root=tr.current_span_id() if tr.enabled else None,
                     probe_every=probe_every, preprocess=preprocess)
            for fp in todo
        ]
        solved: list[dict[str, Any]] = []
        try:
            # The serial path appends as it goes so an interrupt keeps
            # every already-finished solve; the pool paths are
            # all-or-nothing (executor.map offers no partial recovery),
            # so an interrupt there salvages the cache hits only.
            with tr.span("batch.solve", attrs={"jobs": len(jobs)}):
                if pool is not None:
                    solved = pool.map(_worker_solve, jobs)
                elif workers > 1 and len(jobs) > 1:
                    with SolverPool(workers) as transient:
                        solved = transient.map(_worker_solve, jobs)
                else:
                    for job in jobs:
                        solved.append(_worker_solve(job))
        except KeyboardInterrupt:
            # SIGINT/SIGTERM mid-batch: report what is answered so far
            # instead of discarding finished work with a traceback.
            interrupted = True
        for fp, payload in zip(todo, solved):
            tr.absorb(payload.get("trace_events"))
            rep = items[rep_index[fp]]
            order = orders[rep_index[fp]]
            schedule = Schedule(
                rep.graph, rep.system,
                {
                    int(n): (int(pe), float(st))
                    for n, pe, st in payload["assignment"]
                },
            )
            entry = CacheEntry(
                fingerprint=fp,
                assignment=canonical_assignment(schedule, order),
                makespan=schedule.length,
                certificate=payload["certificate"],
                bound=payload["bound"],
                algorithm=payload["algorithm"],
                stats=payload["stats"],
            )
            entries[fp] = entry
            solve_seconds[fp] = payload["seconds"]
            winners[fp] = payload["winner"]
            if cache is not None and not cache.put(entry):
                # The store already held something better (possible when
                # require_proven re-solved a stale entry under a tighter
                # budget): serve that instead of the fresh, worse result,
                # unless it does not cover this instance.
                better = cache.get(fp)
                if (
                    better is not None
                    and better.better_than(entry)
                    and better.fits(rep.graph)
                ):
                    entries[fp] = better
                    winners.pop(fp, None)

    # Fan the unique results back out to every request.
    outcomes: list[ItemOutcome] = []
    for i, (item, fp) in enumerate(zip(items, fps)):
        entry = entries.get(fp)
        if entry is None:
            continue  # interrupted before this fingerprint was solved
        schedule = Schedule(
            item.graph, item.system,
            assignment_from_canonical(orders[i], entry.assignment),
        )
        is_rep = rep_index[fp] == i
        cached = fp in cache_hit_fps
        outcomes.append(
            ItemOutcome(
                name=item.name,
                fingerprint=fp,
                makespan=schedule.length,
                certificate=entry.certificate,
                algorithm=entry.algorithm,
                winner=winners.get(fp, "") if is_rep and not cached else "",
                cached=cached,
                shared=not is_rep,
                seconds=solve_seconds.get(fp, 0.0) if is_rep else 0.0,
                schedule=schedule,
            )
        )

    wall = time.perf_counter() - t0
    answered = set(entries)
    return BatchReport(
        outcomes=tuple(outcomes),
        wall_seconds=wall,
        solved=sum(1 for fp in todo if fp in answered),
        cache_hits=sum(1 for fp in fps if fp in cache_hit_fps),
        deduped=sum(
            1 for i, fp in enumerate(fps)
            if rep_index[fp] != i and fp not in cache_hit_fps
            and fp in answered
        ),
        cache_counters=cache.counters() if cache is not None else {},
        interrupted=interrupted,
    )


# -- worker side (top-level: picklable under spawn) --------------------------


def _job_for(
    item: BatchItem,
    fingerprint: str,
    deadline: float | None,
    epsilon: float,
    cost: str,
    max_expansions: int | None,
    mode: str,
    solver_workers: int = 1,
    max_memory_mb: float | None = None,
    *,
    trace: bool = False,
    trace_root: str | None = None,
    probe_every: int | None = None,
    preprocess: bool = False,
) -> dict[str, Any]:
    """Plain-dict job descriptor: nothing but builtins crosses the pool."""
    return {
        "fingerprint": fingerprint,
        "graph": graph_to_dict(item.graph),
        "system": system_to_args(item.system),
        "deadline": deadline,
        "epsilon": epsilon,
        "cost": cost,
        "max_expansions": max_expansions,
        "mode": mode,
        "solver_workers": solver_workers,
        "max_memory_mb": max_memory_mb,
        "trace": trace,
        "trace_root": trace_root,
        "probe_every": probe_every,
        "preprocess": preprocess,
    }


def _worker_solve(job: dict[str, Any]) -> dict[str, Any]:
    """Solve one instance (in a pool worker or inline) to a plain dict."""
    # Chaos hooks — inert unless REPRO_FAULTS arms them.  The crash
    # point hard-exits the pool process (BrokenExecutor upstream); the
    # error point is a clean in-worker failure the pool survives.
    faults.crash_point("solve-crash")
    faults.raise_point("solve-error")
    graph = graph_from_dict(job["graph"])
    system = system_from_args(job["system"])
    # Buffering tracer: spans accumulate in memory and ride back on the
    # result payload (pool workers cannot share the parent's file sink).
    wtracer = Tracer(root=job.get("trace_root")) if job.get("trace") else None
    probe_every = job.get("probe_every")
    t0 = time.perf_counter()
    with (wtracer if wtracer is not None else null_tracer).span(
        "batch.item", attrs={"fingerprint": job["fingerprint"]}
    ):
        solve = portfolio_schedule if job["mode"] == "portfolio" else solve_auto
        res = solve(
            graph, system, deadline=job["deadline"], epsilon=job["epsilon"],
            cost=job["cost"], max_expansions=job["max_expansions"],
            workers=job.get("solver_workers", 1),
            max_memory_mb=job.get("max_memory_mb"),
            tracer=wtracer, probe_every=probe_every,
            preprocess=job.get("preprocess", False),
        )
    return {
        "fingerprint": job["fingerprint"],
        "assignment": [[t.node, t.pe, t.start] for t in res.schedule.tasks],
        "certificate": res.certificate,
        "bound": res.bound,
        "algorithm": res.algorithm,
        # Only the portfolio ladder has stages, so only it names a winner.
        "winner": getattr(res, "winner", ""),
        "stats": res.stats.as_dict(),
        "seconds": time.perf_counter() - t0,
        "lower_bound": res.lower_bound,
        "interrupted": res.interrupted,
        "trace_events": wtracer.drain() if wtracer is not None else None,
    }
