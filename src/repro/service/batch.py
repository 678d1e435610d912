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
import sys
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from repro.errors import WorkloadError
from repro.graph.io import graph_from_dict, graph_to_dict, load_graph_json
from repro.graph.taskgraph import TaskGraph
from repro.obs.trace import Tracer, null_tracer
from repro.parallel.mp_backend import SolverPool
from repro.schedule.schedule import Schedule
from repro.search.costs import COST_FUNCTIONS
from repro.service.cache import CacheEntry, ResultCache
from repro.schedule.fingerprint import (
    assignment_from_canonical,
    canonical_assignment,
    canonical_order,
    instance_fingerprint,
)
from repro.testing import faults
from repro.service.portfolio import portfolio_schedule, select_cost, solve_auto
from repro.system.processors import ProcessorSystem, system_from_dict, system_to_dict
from repro.workloads.suite import WorkloadSuite, paper_suite, paper_target_system

__all__ = [
    "BatchItem",
    "ItemOutcome",
    "BatchReport",
    "SolveOptions",
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


#: Cap on the per-job HDA* worker count: an untrusted request body must
#: not be able to fork an arbitrary number of processes.
_MAX_SOLVER_WORKERS = 16

#: The largest finite float.  One comparison against it refuses
#: infinities (``1e999`` parses as ``inf``, ``--deadline nan`` is NaN)
#: and integers too large for a float, which would otherwise reach a
#: solver as a limit.
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class SolveOptions:
    """The solver options of one solve: defaults, legal ranges, identity.

    Every front-end builds one: ``repro solve``/``batch``/``serve`` from
    their flags, :func:`run_batch`, :class:`~repro.service.jobs.JobManager`
    and :class:`~repro.service.server.SolverServer` take one as their
    defaults, and a daemon request applies its body's fields with
    :meth:`override`.  Construction validates, so a bad value fails where
    the record is built: at start-up for a default, with a 400 for a
    request body.

    Two records compare equal exactly when a request with one may ride
    an in-flight solve with the other: ``require_proven`` only gates
    cache reads, so it is left out of ``==`` and ``hash``.
    """

    #: Wall-clock budget per solve, in seconds (``None``: no deadline).
    deadline: float | None = None
    #: Aε*'s ε for the weighted-A* improver stage.
    epsilon: float = 0.25
    #: Guiding cost function, or ``"auto"`` (:meth:`for_instance`).
    cost: str = "auto"
    #: Expansion budget per search (``None``: unbounded).
    max_expansions: int | None = 200_000
    #: ``"portfolio"`` runs the stage ladder, ``"auto"`` the single
    #: statically selected engine.
    mode: str = "portfolio"
    #: HDA* worker processes *per solve* for the exact stage.  The
    #: daemon's request pool is sized separately.
    solver_workers: int = 1
    #: Process-RSS ceiling per solve; past it the search returns its
    #: incumbent and lower bound.
    max_memory_mb: float | None = None
    #: Run the makespan-preserving graph reductions before search.
    preprocess: bool = False
    #: Treat cached entries without an optimality proof as stale.
    require_proven: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("portfolio", "auto"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.cost != "auto" and self.cost not in COST_FUNCTIONS:
            raise ValueError(
                f"unknown cost {self.cost!r}; choose from "
                f"{['auto', *sorted(COST_FUNCTIONS)]}"
            )
        deadline = self.deadline
        if deadline is not None and (
            not isinstance(deadline, (int, float))
            or not 0 < deadline <= _FLOAT_MAX
        ):
            raise ValueError(
                f"deadline must be a positive finite number, got {deadline!r}")
        epsilon = self.epsilon
        if not isinstance(epsilon, (int, float)) or not 0 <= epsilon <= _FLOAT_MAX:
            raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon!r}")
        expansions = self.max_expansions
        if expansions is not None and (
            not isinstance(expansions, int) or isinstance(expansions, bool)
            or not 1 <= expansions <= _FLOAT_MAX
        ):
            raise ValueError(
                "max_expansions must be a positive integer at most "
                f"{_FLOAT_MAX:g}, got {expansions!r}")
        workers = self.solver_workers
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or not 1 <= workers <= _MAX_SOLVER_WORKERS:
            raise ValueError(
                f"solver_workers must be an integer in [1, {_MAX_SOLVER_WORKERS}],"
                f" got {workers!r}")
        memory = self.max_memory_mb
        if memory is not None and (
            not isinstance(memory, (int, float)) or isinstance(memory, bool)
            or not 0 < memory <= _FLOAT_MAX
        ):
            raise ValueError(
                f"max_memory_mb must be a positive finite number, got {memory!r}")
        for name in ("preprocess", "require_proven"):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise ValueError(f"{name} must be a boolean, got {flag!r}")

    def override(self, obj: Mapping[str, Any]) -> "SolveOptions":
        """These options with every non-null option field of ``obj`` (a
        request body) applied; raises ``ValueError`` on a bad value."""
        changes = {
            name: obj[name] for name in _OPTION_NAMES
            if obj.get(name) is not None
        }
        return replace(self, **changes) if changes else self

    def for_instance(
        self, graph: TaskGraph, system: ProcessorSystem
    ) -> "SolveOptions":
        """These options with ``cost="auto"`` resolved for one instance.

        :func:`~repro.service.portfolio.select_cost` is pure in the
        instance's static features, so resolving it *before*
        fingerprinting lets an auto-costed request share its fingerprint
        (dedupe, followers, cache entries) with requests naming the
        resolved cost explicitly.
        """
        if self.cost != "auto":
            return self
        return replace(self, cost=select_cost(graph, system))


_OPTION_NAMES = tuple(f.name for f in fields(SolveOptions))


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
        system = system_from_dict(obj["system"])
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
    pool: SolverPool | None = None,
    options: SolveOptions = SolveOptions(),
    tracer: Tracer | None = None,
    probe_every: int | None = None,
) -> BatchReport:
    """Solve a batch of requests with dedupe, caching, and fan-out.

    Parameters
    ----------
    items:
        The requests.
    cache:
        Result cache consulted before and written after solving; ``None``
        disables caching (every unique fingerprint is solved).
        ``options.require_proven`` treats cached entries without an
        optimality proof as stale (re-solved and overwritten).
    workers:
        OS processes for the solve fan-out (1 = in-process, no pool).
        Ignored when ``pool`` is given.  ``options.solver_workers`` (HDA*
        processes *per instance*) is effective on the in-process path
        and inside a caller-provided :class:`SolverPool` (its executor
        workers are non-daemonic); inside a transient ``workers > 1``
        fan-out the two axes of parallelism compete for the same cores,
        so prefer one or the other.
    pool:
        A persistent :class:`~repro.parallel.mp_backend.SolverPool` to
        dispatch on.  The caller owns its lifetime — ``run_batch``
        neither warms nor closes it — which is how the solver daemon
        amortizes process startup across many requests.  ``None`` keeps
        the historical behavior: a transient pool per call when
        ``workers > 1``.
    options:
        The solver options of every solve (:class:`SolveOptions`).
        ``preprocess`` leaves fingerprints and cache entries unchanged:
        an entry written with it is a valid answer for the same
        instance without it (and vice versa), precisely because the
        reductions preserve the optimum.
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

    Returns
    -------
    BatchReport
        Outcomes in request order plus aggregate throughput.
    """
    tr = tracer if tracer is not None else null_tracer
    t0 = time.perf_counter()

    # Canonicalization is the per-request fixed cost; content-equal
    # graphs (the dedupe workload) share one WL run via the
    # fingerprint module's memo.
    orders = [canonical_order(item.graph) for item in items]
    resolved = [options.for_instance(item.graph, item.system) for item in items]
    fps = [
        instance_fingerprint(item.graph, item.system, cost=o.cost, order=order)
        for item, o, order in zip(items, resolved, orders)
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
        entry = cache.get(fp, require_proven=options.require_proven)
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
            _job_for(items[rep_index[fp]], fp, resolved[rep_index[fp]],
                     trace=tr.enabled,
                     trace_root=tr.current_span_id() if tr.enabled else None,
                     probe_every=probe_every)
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
            rep = rep_index[fp]
            entries[fp], fresh = _store_result(
                payload, items[rep], fp, orders[rep], cache)
            solve_seconds[fp] = payload["seconds"]
            if fresh:
                winners[fp] = payload["winner"]

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
    options: SolveOptions,
    *,
    trace: bool = False,
    trace_root: str | None = None,
    probe_every: int | None = None,
) -> dict[str, Any]:
    """Plain-dict job descriptor: builtins plus the frozen
    :class:`SolveOptions` (``cost`` already resolved) cross the pool."""
    return {
        "fingerprint": fingerprint,
        "graph": graph_to_dict(item.graph),
        "system": system_to_dict(item.system),
        "options": options,
        "trace": trace,
        "trace_root": trace_root,
        "probe_every": probe_every,
    }


def _store_result(
    payload: dict[str, Any],
    item: BatchItem,
    fingerprint: str,
    order: tuple[int, ...],
    cache: ResultCache | None = None,
) -> tuple[CacheEntry, bool]:
    """Turn a worker payload into the cache entry to serve.

    The entry is built in canonical node space and put into ``cache``.
    When the store already held something better (possible when
    ``require_proven`` re-solved a stale entry under a tighter budget),
    that entry is served instead, unless it does not cover ``item``.
    Returns the entry and whether it is the fresh one.  The entry is
    stamped here, so the object served is the object the cache keeps
    and later hits reuse its rendering (see ``JobManager._render``).
    """
    schedule = Schedule(
        item.graph, item.system,
        {int(n): (int(pe), float(st)) for n, pe, st in payload["assignment"]},
    )
    entry = CacheEntry(
        fingerprint=fingerprint,
        assignment=canonical_assignment(schedule, order),
        makespan=schedule.length,
        certificate=payload["certificate"],
        bound=payload["bound"],
        algorithm=payload["algorithm"],
        stats=payload["stats"],
        created=time.time(),
    )
    if cache is None or cache.put(entry):
        return entry, True
    better = cache.get(fingerprint)
    if better is not None and better.better_than(entry) and better.fits(item.graph):
        return better, False
    return entry, True


def _worker_solve(job: dict[str, Any]) -> dict[str, Any]:
    """Solve one instance (in a pool worker or inline) to a plain dict."""
    # Chaos hooks — inert unless REPRO_FAULTS arms them.  The crash
    # point hard-exits the pool process (BrokenExecutor upstream); the
    # error point is a clean in-worker failure the pool survives.
    faults.crash_point("solve-crash")
    faults.raise_point("solve-error")
    graph = graph_from_dict(job["graph"])
    system = system_from_dict(job["system"])
    # Buffering tracer: spans accumulate in memory and ride back on the
    # result payload (pool workers cannot share the parent's file sink).
    wtracer = Tracer(root=job["trace_root"]) if job["trace"] else None
    t0 = time.perf_counter()
    with (wtracer if wtracer is not None else null_tracer).span(
        "batch.item", attrs={"fingerprint": job["fingerprint"]}
    ):
        opts: SolveOptions = job["options"]
        solve = portfolio_schedule if opts.mode == "portfolio" else solve_auto
        res = solve(
            graph, system, deadline=opts.deadline, epsilon=opts.epsilon,
            cost=opts.cost, max_expansions=opts.max_expansions,
            workers=opts.solver_workers, max_memory_mb=opts.max_memory_mb,
            tracer=wtracer, probe_every=job["probe_every"],
            preprocess=opts.preprocess,
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
