"""Job lifecycle for the solver daemon: admission, dedupe, execution.

The HTTP layer (:mod:`repro.service.server`) is deliberately thin; this
module holds the actual serving semantics, framework-free except for
``asyncio`` primitives, so tests can drive it without sockets.

A submitted request becomes a :class:`Job` and moves through a small
state machine::

                      ┌────────────────────────────┐
    submit ── cache hit ──────────────────────────▶│
       │                                           │
       ├── duplicate of an in-flight job ──▶ queued (follower)
       │                                      │    │
       ├── queue full ──▶ rejected (429)      ▼    ▼
       └──▶ queued ──▶ running ──▶ done  /  failed

* **Cache hits** complete synchronously at submit time — they never
  consume a queue slot or a worker.
* **Dedupe runs in front of the queue**: a request whose fingerprint
  matches a queued or running job attaches to it as a *follower* and
  fans out when the primary completes (in its own node numbering, via
  the canonical assignment).  Followers consume no queue slot either —
  admission control bounds the number of *unique* pending problems, so
  a burst of identical requests can never 429 itself while its twin is
  already being solved.
* **Admission control** is a bounded queue: when ``queue_limit`` unique
  jobs are already pending, :meth:`JobManager.submit` raises
  :class:`QueueFull` and the server answers 429.
* **Drain** (:meth:`JobManager.drain`) flips the manager into a mode
  where submissions raise :class:`Draining` (503), then waits for every
  accepted job — queued, running, and followers — to finish.

Execution happens on a persistent
:class:`~repro.parallel.mp_backend.SolverPool`: runner coroutines pull
jobs off the queue and await :func:`repro.service.batch._worker_solve`
futures on the pool's executor, so the event loop stays responsive
while searches run on other cores.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from typing import Any, NamedTuple

from repro.heuristics.listsched import fast_upper_bound_schedule
from repro.obs.metrics import EXPANSION_BUCKETS, MetricsRegistry
from repro.obs.trace import Tracer, null_tracer
from repro.parallel.mp_backend import SolverPool
from repro.schedule.schedule import Schedule
from repro.search.costs import COST_FUNCTIONS
from repro.service.batch import BatchItem, _job_for, _worker_solve, item_from_request
from repro.service.cache import CacheEntry, ResultCache
from repro.schedule.fingerprint import (
    assignment_from_canonical,
    canonical_assignment,
    canonical_order,
    instance_fingerprint,
)
from repro.service.portfolio import select_cost

__all__ = ["Job", "JobManager", "PreparedRequest", "QueueFull", "Draining"]

#: Job states (strings on purpose: they appear verbatim in API JSON).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


#: Sentinel distinguishing "no cache lookup happened yet" from "the
#: lookup ran and missed" in :meth:`JobManager.admit`.
_NO_LOOKUP = object()


class QueueFull(Exception):
    """Raised by :meth:`JobManager.submit` when admission control is at
    capacity (the server maps this to HTTP 429)."""


class Draining(Exception):
    """Raised by :meth:`JobManager.submit` once drain has begun (the
    server maps this to HTTP 503)."""


class PreparedRequest(NamedTuple):
    """The CPU-heavy, side-effect-free front half of a submission.

    Produced by :meth:`JobManager.prepare` (safe to run off the event
    loop — parsing and WL-refinement fingerprinting of a large graph
    take real CPU time) and consumed by :meth:`JobManager.admit` (cheap,
    loop-thread only, where all shared state is touched).
    """

    item: BatchItem
    fingerprint: str
    order: tuple[int, ...]
    options: dict[str, Any]


#: Per-request option keys a client may override, and — minus
#: ``require_proven``, which only gates cache reads — the keys that must
#: match for a request to ride another in-flight job as a follower.
_OVERRIDE_KEYS = (
    "deadline", "epsilon", "cost", "max_expansions", "mode",
    "require_proven", "solver_workers", "max_memory_mb", "preprocess",
)
_SOLVE_KEYS = (
    "deadline", "epsilon", "cost", "max_expansions", "mode",
    "solver_workers", "max_memory_mb", "preprocess",
)

#: Cap on the per-request HDA* worker override: untrusted request
#: bodies must not be able to fork an arbitrary number of processes.
_MAX_SOLVER_WORKERS = 16

#: The largest finite float.  One comparison against it refuses
#: infinities (``1e999`` parses as ``inf``) and integers too large for
#: a float, which would otherwise reach a solver as a limit.
_FLOAT_MAX = sys.float_info.max

#: Seconds a finished job waits for its cache write before completing
#: anyway (the put keeps running on the cache thread and may land
#: later).  Without this bound a wedged store would keep the job
#: active forever — and drain() blocks on every active job, so SIGTERM
#: shutdown would hang before the server-side close grace is reached.
_CACHE_PUT_GRACE = 10.0

#: Bounds for the adaptive ``Retry-After`` hint on 429/503 responses.
#: The floor keeps the hint a valid positive integer even on an idle
#: (draining) daemon; the ceiling keeps clients from parking for
#: minutes on a queue that drains in seconds once a long solve ends.
_RETRY_AFTER_MIN = 1
_RETRY_AFTER_MAX = 30

#: Smoothing factor for the solve-seconds EWMA behind the hint
#: (weight of the newest observation).
_SOLVE_EWMA_ALPHA = 0.2

#: Seconds the deep-readiness probe waits for the cache thread before
#: declaring the store wedged (a ``/healthz?deep=1`` answer must come
#: back well inside the router's probe timeout).
_DEEP_PROBE_TIMEOUT = 5.0

#: Point-in-time values set on gauges at scrape time:
#: (gauge name, JSON ``/metrics`` key, help text).
_GAUGES = (
    ("uptime_seconds", "uptime_seconds", "Seconds since the daemon started."),
    ("draining", "draining", "1 while drain is in progress, else 0."),
    ("queue_depth", "queue_depth", "Unique jobs queued, not yet running."),
    ("dedup_followers", "dedup_followers",
     "Requests riding an in-flight primary as dedupe followers "
     "(not counted in queue_depth)."),
    ("queue_limit", "queue_limit",
     "Admission-control capacity (unique pending jobs)."),
    ("jobs_running", "running", "Jobs currently executing on the pool."),
    ("jobs_in_flight", "in_flight",
     "Unique fingerprints queued or running (dedupe targets)."),
    ("pool_workers", "pool_workers", "Solver pool worker processes."),
    ("cache_hit_rate", "cache_hit_rate", "Cache hits / submissions since start."),
)


def _validate_options(options: dict[str, Any]) -> None:
    """Type- and bounds-check request-supplied solver options, so a bad
    request fails at submit (HTTP 400) instead of inside a pool worker
    (HTTP 500), and so a request body cannot amplify resource use
    beyond what the operator configured."""
    if options["mode"] not in ("portfolio", "auto"):
        raise ValueError(f"unknown mode {options['mode']!r}")
    cost = options["cost"]
    if cost != "auto" and cost not in COST_FUNCTIONS:
        raise ValueError(
            f"unknown cost {cost!r}; choose from "
            f"{['auto', *sorted(COST_FUNCTIONS)]}"
        )
    deadline = options["deadline"]
    if deadline is not None:
        if not isinstance(deadline, (int, float)) \
                or not 0 < deadline <= _FLOAT_MAX:
            raise ValueError(
                f"deadline must be a positive finite number, got {deadline!r}")
    epsilon = options["epsilon"]
    if not isinstance(epsilon, (int, float)) or not 0 <= epsilon <= _FLOAT_MAX:
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon!r}")
    expansions = options["max_expansions"]
    if expansions is not None:
        if not isinstance(expansions, int) or isinstance(expansions, bool) \
                or not 1 <= expansions <= _FLOAT_MAX:
            raise ValueError(
                "max_expansions must be a positive integer at most "
                f"{_FLOAT_MAX:g}, got {expansions!r}")
    workers = options["solver_workers"]
    if not isinstance(workers, int) or isinstance(workers, bool) \
            or not 1 <= workers <= _MAX_SOLVER_WORKERS:
        raise ValueError(
            f"solver_workers must be an integer in [1, {_MAX_SOLVER_WORKERS}],"
            f" got {workers!r}")
    memory = options["max_memory_mb"]
    if memory is not None:
        if not isinstance(memory, (int, float)) or isinstance(memory, bool) \
                or not 0 < memory <= _FLOAT_MAX:
            raise ValueError(
                f"max_memory_mb must be a positive finite number, got {memory!r}")
    options["require_proven"] = bool(options["require_proven"])
    options["preprocess"] = bool(options["preprocess"])


class Job:
    """One accepted solve request and its progress through the service."""

    __slots__ = (
        "id", "name", "item", "fingerprint", "order", "options",
        "state", "via", "submitted", "started", "finished",
        "result", "error", "done",
    )

    def __init__(
        self,
        job_id: str,
        item: BatchItem,
        fingerprint: str,
        order: tuple[int, ...],
        options: dict[str, Any],
    ) -> None:
        self.id = job_id
        self.name = item.name
        self.item = item
        self.fingerprint = fingerprint
        self.order = order
        self.options = options
        self.state = QUEUED
        self.via: str | None = None  # "solve" | "cache" | "dedup"
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.result: dict[str, Any] | None = None
        self.error: str | None = None
        self.done = asyncio.Event()

    @property
    def active(self) -> bool:
        """True while the job still owes the caller an answer."""
        return self.state in (QUEUED, RUNNING)

    def snapshot(self) -> dict[str, Any]:
        """JSON view served by ``GET /v1/jobs/<id>``."""
        view: dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "status": self.state,
            "fingerprint": self.fingerprint,
            "submitted": self.submitted,
        }
        if self.started is not None:
            view["started"] = self.started
        if self.finished is not None:
            view["finished"] = self.finished
        if self.via is not None:
            view["via"] = self.via
        if self.result is not None:
            view["result"] = self.result
        if self.error is not None:
            view["error"] = self.error
        return view


class JobManager:
    """Admission control, dedupe, caching, and pool dispatch for jobs.

    Parameters
    ----------
    pool:
        The persistent :class:`SolverPool` searches run on.  The manager
        borrows it; the server owns its lifetime.
    cache:
        Optional :class:`ResultCache` consulted at submit and written on
        completion.
    cache_executor:
        Optional single-worker executor all cache I/O is routed
        through, so a slow or stalled persistent store never blocks the
        event loop (``/healthz`` keeps answering during a wedged
        ``put``).  Borrowed — the server owns its lifetime.  ``None``
        keeps the historical synchronous calls (in-memory caches,
        embedded use, tests).
    queue_limit:
        Maximum *unique* jobs pending (queued, not yet running).
    deadline, epsilon, max_expansions, mode, require_proven,
    solver_workers, max_memory_mb, preprocess:
        Solver defaults; each may be overridden per request by the same
        field in the request object (``solver_workers`` is the HDA*
        worker count *per job* — it composes with the request pool, and
        competes with it for cores, so the default stays 1).
    history_limit:
        Completed jobs retained for ``GET /v1/jobs/<id>`` polling before
        eviction (oldest-finished first).
    tracer:
        Structured-trace sink (:mod:`repro.obs.trace`) for job lifecycle
        events (submit, start, done, dedupe fan-out, degraded answers)
        and cache get/put events; pool workers' buffered spans are
        absorbed here when their results return.  ``None`` disables
        tracing.
    probe_every:
        Convergence-sampling interval forwarded to every solve; the
        timelines come back as ``search.timeline`` trace events.
    shard_id:
        Identity of this daemon within a sharded fleet (see
        :mod:`repro.service.router`); surfaced in ``/metrics`` so the
        router and operators can attribute scraped numbers to a shard.
        ``None`` (standalone daemon) omits the field.
    """

    def __init__(
        self,
        pool: SolverPool,
        *,
        cache: ResultCache | None = None,
        cache_executor: ThreadPoolExecutor | None = None,
        queue_limit: int = 64,
        deadline: float | None = None,
        epsilon: float = 0.25,
        cost: str = "auto",
        max_expansions: int | None = 200_000,
        mode: str = "portfolio",
        require_proven: bool = False,
        solver_workers: int = 1,
        max_memory_mb: float | None = None,
        preprocess: bool = False,
        history_limit: int = 4096,
        tracer: Tracer | None = None,
        probe_every: int | None = None,
        shard_id: str | None = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.pool = pool
        self.cache = cache
        self.tracer = tracer if tracer is not None else null_tracer
        self.probe_every = probe_every
        self._cache_exec = cache_executor
        self.queue_limit = queue_limit
        self.defaults = {
            "deadline": deadline,
            "epsilon": epsilon,
            "cost": cost,
            "max_expansions": max_expansions,
            "mode": mode,
            "require_proven": require_proven,
            "solver_workers": solver_workers,
            "max_memory_mb": max_memory_mb,
            "preprocess": preprocess,
        }
        self.history_limit = history_limit
        self.shard_id = shard_id
        self.draining = False
        self.started_at = time.time()
        #: EWMA of fresh-solve wall seconds, feeding the adaptive
        #: ``Retry-After`` hint; ``None`` until the first solve lands.
        self._solve_ewma: float | None = None

        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        # fingerprint -> the most recent active primary for it.  Two
        # actives can share a fingerprint when their solver options
        # differ (no dedupe across options), so followers are grouped
        # by primary *job id*, not by fingerprint.
        self._inflight: dict[str, Job] = {}
        self._followers: dict[str, list[Job]] = {}  # primary id -> followers
        self._runners: list[asyncio.Task] = []
        self._running = 0
        self._seq = 0
        #: Every ``/metrics`` counter and histogram lives here; the JSON
        #: payload and the Prometheus text are both read from it.
        self.registry = MetricsRegistry()
        self._jobs_total = self.registry.counter_family(
            "jobs_total", "Job lifecycle counters by event.", "event", (
                "submitted", "accepted", "rejected", "completed", "failed",
                "cache_hits", "dedup_fanout", "solved", "pool_rebuilds",
                "degraded", "cache_errors",
            ),
        )
        #: Solve failures the degrade path absorbed (or, when no
        #: incumbent could be built, surfaced as errors), by cause.
        self._failures_total = self.registry.counter_family(
            "solve_failures_total",
            "Solve failures absorbed by the degrade path, by cause.",
            "cause", ("broken_pool", "worker_error", "completion_error"),
        )
        self._h_request = self.registry.histogram(
            "request_seconds",
            "End-to-end request latency: submit to finished.",
        )
        self._h_queue_wait = self.registry.histogram(
            "queue_wait_seconds",
            "Time accepted jobs wait queued before a runner starts them.",
        )
        self._h_expansions = self.registry.histogram(
            "solve_expansions",
            "States expanded per fresh solve.",
            buckets=EXPANSION_BUCKETS,
        )

    # -- cache I/O (dedicated thread when an executor is configured) ---------

    def _cache_get(self, fingerprint: str, require_proven: bool):
        if self.cache is None:
            return None
        try:
            return self.cache.get(fingerprint, require_proven=require_proven)
        except Exception:  # noqa: BLE001 - a broken store reads as a miss
            self._jobs_total["cache_errors"].inc()
            return None

    def _cache_get_blocking(self, prepared: "PreparedRequest"):
        """Synchronous lookup for :meth:`submit`; routed through the
        cache executor when one is configured."""
        if self.cache is None:
            return None
        args = (prepared.fingerprint, prepared.options["require_proven"])
        if self._cache_exec is None:
            return self._cache_get(*args)
        return self._cache_exec.submit(self._cache_get, *args).result()

    async def cache_lookup(self, prepared: "PreparedRequest"):
        """Consult the cache for a prepared request, off the event loop.

        The server awaits this between :meth:`prepare` and
        :meth:`admit`.  Cache-touching requests queue FIFO on the
        single cache worker (that ordering is what keeps SQLite writes
        serialized), so a wedged store backs up cache lookups too —
        but the *loop* stays responsive: ``/healthz``, ``/metrics``,
        job polling, and already-admitted solves are unaffected, which
        is the contract the stalled-put regression test pins.  Returns
        the entry or ``None``.
        """
        if self.cache is None:
            return None
        return await self._cache_call(
            self._cache_get,
            prepared.fingerprint,
            prepared.options["require_proven"],
        )

    async def _cache_call(self, fn, *args):
        if self._cache_exec is None:
            return fn(*args)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._cache_exec, fn, *args)

    # -- submission ----------------------------------------------------------

    def prepare(self, obj: dict[str, Any]) -> PreparedRequest:
        """Parse and fingerprint one request object (the batch
        JSON-lines schema, plus optional per-request solver overrides).

        Pure CPU, no shared state: the server runs this off the event
        loop so a large graph's canonicalization cannot stall other
        connections.  Raises on malformed input.
        """
        item = item_from_request(obj, name="request")
        options = dict(self.defaults)
        for key in _OVERRIDE_KEYS:
            if key in obj and obj[key] is not None:
                options[key] = obj[key]
        _validate_options(options)
        if options["cost"] in (None, "auto"):
            # Resolve the sentinel BEFORE fingerprinting (select_cost is
            # pure in the instance's static features): an "auto" request
            # then shares its fingerprint — dedupe, followers, and cache
            # entries — with requests naming the resolved cost
            # explicitly, instead of hashing to a parallel universe.
            options["cost"] = select_cost(item.graph, item.system)
        order = canonical_order(item.graph)
        fp = instance_fingerprint(
            item.graph, item.system, cost=options["cost"], order=order
        )
        return PreparedRequest(item, fp, order, options)

    def admit(
        self, prepared: PreparedRequest, cached: Any = _NO_LOOKUP
    ) -> Job:
        """Admit a prepared request (cheap; event-loop thread only).

        ``cached`` carries the result of an earlier
        :meth:`cache_lookup` (an entry or ``None``); when omitted the
        lookup happens here, synchronously — the embedded/test path.
        The server always passes it, keeping cache I/O off the loop.

        Returns the accepted :class:`Job` — possibly already ``done``
        (cache hit).  Raises :class:`Draining` or :class:`QueueFull`.
        """
        if self.draining:
            raise Draining("server is draining; not accepting new jobs")
        self._jobs_total["submitted"].inc()
        self._seq += 1
        job_id = f"j{self._seq:06d}"
        item, fp, order, options = prepared
        if item.name == "request":
            item = BatchItem(name=job_id, graph=item.graph, system=item.system)
        job = Job(job_id, item, fp, order, options)
        self._jobs[job_id] = job
        self._evict_history()
        self.tracer.event(
            "job.submit", attrs={"id": job_id, "fingerprint": fp}
        )

        # 1. The cache answers without a queue slot or a worker.
        if self.cache is not None:
            if cached is _NO_LOOKUP:
                cached = self._cache_get_blocking(prepared)
            entry = cached
            self.tracer.event(
                "cache.get",
                attrs={"id": job_id, "hit": entry is not None},
            )
            if entry is not None and entry.fits(item.graph):
                try:
                    self._finish(job, entry, via="cache", seconds=0.0, winner="")
                except Exception:  # noqa: BLE001 - entry unusable after all
                    # A malformed persisted entry must not leave the job
                    # active-forever (drain would hang on it) — fall
                    # through and let the solver answer instead.
                    if not job.active:
                        return job
                    job.via = None
                else:
                    self._jobs_total["cache_hits"].inc()
                    self._jobs_total["accepted"].inc()
                    return job

        # 2. Dedupe in front of the queue: followers ride for free —
        # but only on a primary solving with the *same* solver options;
        # a request asking for e.g. a tighter epsilon or its own
        # deadline gets its own queue slot rather than silently
        # inheriting a weaker certificate.
        primary = self._inflight.get(fp)
        if (
            primary is not None
            and primary.active
            and all(primary.options[k] == options[k] for k in _SOLVE_KEYS)
        ):
            self._jobs_total["dedup_fanout"].inc()
            self._jobs_total["accepted"].inc()
            job.via = "dedup"
            self._followers.setdefault(primary.id, []).append(job)
            self.tracer.event(
                "job.dedup", attrs={"id": job_id, "primary": primary.id}
            )
            return job

        # 3. Admission control on unique pending problems.
        if self._queue.qsize() >= self.queue_limit:
            self._jobs_total["rejected"].inc()
            job.state = FAILED
            job.error = "queue full"
            job.done.set()
            self._jobs.pop(job_id, None)
            self.tracer.event("job.reject", attrs={"id": job_id})
            raise QueueFull(
                f"job queue at capacity ({self.queue_limit} pending)"
            )
        self._jobs_total["accepted"].inc()
        self._inflight[fp] = job
        self._queue.put_nowait(job)
        return job

    def submit(self, obj: dict[str, Any]) -> Job:
        """:meth:`prepare` + :meth:`admit` in one call (tests, embedded
        use; the server splits them across threads)."""
        return self.admit(self.prepare(obj))

    def get(self, job_id: str) -> Job | None:
        """Look up a job by id (completed jobs stay until evicted)."""
        return self._jobs.get(job_id)

    # -- execution (runner coroutines on the event loop) ---------------------

    def start(self, runners: int | None = None) -> None:
        """Spawn the runner coroutines (call once, inside the loop)."""
        if self._runners:
            raise RuntimeError("JobManager already started")
        n = runners if runners is not None else self.pool.workers
        self._runners = [
            asyncio.create_task(self._runner(), name=f"job-runner-{i}")
            for i in range(max(1, n))
        ]

    async def _runner(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            job.state = RUNNING
            job.started = time.time()
            self._running += 1
            self._h_queue_wait.observe(job.started - job.submitted)
            self.tracer.event("job.start", attrs={"id": job.id})
            descriptor = _job_for(
                job.item, job.fingerprint,
                job.options["deadline"], job.options["epsilon"],
                job.options["cost"], job.options["max_expansions"],
                job.options["mode"], job.options["solver_workers"],
                job.options["max_memory_mb"],
                trace=self.tracer.enabled,
                trace_root=(
                    self.tracer.current_span_id()
                    if self.tracer.enabled else None
                ),
                probe_every=self.probe_every,
                preprocess=job.options["preprocess"],
            )
            executor = self.pool.executor
            try:
                payload = await loop.run_in_executor(
                    executor, _worker_solve, descriptor
                )
            except BrokenExecutor as exc:
                # A crashed/OOM-killed worker bricks a ProcessPool-
                # Executor permanently; replace it so one bad instance
                # cannot turn the daemon into a failure server.
                self._degrade_or_fail(
                    job, "broken_pool", f"{type(exc).__name__}: {exc}")
                if self.pool.rebuild(broken=executor):
                    self._jobs_total["pool_rebuilds"].inc()
            except Exception as exc:  # noqa: BLE001 - worker raised
                self._degrade_or_fail(
                    job, "worker_error", f"{type(exc).__name__}: {exc}")
            else:
                try:
                    await self._complete(job, payload)
                except Exception as exc:  # noqa: BLE001 - never leave a
                    # job undone (wait=true clients and drain() block on
                    # job.done) or kill this runner coroutine.
                    self._degrade_or_fail(
                        job, "completion_error",
                        f"completion failed: {type(exc).__name__}: {exc}")
            finally:
                self._running -= 1
                self._queue.task_done()

    async def _complete(self, primary: Job, payload: dict[str, Any]) -> None:
        """Store the fresh result, then fan it out to all followers.

        The cache write (and the better-entry re-read) go through
        :meth:`_cache_call`, so a slow store blocks only this runner
        coroutine — the loop keeps serving health checks and admissions.
        """
        item = primary.item
        schedule = Schedule(
            item.graph, item.system,
            {int(n): (int(pe), float(st)) for n, pe, st in payload["assignment"]},
        )
        entry = CacheEntry(
            fingerprint=primary.fingerprint,
            assignment=canonical_assignment(schedule, primary.order),
            makespan=schedule.length,
            certificate=payload["certificate"],
            bound=payload["bound"],
            algorithm=payload["algorithm"],
            stats=payload["stats"],
        )
        self._jobs_total["solved"].inc()
        algo = payload["algorithm"]
        self.registry.counter(
            "engine_solves_total", "Fresh solves by winning algorithm.",
            labels={"algorithm": algo},
        ).inc()
        # Engine label without the parenthesised variant suffix
        # ("focal(eps=0.25,budget)" -> "focal") to keep cardinality low.
        self.registry.histogram(
            "solve_seconds",
            "Per-engine solver wall time for fresh solves.",
            labels={"engine": algo.split("(", 1)[0]},
        ).observe(payload["seconds"])
        seconds = float(payload["seconds"])
        self._solve_ewma = (
            seconds
            if self._solve_ewma is None
            else (1 - _SOLVE_EWMA_ALPHA) * self._solve_ewma
            + _SOLVE_EWMA_ALPHA * seconds
        )
        expanded = payload["stats"].get("states_expanded")
        if expanded is not None:
            self._h_expansions.observe(expanded)
        self.tracer.absorb(payload.get("trace_events"))
        stored = True
        if self.cache is not None:
            self.tracer.event(
                "cache.put", attrs={"fingerprint": entry.fingerprint}
            )
            try:
                stored = await asyncio.wait_for(
                    self._cache_call(self.cache.put, entry),
                    timeout=_CACHE_PUT_GRACE,
                )
            except asyncio.TimeoutError:
                # Wedged store: serve the fresh result now (the put may
                # still land later on the cache thread) so neither the
                # waiting client nor drain() hangs on storage.
                stored = True
            except Exception:  # noqa: BLE001 - broken store: count it,
                # serve the fresh result anyway; caching is best-effort.
                self._jobs_total["cache_errors"].inc()
                stored = True
        if self.cache is not None and not stored:
            # The store already held something better; serve that —
            # unless it is structurally unusable for this graph (the
            # same guard the admit cache-hit path applies), in which
            # case the fresh result in hand wins.  The put just
            # answered, so the store is healthy and this get is fast.
            better = await self._cache_call(self.cache.get, primary.fingerprint)
            if (
                better is not None
                and better.better_than(entry)
                and better.fits(item.graph)
            ):
                entry = better
        self._finish(
            primary, entry, via="solve",
            seconds=payload["seconds"], winner=payload["winner"],
        )
        if "lower_bound" in payload:
            primary.result["lower_bound"] = payload["lower_bound"]
        if payload.get("interrupted"):
            primary.result["interrupted"] = payload["interrupted"]
        # Fan out before popping: if a follower's _finish raises, the
        # runner's _fail recovery can still reach the rest of the list.
        for follower in self._followers.get(primary.id, []):
            self._finish(follower, entry, via="dedup", seconds=0.0, winner="")
        self._followers.pop(primary.id, None)
        self._release(primary)

    def _degrade_or_fail(self, primary: Job, cause: str, error: str) -> None:
        """Absorb a solve failure into a *degraded* answer when possible.

        The solver died (crashed pool worker, raised exception, broken
        completion), but the instance itself is still in hand — and the
        paper's ``U``-bound list schedule is always computable in
        milliseconds on the event-loop thread.  Serving that incumbent
        with ``certificate="degraded"`` (plus the failure ``reason``)
        keeps the daemon answering every accepted request instead of
        converting infrastructure faults into client-visible 500s.

        Degraded entries are **never cached**: the next request for the
        same fingerprint should reach a healthy (possibly rebuilt) pool
        and earn a real certificate.  Falls back to :meth:`_fail` when
        even the list schedule cannot be built.
        """
        self._failures_total[cause].inc()
        self.tracer.event(
            "job.degraded", attrs={"id": primary.id, "cause": cause}
        )
        try:
            item = primary.item
            schedule = fast_upper_bound_schedule(item.graph, item.system)
            entry = CacheEntry(
                fingerprint=primary.fingerprint,
                assignment=canonical_assignment(schedule, primary.order),
                makespan=schedule.length,
                certificate="degraded",
                bound=math.inf,
                algorithm="list(degraded)",
                stats={},
            )
            # Jobs that already finished (a completion error can strike
            # mid fan-out) keep their real result — degrade only the
            # ones still owing an answer.
            if primary.active:
                self._finish(
                    primary, entry, via="solve", seconds=0.0, winner="degraded"
                )
                primary.result["reason"] = error
                self._jobs_total["degraded"].inc()
            for follower in self._followers.get(primary.id, []):
                if not follower.active:
                    continue
                self._finish(
                    follower, entry, via="dedup", seconds=0.0, winner="degraded"
                )
                follower.result["reason"] = error
                self._jobs_total["degraded"].inc()
            self._followers.pop(primary.id, None)
            self._release(primary)
        except Exception:  # noqa: BLE001 - degradation itself failed
            self._fail(primary, error)

    def _fail(self, primary: Job, error: str) -> None:
        """Fail the primary and every follower riding on it (jobs that
        already finished — e.g. when a completion error struck mid
        fan-out — keep their result)."""
        for job in [primary] + self._followers.pop(primary.id, []):
            if not job.active:
                continue
            job.state = FAILED
            job.error = error
            job.finished = time.time()
            job.done.set()
            self._jobs_total["failed"].inc()
            self._h_request.observe(job.finished - job.submitted)
            self.tracer.event(
                "job.failed", attrs={"id": job.id, "error": error}
            )
        self._release(primary)

    def _release(self, primary: Job) -> None:
        """Drop the in-flight marker iff it still points at ``primary``
        (a same-fingerprint job with different options may have taken
        the slot over)."""
        if self._inflight.get(primary.fingerprint) is primary:
            del self._inflight[primary.fingerprint]

    def _finish(
        self, job: Job, entry: CacheEntry, *,
        via: str, seconds: float, winner: str,
    ) -> None:
        """Complete one job from a (canonical-space) cache entry."""
        schedule = Schedule(
            job.item.graph, job.item.system,
            assignment_from_canonical(job.order, entry.assignment),
        )
        job.result = {
            "name": job.name,
            "fingerprint": job.fingerprint,
            "makespan": schedule.length,
            "certificate": entry.certificate,
            "algorithm": entry.algorithm,
            "winner": winner,
            "seconds": seconds,
            "assignment": [[t.node, t.pe, t.start] for t in schedule.tasks],
        }
        job.via = via
        job.state = DONE
        job.finished = time.time()
        job.done.set()
        self._jobs_total["completed"].inc()
        self._h_request.observe(job.finished - job.submitted)
        self.tracer.event("job.done", attrs={"id": job.id, "via": via})

    def _evict_history(self) -> None:
        """Drop the oldest *finished* jobs beyond the history bound.

        Walks from the oldest end only as far as it must — past any
        still-active jobs, up to the first ``excess`` finished ones — so
        a full history costs one short walk per admit, not a copy of
        every job id.
        """
        excess = len(self._jobs) - self.history_limit
        if excess <= 0:
            return
        doomed: list[str] = []
        for job_id, job in self._jobs.items():
            if not job.active:
                doomed.append(job_id)
                if len(doomed) == excess:
                    break
        for job_id in doomed:
            del self._jobs[job_id]

    # -- drain ---------------------------------------------------------------

    async def drain(self) -> None:
        """Stop admitting, finish every accepted job, stop the runners.

        Idempotent; after it returns no job is left ``queued`` or
        ``running`` and the runner tasks are cancelled.
        """
        self.draining = True
        pending = [job for job in self._jobs.values() if job.active]
        for job in pending:
            await job.done.wait()
        for task in self._runners:
            task.cancel()
        for task in self._runners:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._runners = []

    # -- deep readiness ------------------------------------------------------

    async def deep_checks(self) -> dict[str, str]:
        """The checks behind ``/healthz?deep=1``: can this daemon
        actually *solve*, not merely answer HTTP?

        * ``pool`` — :meth:`SolverPool.liveness`: non-blocking, so a
          busy-but-healthy pool stays green (submitting a ping would
          queue behind real searches and time out).
        * ``cache`` — :meth:`ResultCache.probe` on the cache thread:
          round-trips a scratch write, bounded by
          :data:`_DEEP_PROBE_TIMEOUT` so a wedged store reads as
          unhealthy instead of wedging the probe.

        Returns ``{check: "ok" | reason}``; the server answers 503
        when any check fails, which is what tells the fleet router to
        stop routing here (see :mod:`repro.service.router`).
        """
        checks: dict[str, str] = {}
        pool_problem = self.pool.liveness()
        checks["pool"] = pool_problem or "ok"
        if self.cache is None:
            checks["cache"] = "ok"
        else:
            try:
                await asyncio.wait_for(
                    self._cache_call(self.cache.probe),
                    timeout=_DEEP_PROBE_TIMEOUT,
                )
            except asyncio.TimeoutError:
                checks["cache"] = (
                    f"probe not answered in {_DEEP_PROBE_TIMEOUT}s "
                    "(cache thread wedged)"
                )
            except Exception as exc:  # noqa: BLE001 - any store failure
                # (CacheBackendError, injected faults, ...) must read
                # as an unhealthy check, never break the probe route.
                checks["cache"] = f"{type(exc).__name__}: {exc}"
            else:
                checks["cache"] = "ok"
        return checks

    # -- introspection -------------------------------------------------------

    def followers_waiting(self) -> int:
        """Requests currently riding an in-flight primary as dedupe
        followers.  Reported separately from :attr:`queue_depth` —
        which counts *unique* pending problems only — so a burst of
        identical requests is visible as fan-out, not hidden queue
        pressure (or, worse, mistaken for an idle queue)."""
        return sum(len(v) for v in self._followers.values())

    def retry_after_hint(self) -> int:
        """Adaptive ``Retry-After`` seconds for 429/503 responses.

        Estimates when a queue slot will open: unique work ahead of
        the client (queued + running) times the recent fresh-solve
        wall time (EWMA; 1s before any solve has landed), divided by
        the runner count, clamped to
        [:data:`_RETRY_AFTER_MIN`, :data:`_RETRY_AFTER_MAX`].  A full
        queue of second-long solves tells clients to come back tens of
        seconds later instead of the historical fixed ``1``, which had
        the whole rejected burst re-arrive while the queue was still
        full.
        """
        pending = self._queue.qsize() + self._running
        runners = max(1, len(self._runners) or self.pool.workers)
        per_solve = self._solve_ewma if self._solve_ewma else 1.0
        eta = math.ceil(pending * per_solve / runners)
        return int(min(_RETRY_AFTER_MAX, max(_RETRY_AFTER_MIN, eta)))

    def metrics(self) -> dict[str, Any]:
        """The ``GET /metrics`` payload."""
        jobs = self.registry.counts("jobs_total")
        submitted = jobs["submitted"]
        hit_rate = jobs["cache_hits"] / submitted if submitted else 0.0
        body = {
            "uptime_seconds": time.time() - self.started_at,
            "draining": self.draining,
            "queue_depth": self._queue.qsize(),
            "dedup_followers": self.followers_waiting(),
            "queue_limit": self.queue_limit,
            "running": self._running,
            "in_flight": len(self._inflight),
            "pool_workers": self.pool.workers,
            "jobs": jobs,
            "failures": self.registry.counts("solve_failures_total"),
            "cache_hit_rate": hit_rate,
            "engines": self.registry.counts("engine_solves_total"),
            "cache": self.cache.counters() if self.cache is not None else {},
            # Histogram-derived p50/p99 (request latency, queue wait,
            # per-engine solve seconds, expansions per solve).  Additive
            # to the legacy schema above — the pinned schema test keeps
            # every pre-existing key byte-compatible.
            "latency": self.registry.histogram_summaries(),
        }
        if self.shard_id is not None:
            return {"shard": self.shard_id, **body}
        return body

    def prometheus(self) -> str:
        """``GET /metrics?format=prometheus``: :attr:`registry` in text
        exposition 0.0.4, after the point-in-time gauges and the result
        cache's own counters are set from the JSON payload."""
        m = self.metrics()
        for name, key, help_text in _GAUGES:
            self.registry.gauge(name, help_text).set(m[key])
        for event, count in m["cache"].items():
            self.registry.counter(
                "cache_events_total", "Result-cache operation counters.",
                labels={"event": event},
            ).set(count)
        return self.registry.render_prometheus()
