"""``repro serve`` — the solver daemon: an asyncio HTTP front-end.

Everything below this module already existed as one-shot library calls
(fingerprint → dedupe → cache → portfolio → pool); what a long-running
deployment adds is *amortization* and *backpressure*:

* the :class:`~repro.parallel.mp_backend.SolverPool` is created once
  and reused for every request, so worker-process startup and module
  import cost are paid per server, not per request;
* the :class:`~repro.service.cache.ResultCache` stays open and warm
  across requests (and across restarts when backed by SQLite);
* admission control bounds the pending-job queue and answers HTTP 429
  when full, instead of buffering unbounded work;
* SIGTERM drains gracefully — accepted jobs finish, new submissions get
  503, the cache is flushed — so a rolling restart never loses results.

The HTTP layer is stdlib-only: the listener lifecycle, request loop
and endpoint table are :class:`repro.service.httpwire.HttpService`,
shared with the fleet router; one request per connection, JSON in,
JSON out.

API
---
``POST /v1/solve``
    Body: the batch JSON-lines request object (``graph`` required;
    ``system``/``pes``, ``name`` optional) plus optional per-request
    solver overrides (``deadline``, ``epsilon``, ``max_expansions``,
    ``mode``, ``require_proven``) and ``wait`` (default ``true``).
    ``wait=true`` blocks until the job finishes and returns 200 with the
    job snapshot (result embedded); ``wait=false`` returns 202
    immediately — poll ``GET /v1/jobs/<id>``.  429 when the queue is
    full, 503 while draining, 400 on malformed requests.
``GET /v1/jobs/<id>``
    Job snapshot (status, and the result once done); 404 when unknown
    or evicted.
``GET /healthz``
    Liveness: 200 ``{"status": "ok"}`` (``"draining"`` during drain).
    ``?deep=1`` upgrades it to a *readiness* probe: verifies the
    solver pool's workers are alive and the result store accepts
    writes; 503 with per-check reasons when the daemon answers but
    cannot solve (or is draining) — the signal the fleet router keys
    health decisions on.
``GET /metrics``
    Queue depth, running/in-flight counts, job counters (cache hits,
    dedupe fan-out, rejects), per-engine solve counts, cache counters,
    and histogram-derived latency quantiles (request, queue wait,
    per-engine solve seconds).  ``?format=prometheus`` returns the same
    data in text exposition format 0.0.4 (cumulative histogram buckets
    included) for scraping.
"""

from __future__ import annotations

import asyncio
import functools
import json
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.obs.trace import Tracer
from repro.parallel.mp_backend import SolverPool
from repro.service import httpwire
from repro.service.cache import ResultCache
from repro.service.httpwire import Reply
from repro.service.jobs import Draining, JobManager, PreparedRequest, QueueFull
from repro.testing import faults

__all__ = ["SolverServer"]

#: Seconds the drain waits for the cache thread to flush and close
#: before abandoning a wedged store (see SolverServer._release).
_CACHE_CLOSE_GRACE = 10.0

#: Bounds of the prepared-request memo (see :class:`_PreparedMemo`):
#: entries held, total body bytes held, and the largest body that is
#: memoized at all (a bigger one is prepared afresh every time).
_MEMO_ENTRIES = 256
_MEMO_BYTES = 16 * 1024 * 1024
_MEMO_MAX_BODY = 1024 * 1024


class _PreparedMemo:
    """LRU from a ``POST /v1/solve`` body to its prepared request.

    A byte-identical repeat skips JSON parse, graph build, cost
    selection and fingerprinting, and the executor hop they run
    behind.  Only the event-loop thread touches it, so it needs no
    lock.  Bounded by entry count and by total body bytes, both
    evicting oldest-first; a body over :data:`_MEMO_MAX_BODY` is never
    stored.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[bytes, tuple[PreparedRequest, bool]] = (
            OrderedDict()
        )
        #: Sum of the stored bodies' lengths.
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, body: bytes) -> bool:
        return body in self._entries

    def get(self, body: bytes) -> tuple[PreparedRequest, bool] | None:
        """The prepared request and ``wait`` flag for ``body``, or
        ``None``.  The options mapping is a fresh copy on every hit, so
        no two jobs share it."""
        hit = self._entries.get(body)
        if hit is None:
            return None
        self._entries.move_to_end(body)
        prepared, wait = hit
        return prepared._replace(options=dict(prepared.options)), wait

    def put(self, body: bytes, prepared: PreparedRequest, wait: bool) -> None:
        size = len(body)
        if size > _MEMO_MAX_BODY or body in self._entries:
            return
        options = dict(prepared.options)  # the first job keeps its own
        self._entries[body] = (prepared._replace(options=options), wait)
        self.nbytes += size
        while len(self._entries) > _MEMO_ENTRIES or self.nbytes > _MEMO_BYTES:
            old, _ = self._entries.popitem(last=False)
            self.nbytes -= len(old)


def _cache_barrier_noop() -> None:
    """Drain barrier for a caller-owned cache: proves the cache thread
    is still responsive without touching the cache itself."""


class SolverServer(httpwire.HttpService):
    """The daemon: owns the pool, the cache, the manager, the listener.

    Typical embedded use (tests, benchmarks, notebooks)::

        server = SolverServer(port=0, solver_workers=2)
        thread = server.serve_in_thread()        # returns once ready
        ...  # talk to it via repro.service.client.ServerClient
        server.shutdown()                        # drain + stop
        thread.join()

    Production use is ``repro serve`` (:func:`run` on the main thread,
    with SIGTERM/SIGINT wired to graceful drain).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        solver_workers: int = 1,
        queue_limit: int = 64,
        cache: ResultCache | str | Path | None = None,
        deadline: float | None = None,
        epsilon: float = 0.25,
        cost: str = "auto",
        max_expansions: int | None = 200_000,
        mode: str = "portfolio",
        require_proven: bool = False,
        max_memory_mb: float | None = None,
        preprocess: bool = False,
        warm: bool = True,
        obs_trace: str | Path | None = None,
        probe_every: int | None = None,
        shard_id: str | None = None,
        cache_capacity: int | None = None,
    ) -> None:
        super().__init__(host, port)
        # Identity within a sharded fleet (repro.service.router); also
        # printed on the readiness line so the router / soak harness
        # can scrape it together with the advertised address.
        self.shard_id = shard_id
        self._cache_capacity = cache_capacity
        self.solver_workers = solver_workers
        self.queue_limit = queue_limit
        self.warm = warm
        self._solver_defaults = {
            "deadline": deadline,
            "epsilon": epsilon,
            "cost": cost,
            "max_expansions": max_expansions,
            "mode": mode,
            "require_proven": require_proven,
            "max_memory_mb": max_memory_mb,
            "preprocess": preprocess,
        }
        # The server owns caches it constructs (in-memory default, or
        # from a path); a caller passing a live ResultCache keeps
        # ownership (shared with e.g. an in-process benchmark harness
        # reading counters).  Construction of owned caches is deferred
        # to start(), onto the dedicated cache thread that will carry
        # all subsequent cache I/O.
        self._owns_cache = not isinstance(cache, ResultCache)
        self._cache_arg = cache
        self.cache: ResultCache | None = (
            cache if isinstance(cache, ResultCache) else None
        )
        # Trace file opened in start() so the daemon's whole lifetime —
        # job lifecycle events, worker spans, timelines — lands in one
        # JSONL file readable by ``repro trace``.
        self._obs_trace = obs_trace
        self.probe_every = probe_every
        self.tracer: Tracer | None = None
        self.pool: SolverPool | None = None
        self.manager: JobManager | None = None
        self._cache_thread: ThreadPoolExecutor | None = None
        self._memo = _PreparedMemo()

    # -- lifecycle (the shell in httpwire.HttpService runs these) ------------

    async def _open(self) -> None:
        """Start the cache thread, the pool and the job runners."""
        # All ResultCache I/O goes through this single-worker executor
        # (construction included), so a slow or stalled file-backed
        # store can never wedge the event loop — /healthz keeps
        # answering while a put blocks (see DESIGN.md "Known limits").
        self._cache_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-cache"
        )
        if self.cache is None and self._owns_cache:
            make_cache = functools.partial(ResultCache, self._cache_arg)
            if self._cache_capacity is not None:
                make_cache = functools.partial(
                    ResultCache, self._cache_arg,
                    capacity=self._cache_capacity,
                )
            loop = asyncio.get_running_loop()
            self.cache = await loop.run_in_executor(
                self._cache_thread, make_cache
            )
        self.pool = SolverPool(self.solver_workers)
        if self.warm:
            self.pool.warm()
        if self._obs_trace is not None:
            self.tracer = Tracer(self._obs_trace)
        self.manager = JobManager(
            self.pool,
            cache=self.cache,
            cache_executor=self._cache_thread,
            queue_limit=self.queue_limit,
            tracer=self.tracer,
            probe_every=self.probe_every,
            shard_id=self.shard_id,
            **self._solver_defaults,
        )
        self.manager.start()

    async def _quiesce(self) -> None:
        """Finish every accepted job while the listener still answers:
        new solves get 503 and ``/healthz`` says ``draining``."""
        assert self.manager is not None and self.pool is not None
        await self.manager.drain()

    async def _release(self) -> None:
        """Close the pool, the cache thread (bounded) and the tracer."""
        assert self.pool is not None
        self.pool.close()
        if self._cache_thread is not None:
            # Final cache-thread barrier, bounded: closing an owned
            # cache (or a plain no-op for a caller-owned one — the
            # caller keeps close()) queues behind any in-flight cache
            # operation, so a wedged store (stuck disk) would hang the
            # SIGTERM drain forever if we waited unconditionally.  On
            # timeout the worker is abandoned (shutdown(wait=False));
            # results already sit in the memory tier and were flushed
            # per-put, so nothing durable is lost.
            final_op = (
                self.cache.close
                if self.cache is not None and self._owns_cache
                else _cache_barrier_noop
            )
            loop = asyncio.get_running_loop()
            wedged = False
            try:
                await asyncio.wait_for(
                    loop.run_in_executor(self._cache_thread, final_op),
                    timeout=_CACHE_CLOSE_GRACE,
                )
            except asyncio.TimeoutError:
                wedged = True
            self._cache_thread.shutdown(wait=not wedged)
            self._cache_thread = None
        if self.tracer is not None:
            self.tracer.close()

    # -- the endpoints -------------------------------------------------------

    # Defined in this class's own body, not inherited: the benchmark
    # harness times the daemon by replacing SolverServer.__dict__["_handle"].
    _handle = httpwire.HttpService._serve

    def _retry_after_hint(self) -> int:
        # Adaptive: queue depth times recent solve time, so a rejected
        # burst does not re-arrive while the queue is still full.
        assert self.manager is not None
        return self.manager.retry_after_hint()

    def metrics(self) -> dict[str, Any]:
        """The job manager's ``GET /metrics`` JSON."""
        assert self.manager is not None
        return self.manager.metrics()

    async def _prometheus(self) -> str:
        assert self.manager is not None
        return self.manager.prometheus()

    async def _job(self, ref: str) -> Reply:
        assert self.manager is not None
        job = self.manager.get(ref)
        if job is None:
            return 404, {"error": "unknown job id"}, ""
        return 200, job.snapshot(), ""

    async def _health(self, deep: bool) -> Reply:
        """``/healthz``: liveness, 200 even while draining.

        ``?deep=1`` is readiness, not mere liveness.  The shallow probe
        proves the event loop answers; the deep one proves the daemon
        can *do its job* — the solver pool's worker processes are alive
        (non-blocking inspection, so a busy pool stays green) and the
        result store accepts writes (a scratch write on the cache
        thread, bounded so a wedged disk reads as unhealthy).  A
        draining daemon is deep-unhealthy by definition: it answers but
        accepts no work, which is exactly what the fleet router needs to
        know to stop routing here.
        """
        assert self.manager is not None
        status = "draining" if self.manager.draining else "ok"
        if not deep:
            return 200, {"status": status}, ""
        checks = await self.manager.deep_checks()
        if status != "ok":
            verdict = status  # draining
        elif all(v == "ok" for v in checks.values()):
            verdict = "ok"
        else:
            verdict = "unhealthy"
        payload: dict[str, Any] = {"status": verdict, "checks": checks}
        if self.shard_id is not None:
            payload["shard"] = self.shard_id
        return (200 if verdict == "ok" else 503), payload, ""

    async def _solve(self, body: bytes) -> Reply:
        assert self.manager is not None
        # Chaos hook: a whole-shard hard death (os._exit, no cleanup)
        # at the moment a request is being accepted — the closest
        # in-tree stand-in for an OOM-killed or SIGKILLed shard the
        # fleet router must absorb (tests/chaos/test_router_chaos.py).
        faults.crash_point("shard-crash")
        # A byte-identical repeat reuses the request prepared for the
        # first copy; the cache lookup and admit() run on every request.
        hit = self._memo.get(body)
        if hit is None:
            try:
                obj = json.loads(body, parse_constant=httpwire.reject_nonfinite)
            except ValueError as exc:  # JSONDecodeError or a non-finite literal
                return 400, {"error": f"invalid JSON body: {exc}"}, ""
            if not isinstance(obj, dict):
                return 400, {"error": "request body must be a JSON object"}, ""
            wait = obj.get("wait", True)
            if not isinstance(wait, bool):
                return 400, {"error": f"wait must be a boolean, got {wait!r}"}, ""
        try:
            if hit is None:
                # prepare() is pure CPU (graph parse + WL-refinement
                # fingerprint — seconds for very large graphs) and runs
                # on a thread so the loop keeps serving /healthz and
                # friends; the cache lookup runs on the dedicated cache
                # thread for the same reason; admit() touches shared
                # state and stays on the loop.
                loop = asyncio.get_running_loop()
                prepared = await loop.run_in_executor(
                    None, self.manager.prepare, obj
                )
                self._memo.put(body, prepared, wait)
            else:
                prepared, wait = hit
            cached = await self.manager.cache_lookup(prepared)
            job = self.manager.admit(prepared, cached=cached)
        except Draining as exc:
            return 503, {"error": str(exc)}, ""
        except QueueFull as exc:
            return 429, {"error": str(exc)}, ""
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            return 400, {"error": f"bad request: {type(exc).__name__}: {exc}"}, ""
        if wait:
            await job.done.wait()
            if job.state == "failed":
                return 500, job.snapshot(), ""
            return 200, job.snapshot(), ""
        return 202, job.snapshot(), ""
