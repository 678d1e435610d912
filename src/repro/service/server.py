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

The HTTP layer is stdlib-only (``asyncio.start_server`` plus a minimal
HTTP/1.1 parser): one request per connection, JSON in, JSON out.

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
import signal
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs

from repro.errors import ReproError
from repro.obs.trace import Tracer
from repro.parallel.mp_backend import SolverPool
from repro.service import httpwire
from repro.service.cache import ResultCache
from repro.service.httpwire import BadRequest as _BadRequest
from repro.service.jobs import Draining, JobManager, PreparedRequest, QueueFull
from repro.testing import faults

__all__ = ["SolverServer"]

#: Seconds an idle or trickling client may take to deliver one request
#: before the connection is dropped (bounds handler-task lifetime).
_READ_TIMEOUT = httpwire.READ_TIMEOUT
#: Seconds the drain waits for the cache thread to flush and close
#: before abandoning a wedged store (see SolverServer.drain).
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


class SolverServer:
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
        self.host = host
        self.port = port  # rebound to the real port after bind (port=0)
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
        self.ready = threading.Event()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._drained = False
        self._memo = _PreparedMemo()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the pool + runners."""
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
        self._loop = asyncio.get_running_loop()
        if self._stop is None:
            self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.ready.set()

    async def drain(self) -> None:
        """Graceful stop: finish accepted jobs, flush, release resources."""
        if self._drained:
            return
        self._drained = True
        assert self.manager is not None and self.pool is not None
        await self.manager.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
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
        self.ready.clear()

    async def _main(self, *, install_signals: bool) -> None:
        # The handlers go in before start() sets ``ready``: a supervisor
        # may signal the moment it reads the readiness line, and that
        # SIGTERM must drain the daemon, not kill it mid-start.
        self._stop = asyncio.Event()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self._stop.set)
                except (NotImplementedError, ValueError, RuntimeError):
                    pass  # non-main thread or unsupported platform
        await self.start()
        await self._stop.wait()
        await self.drain()

    def run(self, *, install_signals: bool = True) -> dict[str, Any]:
        """Serve until :meth:`shutdown` or SIGTERM/SIGINT, then drain.

        Returns the final metrics snapshot (the drain report).
        """
        asyncio.run(self._main(install_signals=install_signals))
        assert self.manager is not None
        return self.manager.metrics()

    def serve_in_thread(self) -> threading.Thread:
        """Start :meth:`run` on a daemon thread; block until ready."""
        thread = threading.Thread(
            target=self.run, kwargs={"install_signals": False}, daemon=True
        )
        thread.start()
        if not self.ready.wait(timeout=30):
            raise RuntimeError("server failed to become ready within 30s")
        return thread

    def shutdown(self) -> None:
        """Request drain + stop from any thread (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)

    # -- the HTTP layer ------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._respond(reader)
        except Exception as exc:  # noqa: BLE001 - never kill the acceptor
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        # Backpressure responses advertise when to come back, so
        # well-behaved clients (ServerClient included) retry instead of
        # hammering or giving up.  The hint is adaptive: queue depth
        # times recent solve time, not a fixed constant that would have
        # the whole rejected burst re-arrive while the queue is still
        # full (see JobManager.retry_after_hint).
        retry_after = ""
        if status in (429, 503):
            hint = (
                self.manager.retry_after_hint() if self.manager is not None
                else 1
            )
            retry_after = f"Retry-After: {hint}\r\n"
        await httpwire.deliver_response(
            writer,
            httpwire.render_response(
                status, payload, extra_headers=retry_after
            ),
        )

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any] | str]:
        """Parse one request and route it; returns (status, JSON body)."""
        try:
            method, path, body = await asyncio.wait_for(
                self._read_request(reader), timeout=_READ_TIMEOUT
            )
        except asyncio.TimeoutError:
            return 408, {"error": f"request not received in {_READ_TIMEOUT}s"}
        except _BadRequest as exc:
            return exc.status, {"error": str(exc)}
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError):
            # ValueError covers StreamReader's oversized-line (64 KiB)
            # conversion of LimitOverrunError inside readline().
            return 400, {"error": "unreadable request"}
        return await self._route(method, path, body)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        """Read one HTTP/1.1 request (shared wire dialect)."""
        return await httpwire.read_request(reader)

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any] | str]:
        assert self.manager is not None
        path, _, query = path.partition("?")
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            status = "draining" if self.manager.draining else "ok"
            deep = parse_qs(query).get("deep", ["0"])[-1]
            if deep in ("1", "true"):
                return await self._deep_health(status)
            return 200, {"status": status}
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}
            fmt = parse_qs(query).get("format", ["json"])[-1]
            if fmt == "prometheus":
                return 200, self.manager.prometheus()
            if fmt != "json":
                return 400, {"error": f"unknown format {fmt!r}"}
            return 200, self.manager.metrics()
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return 405, {"error": "use GET"}
            job = self.manager.get(path.removeprefix("/v1/jobs/"))
            if job is None:
                return 404, {"error": "unknown job id"}
            return 200, job.snapshot()
        if path == "/v1/solve":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._solve(body)
        return 404, {"error": f"no route {method} {path}"}

    async def _deep_health(
        self, status: str
    ) -> tuple[int, dict[str, Any]]:
        """``/healthz?deep=1``: readiness, not mere liveness.

        The shallow probe proves the event loop answers; this one
        proves the daemon can *do its job* — the solver pool's worker
        processes are alive (non-blocking inspection, so a busy pool
        stays green) and the result store accepts writes (a scratch
        write on the cache thread, bounded so a wedged disk reads as
        unhealthy).  A draining daemon is deep-unhealthy by definition:
        it answers but accepts no work, which is exactly what the fleet
        router needs to know to stop routing here.
        """
        assert self.manager is not None
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
        return (200 if verdict == "ok" else 503), payload

    async def _solve(self, body: bytes) -> tuple[int, dict[str, Any]]:
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
                return 400, {"error": f"invalid JSON body: {exc}"}
            if not isinstance(obj, dict):
                return 400, {"error": "request body must be a JSON object"}
            wait = obj.get("wait", True)
            if not isinstance(wait, bool):
                return 400, {"error": f"wait must be a boolean, got {wait!r}"}
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
            return 503, {"error": str(exc)}
        except QueueFull as exc:
            return 429, {"error": str(exc)}
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            return 400, {"error": f"bad request: {type(exc).__name__}: {exc}"}
        if wait:
            await job.done.wait()
            if job.state == "failed":
                return 500, job.snapshot()
            return 200, job.snapshot()
        return 202, job.snapshot()
