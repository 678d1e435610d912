"""``repro route`` — the fleet front-end: consistent-hash shard router.

One ``repro serve`` daemon is one failure domain: an OOM-killed pool or
a wedged store takes every in-flight client with it.  The fleet layout
puts N shard daemons behind this router, which hashes each request's
*instance fingerprint* onto a consistent-hash ring — the service-layer
twin of the HDA* backend's ``owner_of`` state partitioning
(:func:`repro.parallel.shared.owner_of`): one owner per key, computed
by pure arithmetic every process agrees on.  Routing by fingerprint
(not by connection or round-robin) is what keeps the shard-local
machinery effective: duplicate requests land on the same shard, so its
in-flight dedupe and LRU cache see them as one problem.

The hard part is not the ring — it is surviving shards that die, hang,
or lie, without losing accepted work:

* **Health tracking** — a background loop probes every shard's
  ``/healthz?deep=1`` (pool liveness + store writability, see
  :meth:`repro.service.jobs.JobManager.deep_checks`) while forwarding
  results feed the same per-shard circuit breaker passively.
* **Circuit breaker per shard** — ``closed`` until
  ``failure_threshold`` consecutive failures, then ``open`` (no
  traffic) for a capped-exponentially-growing timeout, then
  ``half-open``: one trial request (or a healthy probe) closes it,
  a failure re-opens it with a longer timeout.
* **Failover** — when a shard is open or dead, the request walks to
  the next distinct shard on the ring (the same successor order every
  time, so failover traffic is deterministic too), with
  capped-exponential backoff between attempts.
* **Drain / rejoin** — ``POST /admin/shards/<name>/drain`` removes
  only that shard's points from the ring: keys owned by the others do
  not move (the consistent-hashing minimal-remap property), so a
  rolling restart invalidates one shard's working set, not the
  fleet's.  ``/rejoin`` restores the exact same points.

Give the shards a shared cache backend (``--cache shared:PATH``, see
:mod:`repro.service.shardcache`) and a failover replay of an
already-solved fingerprint is a warm hit on the substitute shard
instead of a fresh search.

The router is availability-first: it never converts a retryable
infrastructure fault into a client-visible error while any shard can
still answer, and when none can, it answers 503 with a ``Retry-After``
hint — the same backpressure contract the daemon itself speaks.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import signal
import threading
import time
from typing import Any, Callable
from urllib.parse import parse_qs

from repro.obs.metrics import MetricsRegistry
from repro.schedule.fingerprint import canonical_order, instance_fingerprint
from repro.service import httpwire
from repro.service.batch import item_from_request
from repro.service.httpwire import BadRequest as _BadRequest
from repro.service.portfolio import select_cost
from repro.util.hashing import MASK64, splitmix64

__all__ = ["CircuitBreaker", "HashRing", "Shard", "ShardRouter"]

#: Virtual nodes per shard on the ring.  Enough replicas smooth the
#: keyspace split (relative imbalance ~ 1/sqrt(replicas)) while keeping
#: membership changes cheap; 64 is plenty for single-digit fleets.
_DEFAULT_REPLICAS = 64

#: Circuit-breaker defaults: trip after 3 consecutive failures, stay
#: open 1s initially, doubling per re-trip up to 30s.
_FAILURE_THRESHOLD = 3
_RESET_TIMEOUT = 1.0
_MAX_RESET_TIMEOUT = 30.0

#: Failover backoff between forwarding attempts (capped exponential).
_RETRY_BASE = 0.05
_RETRY_CAP = 1.0

#: Seconds between background health probes, and the probe round-trip
#: budget (a deep probe includes a store write; see jobs._DEEP_PROBE_TIMEOUT).
_PROBE_INTERVAL = 0.5
_PROBE_TIMEOUT = 6.0

#: Default budget for one forwarded solve (matches ServerClient's).
_FORWARD_TIMEOUT = 300.0


def _ring_point(name: str, replica: int) -> int:
    """Deterministic 64-bit ring position for one virtual node.

    BLAKE2b for stable cross-process bytes (builtin ``hash`` is
    seed-randomized), splitmix64 for avalanche — the same finalizer
    the HDA* ``owner_of`` partitioner uses.
    """
    digest = hashlib.blake2b(
        f"{name}#{replica}".encode(), digest_size=8
    ).digest()
    return splitmix64(int.from_bytes(digest, "big"))


def _key_point(fingerprint: str) -> int:
    """Ring position of an instance fingerprint (32 hex chars,
    BLAKE2b-128): fold the first 64 bits through splitmix64."""
    return splitmix64(int(fingerprint[:16], 16) & MASK64)


class HashRing:
    """Consistent-hash ring with virtual nodes.

    ``owner`` maps a fingerprint to its shard; ``preference`` returns
    *all* members in ring-successor order from the key's position — the
    deterministic failover sequence.  Removing a member deletes only
    its own points: every key owned by a surviving member keeps its
    owner (minimal remap), which is why drain/rejoin only ever moves
    the drained shard's segment.
    """

    def __init__(
        self, names: "tuple[str, ...] | list[str]" = (),
        *, replicas: int = _DEFAULT_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: list[tuple[int, str]] = []
        self._members: set[str] = set()
        for name in names:
            self.add(name)

    @property
    def members(self) -> set[str]:
        return set(self._members)

    def add(self, name: str) -> None:
        if name in self._members:
            return
        self._members.add(name)
        for i in range(self.replicas):
            bisect.insort(self._points, (_ring_point(name, i), name))

    def remove(self, name: str) -> None:
        if name not in self._members:
            return
        self._members.discard(name)
        self._points = [p for p in self._points if p[1] != name]

    def owner(self, fingerprint: str) -> str | None:
        """The shard owning ``fingerprint`` (None on an empty ring)."""
        pref = self.preference(fingerprint)
        return pref[0] if pref else None

    def preference(self, fingerprint: str) -> list[str]:
        """All members, deduplicated, in successor order from the
        fingerprint's ring position: the failover walk."""
        if not self._points:
            return []
        key = _key_point(fingerprint)
        start = bisect.bisect_right(self._points, (key, "￿"))
        ordered: list[str] = []
        seen: set[str] = set()
        n = len(self._points)
        for i in range(n):
            name = self._points[(start + i) % n][1]
            if name not in seen:
                seen.add(name)
                ordered.append(name)
                if len(seen) == len(self._members):
                    break
        return ordered

    def __len__(self) -> int:
        return len(self._members)


class CircuitBreaker:
    """Per-shard circuit breaker: closed → open → half-open.

    * ``closed`` — traffic flows; ``failure_threshold`` *consecutive*
      failures trip it open.
    * ``open`` — no traffic for the current reset timeout, which grows
      2x per consecutive trip up to ``max_reset_timeout`` (a shard
      that keeps failing gets probed less and less often).
    * ``half-open`` — entered when the timeout lapses: exactly one
      trial request is let through; success closes the breaker (and
      resets the timeout), failure re-opens it at the longer timeout.

    A healthy background probe calls :meth:`record_success` too, so
    recovery does not depend on sacrificing a client request.  The
    clock is injectable for deterministic tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: int = _FAILURE_THRESHOLD,
        reset_timeout: float = _RESET_TIMEOUT,
        max_reset_timeout: float = _MAX_RESET_TIMEOUT,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if not 0 < reset_timeout <= max_reset_timeout:
            raise ValueError(
                f"need 0 < reset_timeout <= max_reset_timeout, got "
                f"{reset_timeout} / {max_reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.max_reset_timeout = max_reset_timeout
        self._clock = clock
        self._state = self.CLOSED
        self._open_until = 0.0
        self._next_timeout = reset_timeout
        self._trial_outstanding = False
        self.consecutive_failures = 0
        self.trips = 0  # closed/half-open -> open transitions

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> bool:
        """May a request be sent now?  (Mutates: an expired open period
        transitions to half-open and claims the single trial slot.)"""
        if self._state == self.CLOSED:
            return True
        if self._state == self.OPEN:
            if self._clock() >= self._open_until:
                self._state = self.HALF_OPEN
                self._trial_outstanding = True
                return True
            return False
        # half-open: one trial at a time.
        if not self._trial_outstanding:
            self._trial_outstanding = True
            return True
        return False

    def seconds_until_trial(self) -> float:
        """Time until the breaker would let a request through (0 when
        it already would) — feeds the router's Retry-After hint."""
        if self._state == self.OPEN:
            return max(0.0, self._open_until - self._clock())
        return 0.0

    def record_success(self) -> None:
        self._state = self.CLOSED
        self._trial_outstanding = False
        self.consecutive_failures = 0
        self._next_timeout = self.reset_timeout

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (
            self._state in (self.OPEN, self.HALF_OPEN)
            or self.consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._state = self.OPEN
        self._trial_outstanding = False
        self._open_until = self._clock() + self._next_timeout
        self._next_timeout = min(
            self._next_timeout * 2, self.max_reset_timeout
        )
        self.trips += 1


class Shard:
    """Router-side state for one shard daemon."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        *,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if ":" in name or "/" in name:
            # Shard names prefix job ids as "<name>:<id>", so the name
            # itself must stay colon-free to parse back unambiguously.
            raise ValueError(f"shard name may not contain ':' or '/': {name!r}")
        self.name = name
        self.host = host
        self.port = port
        # A defaulted breaker may be re-equipped by the router with its
        # configured thresholds; an explicit one is kept as-is.
        self.breaker_defaulted = breaker is None
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.draining = False
        self.healthy: bool | None = None  # None until first probe
        self.probes = 0
        self.probe_failures = 0

    @classmethod
    def from_spec(cls, spec: str, index: int, **kwargs: Any) -> "Shard":
        """Parse ``HOST:PORT[=NAME]`` (the ``--shard`` CLI grammar)."""
        addr, _, name = spec.partition("=")
        host, _, port_s = addr.rpartition(":")
        if not host or not port_s.isdigit():
            raise ValueError(f"shard spec must be HOST:PORT[=NAME], got {spec!r}")
        return cls(name or f"shard{index}", host, int(port_s), **kwargs)


class ShardRouter:
    """The asyncio front-end routing solve traffic across shards.

    Lifecycle mirrors :class:`~repro.service.server.SolverServer`
    (``start``/``drain``/``run``/``serve_in_thread``/``shutdown``), so
    tests and the soak harness drive both the same way.

    API
    ---
    ``POST /v1/solve``
        Routed by instance fingerprint with failover (see module
        docstring).  Job ids in responses come back as
        ``<shard>:<id>``.
    ``GET /v1/jobs/<shard>:<id>``
        Forwarded to the owning shard.
    ``GET /healthz``
        Router liveness plus a per-shard one-liner.  ``?deep=1``: 200
        only while at least one shard is routable.
    ``GET /metrics``
        Routing counters + per-shard breaker/health state (JSON).
        ``?format=prometheus`` additionally live-scrapes every shard
        and re-emits its key gauges with a ``shard="<name>"`` label.
    ``POST /admin/shards/<name>/drain`` / ``.../rejoin``
        Remove/restore the shard's ring segment (see module docstring).
    """

    def __init__(
        self,
        shards: "list[Shard | str]",
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        replicas: int = _DEFAULT_REPLICAS,
        probe_interval: float = _PROBE_INTERVAL,
        probe_timeout: float = _PROBE_TIMEOUT,
        deep_probes: bool = True,
        forward_timeout: float = _FORWARD_TIMEOUT,
        retry_base: float = _RETRY_BASE,
        retry_cap: float = _RETRY_CAP,
        failure_threshold: int = _FAILURE_THRESHOLD,
        reset_timeout: float = _RESET_TIMEOUT,
        max_reset_timeout: float = _MAX_RESET_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port  # rebound to the real port after bind (port=0)
        self.shards: dict[str, Shard] = {}
        for i, spec in enumerate(shards):
            shard = spec if isinstance(spec, Shard) else Shard.from_spec(spec, i)
            if shard.breaker_defaulted:
                # Equip the router's configured thresholds; a Shard
                # built with an explicit breaker keeps it (tests inject
                # fake clocks this way).
                shard.breaker = CircuitBreaker(
                    failure_threshold=failure_threshold,
                    reset_timeout=reset_timeout,
                    max_reset_timeout=max_reset_timeout,
                )
            if shard.name in self.shards:
                raise ValueError(f"duplicate shard name {shard.name!r}")
            self.shards[shard.name] = shard
        if not self.shards:
            raise ValueError("router needs at least one shard")
        self.ring = HashRing(list(self.shards), replicas=replicas)
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.deep_probes = deep_probes
        self.forward_timeout = forward_timeout
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        #: Every ``/metrics`` counter lives here; the JSON payload and
        #: the Prometheus text are both read from it.
        self.registry = MetricsRegistry(namespace="repro_router")
        self._routing = {
            key: self.registry.counter(f"{key}_total", "Routing counter.")
            for key in ("requests", "routed", "failovers", "no_shard",
                        "bad_requests", "jobs_forwarded", "probes",
                        "probe_failures")
        }
        self._forwarded, self._errors, self._trips = (
            self.registry.counter_family(family, help_text, "shard", self.shards)
            for family, help_text in (
                ("shard_forwarded_total", "Requests forwarded to the shard."),
                ("shard_errors_total", "Forwarding failures per shard."),
                ("shard_breaker_trips_total",
                 "Circuit-breaker open transitions per shard."),
            )
        )
        self.started_at = time.time()
        self.draining = False
        self.ready = threading.Event()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._health_task: asyncio.Task | None = None
        self._drained = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the health loop."""
        self._loop = asyncio.get_running_loop()
        if self._stop is None:
            self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.probe_interval > 0:
            self._health_task = asyncio.create_task(
                self._health_loop(), name="router-health"
            )
        self.ready.set()

    async def drain(self) -> None:
        """Stop accepting, stop probing.  In-flight forwards finish on
        their own tasks; the shards own the actual jobs."""
        if self._drained:
            return
        self._drained = True
        self.draining = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.ready.clear()

    async def _main(self, *, install_signals: bool) -> None:
        # The handlers go in before start() sets ``ready``: a supervisor
        # may signal the moment it reads the readiness line, and that
        # SIGTERM must drain the router, not kill it mid-start.
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

        Returns the final metrics snapshot.
        """
        asyncio.run(self._main(install_signals=install_signals))
        return self.metrics()

    def serve_in_thread(self) -> threading.Thread:
        """Start :meth:`run` on a daemon thread; block until ready."""
        thread = threading.Thread(
            target=self.run, kwargs={"install_signals": False}, daemon=True
        )
        thread.start()
        if not self.ready.wait(timeout=30):
            raise RuntimeError("router failed to become ready within 30s")
        return thread

    def shutdown(self) -> None:
        """Request drain + stop from any thread (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)

    # -- membership ----------------------------------------------------------

    def drain_shard(self, name: str) -> bool:
        """Remove one shard's points from the ring (graceful drain).

        Only the drained shard's keyspace segment remaps — every other
        fingerprint keeps its owner and therefore its shard-local
        cache/dedupe locality.  Returns False for unknown names.
        """
        shard = self.shards.get(name)
        if shard is None:
            return False
        shard.draining = True
        self.ring.remove(name)
        return True

    def rejoin_shard(self, name: str) -> bool:
        """Restore a drained shard's exact ring segment and close its
        breaker (the operator asserts it is back)."""
        shard = self.shards.get(name)
        if shard is None:
            return False
        shard.draining = False
        self.ring.add(name)
        shard.breaker.record_success()
        return True

    def routable_shards(self) -> list[str]:
        """Shards on the ring whose breaker is not open right now."""
        return [
            name for name in self.ring.members
            if self.shards[name].breaker.state != CircuitBreaker.OPEN
        ]

    # -- health probing ------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval)
            await asyncio.gather(
                *(self._probe(s) for s in list(self.shards.values()))
            )

    async def _probe(self, shard: Shard) -> None:
        """One health probe; feeds the shard's breaker both ways.

        Deep probes ask the shard to verify it can actually solve
        (pool + store), so a daemon that accepts connections but lost
        its workers goes amber here — before client traffic finds out.
        A success also closes an open breaker (recovery is driven by
        probes, not by sacrificed client requests).
        """
        path = "/healthz?deep=1" if self.deep_probes else "/healthz"
        shard.probes += 1
        self._routing["probes"].inc()
        try:
            status, _, _ = await httpwire.fetch(
                shard.host, shard.port, "GET", path,
                timeout=self.probe_timeout,
            )
        except (OSError, asyncio.TimeoutError, ConnectionError):
            status = None
        ok = status == 200
        shard.healthy = ok
        if ok:
            shard.breaker.record_success()
        else:
            shard.probe_failures += 1
            self._routing["probe_failures"].inc()
            shard.breaker.record_failure()

    # -- the HTTP layer ------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload, extra = await self._respond(reader)
        except Exception as exc:  # noqa: BLE001 - never kill the acceptor
            status, payload, extra = (
                500, {"error": f"{type(exc).__name__}: {exc}"}, ""
            )
        if status in (429, 503) and "retry-after" not in extra.lower():
            extra += f"Retry-After: {self._retry_after_hint()}\r\n"
        await httpwire.deliver_response(
            writer,
            httpwire.render_response(status, payload, extra_headers=extra),
        )

    def _retry_after_hint(self) -> int:
        """Seconds until a rejected client should retry: when the
        nearest open breaker would allow a trial (min 1s)."""
        waits = [
            s.breaker.seconds_until_trial() for s in self.shards.values()
            if not s.draining
        ]
        ready = min(waits, default=0.0)
        return max(1, int(ready + 0.999))

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any] | str, str]:
        """Parse one request and route it: (status, body, extra headers)."""
        try:
            method, path, body = await asyncio.wait_for(
                httpwire.read_request(reader), timeout=httpwire.READ_TIMEOUT
            )
        except asyncio.TimeoutError:
            return 408, {"error": "request not received in time"}, ""
        except _BadRequest as exc:
            return exc.status, {"error": str(exc)}, ""
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError):
            return 400, {"error": "unreadable request"}, ""
        return await self._route(method, path, body)

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any] | str, str]:
        path, _, query = path.partition("?")
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}, ""
            deep = parse_qs(query).get("deep", ["0"])[-1]
            return self._healthz(deep in ("1", "true"))
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}, ""
            fmt = parse_qs(query).get("format", ["json"])[-1]
            if fmt == "prometheus":
                return 200, await self._prometheus(), ""
            if fmt != "json":
                return 400, {"error": f"unknown format {fmt!r}"}, ""
            return 200, self.metrics(), ""
        if path == "/v1/solve":
            if method != "POST":
                return 405, {"error": "use POST"}, ""
            if self.draining:
                return 503, {"error": "router is draining"}, ""
            return await self._route_solve(body)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return 405, {"error": "use GET"}, ""
            return await self._route_job(path.removeprefix("/v1/jobs/"))
        if path.startswith("/admin/shards"):
            return self._admin(method, path)
        return 404, {"error": f"no route {method} {path}"}, ""

    def _healthz(
        self, deep: bool
    ) -> tuple[int, dict[str, Any], str]:
        shard_view = {
            name: {
                "state": s.breaker.state,
                "draining": s.draining,
                "healthy": s.healthy,
            }
            for name, s in sorted(self.shards.items())
        }
        routable = self.routable_shards()
        status = "draining" if self.draining else "ok"
        if deep and status == "ok" and not routable:
            status = "unhealthy"
        payload = {
            "status": status,
            "routable_shards": len(routable),
            "shards": shard_view,
        }
        return (200 if status == "ok" else 503), payload, ""

    def _admin(
        self, method: str, path: str
    ) -> tuple[int, dict[str, Any], str]:
        if path == "/admin/shards":
            if method != "GET":
                return 405, {"error": "use GET"}, ""
            return 200, self.metrics()["shards"], ""
        parts = path.removeprefix("/admin/shards/").split("/")
        if len(parts) != 2 or parts[1] not in ("drain", "rejoin"):
            return 404, {"error": f"no admin route {path}"}, ""
        if method != "POST":
            return 405, {"error": "use POST"}, ""
        name, action = parts
        done = (
            self.drain_shard(name) if action == "drain"
            else self.rejoin_shard(name)
        )
        if not done:
            return 404, {"error": f"unknown shard {name!r}"}, ""
        return 200, {
            "shard": name,
            "action": action,
            "ring_members": sorted(self.ring.members),
        }, ""

    # -- solve routing -------------------------------------------------------

    def _routing_key(self, obj: dict[str, Any]) -> str:
        """The real instance fingerprint — identical to what the shard's
        JobManager.prepare computes, ``auto`` cost resolved first — so
        duplicates of one instance always map to one shard regardless
        of node numbering or how the cost was spelled.  Pure CPU; runs
        off the event loop.
        """
        item = item_from_request(obj, name="route")
        cost = obj.get("cost") or "auto"
        if cost == "auto":
            cost = select_cost(item.graph, item.system)
        order = canonical_order(item.graph)
        return instance_fingerprint(
            item.graph, item.system, cost=cost, order=order
        )

    async def _route_solve(
        self, body: bytes
    ) -> tuple[int, dict[str, Any] | str, str]:
        self._routing["requests"].inc()
        try:
            obj = json.loads(body, parse_constant=httpwire.reject_nonfinite)
            if not isinstance(obj, dict):
                raise ValueError("request body must be a JSON object")
            loop = asyncio.get_running_loop()
            fingerprint = await loop.run_in_executor(
                None, self._routing_key, obj
            )
        except Exception as exc:  # noqa: BLE001 - any parse/shape error
            # is the client's 400; real routing errors happen below.
            self._routing["bad_requests"].inc()
            return 400, {
                "error": f"bad request: {type(exc).__name__}: {exc}"
            }, ""
        return await self._forward_solve(fingerprint, body)

    async def _forward_solve(
        self, fingerprint: str, body: bytes
    ) -> tuple[int, dict[str, Any] | str, str]:
        """Walk the preference list with breaker gating and backoff."""
        attempts = 0
        last_gateway: tuple[int, dict[str, Any]] | None = None
        for name in self.ring.preference(fingerprint):
            shard = self.shards[name]
            if shard.draining or not shard.breaker.allow():
                continue
            if attempts:
                self._routing["failovers"].inc()
                await asyncio.sleep(
                    min(self.retry_cap,
                        self.retry_base * (2 ** (attempts - 1)))
                )
            attempts += 1
            self._forwarded[name].inc()
            try:
                status, headers, data = await httpwire.fetch(
                    shard.host, shard.port, "POST", "/v1/solve", body,
                    timeout=self.forward_timeout,
                )
            except (OSError, asyncio.TimeoutError, ConnectionError) as exc:
                self._errors[name].inc()
                shard.breaker.record_failure()
                last_gateway = (502, {
                    "error": f"shard {name} unreachable: "
                             f"{type(exc).__name__}: {exc}"
                })
                continue
            if status in (500, 502, 503, 504):
                # The shard answered but could not serve (draining,
                # broken pool, unrecoverable failure): count it against
                # the breaker and try the next ring position — the
                # twin shard re-solves (or warm-hits a shared store).
                self._errors[name].inc()
                shard.breaker.record_failure()
                last_gateway = (status, self._decode(data, name))
                continue
            shard.breaker.record_success()
            if status == 429:
                # The owner is loaded, not broken.  Spilling the burst
                # onto other shards would defeat the shard-local dedupe
                # that makes the burst cheap; propagate the owner's
                # backpressure (and its adaptive Retry-After) instead.
                extra = ""
                if "retry-after" in headers:
                    extra = f"Retry-After: {headers['retry-after']}\r\n"
                return status, self._decode(data, name), extra
            self._routing["routed"].inc()
            payload = self._decode(data, name)
            if status < 300 and isinstance(payload, dict) and "id" in payload:
                payload["id"] = f"{name}:{payload['id']}"
                payload["shard"] = name
            return status, payload, ""
        if last_gateway is not None:
            status, payload = last_gateway
            return status if status == 503 else 502, payload, ""
        self._routing["no_shard"].inc()
        return 503, {
            "error": "no shard available "
                     f"({len(self.ring)} on ring, all open or draining)"
        }, ""

    @staticmethod
    def _decode(data: bytes, shard: str) -> dict[str, Any]:
        try:
            obj = json.loads(data or b"{}")
        except json.JSONDecodeError:
            return {"error": f"undecodable response from shard {shard}"}
        if not isinstance(obj, dict):
            return {"value": obj}
        return obj

    async def _route_job(
        self, job_ref: str
    ) -> tuple[int, dict[str, Any] | str, str]:
        """``GET /v1/jobs/<shard>:<id>`` — forward to the owning shard."""
        name, sep, raw_id = job_ref.partition(":")
        if not sep or name not in self.shards:
            return 404, {
                "error": f"unknown job reference {job_ref!r} "
                         "(expected <shard>:<id>)"
            }, ""
        shard = self.shards[name]
        self._routing["jobs_forwarded"].inc()
        try:
            status, _, data = await httpwire.fetch(
                shard.host, shard.port, "GET", f"/v1/jobs/{raw_id}",
                timeout=self.probe_timeout,
            )
        except (OSError, asyncio.TimeoutError, ConnectionError) as exc:
            shard.breaker.record_failure()
            return 502, {
                "error": f"shard {name} unreachable: "
                         f"{type(exc).__name__}: {exc}"
            }, ""
        payload = self._decode(data, name)
        if status < 300 and isinstance(payload, dict) and "id" in payload:
            payload["id"] = f"{name}:{payload['id']}"
            payload["shard"] = name
        return status, payload, ""

    # -- introspection -------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        """The router's ``GET /metrics`` JSON."""
        return {
            "uptime_seconds": time.time() - self.started_at,
            "draining": self.draining,
            "routing": {k: int(c.value) for k, c in self._routing.items()},
            "shards": {
                name: {
                    "host": shard.host,
                    "port": shard.port,
                    "state": shard.breaker.state,
                    "draining": shard.draining,
                    "healthy": shard.healthy,
                    "consecutive_failures": shard.breaker.consecutive_failures,
                    "breaker_trips": shard.breaker.trips,
                    "forwarded": int(self._forwarded[name].value),
                    "errors": int(self._errors[name].value),
                    "probes": shard.probes,
                    "probe_failures": shard.probe_failures,
                }
                for name, shard in sorted(self.shards.items())
            },
            "ring": {
                "members": sorted(self.ring.members),
                "replicas": self.ring.replicas,
            },
        }

    async def _prometheus(self) -> str:
        """Text exposition: :attr:`registry` with the router's
        point-in-time gauges set, plus a live scrape of every shard's
        own JSON metrics re-emitted with ``shard`` labels — one endpoint
        covers the whole fleet."""
        reg = self.registry
        for name, help_text, value in (
            ("uptime_seconds", "Seconds since the router started.",
             time.time() - self.started_at),
            ("draining", "1 while drain is in progress, else 0.", self.draining),
            ("ring_members", "Shards currently on the hash ring.", len(self.ring)),
            ("routable_shards", "Ring members whose circuit breaker is not open.",
             len(self.routable_shards())),
        ):
            reg.gauge(name, help_text).set(value)
        for name, shard in self.shards.items():
            labels = {"shard": name}
            reg.gauge("shard_open", "1 while the shard's circuit breaker is open.",
                      labels=labels).set(shard.breaker.state == CircuitBreaker.OPEN)
            reg.gauge("shard_draining", "1 while the shard is drained off the ring.",
                      labels=labels).set(shard.draining)
            self._trips[name].set(shard.breaker.trips)

        # Live scrape: each shard's own gauges, labeled.  A shard that
        # does not answer in time shows up=0 — absence is itself the
        # signal, never a broken scrape.
        async def scrape(shard: Shard) -> tuple[str, dict[str, Any] | None]:
            try:
                status, _, data = await httpwire.fetch(
                    shard.host, shard.port, "GET", "/metrics",
                    timeout=self.probe_timeout,
                )
            except (OSError, asyncio.TimeoutError, ConnectionError):
                return shard.name, None
            if status != 200:
                return shard.name, None
            obj = self._decode(data, shard.name)
            return shard.name, obj if "queue_depth" in obj else None

        scraped = dict(await asyncio.gather(
            *(scrape(s) for s in self.shards.values())
        ))
        # A fresh registry per scrape: a shard that stops answering
        # loses its series instead of keeping its last values.
        live = MetricsRegistry(namespace=reg.namespace)
        for name, obj in scraped.items():
            live.gauge("shard_up", "1 when the shard answered the metrics "
                       "scrape.", labels={"shard": name}).set(obj is not None)
        for metric, help_text in (
            ("queue_depth", "Unique jobs queued on the shard."),
            ("dedup_followers",
             "Dedupe followers riding in-flight jobs on the shard."),
            ("running", "Jobs executing on the shard's pool."),
            ("in_flight", "Unique fingerprints in flight on the shard."),
        ):
            for name, obj in scraped.items():
                if obj is not None and metric in obj:
                    live.gauge(f"shard_{metric}", help_text,
                               labels={"shard": name}).set(obj[metric])
        return reg.render_prometheus(extra=live.render_prometheus())
