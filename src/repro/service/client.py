"""Small blocking client for the solver daemon (stdlib ``http.client``).

The daemon speaks plain JSON-over-HTTP, so any HTTP client works; this
helper exists so library code, tests, and the benchmark harness share
one correct implementation of the request schema::

    from repro.service.client import ServerClient

    client = ServerClient(port=8080)
    out = client.solve(graph, pes=4)          # blocks until solved
    print(out["result"]["makespan"])

    job_id = client.submit(graph, pes=4)      # fire and forget
    out = client.wait(job_id)                 # poll until done

The server closes every connection after one response, so each call
opens a fresh connection — fine on localhost, and it keeps the client
free of pooling state.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any

from repro.graph.io import graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.system.processors import ProcessorSystem, system_to_dict

__all__ = ["ServerClient", "ServerError", "DaemonUnavailable"]

#: Longest a single retry backoff sleeps (seconds), Retry-After included.
_BACKOFF_CAP = 2.0


class ServerError(Exception):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, payload: dict[str, Any]):
        self.status = status
        self.payload = payload
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")


class DaemonUnavailable(ConnectionError):
    """The daemon could not be reached (after retries).

    Subclasses :class:`ConnectionError` so pre-existing handlers keep
    working; carries the last transport error as ``__cause__``.
    """


class ServerClient:
    """Talk to a running ``repro serve`` daemon.

    Checked calls (``solve``, ``submit``, ``metrics``, ...) retry
    transient failures with capped exponential backoff plus jitter:
    transport errors (connection refused/reset, daemon restarting) and
    backpressure statuses (429 queue-full, 503 draining — honoring the
    server's ``Retry-After`` hint).  ``retries=0`` disables retrying.
    The raw :meth:`request` primitive never retries.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8080, *,
        timeout: float = 300.0, retries: int = 3, backoff: float = 0.1,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    # -- transport -----------------------------------------------------------

    def request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """One HTTP round-trip, no retries; ``(status, decoded JSON)``."""
        status, data, _ = self._request_raw(method, path, body)
        return status, data

    def _request_raw(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """One round-trip returning ``(status, JSON, lowercase headers)``."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = json.loads(response.read().decode() or "{}")
            got = {k.lower(): v for k, v in response.getheaders()}
            return response.status, data, got
        finally:
            conn.close()

    def _sleep_before_retry(
        self, attempt: int, retry_after: str | None
    ) -> None:
        """Exponential backoff with full jitter; ``Retry-After`` wins
        when the server sent one (still capped and jittered so a herd
        of clients does not return in lockstep)."""
        delay = min(self.backoff * (2 ** attempt), _BACKOFF_CAP)
        if retry_after is not None:
            try:
                delay = min(max(delay, float(retry_after)), _BACKOFF_CAP)
            except ValueError:
                pass
        time.sleep(delay * (0.5 + 0.5 * random.random()))

    def _checked(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Round-trip with retries; raises :class:`ServerError` on a
        final non-2xx and :class:`DaemonUnavailable` when the daemon
        never answered."""
        last_exc: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                status, data, headers = self._request_raw(method, path, body)
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                last_exc = exc
                if attempt >= self.retries:
                    break
                self._sleep_before_retry(attempt, None)
                continue
            if status in (429, 503) and attempt < self.retries:
                self._sleep_before_retry(attempt, headers.get("retry-after"))
                continue
            if status >= 300:
                raise ServerError(status, data)
            return data
        raise DaemonUnavailable(
            f"daemon at {self.host}:{self.port} unreachable after "
            f"{self.retries + 1} attempt(s): "
            f"{type(last_exc).__name__}: {last_exc}"
        ) from last_exc

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return self._checked("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._checked("GET", "/metrics")

    def job(self, job_id: str) -> dict[str, Any]:
        return self._checked("GET", f"/v1/jobs/{job_id}")

    def solve_request(
        self,
        graph: TaskGraph,
        system: ProcessorSystem | None = None,
        *,
        pes: int | None = None,
        name: str | None = None,
        wait: bool = True,
        **options: Any,
    ) -> dict[str, Any]:
        """Build a ``POST /v1/solve`` body from library objects.

        ``options`` may carry the per-request solver overrides the
        server accepts: ``deadline``, ``epsilon``, ``max_expansions``,
        ``mode``, ``require_proven``.
        """
        body: dict[str, Any] = {"graph": graph_to_dict(graph), "wait": wait}
        if system is not None:
            body["system"] = system_to_dict(system)
        if pes is not None:
            body["pes"] = pes
        if name is not None:
            body["name"] = name
        body.update(options)
        return body

    def solve(
        self,
        graph: TaskGraph,
        system: ProcessorSystem | None = None,
        **kwargs: Any,
    ) -> dict[str, Any]:
        """Solve synchronously; returns the finished job snapshot.

        The snapshot's ``"result"`` key holds makespan, certificate,
        algorithm, and the ``[[node, pe, start], ...]`` assignment.
        """
        body = self.solve_request(graph, system, wait=True, **kwargs)
        return self._checked("POST", "/v1/solve", body)

    def submit(
        self,
        graph: TaskGraph,
        system: ProcessorSystem | None = None,
        **kwargs: Any,
    ) -> str:
        """Enqueue asynchronously; returns the job id to poll."""
        body = self.solve_request(graph, system, wait=False, **kwargs)
        return self._checked("POST", "/v1/solve", body)["id"]

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll: float = 0.05,
        poll_cap: float = 1.0,
    ) -> dict[str, Any]:
        """Poll ``GET /v1/jobs/<id>`` until the job leaves the queue.

        The poll interval starts at ``poll`` and grows 1.5x per round
        up to ``poll_cap``, so long solves do not hammer the daemon
        while short ones still return promptly.  Backpressure answers
        (429/503 — e.g. the daemon started draining mid-poll, or a
        router briefly has no healthy shard) honor the server's
        ``Retry-After`` hint exactly like :meth:`solve` does, instead
        of surfacing as errors.  Raises :class:`DaemonUnavailable`
        after ``retries + 1`` consecutive transport failures (daemon
        died mid-poll), :class:`ServerError` on any other non-2xx, and
        :class:`TimeoutError` when the job outlives ``timeout``.
        """
        t0 = time.monotonic()
        interval = poll
        transport_failures = 0
        last_state = "unknown"
        last_exc: Exception | None = None
        path = f"/v1/jobs/{job_id}"
        while True:
            try:
                status, data, headers = self._request_raw("GET", path)
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                last_exc = exc
                transport_failures += 1
                if transport_failures > self.retries:
                    raise DaemonUnavailable(
                        f"daemon at {self.host}:{self.port} unreachable after "
                        f"{transport_failures} attempt(s): "
                        f"{type(exc).__name__}: {exc}"
                    ) from last_exc
                self._sleep_before_retry(transport_failures - 1, None)
                continue
            transport_failures = 0
            if status in (429, 503):
                if time.monotonic() - t0 > timeout:
                    raise TimeoutError(
                        f"job {job_id} still {last_state} after {timeout}s"
                    )
                self._sleep_before_retry(0, headers.get("retry-after"))
                continue
            if status >= 300:
                raise ServerError(status, data)
            last_state = data["status"]
            if last_state in ("done", "failed"):
                return data
            if time.monotonic() - t0 > timeout:
                raise TimeoutError(
                    f"job {job_id} still {last_state} after {timeout}s"
                )
            time.sleep(interval)
            interval = min(interval * 1.5, poll_cap)
