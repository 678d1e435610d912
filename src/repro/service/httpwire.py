"""The HTTP/1.1 front-end shell shared by the daemon and the fleet router.

The solver daemon (:mod:`repro.service.server`) and the shard router
(:mod:`repro.service.router`) speak the same deliberately-minimal
dialect: stdlib asyncio streams, one request per connection, JSON (or
pre-rendered Prometheus text) out, ``Connection: close`` always.  This
module is that dialect in one place — request parsing with the same
limits and error statuses on both listeners, response rendering, the
tiny async client the router uses to forward requests and probe shard
health — and :class:`HttpService`, the listener lifecycle, request loop
and endpoint table both front-ends subclass.

Nothing here knows about jobs, shards, or solving: the subclasses fill
in what each endpoint means.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Any, Awaitable, Callable, NoReturn
from urllib.parse import parse_qs

__all__ = [
    "MAX_BODY",
    "MAX_HEADERS",
    "READ_TIMEOUT",
    "STATUS_TEXT",
    "BadRequest",
    "reject_nonfinite",
    "read_request",
    "render_response",
    "deliver_response",
    "fetch",
    "Reply",
    "HttpService",
]

#: Largest accepted request body (a v=1000 dense graph is ~10 MB).
MAX_BODY = 32 * 1024 * 1024
#: Header-line cap per request.
MAX_HEADERS = 100
#: Seconds an idle or trickling client may take to deliver one request
#: before the connection is dropped (bounds handler-task lifetime).
READ_TIMEOUT = 30.0

STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


def reject_nonfinite(literal: str) -> NoReturn:
    """``json.loads`` ``parse_constant`` hook of both listeners.

    Python's parser accepts the non-standard ``NaN``/``Infinity``
    literals; a request carrying one is refused as invalid JSON (a 400)
    instead of reaching the model as a non-finite number.
    """
    raise ValueError(f"non-finite literal {literal} is not valid JSON")


class BadRequest(Exception):
    """Unparseable request; carries the HTTP status to answer with."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body: int = MAX_BODY,
    max_headers: int = MAX_HEADERS,
) -> tuple[str, str, bytes]:
    """Read one HTTP/1.1 request: line, headers, body."""
    request_line = await reader.readline()
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise BadRequest("malformed request line")
    method, path = parts[0].upper(), parts[1]

    content_length = 0
    for _ in range(max_headers):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise BadRequest("bad Content-Length") from None
            if content_length < 0:
                raise BadRequest("bad Content-Length")
    else:
        raise BadRequest(f"more than {max_headers} header lines")
    if content_length > max_body:
        raise BadRequest(f"body exceeds {max_body} bytes", status=413)
    body = (
        await reader.readexactly(content_length) if content_length else b""
    )
    return method, path, body


def render_response(
    status: int,
    payload: dict[str, Any] | str,
    *,
    extra_headers: str = "",
) -> bytes:
    """Serialize one response: head + body, ready to write.

    A ``str`` payload is pre-rendered text (the Prometheus exposition
    endpoint); everything else is JSON.  ``extra_headers`` is a
    pre-formatted CRLF-terminated block (e.g. ``"Retry-After: 5\\r\\n"``).
    """
    if isinstance(payload, str):
        body = payload.encode()
        ctype = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload).encode()
        ctype = "application/json"
    head = (
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra_headers}"
        f"Connection: close\r\n\r\n"
    ).encode()
    return head + body


async def deliver_response(
    writer: asyncio.StreamWriter, raw: bytes
) -> None:
    """Write a rendered response and close, absorbing a gone client."""
    try:
        writer.write(raw)
        await writer.drain()
    except (ConnectionError, BrokenPipeError):
        pass  # client went away mid-response
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


async def fetch(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    *,
    timeout: float = 30.0,
) -> tuple[int, dict[str, str], bytes]:
    """One async HTTP round-trip: ``(status, lowercase headers, body)``.

    The router's forwarding/probing primitive.  Matches the servers'
    one-request-per-connection dialect: fresh connection, explicit
    ``Connection: close``, body read to Content-Length (or EOF when
    the peer sent none).  Transport failures surface as ``OSError`` /
    ``asyncio.TimeoutError`` for the caller's failover logic; this
    never retries on its own.
    """

    async def _roundtrip() -> tuple[int, dict[str, str], bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = body or b""
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            writer.write(head + payload)
            await writer.drain()

            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line from {host}:{port}: "
                    f"{status_line[:80]!r}"
                )
            status = int(parts[1])

            headers: dict[str, str] = {}
            for _ in range(MAX_HEADERS):
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = headers.get("content-length")
            if length is not None and length.isdigit():
                data = await reader.readexactly(int(length))
            else:
                data = await reader.read()
            return status, headers, data
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass  # response already read; peer reset on close

    return await asyncio.wait_for(_roundtrip(), timeout=timeout)


#: One answer: status, JSON body (or pre-rendered text), and a
#: pre-formatted CRLF-terminated block of extra headers (usually "").
Reply = tuple[int, dict[str, Any] | str, str]


class HttpService:
    """The listener shell of both front-ends.

    It owns the lifecycle, the per-connection loop and the four
    endpoints both services expose — ``/healthz[?deep=1]``,
    ``/metrics[?format=json|prometheus]``, ``/v1/jobs/<ref>`` and
    ``/v1/solve`` — with one set of 405/404/400 rules.  A subclass
    supplies the hooks declared below.
    """

    # -- what a subclass supplies ----------------------------------------------
    # The connection callback start() binds.  Each subclass pins
    # ``_handle = HttpService._serve`` in its own body: the benchmark
    # harness times a front-end by replacing the ``_handle`` in that
    # class's ``__dict__``, and start() reads ``self._handle`` so the
    # replacement is what the listener calls.
    _handle: Callable[..., Awaitable[None]]
    _open: Callable[[], Awaitable[None]]  # start up, before the bind
    _quiesce: Callable[[], Awaitable[None]]  # first drain step
    _retry_after_hint: Callable[[], int]  # seconds, for 429/503
    metrics: Callable[[], dict[str, Any]]  # /metrics JSON, drain report
    _prometheus: Callable[[], Awaitable[str]]  # /metrics?format=prometheus
    _health: Callable[[bool], Awaitable[Reply]]  # /healthz[?deep=1]
    _job: Callable[[str], Awaitable[Reply]]  # GET /v1/jobs/<ref>
    _solve: Callable[[bytes], Awaitable[Reply]]  # POST /v1/solve

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port  # rebound to the real port after bind (port=0)
        self.ready = threading.Event()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._drained = False

    async def _release(self) -> None:
        """Last drain step, after the listener has closed."""

    def _extra_route(self, method: str, path: str) -> Reply:
        """Routes beyond the shared four; the default has none."""
        return 404, {"error": f"no route {method} {path}"}, ""

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Start the service's machinery, then bind the listener."""
        self._loop = asyncio.get_running_loop()
        if self._stop is None:
            self._stop = asyncio.Event()
        await self._open()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.ready.set()

    async def drain(self) -> None:
        """Graceful stop: quiesce, close the listener, release."""
        if self._drained:
            return
        self._drained = True
        await self._quiesce()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._release()
        self.ready.clear()

    async def _main(self, *, install_signals: bool) -> None:
        # The handlers go in before start() sets ``ready``: a supervisor
        # may signal the moment it reads the readiness line, and that
        # SIGTERM must drain the service, not kill it mid-start.
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
        return self.metrics()

    def serve_in_thread(self) -> threading.Thread:
        """Start :meth:`run` on a daemon thread; block until ready."""
        thread = threading.Thread(
            target=self.run, kwargs={"install_signals": False}, daemon=True
        )
        thread.start()
        if not self.ready.wait(timeout=30):
            raise RuntimeError(
                f"{type(self).__name__} failed to become ready within 30s"
            )
        return thread

    def shutdown(self) -> None:
        """Request drain + stop from any thread (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)

    # -- the request loop ------------------------------------------------------

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read, route, answer, close."""
        try:
            status, payload, headers = await self._respond(reader)
        except Exception as exc:  # noqa: BLE001 - never kill the acceptor
            status, payload, headers = (
                500, {"error": f"{type(exc).__name__}: {exc}"}, ""
            )
        # Backpressure answers say when to come back, so well-behaved
        # clients (ServerClient included) retry instead of hammering or
        # giving up.  A hint passed on from upstream (a shard's, through
        # the router) wins over the service's own.
        if status in (429, 503) and "retry-after" not in headers.lower():
            headers += f"Retry-After: {self._retry_after_hint()}\r\n"
        await deliver_response(
            writer, render_response(status, payload, extra_headers=headers)
        )

    async def _respond(self, reader: asyncio.StreamReader) -> Reply:
        """Read one request under :data:`READ_TIMEOUT` and route it."""
        try:
            method, path, body = await asyncio.wait_for(
                read_request(reader), timeout=READ_TIMEOUT
            )
        except asyncio.TimeoutError:
            return 408, {"error": f"request not received in {READ_TIMEOUT}s"}, ""
        except BadRequest as exc:
            return exc.status, {"error": str(exc)}, ""
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError):
            # ValueError covers StreamReader's oversized-line (64 KiB)
            # conversion of LimitOverrunError inside readline().
            return 400, {"error": "unreadable request"}, ""
        return await self._route(method, path, body)

    async def _route(self, method: str, path: str, body: bytes) -> Reply:
        """The shared endpoint table; anything else is :meth:`_extra_route`."""
        path, _, query = path.partition("?")
        if path == "/v1/solve":
            if method != "POST":
                return 405, {"error": "use POST"}, ""
            return await self._solve(body)
        job = path.startswith("/v1/jobs/")
        if not job and path not in ("/healthz", "/metrics"):
            return self._extra_route(method, path)
        if method != "GET":
            return 405, {"error": "use GET"}, ""
        if job:
            return await self._job(path.removeprefix("/v1/jobs/"))
        if path == "/healthz":
            deep = parse_qs(query).get("deep", ["0"])[-1]
            return await self._health(deep in ("1", "true"))
        fmt = parse_qs(query).get("format", ["json"])[-1]
        if fmt == "prometheus":
            return 200, await self._prometheus(), ""
        if fmt != "json":
            return 400, {"error": f"unknown format {fmt!r}"}, ""
        return 200, self.metrics(), ""
