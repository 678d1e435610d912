"""Shared HTTP/1.1 wire helpers for the daemon and the fleet router.

The solver daemon (:mod:`repro.service.server`) and the shard router
(:mod:`repro.service.router`) speak the same deliberately-minimal
dialect: stdlib asyncio streams, one request per connection, JSON (or
pre-rendered Prometheus text) out, ``Connection: close`` always.  This
module is that dialect in one place — request parsing with the same
limits and error statuses on both listeners, response rendering, and
the tiny async client the router uses to forward requests and probe
shard health.

Nothing here knows about jobs, shards, or solving; it is framing only.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, NoReturn

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
