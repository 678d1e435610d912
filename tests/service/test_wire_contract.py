"""One wire contract for both HTTP front-ends.

The daemon (:class:`SolverServer`) and the router (:class:`ShardRouter`)
share one listener shell (:class:`repro.service.httpwire.HttpService`),
so framing errors, the shared endpoints' method and query rules, and the
backpressure headers must read the same on both.  Every test here runs
once against a live daemon and once against a live router in front of a
stub shard, speaking raw bytes over a socket so malformed requests reach
the listener exactly as sent.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.io import graph_to_dict
from repro.service import httpwire
from repro.service.router import Shard, ShardRouter
from repro.service.server import SolverServer


class _StubShard:
    """A shard on its own thread that answers every request 200."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.server = self.loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0)
        )
        self.port = self.server.sockets[0].getsockname()[1]
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    @staticmethod
    async def _handle(reader, writer) -> None:
        await httpwire.read_request(reader)
        await httpwire.deliver_response(
            writer, httpwire.render_response(200, {"status": "ok"})
        )

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.server.close()
        self.loop.close()


@pytest.fixture(scope="module", params=["daemon", "router"])
def service(request):
    stub = None
    if request.param == "daemon":
        svc = SolverServer(port=0, solver_workers=1, warm=False)
    else:
        stub = _StubShard()
        svc = ShardRouter([Shard("s0", "127.0.0.1", stub.port)], port=0,
                          probe_interval=0)
    thread = svc.serve_in_thread()
    yield svc
    svc.shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if stub is not None:
        stub.close()


def exchange(service, raw: bytes, *, half_close: bool = True):
    """Send ``raw``, read the whole answer: (status, headers, body)."""
    with socket.create_connection((service.host, service.port),
                                  timeout=30) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)
    }
    return int(status_line.split()[1]), headers, json.loads(body)


def request(method: str, path: str, body: bytes = b"") -> bytes:
    return (f"{method} {path} HTTP/1.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def solve_body() -> bytes:
    graph = paper_random_graph(PaperGraphSpec(num_nodes=6, ccr=1.0, seed=3))
    return json.dumps({"graph": graph_to_dict(graph), "pes": 2}).encode()


class TestFraming:
    def test_negative_content_length_400(self, service):
        status, _, _ = exchange(
            service, b"POST /v1/solve HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
        assert status == 400

    def test_non_numeric_content_length_400(self, service):
        status, _, data = exchange(
            service, b"POST /v1/solve HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
        assert status == 400 and "Content-Length" in data["error"]

    def test_malformed_request_line_400(self, service):
        status, _, data = exchange(service, b"GARBAGE\r\n\r\n")
        assert status == 400 and "request line" in data["error"]

    def test_too_many_header_lines_400(self, service):
        headers = b"".join(
            b"X-Filler-%d: 1\r\n" % i for i in range(httpwire.MAX_HEADERS + 1)
        )
        status, _, data = exchange(
            service, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
        assert status == 400 and "header lines" in data["error"]

    def test_body_over_the_limit_413(self, service):
        status, _, _ = exchange(
            service,
            b"POST /v1/solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % (httpwire.MAX_BODY + 1),
        )
        assert status == 413

    def test_half_sent_request_408(self, service, monkeypatch):
        monkeypatch.setattr(httpwire, "READ_TIMEOUT", 0.2)
        status, _, data = exchange(
            service,
            b"POST /v1/solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n{",
            half_close=False,
        )
        assert status == 408 and "not received" in data["error"]


class TestSharedEndpoints:
    @pytest.mark.parametrize("method, path", [
        ("POST", "/healthz"), ("POST", "/healthz?deep=1"),
        ("POST", "/metrics"), ("DELETE", "/v1/jobs/x"), ("GET", "/v1/solve"),
    ])
    def test_wrong_method_405(self, service, method, path):
        status, _, data = exchange(service, request(method, path))
        assert status == 405 and data["error"].startswith("use ")

    def test_unknown_metrics_format_400(self, service):
        status, _, data = exchange(service, request("GET", "/metrics?format=xml"))
        assert status == 400 and "xml" in data["error"]

    def test_unknown_route_404(self, service):
        status, _, _ = exchange(service, request("GET", "/nope"))
        assert status == 404

    def test_503_while_draining_carries_retry_after(self, service):
        flag = service.manager if isinstance(service, SolverServer) else service
        flag.draining = True
        try:
            status, headers, data = exchange(
                service, request("POST", "/v1/solve", solve_body()))
        finally:
            flag.draining = False
        assert status == 503 and "draining" in data["error"]
        assert int(headers["retry-after"]) >= 1
