"""Chaos tier: fault injection against the live daemon.

Each test arms :mod:`repro.testing.faults` (via ``REPRO_FAULTS``) and
drives a real :class:`SolverServer` over HTTP, asserting the
availability contract from DESIGN.md's failure model:

* every accepted request is answered — degraded is allowed, hung is not;
* a worker death degrades the answer and rebuilds the pool, it never
  takes the daemon down;
* cache faults cost durability or a hit, never a request;
* after a drain, ``accepted == completed`` and nothing is in flight.

Worker-side faults (``solve-*``) must be armed *before* the server is
created: pool workers inherit the environment at fork, so a spec set
afterwards never reaches them.  Parent-side faults (``cache-*``) can be
armed at any time.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time
from contextlib import contextmanager

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.io import graph_to_dict
from repro.service.batch import SolveOptions
from repro.service.cache import ResultCache
from repro.service.client import ServerClient
from repro.service.server import SolverServer
from repro.testing import faults

pytestmark = [pytest.mark.chaos, pytest.mark.slow]


def graph_for(seed: int, v: int = 9):
    return paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=1.0, seed=seed))


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Never leak an armed fault spec into other tests."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    yield
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


@contextmanager
def daemon(**kwargs):
    """A live daemon on a background thread, torn down via drain."""
    kwargs.setdefault("solver_workers", 1)
    kwargs.setdefault("queue_limit", 16)
    kwargs.setdefault("options", SolveOptions(max_expansions=50_000))
    server = SolverServer(port=0, **kwargs)
    thread = server.serve_in_thread()
    try:
        yield server, ServerClient(port=server.port, retries=3, backoff=0.05)
    finally:
        server.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive()


def assert_drained(metrics):
    """The zero-hung-jobs contract: every accepted request reached a
    terminal state and nothing is left queued or running."""
    jobs = metrics["jobs"]
    assert jobs["accepted"] == jobs["completed"] + jobs["failed"]
    assert metrics["queue_depth"] == 0
    assert metrics["running"] == 0
    assert metrics["in_flight"] == 0


class TestWorkerCrash:
    @pytest.mark.timeout(120)
    def test_crash_degrades_answer_and_rebuilds_pool(self, monkeypatch):
        """A pool worker hard-dying mid-solve (the OOM-kill stand-in):
        the victim request gets a degraded 200, the pool is rebuilt,
        and the next request is solved exactly again."""
        monkeypatch.setenv(faults.ENV_VAR, "solve-crash@2")
        with daemon() as (server, client):
            ok = client.solve(graph_for(1), pes=3)
            assert ok["result"]["certificate"] == "proven"

            hit = client.solve(graph_for(2), pes=3)  # 2nd hit: worker dies
            assert hit["status"] == "done"
            assert hit["result"]["certificate"] == "degraded"
            assert "reason" in hit["result"]

            after = client.solve(graph_for(3), pes=3)  # rebuilt pool serves
            assert after["result"]["certificate"] == "proven"

            m = client.metrics()
            assert m["failures"]["broken_pool"] == 1
            assert m["jobs"]["pool_rebuilds"] == 1
            assert m["jobs"]["degraded"] == 1
            assert m["jobs"]["failed"] == 0
            final = server.manager.metrics()
        assert_drained(final)

    @pytest.mark.timeout(120)
    def test_worker_exception_degrades_without_pool_rebuild(self, monkeypatch):
        """A worker *raising* (bug, not death) is cheaper: degrade the
        answer, count it, keep the pool — no rebuild churn."""
        monkeypatch.setenv(faults.ENV_VAR, "solve-error@1")
        with daemon() as (server, client):
            hit = client.solve(graph_for(4), pes=3)
            assert hit["status"] == "done"
            assert hit["result"]["certificate"] == "degraded"
            assert "injected" in hit["result"]["reason"]

            after = client.solve(graph_for(5), pes=3)
            assert after["result"]["certificate"] == "proven"

            m = client.metrics()
            assert m["failures"]["worker_error"] == 1
            assert m["jobs"]["pool_rebuilds"] == 0
            assert m["jobs"]["failed"] == 0
            final = server.manager.metrics()
        assert_drained(final)


def solve_to_eof(server, graph, *, timeout: float = 5.0) -> dict:
    """POST one solve over a raw socket and read until the daemon
    closes the connection; a missing EOF raises ``TimeoutError``."""
    body = json.dumps({"graph": graph_to_dict(graph), "pes": 3}).encode()
    head = (f"POST /v1/solve HTTP/1.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    with socket.create_connection((server.host, server.port),
                                  timeout=timeout) as sock:
        sock.sendall(head + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return json.loads(b"".join(chunks).partition(b"\r\n\r\n")[2])


class TestRebuiltPoolSockets:
    @pytest.mark.timeout(120)
    def test_first_solve_after_a_rebuild_reaches_eof(self):
        """The executor a rebuild swaps in forks its workers on the next
        request, while that request's connection is open.  A worker
        must not keep the connection alive: a client reading to EOF
        gets it as soon as the daemon answers."""
        with daemon() as (server, client):
            assert solve_to_eof(server, graph_for(21))["status"] == "done"
            for pid in list(server.pool.executor._processes):
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not server.pool.liveness():
                assert time.monotonic() < deadline, "worker death unnoticed"
                time.sleep(0.01)
            victim = solve_to_eof(server, graph_for(22))
            assert victim["result"]["certificate"] == "degraded"
            for seed in (23, 24):
                after = solve_to_eof(server, graph_for(seed))
                assert after["result"]["certificate"] == "proven"
            m = client.metrics()
            assert m["jobs"]["pool_rebuilds"] == 1
            final = server.manager.metrics()
        assert_drained(final)


class TestCacheFaults:
    @pytest.mark.timeout(120)
    def test_cache_errors_never_fail_a_request(self, monkeypatch):
        """A failing cache read degrades to a miss; a failing write
        costs durability.  Both are counted, neither loses the job."""
        with daemon(cache=ResultCache()) as (server, client):
            monkeypatch.setenv(faults.ENV_VAR, "cache-get-error@1")
            out = client.solve(graph_for(6), pes=3)
            assert out["result"]["certificate"] == "proven"
            errors_after_get = client.metrics()["jobs"]["cache_errors"]
            assert errors_after_get >= 1

            monkeypatch.setenv(faults.ENV_VAR, "cache-put-error@1")
            out = client.solve(graph_for(7), pes=3)
            assert out["result"]["certificate"] == "proven"
            m = client.metrics()
            assert m["jobs"]["cache_errors"] > errors_after_get
            assert m["jobs"]["failed"] == 0
            final = server.manager.metrics()
        assert_drained(final)

    @pytest.mark.timeout(120)
    def test_slow_cache_does_not_wedge_the_event_loop(self, monkeypatch):
        """Cache I/O is routed off the loop: with a cache op sleeping a
        full second, /healthz must still answer immediately."""
        with daemon(cache=ResultCache()) as (server, client):
            monkeypatch.setenv(faults.ENV_VAR, "cache-slow:1.0")
            job_id = client.submit(graph_for(8), pes=3)  # hits the slow get
            t0 = time.perf_counter()
            assert client.healthz() == {"status": "ok"}
            assert time.perf_counter() - t0 < 0.8
            snapshot = client.wait(job_id, timeout=60)
            assert snapshot["status"] == "done"
            final = server.manager.metrics()
        assert_drained(final)


class TestDrainUnderFaults:
    @pytest.mark.timeout(180)
    def test_every_accepted_request_is_answered(self, monkeypatch):
        """The acceptance scenario: a burst of async submissions with a
        worker crash armed mid-burst; after the dust settles every
        accepted job is terminal (degraded allowed, hung forbidden) and
        the books balance on drain."""
        monkeypatch.setenv(faults.ENV_VAR, "solve-crash@3")
        with daemon(solver_workers=2) as (server, client):
            job_ids = [
                client.submit(graph_for(seed), pes=3) for seed in range(10, 16)
            ]
            snapshots = [client.wait(jid, timeout=120) for jid in job_ids]
            statuses = {s["status"] for s in snapshots}
            assert statuses <= {"done"}  # answered — none hung, none failed
            certs = [s["result"]["certificate"] for s in snapshots]
            assert all(c in ("proven", "epsilon", "budget", "degraded")
                       for c in certs)
            final = server.manager.metrics()
        assert_drained(final)
        assert final["jobs"]["failed"] == 0
