"""End-to-end tests of the solver daemon over real HTTP.

A :class:`SolverServer` runs on a background thread with a real
process pool; requests go through :class:`ServerClient` (stdlib
``http.client``), so these exercise the full request path: HTTP parse →
admission → fingerprint dedupe → cache → portfolio on the pool → fan-out
→ JSON response.  The SIGTERM drain test runs ``repro serve`` as an
actual subprocess (slow tier).
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.schedule.schedule import Schedule
from repro.schedule.validate import validate_schedule
from repro.service.batch import SolveOptions
from repro.service.cache import ResultCache
from repro.service.client import ServerClient, ServerError
from repro.service.server import SolverServer
from repro.system.processors import ProcessorSystem
from tests.service.test_fingerprint import permuted


def graph_for(seed: int, v: int = 9):
    return paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=1.0, seed=seed))


@pytest.fixture(scope="module")
def server():
    srv = SolverServer(port=0, solver_workers=2, queue_limit=8,
                       options=SolveOptions(max_expansions=50_000))
    thread = srv.serve_in_thread()
    yield srv
    srv.shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def client(server):
    return ServerClient(port=server.port)


class TestEndpoints:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok"}

    def test_metrics_shape(self, client):
        m = client.metrics()
        assert {"queue_depth", "queue_limit", "running", "in_flight",
                "jobs", "engines", "cache", "cache_hit_rate",
                "pool_workers", "draining"} <= set(m)
        assert m["queue_limit"] == 8 and m["pool_workers"] == 2

    def test_unknown_route_404(self, client):
        status, data = client.request("GET", "/nope")
        assert status == 404 and "error" in data

    def test_unknown_job_404(self, client):
        with pytest.raises(ServerError) as err:
            client.job("j999999")
        assert err.value.status == 404

    def test_wrong_method_405(self, client):
        status, _ = client.request("POST", "/healthz", {})
        assert status == 405
        status, _ = client.request("GET", "/v1/solve")
        assert status == 405

    def test_bad_json_400(self, client):
        import http.client as hc

        conn = hc.HTTPConnection(client.host, client.port, timeout=30)
        conn.request("POST", "/v1/solve", body="{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert "invalid JSON" in json.loads(response.read())["error"]
        conn.close()

    def test_bad_graph_400(self, client):
        status, data = client.request(
            "POST", "/v1/solve", {"graph": {"schema": 99}})
        assert status == 400 and "bad request" in data["error"]

    def test_non_object_body_400(self, client):
        status, data = client.request("POST", "/v1/solve", [1, 2, 3])
        assert status == 400

    def test_bad_solver_options_400(self, client):
        body = client.solve_request(graph_for(seed=26), pes=3,
                                    solver_workers=500)
        status, data = client.request("POST", "/v1/solve", body)
        assert status == 400 and "solver_workers" in data["error"]


class TestSolve:
    def test_sync_solve_returns_feasible_schedule(self, client):
        graph = graph_for(seed=21)
        system = ProcessorSystem.fully_connected(3)
        out = client.solve(graph, system, name="sync-demo")
        assert out["status"] == "done" and out["via"] == "solve"
        result = out["result"]
        assert result["name"] == "sync-demo"
        schedule = Schedule(
            graph, system,
            {int(n): (int(pe), float(st))
             for n, pe, st in result["assignment"]},
        )
        validate_schedule(schedule)
        assert schedule.length == pytest.approx(result["makespan"])

    def test_repeat_request_hits_cache(self, client):
        graph = graph_for(seed=22)
        first = client.solve(graph, pes=3)
        again = client.solve(graph, pes=3)
        assert first["via"] == "solve" and again["via"] == "cache"
        assert again["result"]["makespan"] == first["result"]["makespan"]
        assert client.metrics()["jobs"]["cache_hits"] >= 1

    def test_relabeled_twin_hits_cache_across_http(self, client):
        """Canonical fingerprinting end to end: a permuted copy of an
        already-served instance is answered from the cache, remapped
        into the twin's own node numbering."""
        graph = graph_for(seed=23)
        system = ProcessorSystem.fully_connected(3)
        original = client.solve(graph, system)
        twin = permuted(graph, seed=7)
        served = client.solve(twin, system)
        assert served["via"] == "cache"
        assert served["fingerprint"] == original["fingerprint"]
        validate_schedule(Schedule(
            twin, system,
            {int(n): (int(pe), float(st))
             for n, pe, st in served["result"]["assignment"]},
        ))

    def test_async_submit_then_poll(self, client):
        job_id = client.submit(graph_for(seed=24), pes=3)
        snapshot = client.wait(job_id, timeout=60)
        assert snapshot["status"] == "done"
        assert snapshot["result"]["makespan"] > 0

    def test_concurrent_duplicates_fan_out(self, client):
        """The acceptance scenario: N concurrent identical requests are
        solved once; the rest ride as followers, visible in /metrics."""
        before = client.metrics()["jobs"]
        graph = graph_for(seed=25, v=12)
        results = []
        def go():
            results.append(client.solve(graph, pes=4))
        threads = [threading.Thread(target=go) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        vias = sorted(r["via"] for r in results)
        assert vias.count("solve") == 1
        assert set(vias) <= {"solve", "dedup", "cache"}
        after = client.metrics()["jobs"]
        assert after["solved"] - before["solved"] == 1
        fanned = after["dedup_fanout"] - before["dedup_fanout"]
        cached = vias.count("cache")
        assert fanned == 3 - cached and fanned >= 1
        lengths = {r["result"]["makespan"] for r in results}
        assert len(lengths) == 1


class TestAdmissionControl:
    def test_queue_overflow_returns_429(self):
        srv = SolverServer(port=0, solver_workers=1, queue_limit=1,
                           options=SolveOptions(max_expansions=100_000))
        thread = srv.serve_in_thread()
        client = ServerClient(port=srv.port)
        try:
            codes = []
            for seed in range(10):
                body = client.solve_request(
                    graph_for(seed=300 + seed, v=13), pes=4, wait=False)
                status, _ = client.request("POST", "/v1/solve", body)
                codes.append(status)
            assert 429 in codes
            assert codes[0] == 202  # the first was accepted
            assert client.metrics()["jobs"]["rejected"] >= 1
        finally:
            srv.shutdown()
            thread.join(timeout=120)

    def test_sqlite_cache_persists_in_thread_mode(self, tmp_path):
        """The embedded serve_in_thread() mode must actually persist to
        a file-backed cache: the SQLite connection is created on the
        event-loop thread (cross-thread use would be silently swallowed
        as 'stale' by the cache's corruption handling)."""
        path = tmp_path / "embedded.db"
        srv = SolverServer(port=0, solver_workers=1, cache=path)
        thread = srv.serve_in_thread()
        client = ServerClient(port=srv.port)
        try:
            out = client.solve(graph_for(seed=41), pes=3)
            assert out["via"] == "solve"
            metrics = client.metrics()
            assert metrics["cache"]["stored_entries"] == 1
            assert metrics["cache"]["stale"] == 0
        finally:
            srv.shutdown()
            thread.join(timeout=60)
        with ResultCache(path) as reopened:
            assert reopened.get(out["fingerprint"]) is not None

    def test_healthz_responsive_during_stalled_cache_put(self):
        """Cache I/O must stay off the event loop: while a put() is
        wedged on a slow store, /healthz and /metrics keep answering
        (ROADMAP "Known limits" item — the put runs on the dedicated
        cache thread, blocking only its own runner coroutine)."""
        entered = threading.Event()
        release = threading.Event()

        class StallingCache(ResultCache):
            def put(self, entry):
                entered.set()
                assert release.wait(timeout=60), "test never released put()"
                return super().put(entry)

        cache = StallingCache()
        srv = SolverServer(port=0, solver_workers=1, cache=cache,
                           options=SolveOptions(max_expansions=20_000))
        thread = srv.serve_in_thread()
        client = ServerClient(port=srv.port)
        try:
            job_id = client.submit(graph_for(seed=51), pes=3)
            assert entered.wait(timeout=60), "solve never reached put()"
            # The put is now blocked mid-write; the loop must still serve.
            t0 = time.perf_counter()
            assert client.healthz()["status"] == "ok"
            metrics = client.metrics()
            assert time.perf_counter() - t0 < 5.0
            assert metrics["jobs"]["accepted"] >= 1
            release.set()
            snapshot = client.wait(job_id, timeout=60)
            assert snapshot["status"] == "done"
        finally:
            release.set()
            srv.shutdown()
            thread.join(timeout=60)
        assert cache.stored_entries == 1

    def test_cached_repeat_answers_during_stalled_cache_put(self):
        """A memory-tier hit never queues behind the cache thread: while
        a put() is wedged on a slow store, a repeat of an already-cached
        body still gets its 200 ``via: "cache"`` promptly."""
        stall = threading.Event()
        entered = threading.Event()
        release = threading.Event()

        class StallingCache(ResultCache):
            def put(self, entry):
                if stall.is_set():
                    entered.set()
                    assert release.wait(timeout=60), "test never released put()"
                return super().put(entry)

        cache = StallingCache()
        srv = SolverServer(port=0, solver_workers=1, cache=cache,
                           options=SolveOptions(max_expansions=20_000))
        thread = srv.serve_in_thread()
        client = ServerClient(port=srv.port)
        # Queued behind the wedged put, the repeat would time out here.
        quick = ServerClient(port=srv.port, timeout=10.0, retries=0)
        try:
            first = client.solve(graph_for(seed=52), pes=3)
            assert first["via"] == "solve"
            stall.set()
            job_id = client.submit(graph_for(seed=53), pes=3)
            assert entered.wait(timeout=60), "solve never reached put()"
            # The put is now blocked mid-write on the cache thread.
            t0 = time.perf_counter()
            repeat = quick.solve(graph_for(seed=52), pes=3)
            assert time.perf_counter() - t0 < 5.0
            assert repeat["via"] == "cache"
            assert repeat["result"]["assignment"] == first["result"]["assignment"]
            assert not release.is_set()
            release.set()
            assert client.wait(job_id, timeout=60)["status"] == "done"
        finally:
            release.set()
            srv.shutdown()
            thread.join(timeout=60)
        assert cache.stored_entries == 2

    def test_metrics_never_read_a_locked_store(self, tmp_path):
        """/metrics reads the cache's counters from memory: with a second
        connection holding the store under an exclusive lock, both the
        JSON and the Prometheus forms answer promptly (the store's own
        count would wait out SQLite's busy timeout, then fail)."""
        import http.client as hc
        import sqlite3

        path = tmp_path / "locked.db"
        srv = SolverServer(port=0, solver_workers=1, cache=path,
                           options=SolveOptions(max_expansions=20_000))
        thread = srv.serve_in_thread()
        client = ServerClient(port=srv.port)
        locker = sqlite3.connect(path, timeout=0.1)
        try:
            assert client.solve(graph_for(seed=54), pes=3)["via"] == "solve"
            locker.execute("BEGIN EXCLUSIVE")
            for query, marker in (("", '"stored_entries": 1'),
                                  ("?format=prometheus", "cache_")):
                conn = hc.HTTPConnection("127.0.0.1", srv.port, timeout=10)
                try:
                    t0 = time.perf_counter()
                    conn.request("GET", f"/metrics{query}")
                    resp = conn.getresponse()
                    body = resp.read().decode()
                    assert time.perf_counter() - t0 < 1.0
                finally:
                    conn.close()
                assert resp.status == 200
                assert marker in body
        finally:
            locker.rollback()
            locker.close()
            srv.shutdown()
            thread.join(timeout=60)

    def test_draining_returns_503(self):
        srv = SolverServer(port=0, solver_workers=1, queue_limit=4)
        thread = srv.serve_in_thread()
        client = ServerClient(port=srv.port)
        try:
            assert srv.manager is not None
            srv.manager.draining = True
            status, data = client.request(
                "POST", "/v1/solve",
                client.solve_request(graph_for(seed=31), pes=3))
            assert status == 503 and "draining" in data["error"]
            assert client.healthz()["status"] == "draining"
        finally:
            srv.shutdown()
            thread.join(timeout=60)


@contextlib.contextmanager
def _serve(*args: str):
    """``repro serve --port 0 ARGS`` from this checkout; killed on exit
    if the test left it running."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def _live_processes() -> dict[int, int]:
    """``{pid: parent pid}`` of every non-zombie process (Linux /proc)."""
    live = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rpartition(")")[2].split()[:2]
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited while we looked
        if state != "Z":
            live[int(stat.parent.name)] = int(ppid)
    return live


def test_bad_default_stops_serve_before_it_binds():
    """An out-of-range default fails at start-up (exit 2, no readiness
    line), not as a 400 on every request."""
    with _serve("--epsilon", "-1") as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert "listening on" not in out
    assert err.startswith("error: epsilon must be a finite number >= 0")
    assert "Traceback" not in err


@pytest.mark.slow
class TestSigtermDrain:
    def test_sigterm_drains_without_losing_results(self, tmp_path):
        """Accepted async jobs all finish and land in the persistent
        cache before the process exits."""
        cache_path = tmp_path / "serve.db"
        with _serve("--solver-workers", "2", "--queue-limit", "32",
                    "--cache", str(cache_path),
                    "--max-expansions", "50000") as proc:
            ready = proc.stdout.readline()
            assert "listening on" in ready, ready
            port = int(ready.split(":")[-1].split()[0].strip("/"))
            client = ServerClient(port=port)
            graphs = [graph_for(seed=500 + s, v=10) for s in range(6)]
            accepted = []
            for graph in graphs:
                body = client.solve_request(graph, pes=3, wait=False)
                status, data = client.request("POST", "/v1/solve", body)
                assert status == 202
                accepted.append(data["fingerprint"])
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=180)
            assert proc.returncode == 0, err
            assert "drained" in out
            # Drain report: every accepted job completed, none failed.
            assert f"{len(accepted)} accepted" in out
            assert f"{len(accepted)} completed" in out
            assert "0 failed" in out
            # No lost results: every accepted fingerprint was flushed to
            # the persistent cache.
            cache = ResultCache(cache_path)
            try:
                for fp in accepted:
                    assert cache.get(fp) is not None, f"lost result {fp}"
            finally:
                cache.close()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads child processes from /proc")
    def test_sigterm_right_at_readiness_still_drains(self):
        """A supervisor may signal the moment it reads the readiness
        line: the handler must already be in place, so the daemon
        drains, exits 0 and reaps its pool worker."""
        with _serve("--solver-workers", "1") as proc:
            ready = proc.stdout.readline()
            workers = [pid for pid, ppid in _live_processes().items()
                       if ppid == proc.pid]
            proc.send_signal(signal.SIGTERM)
            assert "listening on" in ready, ready
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert "repro serve: drained" in out
        assert workers, "the warmed pool worker should exist by now"
        deadline = time.monotonic() + 10
        while set(workers) & set(_live_processes()):
            assert time.monotonic() < deadline, "pool worker left behind"
            time.sleep(0.1)


class TestMetricsSchema:
    """Pin the legacy ``/metrics`` JSON schema.

    External scrapers were built against these exact keys; new
    telemetry must be *additive* (the ``latency`` map is), never a
    rename or removal.  If this test fails, you broke a consumer —
    add keys, don't change these.
    """

    LEGACY_TOP_LEVEL = {
        "uptime_seconds", "draining", "queue_depth", "queue_limit",
        "running", "in_flight", "pool_workers", "jobs", "failures",
        "cache_hit_rate", "engines", "cache",
    }
    LEGACY_JOB_COUNTERS = {
        "submitted", "accepted", "rejected", "completed", "failed",
        "cache_hits", "dedup_fanout", "solved", "pool_rebuilds",
        "degraded", "cache_errors",
    }
    LEGACY_FAILURE_CAUSES = {
        "broken_pool", "worker_error", "completion_error",
    }

    def test_legacy_keys_pinned(self, client):
        m = client.metrics()
        assert self.LEGACY_TOP_LEVEL <= set(m)
        assert self.LEGACY_JOB_COUNTERS <= set(m["jobs"])
        assert self.LEGACY_FAILURE_CAUSES <= set(m["failures"])
        assert isinstance(m["uptime_seconds"], float)
        assert isinstance(m["draining"], bool)
        assert isinstance(m["cache_hit_rate"], float)
        for section in ("jobs", "failures", "engines", "cache"):
            assert isinstance(m[section], dict)

    def test_latency_section_is_additive_and_json_safe(self, client, server):
        # Drive one solve through so latency histograms are populated.
        graph = graph_for(seed=431, v=8)
        ServerClient(port=server.port).solve(graph, pes=2)
        m = client.metrics()
        assert "request_seconds" in m["latency"]
        assert "queue_wait_seconds" in m["latency"]
        assert any(k.startswith("solve_seconds{engine=")
                   for k in m["latency"])
        for summary in m["latency"].values():
            assert set(summary) == {"count", "sum", "p50", "p99"}
            for v in summary.values():
                # strict JSON: None or a finite float, never nan/inf
                assert v is None or (isinstance(v, float)
                                     and v == v and abs(v) != float("inf"))
        # Round-trips through strict JSON (allow_nan=False raises on
        # any nan/Infinity that snuck in).
        json.dumps(m, allow_nan=False)


class TestPrometheusEndpoint:
    def _scrape(self, server, query="format=prometheus"):
        import http.client as hc
        conn = hc.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", f"/metrics?{query}")
            resp = conn.getresponse()
            return resp.status, dict(
                (k.lower(), v) for k, v in resp.getheaders()
            ), resp.read().decode()
        finally:
            conn.close()

    def test_text_exposition_format(self, server):
        graph = graph_for(seed=433, v=8)
        ServerClient(port=server.port).solve(graph, pes=2)
        status, headers, body = self._scrape(server)
        assert status == 200
        assert headers["content-type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        assert "# TYPE repro_request_seconds histogram" in body
        assert 'repro_request_seconds_bucket{le="+Inf"}' in body
        assert "repro_request_seconds_sum" in body
        assert "repro_request_seconds_count" in body
        assert "# TYPE repro_jobs_total counter" in body
        assert 'repro_jobs_total{event="completed"}' in body
        assert "# TYPE repro_queue_depth gauge" in body
        assert "repro_uptime_seconds" in body
        # Every sample line is "name{labels} value" with a float value.
        for line in body.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name and float(value) is not None

    def test_unknown_format_is_400(self, server):
        status, _, body = self._scrape(server, query="format=xml")
        assert status == 400
        assert "error" in json.loads(body)

    def test_json_remains_the_default(self, client):
        m = client.metrics()
        assert "jobs" in m  # decoded as JSON, not text


class TestDeepReadiness:
    """``/healthz?deep=1`` — the probe the fleet router points at."""

    def test_deep_ok_on_a_healthy_daemon(self, client):
        status, data = client.request("GET", "/healthz?deep=1")
        assert status == 200
        assert data["status"] == "ok"
        assert data["checks"] == {"pool": "ok", "cache": "ok"}

    def test_shallow_healthz_payload_unchanged(self, client):
        # The historical liveness contract: no checks, no new keys.
        assert client.healthz() == {"status": "ok"}

    def test_cache_probe_fault_flips_deep_to_503(self, tmp_path, monkeypatch):
        from repro.testing import faults

        server = SolverServer(port=0, solver_workers=1, queue_limit=4,
                              cache=tmp_path / "deep.db",
                              options=SolveOptions(max_expansions=20_000))
        thread = server.serve_in_thread()
        try:
            client = ServerClient(port=server.port, retries=0)
            status, data = client.request("GET", "/healthz?deep=1")
            assert status == 200 and data["checks"]["cache"] == "ok"
            monkeypatch.setenv(faults.ENV_VAR, "cache-probe-error")
            status, data = client.request("GET", "/healthz?deep=1")
            assert status == 503
            assert data["status"] == "unhealthy"
            assert "InjectedFault" in data["checks"]["cache"]
            assert data["checks"]["pool"] == "ok"  # pool stayed green
            # The fault fires once; readiness recovers on the next probe
            # (and routine traffic was never affected).
            status, data = client.request("GET", "/healthz?deep=1")
            assert status == 200 and data["status"] == "ok"
        finally:
            monkeypatch.delenv(faults.ENV_VAR, raising=False)
            server.shutdown()
            thread.join(timeout=60)
            assert not thread.is_alive()


class TestFleetIdentity:
    def test_shard_id_labels_metrics_and_deep_health(self):
        server = SolverServer(port=0, solver_workers=1, queue_limit=4,
                              shard_id="s9",
                              options=SolveOptions(max_expansions=20_000))
        thread = server.serve_in_thread()
        try:
            client = ServerClient(port=server.port)
            assert client.metrics()["shard"] == "s9"
            status, data = client.request("GET", "/healthz?deep=1")
            assert status == 200 and data["shard"] == "s9"
        finally:
            server.shutdown()
            thread.join(timeout=60)
            assert not thread.is_alive()

    def test_unlabeled_daemon_has_no_shard_key(self, client):
        assert "shard" not in client.metrics()


class TestAdaptiveRetryAfter:
    def test_dedup_followers_exposed_in_metrics(self, client, server):
        m = client.metrics()
        assert "dedup_followers" in m
        assert isinstance(m["dedup_followers"], int)

    def test_dedup_followers_in_prometheus(self, server):
        import http.client as hc

        conn = hc.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/metrics?format=prometheus")
            body = conn.getresponse().read().decode()
        finally:
            conn.close()
        assert "# TYPE repro_dedup_followers gauge" in body
        assert "repro_dedup_followers" in body

    def test_429_carries_an_adaptive_retry_after(self):
        """With the queue wedged full by a slow solve, the Retry-After
        on the 429 reflects the backlog estimate, not the historical
        constant 1."""
        from repro.testing import faults

        server = SolverServer(port=0, solver_workers=1, queue_limit=1,
                              options=SolveOptions(max_expansions=20_000))
        thread = server.serve_in_thread()
        try:
            # Nudge the EWMA so the estimate is distinguishable from 1s.
            server.manager._solve_ewma = 10.0
            client = ServerClient(port=server.port, retries=0)
            import http.client as hc

            # Wedge: one slow request occupies the runner, one more
            # fills the queue, the next is rejected.
            monkeypatch_env = faults.ENV_VAR
            os.environ[monkeypatch_env] = "solve-slow:2.0"
            try:
                slow = [graph_for(seed=600 + s, v=10) for s in range(3)]
                statuses = []
                retry_afters = []
                for graph in slow:
                    body = client.solve_request(graph, pes=3, wait=False)
                    conn = hc.HTTPConnection("127.0.0.1", server.port,
                                             timeout=30)
                    try:
                        conn.request("POST", "/v1/solve",
                                     body=json.dumps(body),
                                     headers={"Content-Type":
                                              "application/json"})
                        resp = conn.getresponse()
                        statuses.append(resp.status)
                        retry_afters.append(resp.getheader("Retry-After"))
                        resp.read()
                    finally:
                        conn.close()
                assert 429 in statuses
                hint = int(retry_afters[statuses.index(429)])
                # >= 2 pending x 10s EWMA / 1 runner, capped at 30.
                assert hint > 1
                assert hint <= 30
            finally:
                os.environ.pop(monkeypatch_env, None)
        finally:
            server.shutdown()
            thread.join(timeout=120)
            assert not thread.is_alive()
