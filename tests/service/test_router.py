"""The fleet router: ring, breaker, and routing behavior.

The routing tests run the real :class:`ShardRouter` against in-file
*stub shards* — tiny asyncio HTTP servers with scripted behavior — so
failover, breaker gating, drain, and id rewriting are exercised over
real sockets without paying for solver pools.  One slow test at the
end routes into genuine :class:`SolverServer` daemons.

Async scenarios follow the repo idiom (see ``test_jobs.py``): plain
test functions running one ``asyncio.run(scenario())`` each.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from collections import Counter

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.io import graph_to_dict
from repro.service import httpwire
from repro.service.router import CircuitBreaker, HashRing, Shard, ShardRouter

# ---------------------------------------------------------------------------
# HashRing


def uniform_keys(count: int) -> list[str]:
    """Fingerprint-shaped keys (the real ones are BLAKE2b hex)."""
    return [
        hashlib.blake2b(str(i).encode(), digest_size=16).hexdigest()
        for i in range(count)
    ]


class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = uniform_keys(300)
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s2", "s0", "s1"])  # construction order irrelevant
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_all_members_get_keys(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        owners = Counter(ring.owner(k) for k in uniform_keys(2000))
        assert set(owners) == {"s0", "s1", "s2", "s3"}
        assert min(owners.values()) > 0

    def test_removal_remaps_only_the_removed_segment(self):
        keys = uniform_keys(1000)
        ring = HashRing(["s0", "s1", "s2", "s3"])
        before = {k: ring.owner(k) for k in keys}
        ring.remove("s1")
        moved = [k for k in keys if before[k] != "s1" and ring.owner(k) != before[k]]
        assert moved == []  # consistent hashing's minimal-remap property

    def test_rejoin_restores_exact_ownership(self):
        keys = uniform_keys(500)
        ring = HashRing(["s0", "s1", "s2"])
        before = {k: ring.owner(k) for k in keys}
        ring.remove("s2")
        ring.add("s2")
        assert {k: ring.owner(k) for k in keys} == before

    def test_preference_covers_all_members_owner_first(self):
        ring = HashRing(["s0", "s1", "s2"])
        for key in uniform_keys(50):
            pref = ring.preference(key)
            assert pref[0] == ring.owner(key)
            assert sorted(pref) == ["s0", "s1", "s2"]

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.owner("ab" * 16) is None
        assert ring.preference("ab" * 16) == []


# ---------------------------------------------------------------------------
# CircuitBreaker


class TestCircuitBreaker:
    def make(self, **kwargs):
        self.now = 0.0
        kwargs.setdefault("failure_threshold", 2)
        kwargs.setdefault("reset_timeout", 1.0)
        kwargs.setdefault("max_reset_timeout", 4.0)
        return CircuitBreaker(clock=lambda: self.now, **kwargs)

    def test_trips_after_consecutive_failures(self):
        breaker = self.make()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_allows_exactly_one_trial(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        self.now = 1.0
        assert breaker.allow()  # the trial
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # no second concurrent trial

    def test_trial_success_closes(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        self.now = 1.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_trial_failure_reopens_with_doubled_timeout(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()  # open until t=1, next timeout 2
        self.now = 1.0
        assert breaker.allow()
        breaker.record_failure()  # re-open until t=3
        self.now = 2.9
        assert not breaker.allow()
        self.now = 3.0
        assert breaker.allow()

    def test_timeout_is_capped(self):
        breaker = self.make()
        for _ in range(6):  # trip repeatedly: 1, 2, 4, 4, ... capped
            breaker.record_failure()
            breaker.record_failure()
            self.now += 100.0
            assert breaker.allow()
        breaker.record_failure()  # re-open from half-open
        assert breaker.seconds_until_trial() <= 4.0

    def test_success_resets_the_timeout_ladder(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        self.now = 1.0
        assert breaker.allow()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        # Back to the initial 1s period, not the doubled one.
        assert breaker.seconds_until_trial() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Shard specs


class TestShardSpec:
    def test_from_spec_with_name(self):
        shard = Shard.from_spec("127.0.0.1:8081=alpha", 0)
        assert (shard.name, shard.host, shard.port) == ("alpha", "127.0.0.1", 8081)

    def test_from_spec_default_name_is_positional(self):
        assert Shard.from_spec("localhost:9000", 3).name == "shard3"

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            Shard.from_spec("no-port", 0)

    def test_colon_in_name_rejected(self):
        with pytest.raises(ValueError, match="shard name"):
            Shard("a:b", "h", 1)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShardRouter(["h:1=x", "h:2=x"])

    def test_router_needs_a_shard(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardRouter([])


# ---------------------------------------------------------------------------
# Routing over stub shards


class StubShard:
    """A scripted shard: ``behavior(method, path, body)`` returns
    ``(status, payload, extra_headers)`` — or ``None`` to slam the
    connection shut (the crashed-shard transport error)."""

    def __init__(self, behavior):
        self.behavior = behavior
        self.requests: list[tuple[str, str]] = []
        self.port = 0
        self._server: asyncio.AbstractServer | None = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        method, path, body = await httpwire.read_request(reader)
        self.requests.append((method, path))
        out = self.behavior(method, path, body)
        if out is None:
            writer.close()
            return
        status, payload, extra = out
        await httpwire.deliver_response(
            writer, httpwire.render_response(status, payload, extra_headers=extra)
        )


def ok_shard(tag: str):
    """A healthy stub: answers solves and job polls with done jobs."""

    def behavior(method, path, body):
        if path == "/v1/solve":
            return 200, {"id": f"{tag}-job", "status": "done",
                         "result": {"makespan": 1.0}}, ""
        if path.startswith("/v1/jobs/"):
            return 200, {"id": path.rsplit("/", 1)[1], "status": "done"}, ""
        if path.startswith("/metrics"):
            return 200, {"queue_depth": 0, "dedup_followers": 0,
                         "running": 0, "in_flight": 0}, ""
        return 200, {"status": "ok"}, ""

    return behavior


def solve_body() -> bytes:
    graph = paper_random_graph(PaperGraphSpec(num_nodes=8, ccr=1.0, seed=1))
    return json.dumps({"graph": graph_to_dict(graph), "pes": 2}).encode()


async def make_router(*stubs: StubShard, **kwargs) -> ShardRouter:
    kwargs.setdefault("probe_interval", 0)  # probes off: deterministic
    kwargs.setdefault("retry_base", 0.001)
    router = ShardRouter(
        [Shard(f"s{i}", "127.0.0.1", stub.port) for i, stub in enumerate(stubs)],
        port=0,
        **kwargs,
    )
    await router.start()
    return router


async def solve_via(router: ShardRouter, body: bytes | None = None):
    return await httpwire.fetch(
        "127.0.0.1", router.port, "POST", "/v1/solve",
        body if body is not None else solve_body(),
    )


class TestRouting:
    def test_solve_routed_and_id_prefixed(self):
        async def scenario():
            async with StubShard(ok_shard("a")) as s0, \
                    StubShard(ok_shard("b")) as s1:
                router = await make_router(s0, s1)
                try:
                    status, _, data = await solve_via(router)
                    assert status == 200
                    out = json.loads(data)
                    shard, _, raw = out["id"].partition(":")
                    assert shard in ("s0", "s1") and raw.endswith("-job")
                    assert out["shard"] == shard
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_duplicates_route_to_the_same_shard(self):
        async def scenario():
            async with StubShard(ok_shard("a")) as s0, \
                    StubShard(ok_shard("b")) as s1:
                router = await make_router(s0, s1)
                try:
                    first = json.loads((await solve_via(router))[2])
                    second = json.loads((await solve_via(router))[2])
                    assert first["shard"] == second["shard"]
                    # Exactly one stub saw traffic.
                    assert bool(s0.requests) != bool(s1.requests)
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_dead_owner_fails_over(self):
        async def scenario():
            async with StubShard(lambda *a: None) as dead, \
                    StubShard(ok_shard("b")) as live:
                router = await make_router(dead, live)
                try:
                    status, _, data = await solve_via(router)
                    assert status == 200
                    assert json.loads(data)["shard"] == "s1"
                    m = router.metrics()
                    # Either s0 owned the key (one failover) or s1 did
                    # (clean route); run both fingerprints to force at
                    # least one failover across the pair.
                    status2, _, data2 = await solve_via(
                        router, solve_body_for_owner(router, "s0"))
                    assert status2 == 200
                    assert json.loads(data2)["shard"] == "s1"
                    m = router.metrics()
                    assert m["routing"]["failovers"] >= 1
                    assert m["shards"]["s0"]["errors"] >= 1
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_all_shards_dead_is_a_gateway_error(self):
        async def scenario():
            async with StubShard(lambda *a: None) as s0, \
                    StubShard(lambda *a: None) as s1:
                router = await make_router(s0, s1)
                try:
                    status, headers, data = await solve_via(router)
                    assert status == 502
                    assert "unreachable" in json.loads(data)["error"]
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_breaker_opens_and_unroutable_is_503_with_retry_after(self):
        async def scenario():
            async with StubShard(lambda *a: None) as s0:
                router = await make_router(s0, failure_threshold=2)
                try:
                    await solve_via(router)
                    await solve_via(router)  # second failure trips it
                    assert (router.shards["s0"].breaker.state
                            == CircuitBreaker.OPEN)
                    status, headers, data = await solve_via(router)
                    assert status == 503
                    assert "no shard available" in json.loads(data)["error"]
                    assert int(headers["retry-after"]) >= 1
                    assert router.metrics()["routing"]["no_shard"] == 1
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_429_propagates_without_failover(self):
        async def scenario():
            behavior = lambda *a: (429, {"error": "queue full"},
                                   "Retry-After: 9\r\n")
            async with StubShard(behavior) as s0, \
                    StubShard(behavior) as s1:
                router = await make_router(s0, s1)
                try:
                    status, headers, _ = await solve_via(router)
                    assert status == 429
                    assert headers["retry-after"] == "9"
                    # Backpressure is the owner's to report: exactly one
                    # shard was asked, no spill onto its neighbor.
                    assert len(s0.requests) + len(s1.requests) == 1
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_shard_5xx_fails_over_and_feeds_the_breaker(self):
        async def scenario():
            async with StubShard(
                    lambda *a: (503, {"error": "draining"}, "")) as drainer, \
                    StubShard(ok_shard("b")) as live:
                router = await make_router(drainer, live)
                try:
                    status, _, data = await solve_via(
                        router, solve_body_for_owner(router, "s0"))
                    assert status == 200
                    assert json.loads(data)["shard"] == "s1"
                    assert router.shards["s0"].breaker.consecutive_failures >= 1
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_bad_body_is_a_400_not_a_route(self):
        async def scenario():
            async with StubShard(ok_shard("a")) as s0:
                router = await make_router(s0)
                try:
                    status, _, data = await solve_via(router, b"{not json")
                    assert status == 400
                    status, _, data = await solve_via(
                        router, json.dumps({"graph": {"schema": 99}}).encode())
                    assert status == 400
                    assert s0.requests == []  # never forwarded
                    assert router.metrics()["routing"]["bad_requests"] == 2
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_job_poll_routed_by_prefix(self):
        async def scenario():
            async with StubShard(ok_shard("a")) as s0, \
                    StubShard(ok_shard("b")) as s1:
                router = await make_router(s0, s1)
                try:
                    status, _, data = await httpwire.fetch(
                        "127.0.0.1", router.port, "GET", "/v1/jobs/s1:j7")
                    assert status == 200
                    out = json.loads(data)
                    assert out["id"] == "s1:j7" and out["shard"] == "s1"
                    assert ("GET", "/v1/jobs/j7") in s1.requests
                    assert s0.requests == []
                    status, _, _ = await httpwire.fetch(
                        "127.0.0.1", router.port, "GET", "/v1/jobs/nope:j7")
                    assert status == 404
                    status, _, _ = await httpwire.fetch(
                        "127.0.0.1", router.port, "GET", "/v1/jobs/unprefixed")
                    assert status == 404
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_drain_and_rejoin_move_only_traffic_not_state(self):
        async def scenario():
            async with StubShard(ok_shard("a")) as s0, \
                    StubShard(ok_shard("b")) as s1:
                router = await make_router(s0, s1)
                try:
                    owner = json.loads((await solve_via(router))[2])["shard"]
                    other = "s1" if owner == "s0" else "s0"
                    status, _, data = await httpwire.fetch(
                        "127.0.0.1", router.port, "POST",
                        f"/admin/shards/{owner}/drain")
                    assert status == 200
                    assert json.loads(data)["ring_members"] == [other]
                    rerouted = json.loads((await solve_via(router))[2])["shard"]
                    assert rerouted == other
                    status, _, _ = await httpwire.fetch(
                        "127.0.0.1", router.port, "POST",
                        f"/admin/shards/{owner}/rejoin")
                    assert status == 200
                    back = json.loads((await solve_via(router))[2])["shard"]
                    assert back == owner  # exact segment restored
                    status, _, _ = await httpwire.fetch(
                        "127.0.0.1", router.port, "POST",
                        "/admin/shards/ghost/drain")
                    assert status == 404
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_healthz_deep_reflects_routability(self):
        async def scenario():
            async with StubShard(ok_shard("a")) as s0:
                router = await make_router(s0, failure_threshold=1)
                try:
                    status, _, data = await httpwire.fetch(
                        "127.0.0.1", router.port, "GET", "/healthz?deep=1")
                    assert status == 200
                    router.shards["s0"].breaker.record_failure()
                    status, _, data = await httpwire.fetch(
                        "127.0.0.1", router.port, "GET", "/healthz?deep=1")
                    assert status == 503
                    assert json.loads(data)["status"] == "unhealthy"
                    # Shallow healthz stays 200: the router itself is up.
                    status, _, _ = await httpwire.fetch(
                        "127.0.0.1", router.port, "GET", "/healthz")
                    assert status == 200
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_health_probe_closes_an_open_breaker(self):
        async def scenario():
            async with StubShard(ok_shard("a")) as s0:
                router = await make_router(s0)
                try:
                    breaker = router.shards["s0"].breaker
                    for _ in range(3):
                        breaker.record_failure()
                    assert breaker.state == CircuitBreaker.OPEN
                    await router._probe(router.shards["s0"])
                    assert breaker.state == CircuitBreaker.CLOSED
                    assert router.shards["s0"].healthy is True
                    assert ("GET", "/healthz?deep=1") in s0.requests
                finally:
                    await router.drain()

        asyncio.run(scenario())

    def test_metrics_shapes(self):
        async def scenario():
            async with StubShard(ok_shard("a")) as s0:
                router = await make_router(s0)
                try:
                    await solve_via(router)
                    status, _, data = await httpwire.fetch(
                        "127.0.0.1", router.port, "GET", "/metrics")
                    assert status == 200
                    m = json.loads(data)
                    assert {"uptime_seconds", "draining", "routing",
                            "shards", "ring"} <= set(m)
                    assert m["shards"]["s0"]["forwarded"] == 1
                    status, _, data = await httpwire.fetch(
                        "127.0.0.1", router.port, "GET",
                        "/metrics?format=prometheus")
                    assert status == 200
                    text = data.decode()
                    assert 'repro_router_shard_up{shard="s0"} 1' in text
                    assert "repro_router_requests_total 1" in text
                finally:
                    await router.drain()

        asyncio.run(scenario())


def solve_body_for_owner(router: ShardRouter, want: str) -> bytes:
    """A solve body whose fingerprint the ring assigns to ``want``."""
    for seed in range(200):
        graph = paper_random_graph(
            PaperGraphSpec(num_nodes=8, ccr=1.0, seed=seed))
        body = {"graph": graph_to_dict(graph), "pes": 2}
        fingerprint = router._routing_key(body)
        if router.ring.owner(fingerprint) == want:
            return json.dumps(body).encode()
    raise AssertionError(f"no seed owned by {want} in 200 tries")


# ---------------------------------------------------------------------------
# End to end against real daemons (slow tier)


@pytest.mark.slow
class TestRouterOverRealShards:
    def test_solve_and_poll_through_the_fleet(self, tmp_path):
        from repro.service.batch import SolveOptions
        from repro.service.client import ServerClient
        from repro.service.server import SolverServer

        shards = [
            SolverServer(port=0, solver_workers=1, queue_limit=8,
                         options=SolveOptions(max_expansions=50_000),
                         shard_id=f"s{i}",
                         cache=f"shared:{tmp_path / 'fleet.db'}")
            for i in range(2)
        ]
        threads = [s.serve_in_thread() for s in shards]
        router = ShardRouter(
            [Shard(f"s{i}", s.host, s.port) for i, s in enumerate(shards)],
            port=0, probe_interval=0.2,
        )
        router_thread = router.serve_in_thread()
        try:
            client = ServerClient(port=router.port)
            graph = paper_random_graph(
                PaperGraphSpec(num_nodes=9, ccr=1.0, seed=3))
            out = client.solve(graph, pes=4)
            assert out["status"] == "done"
            shard_name, _, _ = out["id"].partition(":")
            assert shard_name in ("s0", "s1")
            # Async path: submit, then poll through the router.
            job_id = client.submit(graph, pes=4)
            done = client.wait(job_id, timeout=120)
            assert done["status"] == "done"
            assert (done["result"]["makespan"]
                    == out["result"]["makespan"])
        finally:
            router.shutdown()
            router_thread.join(timeout=30)
            for shard in shards:
                shard.shutdown()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
