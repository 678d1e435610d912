"""Chaos tier for the fleet: SIGKILL shards under live traffic.

These run the real topology — ``repro serve`` shard *subprocesses*
behind an in-process :class:`ShardRouter` — and assert the fleet
availability contract from the runbook (docs/operations.md):

* every request accepted by the router is answered — possibly by a
  failover shard, possibly degraded, never hung;
* a SIGKILLed shard costs its in-flight jobs one failover, not the
  fleet's availability; the ring rebalances onto the survivors;
* a revived shard takes back its exact ring segment;
* a drain/rejoin drill moves traffic without a client-visible error.

Shards share one ``shared:`` SQLite store, so failover replays of
already-solved fingerprints warm-hit instead of re-searching.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.io import graph_to_dict
from repro.service.client import ServerClient
from repro.service.fleet import spawn_fleet, spawn_shard
from repro.service.router import Shard, ShardRouter
from tests.procs import HAVE_PROC, wait_empty

pytestmark = [pytest.mark.chaos, pytest.mark.slow]


def graph_for(seed: int, v: int = 9):
    return paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=1.0, seed=seed))


class Fleet:
    """Shard subprocesses + router, torn down in order."""

    def __init__(self, count: int, tmp_path, *, env=None, **spawn_kwargs):
        spawn_kwargs.setdefault("solver_workers", 1)
        spawn_kwargs.setdefault("queue_limit", 32)
        spawn_kwargs.setdefault("max_expansions", 50_000)
        spawn_kwargs.setdefault("cache", f"shared:{tmp_path / 'fleet.db'}")
        self.shards = spawn_fleet(count, env=env, **spawn_kwargs)
        self.router = ShardRouter(
            [Shard(s.name, s.host, s.port) for s in self.shards],
            port=0,
            probe_interval=0.2,
            reset_timeout=0.2,
            max_reset_timeout=2.0,
        )
        self.thread = self.router.serve_in_thread()
        self.client = ServerClient(port=self.router.port, timeout=120,
                                   retries=5, backoff=0.1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.router.shutdown()
        self.thread.join(timeout=30)
        for shard in self.shards:
            shard.terminate()


class TestShardSigkill:
    @pytest.mark.timeout(300)
    def test_kill_mid_burst_answers_every_request(self, tmp_path):
        """The acceptance scenario: a concurrent burst of synchronous
        solves, one shard SIGKILLed mid-burst.  Every request must come
        back answered; afterwards the ring must have rebalanced onto
        the survivor with at least one recorded failover."""
        with Fleet(2, tmp_path) as fleet:
            results: dict[int, dict] = {}
            errors: list[tuple[int, Exception]] = []
            lock = threading.Lock()

            def one(seed: int):
                try:
                    out = fleet.client.solve(graph_for(seed), pes=3)
                except Exception as exc:  # noqa: BLE001 - collected for
                    # the assertion below; any error fails the test.
                    with lock:
                        errors.append((seed, exc))
                    return
                with lock:
                    results[seed] = out

            threads = [
                threading.Thread(target=one, args=(seed,))
                for seed in range(20, 32)
            ]
            for thread in threads[:6]:
                thread.start()
            time.sleep(0.3)  # burst in flight
            fleet.shards[1].kill()  # SIGKILL, mid-burst
            for thread in threads[6:]:
                thread.start()
            for thread in threads:
                thread.join(timeout=240)
                assert not thread.is_alive(), "request hung"

            assert errors == [], f"unanswered requests: {errors}"
            assert len(results) == 12
            for out in results.values():
                assert out["status"] == "done"
                assert out["result"]["makespan"] > 0

            m = fleet.router.metrics()
            assert m["routing"]["failovers"] >= 1
            # The ring rebalanced: the survivor answered the tail of
            # the burst, including fingerprints the victim owned.
            assert m["shards"]["s1"]["errors"] >= 1
            # No hung work on the survivor.
            survivor = ServerClient(port=fleet.shards[0].port)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                sm = survivor.metrics()
                if sm["queue_depth"] == 0 and sm["running"] == 0:
                    break
                time.sleep(0.2)
            assert sm["jobs"]["accepted"] == (
                sm["jobs"]["completed"] + sm["jobs"]["failed"]
            )

    @pytest.mark.timeout(300)
    def test_revived_shard_takes_back_its_segment(self, tmp_path):
        """Kill, observe failover, respawn on the same port: the
        health loop closes the breaker and the old owner serves its
        fingerprints again — and the shared store means the replay of
        an already-solved instance is a warm hit, not a re-search."""
        with Fleet(2, tmp_path) as fleet:
            # Find a seed owned by s1 so the kill provably remaps it.
            owned = None
            for seed in range(40, 140):
                body = {"graph": graph_to_dict(graph_for(seed)), "pes": 3}
                fp = fleet.router._routing_key(body)
                if fleet.router.ring.owner(fp) == "s1":
                    owned = seed
                    break
            assert owned is not None
            first = fleet.client.solve(graph_for(owned), pes=3)
            assert first["id"].startswith("s1:")

            fleet.shards[1].kill()
            failover = fleet.client.solve(graph_for(owned), pes=3)
            assert failover["id"].startswith("s0:")
            # Shared store: the survivor replayed a warm result.
            survivor = ServerClient(port=fleet.shards[0].port)
            assert survivor.metrics()["jobs"]["cache_hits"] >= 1

            # Respawn pins the dead shard's old port, so the router's
            # address for the s1 segment is simply valid again.
            fleet.shards[1] = fleet.shards[1].respawn()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if fleet.router.shards["s1"].breaker.state == "closed" and \
                        fleet.router.shards["s1"].healthy:
                    break
                time.sleep(0.2)
            back = fleet.client.solve(graph_for(owned), pes=3)
            assert back["id"].startswith("s1:")  # segment restored
            assert back["result"]["makespan"] == first["result"]["makespan"]


class TestShardCrashFault:
    @pytest.mark.timeout(300)
    def test_injected_shard_crash_fails_over(self, tmp_path):
        """The deterministic variant: ``shard-crash@3`` hard-exits the
        whole shard process at its 3rd accepted solve — mid-protocol,
        like a SIGKILL the shard does to itself.  Only s0 carries the
        fault; the router absorbs the crash onto s1 and the client
        never sees an error."""
        store = f"shared:{tmp_path / 'fleet.db'}"
        doomed = spawn_shard("s0", env={"REPRO_FAULTS": "shard-crash@3"},
                             cache=store, max_expansions=50_000)
        steady = spawn_shard("s1", cache=store, max_expansions=50_000)
        router = ShardRouter(
            [Shard("s0", doomed.host, doomed.port),
             Shard("s1", steady.host, steady.port)],
            port=0, probe_interval=0.2, reset_timeout=0.2,
            max_reset_timeout=2.0,
        )
        thread = router.serve_in_thread()
        try:
            client = ServerClient(port=router.port, timeout=120,
                                  retries=5, backoff=0.1)
            # Enough distinct instances that s0 accepts its 3rd solve
            # (and dies mid-answer) while s1 keeps serving.
            outs = [
                client.solve(graph_for(seed), pes=3)
                for seed in range(60, 72)
            ]
            assert all(out["status"] == "done" for out in outs)
            assert not doomed.alive  # the fault really hard-exited it
            # ...and took its pool worker with it: nothing of s0's
            # process group lives on under init.
            if HAVE_PROC:
                assert wait_empty(doomed.proc.pid) == set()
            m = router.metrics()
            assert m["shards"]["s0"]["errors"] >= 1
            assert m["routing"]["failovers"] >= 1
        finally:
            router.shutdown()
            thread.join(timeout=30)
            doomed.terminate()
            steady.terminate()


class TestDrainRejoinDrill:
    @pytest.mark.timeout(300)
    def test_rolling_drain_is_invisible_to_clients(self, tmp_path):
        """The runbook's rolling-restart drill: drain one shard, keep
        serving, rejoin it — clients see zero errors and the drained
        shard's segment comes back exactly."""
        with Fleet(2, tmp_path) as fleet:
            before = {
                seed: fleet.client.solve(graph_for(seed), pes=3)["id"]
                .partition(":")[0]
                for seed in range(80, 86)
            }
            assert set(before.values()) == {"s0", "s1"}

            status, data = fleet.client.request(
                "POST", "/admin/shards/s0/drain")
            assert status == 200 and data["ring_members"] == ["s1"]
            during = {
                seed: fleet.client.solve(graph_for(seed), pes=3)["id"]
                .partition(":")[0]
                for seed in range(80, 86)
            }
            assert set(during.values()) == {"s1"}  # all on the survivor

            status, data = fleet.client.request(
                "POST", "/admin/shards/s0/rejoin")
            assert status == 200
            assert data["ring_members"] == ["s0", "s1"]
            after = {
                seed: fleet.client.solve(graph_for(seed), pes=3)["id"]
                .partition(":")[0]
                for seed in range(80, 86)
            }
            assert after == before  # exact segment restored
