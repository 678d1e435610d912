"""Job lifecycle unit tests: admission, dedupe, cache, drain, failure.

These drive :class:`JobManager` directly on an event loop with a
thread-backed pool stand-in, so the state machine is tested without
sockets or process spawn.  The real process pool and HTTP layer are
covered by ``test_server.py``.
"""

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.io import graph_to_dict
from repro.schedule.schedule import Schedule
from repro.schedule.validate import validate_schedule
from repro.service.batch import SolveOptions, _worker_solve
from repro.service.cache import ResultCache
from repro.service.jobs import DONE, QUEUED, Draining, JobManager, QueueFull
from repro.system.processors import ProcessorSystem
from tests.service.test_fingerprint import permuted


class ThreadPool:
    """SolverPool stand-in: same interface, threads instead of processes."""

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.executor = ThreadPoolExecutor(max_workers=workers)
        self.liveness_report = ""  # "" == live, like SolverPool.liveness

    def liveness(self):
        return self.liveness_report

    def close(self):
        self.executor.shutdown()


def request_obj(v: int = 8, seed: int = 1, pes: int = 3, **extra):
    graph = paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=1.0, seed=seed))
    obj = {"graph": graph_to_dict(graph), "pes": pes,
           "max_expansions": 50_000}
    obj.update(extra)
    return obj


def make_manager(**kwargs):
    pool = ThreadPool(kwargs.pop("workers", 1))
    return JobManager(pool, **kwargs), pool


async def finish(manager, *jobs):
    for job in jobs:
        await asyncio.wait_for(job.done.wait(), timeout=60)


class TestSolveLifecycle:
    def test_submit_runs_to_done(self):
        async def scenario():
            manager, pool = make_manager()
            manager.start()
            job = manager.submit(request_obj(name="one"))
            assert job.state == QUEUED
            await finish(manager, job)
            assert job.state == DONE and job.via == "solve"
            assert job.result["makespan"] > 0
            assert len(job.result["assignment"]) == job.item.graph.num_nodes
            # The returned assignment must be a feasible schedule in the
            # requester's own node numbering.
            validate_schedule(Schedule(
                job.item.graph, job.item.system,
                {int(n): (int(pe), float(st))
                 for n, pe, st in job.result["assignment"]},
            ))
            assert manager.metrics()["jobs"]["completed"] == 1
            assert manager.metrics()["jobs"]["solved"] == 1
            assert sum(manager.metrics()["engines"].values()) == 1
            await manager.drain()
            pool.close()

        asyncio.run(scenario())

    def test_snapshot_shape(self):
        async def scenario():
            manager, pool = make_manager()
            manager.start()
            job = manager.submit(request_obj())
            await finish(manager, job)
            snap = job.snapshot()
            assert snap["status"] == "done"
            assert {"id", "name", "fingerprint", "submitted", "started",
                    "finished", "via", "result"} <= set(snap)
            await manager.drain()
            pool.close()

        asyncio.run(scenario())

    def test_bad_mode_rejected_at_submit(self):
        manager, pool = make_manager()
        with pytest.raises(ValueError, match="mode"):
            manager.submit(request_obj(mode="nonsense"))
        pool.close()

    def test_option_bounds_validated_at_submit(self):
        """Request bodies cannot amplify resources or smuggle bad types
        into the pool worker — they fail fast at submit (HTTP 400)."""
        manager, pool = make_manager()
        with pytest.raises(ValueError, match="solver_workers"):
            manager.submit(request_obj(solver_workers=200))
        with pytest.raises(ValueError, match="deadline"):
            manager.submit(request_obj(deadline="5s"))
        with pytest.raises(ValueError, match="epsilon"):
            manager.submit(request_obj(epsilon=-0.5))
        with pytest.raises(ValueError, match="max_expansions"):
            manager.submit(request_obj(max_expansions=0))
        assert manager.metrics()["jobs"]["accepted"] == 0
        pool.close()

    def test_worker_failure_degrades_primary_and_followers(self, monkeypatch):
        """A worker exception no longer fails the job: the manager
        serves the list-schedule incumbent as a degraded answer (with
        the failure reason attached) to the primary and every
        follower."""
        async def scenario():
            manager, pool = make_manager()
            primary = manager.submit(request_obj(seed=5))
            follower = manager.submit(request_obj(seed=5))
            assert follower.via == "dedup"

            def boom(job):
                raise RuntimeError("worker exploded")

            monkeypatch.setattr("repro.service.jobs._worker_solve", boom)
            manager.start()
            await finish(manager, primary, follower)
            for job in (primary, follower):
                assert job.state == DONE
                assert job.result["certificate"] == "degraded"
                assert "worker exploded" in job.result["reason"]
            assert manager.metrics()["jobs"]["failed"] == 0
            assert manager.metrics()["jobs"]["degraded"] == 2
            assert manager.metrics()["failures"]["worker_error"] == 1
            await manager.drain()
            pool.close()

        asyncio.run(scenario())


#: A request-body value for each SolveOptions field that differs from
#: what ``request_obj`` prepares to.  A field missing here fails the
#: follower test below, so a new option cannot join or leave the dedupe
#: key unnoticed.
OTHER_VALUE = {
    "deadline": 30.0,
    "epsilon": 0.0,
    "cost": "paper",
    "max_expansions": 40_000,
    "mode": "auto",
    "solver_workers": 2,
    "max_memory_mb": 4096.0,
    "preprocess": True,
    "require_proven": True,
}


class TestDedupe:
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(SolveOptions)])
    def test_follower_rule_is_options_equality(self, name):
        """Two requests for one instance share a solve exactly when their
        SolveOptions compare equal: only ``require_proven``, which gates
        cache reads alone, may differ."""
        manager, pool = make_manager()
        a = manager.submit(request_obj(seed=21))
        b = manager.submit(request_obj(seed=21, **{name: OTHER_VALUE[name]}))
        assert getattr(b.options, name) != getattr(a.options, name)
        shares = name == "require_proven"
        assert (a.options == b.options) is shares
        assert (b.via == "dedup") is shares
        assert manager.metrics()["queue_depth"] == (1 if shares else 2)
        pool.close()

    def test_mismatched_options_do_not_dedupe(self):
        """A request asking for different solver options (e.g. its own
        epsilon) must not inherit the in-flight twin's weaker result —
        it gets its own queue slot."""
        async def scenario():
            manager, pool = make_manager(workers=2)
            a = manager.submit(request_obj(seed=21))
            b = manager.submit(request_obj(seed=21, epsilon=0.0))
            assert b.via is None and manager.metrics()["jobs"]["dedup_fanout"] == 0
            # A third request matching b's options rides b.
            c = manager.submit(request_obj(seed=21, epsilon=0.0))
            assert c.via == "dedup"
            manager.start()
            await finish(manager, a, b, c)
            assert manager.metrics()["jobs"]["solved"] == 2
            assert b.result["makespan"] == pytest.approx(a.result["makespan"])
            await manager.drain()
            pool.close()

        asyncio.run(scenario())

    def test_auto_cost_resolves_before_fingerprinting(self):
        """An "auto"-costed request must share its fingerprint (and
        therefore dedupe/followers/cache entries) with a request naming
        the resolved cost explicitly — resolution happens in prepare(),
        before hashing, not inside the solver."""
        async def scenario():
            from repro.service.portfolio import select_cost

            manager, pool = make_manager()
            obj = request_obj(seed=5, pes=2)  # 2 PEs: resolves "combined"
            graph = paper_random_graph(
                PaperGraphSpec(num_nodes=8, ccr=1.0, seed=5)
            )
            resolved = select_cost(graph, ProcessorSystem.fully_connected(2))
            assert resolved == "combined"
            a = manager.submit(dict(obj))
            b = manager.submit(dict(obj, cost=resolved))
            assert a.options.cost == resolved
            assert a.fingerprint == b.fingerprint
            assert b.via == "dedup"
            manager.start()
            await finish(manager, a, b)
            await manager.drain()
            pool.close()

        asyncio.run(scenario())

    def test_follower_attaches_before_runners_start(self):
        async def scenario():
            manager, pool = make_manager()
            a = manager.submit(request_obj(seed=2))
            b = manager.submit(request_obj(seed=2))
            assert b.via == "dedup" and manager.metrics()["jobs"]["dedup_fanout"] == 1
            manager.start()
            await finish(manager, a, b)
            assert a.via == "solve" and b.via == "dedup"
            assert a.result["makespan"] == pytest.approx(b.result["makespan"])
            assert manager.metrics()["jobs"]["solved"] == 1
            await manager.drain()
            pool.close()

        asyncio.run(scenario())

    def test_relabeled_twin_dedupes_via_fingerprint(self):
        async def scenario():
            manager, pool = make_manager()
            graph = paper_random_graph(
                PaperGraphSpec(num_nodes=9, ccr=1.0, seed=11))
            system = ProcessorSystem.fully_connected(3)
            obj = {"graph": graph_to_dict(graph), "pes": 3,
                   "max_expansions": 50_000}
            twin_obj = {"graph": graph_to_dict(permuted(graph, seed=13)),
                        "pes": 3, "max_expansions": 50_000}
            a = manager.submit(obj)
            b = manager.submit(twin_obj)
            assert a.fingerprint == b.fingerprint
            assert b.via == "dedup"
            manager.start()
            await finish(manager, a, b)
            # Fan-out must be feasible in the twin's own numbering.
            validate_schedule(Schedule(
                b.item.graph, system,
                {int(n): (int(pe), float(st))
                 for n, pe, st in b.result["assignment"]},
            ))
            assert a.result["makespan"] == pytest.approx(b.result["makespan"])
            await manager.drain()
            pool.close()

        asyncio.run(scenario())


class TestFaultTolerance:
    def test_completion_error_degrades_job_without_killing_runner(self, monkeypatch):
        """An exception while building the result must still answer
        that job (degraded, done event set) and leave the runner alive
        for the next one."""
        async def scenario():
            manager, pool = make_manager()
            bad = manager.submit(request_obj(seed=31))

            real_complete = manager._complete

            def explode(job, payload):
                raise RuntimeError("canonical mismatch")

            manager._complete = explode
            manager.start()
            await finish(manager, bad)
            assert bad.state == DONE
            assert bad.result["certificate"] == "degraded"
            assert "canonical mismatch" in bad.result["reason"]
            assert manager.metrics()["failures"]["completion_error"] == 1
            # The runner survived: a subsequent job completes normally.
            manager._complete = real_complete
            good = manager.submit(request_obj(seed=32))
            await finish(manager, good)
            assert good.state == DONE
            assert good.result["certificate"] != "degraded"
            await manager.drain()
            pool.close()

        asyncio.run(scenario())

    def test_broken_pool_is_rebuilt_and_serving_continues(self, monkeypatch):
        """A worker that dies mid-job (OOM kill) degrades only that
        job; the pool is replaced and later jobs solve normally."""
        import os

        from repro.parallel.mp_backend import SolverPool

        async def scenario(tmp_flag):
            pool = SolverPool(1)
            manager = JobManager(
                pool, options=SolveOptions(max_expansions=50_000))
            monkeypatch.setattr(
                "repro.service.jobs._worker_solve", _crash_or_solve
            )
            os.environ["REPRO_TEST_CRASH_FLAG"] = tmp_flag
            open(tmp_flag, "w").close()
            manager.start()
            doomed = manager.submit(request_obj(seed=33))
            await finish(manager, doomed)
            assert doomed.state == DONE
            assert doomed.result["certificate"] == "degraded"
            assert manager.metrics()["jobs"]["pool_rebuilds"] == 1
            assert manager.metrics()["failures"]["broken_pool"] == 1
            os.unlink(tmp_flag)  # next forked worker solves for real
            healthy = manager.submit(request_obj(seed=34))
            await finish(manager, healthy)
            assert healthy.state == DONE and healthy.via == "solve"
            await manager.drain()
            pool.close()

        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            asyncio.run(scenario(f"{tmp}/crash"))


def _crash_or_solve(job):
    """Worker-side helper: hard-exit while the flag file exists."""
    import os

    from repro.service import batch

    if os.path.exists(os.environ.get("REPRO_TEST_CRASH_FLAG", "")):
        os._exit(17)
    return batch._worker_solve(job)


class TestAdmission:
    def test_queue_full_raises_but_duplicates_still_ride(self):
        manager, pool = make_manager(queue_limit=1)
        first = manager.submit(request_obj(seed=1))
        with pytest.raises(QueueFull):
            manager.submit(request_obj(seed=2))
        assert manager.metrics()["jobs"]["rejected"] == 1
        # Dedupe sits in front of the queue: a twin of the queued job is
        # accepted even at capacity.
        rider = manager.submit(request_obj(seed=1))
        assert rider.via == "dedup"
        assert first.state == QUEUED
        pool.close()

    def test_rejected_job_not_pollable(self):
        manager, pool = make_manager(queue_limit=1)
        manager.submit(request_obj(seed=1))
        before = set(manager._jobs)
        with pytest.raises(QueueFull):
            manager.submit(request_obj(seed=2))
        assert set(manager._jobs) == before
        pool.close()


class TestCacheIntegration:
    def test_second_submit_served_from_cache(self):
        async def scenario():
            cache = ResultCache()
            manager, pool = make_manager(cache=cache)
            manager.start()
            a = manager.submit(request_obj(seed=3))
            await finish(manager, a)
            b = manager.submit(request_obj(seed=3))
            # Cache hits complete synchronously at submit.
            assert b.state == DONE and b.via == "cache"
            assert b.result["makespan"] == pytest.approx(a.result["makespan"])
            assert manager.metrics()["jobs"]["cache_hits"] == 1
            assert manager.metrics()["jobs"]["solved"] == 1
            await manager.drain()
            pool.close()

        asyncio.run(scenario())

    def test_require_proven_override_skips_budget_entries(self):
        async def scenario():
            cache = ResultCache()
            manager, pool = make_manager(cache=cache)
            manager.start()
            # A tiny expansion budget yields an unproven certificate.
            a = manager.submit(request_obj(seed=4, v=10, max_expansions=1))
            await finish(manager, a)
            assert a.result["certificate"] != "proven"
            b = manager.submit(request_obj(seed=4, v=10, require_proven=True,
                                           max_expansions=50_000))
            assert b.state == QUEUED  # stale entry not served
            await finish(manager, b)
            assert b.via == "solve" and b.result["certificate"] == "proven"
            await manager.drain()
            pool.close()

        asyncio.run(scenario())


class TestDrain:
    def test_drain_completes_accepted_then_rejects(self):
        async def scenario():
            manager, pool = make_manager(workers=2, queue_limit=16)
            jobs = [manager.submit(request_obj(seed=s)) for s in range(5)]
            manager.start()
            await manager.drain()
            assert all(j.state == DONE for j in jobs)
            with pytest.raises(Draining):
                manager.submit(request_obj(seed=99))
            pool.close()

        asyncio.run(scenario())

    def test_metrics_shape(self):
        async def scenario():
            manager, pool = make_manager()
            manager.start()
            job = manager.submit(request_obj())
            await finish(manager, job)
            m = manager.metrics()
            assert m["queue_depth"] == 0
            assert m["jobs"]["submitted"] == 1
            assert m["jobs"]["completed"] == 1
            assert "cache_hit_rate" in m and "engines" in m
            assert m["pool_workers"] == 1
            await manager.drain()
            assert manager.metrics()["draining"] is True
            pool.close()

        asyncio.run(scenario())


def sample(text, name, **labels):
    """The value of one sample line of a Prometheus text exposition."""
    inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
    prefix = f"{name}{{{inner}}} " if labels else f"{name} "
    (line,) = [l for l in text.splitlines() if l.startswith(prefix)]
    return float(line[len(prefix):])


JOB_EVENTS = ("submitted", "accepted", "rejected", "completed", "failed",
              "cache_hits", "dedup_fanout", "solved", "pool_rebuilds",
              "degraded", "cache_errors")
FAILURE_CAUSES = ("broken_pool", "worker_error", "completion_error")
#: Prometheus gauge -> the JSON ``/metrics`` key it mirrors.
GAUGES = {"draining": "draining", "queue_depth": "queue_depth",
          "dedup_followers": "dedup_followers", "queue_limit": "queue_limit",
          "jobs_running": "running", "jobs_in_flight": "in_flight",
          "pool_workers": "pool_workers", "cache_hit_rate": "cache_hit_rate"}


class TestMetricsViewsAgree:
    """The JSON ``/metrics`` payload and ``?format=prometheus`` read the
    same registry instruments, so each counter and gauge agrees."""

    @pytest.fixture(scope="class")
    def scrapes(self):
        """One scrape with work queued, one after a solve, a dedupe
        follower, a 400-style rejection, a worker failure and a cache
        hit."""
        async def scenario():
            manager, pool = make_manager(cache=ResultCache(), queue_limit=2,
                                         workers=3)
            primary = manager.submit(request_obj(seed=1))
            follower = manager.submit(request_obj(seed=1))
            failing = manager.submit(request_obj(seed=2))
            with pytest.raises(QueueFull):
                manager.submit(request_obj(seed=3))
            queued = (manager.prometheus(), manager.metrics())

            def solve_or_fail(job):
                if job["fingerprint"] == failing.fingerprint:
                    raise RuntimeError("worker exploded")
                return _worker_solve(job)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("repro.service.jobs._worker_solve", solve_or_fail)
                manager.start()
                await finish(manager, primary, follower, failing)
            hit = manager.submit(request_obj(seed=1))
            assert hit.via == "cache"
            final = (manager.prometheus(), manager.metrics())
            await manager.drain()
            pool.close()
            return {"queued": queued, "final": final}

        return asyncio.run(scenario())

    def test_scenario_counts(self, scrapes):
        _, m = scrapes["final"]
        assert {k: v for k, v in m["jobs"].items() if v} == {
            "submitted": 5, "accepted": 4, "rejected": 1, "dedup_fanout": 1,
            "cache_hits": 1, "solved": 1, "degraded": 1, "completed": 4,
        }
        assert m["failures"] == {"broken_pool": 0, "worker_error": 1,
                                 "completion_error": 0}

    @pytest.mark.parametrize("event", JOB_EVENTS)
    def test_job_event(self, scrapes, event):
        text, m = scrapes["final"]
        assert type(m["jobs"][event]) is int
        assert sample(text, "repro_jobs_total", event=event) == m["jobs"][event]

    @pytest.mark.parametrize("cause", FAILURE_CAUSES)
    def test_failure_cause(self, scrapes, cause):
        text, m = scrapes["final"]
        assert type(m["failures"][cause]) is int
        assert (sample(text, "repro_solve_failures_total", cause=cause)
                == m["failures"][cause])

    def test_engine_solves(self, scrapes):
        text, m = scrapes["final"]
        ((algorithm, count),) = m["engines"].items()
        assert count == 1
        assert sample(text, "repro_engine_solves_total",
                      algorithm=algorithm) == count

    def test_cache_events(self, scrapes):
        text, m = scrapes["final"]
        assert m["cache"]
        for event, count in m["cache"].items():
            assert sample(text, "repro_cache_events_total", event=event) == count

    @pytest.mark.parametrize("gauge", sorted(GAUGES))
    def test_gauge_while_queued(self, scrapes, gauge):
        text, m = scrapes["queued"]
        assert sample(text, f"repro_{gauge}") == pytest.approx(
            float(m[GAUGES[gauge]]))

    def test_gauges_after_the_run(self, scrapes):
        text, m = scrapes["final"]
        assert m["queue_depth"] == m["running"] == 0
        assert m["cache_hit_rate"] == pytest.approx(1 / 5)
        for gauge, key in GAUGES.items():
            assert sample(text, f"repro_{gauge}") == pytest.approx(float(m[key]))


class TestHistoryEviction:
    def test_finished_jobs_evicted_beyond_limit(self):
        async def scenario():
            manager, pool = make_manager(history_limit=2)
            manager.start()
            jobs = [manager.submit(request_obj(seed=s)) for s in range(4)]
            for job in jobs:
                await finish(manager, job)
            # One more submission triggers eviction of old finished jobs.
            last = manager.submit(request_obj(seed=9))
            await finish(manager, last)
            assert manager.get(jobs[0].id) is None
            assert manager.get(last.id) is last
            await manager.drain()
            pool.close()

        asyncio.run(scenario())

    def test_active_head_is_skipped_not_evicted(self):
        async def scenario():
            cache = ResultCache()
            warm, warm_pool = make_manager(cache=cache)
            warm.start()
            for s in range(4):
                await finish(warm, warm.submit(request_obj(seed=s)))
            await warm.drain()
            warm_pool.close()

            manager, pool = make_manager(cache=cache, history_limit=2)
            # Not started: the head job stays queued while every later
            # submission is a cache hit that finishes at admit.
            head = manager.submit(request_obj(seed=9))
            hits = [manager.submit(request_obj(seed=s)) for s in range(4)]
            assert [job.via for job in hits] == ["cache"] * 4
            assert head.active and manager.get(head.id) is head
            assert [manager.get(job.id) for job in hits] == [
                None, None, None, hits[3]]
            manager.start()
            await finish(manager, head)
            await manager.drain()
            pool.close()

        asyncio.run(scenario())


class TestFleetReadiness:
    """The JobManager surface the fleet router depends on: deep
    checks, the adaptive Retry-After hint, and dedupe-follower
    visibility."""

    def test_deep_checks_healthy(self):
        async def scenario():
            manager, pool = make_manager()
            checks = await manager.deep_checks()
            assert checks == {"pool": "ok", "cache": "ok"}
            pool.close()

        asyncio.run(scenario())

    def test_deep_checks_report_a_sick_pool(self):
        async def scenario():
            manager, pool = make_manager()
            pool.liveness_report = "1 of 2 worker processes dead"
            checks = await manager.deep_checks()
            assert checks["pool"] == "1 of 2 worker processes dead"
            pool.close()

        asyncio.run(scenario())

    def test_deep_checks_report_a_broken_cache(self):
        from repro.service.shardcache import CacheBackend, CacheBackendError

        class DeadStore(CacheBackend):
            kind = "dead"

            def load(self, fingerprint):
                return None

            def store(self, entry):
                raise CacheBackendError("disk gone")

            def count(self):
                return 0

            def contains(self, fingerprint):
                return False

            def probe(self):
                raise CacheBackendError("disk gone")

        async def scenario():
            pool = ThreadPool()
            manager = JobManager(pool, cache=ResultCache(DeadStore()))
            checks = await manager.deep_checks()
            assert checks["pool"] == "ok"
            assert "disk gone" in checks["cache"]
            pool.close()

        asyncio.run(scenario())

    def test_retry_after_hint_scales_with_backlog(self):
        manager, pool = make_manager()
        assert manager.retry_after_hint() == 1  # idle: the floor
        for seed in range(4):
            manager.submit(request_obj(seed=seed))  # not started: queued
        manager._solve_ewma = 5.0
        # 4 pending x 5s each / 1 runner = 20s.
        assert manager.retry_after_hint() == 20
        manager._solve_ewma = 100.0
        assert manager.retry_after_hint() == 30  # clamped to the cap
        pool.close()

    def test_dedup_followers_counted_separately_from_queue(self):
        manager, pool = make_manager()
        first = manager.submit(request_obj(seed=3))
        follower = manager.submit(request_obj(seed=3))  # same fingerprint
        assert follower.fingerprint == first.fingerprint
        assert manager.followers_waiting() == 1
        m = manager.metrics()
        assert m["dedup_followers"] == 1
        assert m["queue_depth"] == 1  # uniques only
        pool.close()

    def test_shard_id_labels_metrics(self):
        pool = ThreadPool()
        manager = JobManager(pool, shard_id="s7")
        assert manager.metrics()["shard"] == "s7"
        assert "shard" not in make_manager()[0].metrics()
        pool.close()
