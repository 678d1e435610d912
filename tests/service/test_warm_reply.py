"""Warm replies: the rendered result is reused, the bytes never change.

A finished job's makespan, ``[node, pe, start]`` rows and their JSON
are built once per (cache entry, request node order) and reused by
every later job served from the same entry; the daemon's reply splices
the encoded rows into the snapshot instead of encoding them again.
These tests pin that the spliced reply is byte for byte
``render_response(200, job.snapshot())`` — on the wire, for body-memo
hits, relabelled twins, ``require_proven`` requests and a hit served
after a proven entry replaced the unproven one rendered before — and
that the render memo never serves a rendering of a replaced entry.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.io import graph_to_dict
from repro.schedule.fingerprint import assignment_from_canonical
from repro.schedule.schedule import Schedule
from repro.service import jobs as jobs_mod
from repro.service.batch import SolveOptions
from repro.service.cache import CacheEntry, ResultCache
from repro.service.httpwire import render_response, splice_json
from repro.service.server import SolverServer, _snapshot_reply
from tests.service.test_fingerprint import permuted
from tests.service.test_jobs import make_manager, request_obj


def graph_for(seed: int, v: int = 10):
    return paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=1.0, seed=seed))


def body_for(graph, **fields) -> bytes:
    return json.dumps({"graph": graph_to_dict(graph), "pes": 3, **fields}).encode()


def post_raw(port: int, body: bytes) -> bytes:
    """One ``POST /v1/solve``; the whole response exactly as sent."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(
            b"POST /v1/solve HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def rows_of(entry: CacheEntry, graph, system, order) -> list[list]:
    schedule = Schedule(graph, system, assignment_from_canonical(order, entry.assignment))
    return [[t.node, t.pe, t.start] for t in schedule.tasks]


class TestSpliceJson:
    @pytest.mark.parametrize("obj, key", [
        ({"a": [1, 2.5]}, "a"),
        ({"a": [[0, 1, 0.1]], "b": "x", "c": None}, "a"),
        ({"n": "é \"q\"", "a": [[3, 0, 1e-07]], "z": 1.0}, "a"),
        ({"n": 1, "m": {"k": [1]}, "a": []}, "a"),
    ])
    def test_equals_json_dumps(self, obj, key):
        assert splice_json(obj, key, json.dumps(obj[key])) == json.dumps(obj)

    def test_nests(self):
        inner = {"makespan": 3.0, "assignment": [[0, 1, 0.0]], "reason": "r"}
        outer = {"id": "j1", "result": inner}
        text = splice_json(outer, "result",
                           splice_json(inner, "assignment", "[[0, 1, 0.0]]"))
        assert text == json.dumps(outer)


@pytest.fixture(scope="module")
def daemon():
    srv = SolverServer(port=0, solver_workers=1,
                       options=SolveOptions(max_expansions=50_000))
    thread = srv.serve_in_thread()
    yield srv
    srv.shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive()


def answer(srv: SolverServer, body: bytes) -> dict:
    """Post ``body``; check the reply bytes against the job's snapshot
    rendered afresh, and return that snapshot."""
    raw = post_raw(srv.port, body)
    job = srv.manager.get(json.loads(raw.partition(b"\r\n\r\n")[2])["id"])
    assert job is not None and job.state == "done"
    assert raw == render_response(200, job.snapshot())
    return job.snapshot()


class TestWireBytes:
    def test_body_memo_hit(self, daemon):
        body = body_for(graph_for(seed=61))
        first = answer(daemon, body)
        assert body in daemon._memo
        again = answer(daemon, body)
        assert (first["via"], again["via"]) == ("solve", "cache")
        assert again["result"]["assignment"] == first["result"]["assignment"]

    def test_relabelled_twin(self, daemon):
        graph = graph_for(seed=62)
        first = answer(daemon, body_for(graph))
        twin = answer(daemon, body_for(permuted(graph, seed=3)))
        assert twin["via"] == "cache"
        assert twin["fingerprint"] == first["fingerprint"]
        assert twin["result"]["makespan"] == first["result"]["makespan"]
        assert twin["result"]["assignment"] != first["result"]["assignment"]

    def test_require_proven(self, daemon):
        graph = graph_for(seed=63)
        first = answer(daemon, body_for(graph))
        assert first["result"]["certificate"] == "proven"
        again = answer(daemon, body_for(graph, require_proven=True))
        assert again["via"] == "cache"
        for key in ("makespan", "certificate", "assignment"):
            assert again["result"][key] == first["result"][key]

    def test_hit_after_proven_entry_replaced_rendered_one(self, daemon):
        graph = graph_for(seed=65, v=12)
        budget = answer(daemon, body_for(graph, max_expansions=1))
        assert budget["result"]["certificate"] != "proven"
        rendered = answer(daemon, body_for(graph))
        assert rendered["via"] == "cache"
        assert rendered["result"]["certificate"] == budget["result"]["certificate"]
        proven = answer(daemon, body_for(graph, require_proven=True))
        assert (proven["via"], proven["result"]["certificate"]) == ("solve", "proven")
        hit = answer(daemon, body_for(graph))
        assert (hit["via"], hit["result"]["certificate"]) == ("cache", "proven")
        entry = daemon.cache.memory_hit(hit["fingerprint"])
        job = daemon.manager.get(hit["id"])
        assert hit["result"]["makespan"] == entry.makespan
        assert hit["result"]["assignment"] == rows_of(
            entry, job.item.graph, job.item.system, job.order)


class TestRenderMemo:
    def test_reused_for_one_entry_rebuilt_for_a_better_one(self):
        async def scenario():
            cache = ResultCache()
            manager, pool = make_manager(cache=cache)
            manager.start()
            first = manager.submit(request_obj(seed=71, max_expansions=1))
            await asyncio.wait_for(first.done.wait(), timeout=60)
            assert first.result["certificate"] != "proven"
            hit = manager.submit(request_obj(seed=71))
            assert hit.via == "cache"
            assert hit.result["assignment"] is first.result["assignment"]
            assert hit.assignment_json is first.assignment_json
            better = manager.submit(request_obj(seed=71, require_proven=True))
            await asyncio.wait_for(better.done.wait(), timeout=60)
            assert better.result["certificate"] == "proven"
            after = manager.submit(request_obj(seed=71))
            assert after.via == "cache" and after.result["certificate"] == "proven"
            assert after.result["assignment"] is better.result["assignment"]
            entry = cache.memory_hit(after.fingerprint)
            assert after.result["assignment"] == rows_of(
                entry, after.item.graph, after.item.system, after.order)
            assert after.assignment_json == json.dumps(after.result["assignment"])
            await manager.drain()
            pool.close()

        asyncio.run(scenario())

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "_RENDER_MEMO", 2)

        async def scenario():
            manager, pool = make_manager(cache=ResultCache())
            manager.start()
            for seed in (81, 82, 83):
                job = manager.submit(request_obj(v=6, seed=seed))
                await asyncio.wait_for(job.done.wait(), timeout=60)
            assert len(manager._renders) == 2
            await manager.drain()
            pool.close()

        asyncio.run(scenario())

    def test_snapshot_reply_of_unfinished_job_is_the_plain_view(self):
        async def scenario():
            manager, pool = make_manager(cache=ResultCache())
            job = manager.submit(request_obj(seed=91))
            status, payload, _ = _snapshot_reply(202, job)
            assert payload == job.snapshot()
            manager.start()
            await asyncio.wait_for(job.done.wait(), timeout=60)
            status, payload, _ = _snapshot_reply(200, job)
            assert isinstance(payload, bytes)
            assert render_response(status, payload) == render_response(
                200, job.snapshot())
            await manager.drain()
            pool.close()

        asyncio.run(scenario())
