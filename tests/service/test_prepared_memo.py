"""The daemon's prepared-request memo: body bytes -> PreparedRequest.

A byte-identical ``POST /v1/solve`` repeat skips JSON parse, graph
build, cost selection, fingerprinting and the executor hop, and goes
straight to the cache lookup and admission.  These tests pin what a hit
may skip and what it may not:

* parity — a hit gets the same answer as a miss, ``wait: false`` still
  answers 202, drain still answers 503 and a full queue 429;
* isolation — the options record a hit shares is frozen, so no option
  set on one job can reach another;
* storage — only bodies ``prepare`` accepted are stored, distinct
  bodies get distinct entries, and the memo stays inside its entry and
  byte bounds.
"""

from __future__ import annotations

import dataclasses
import http.client
import json

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.io import graph_to_dict
from repro.service import server as server_mod
from repro.service.batch import SolveOptions, item_from_request
from repro.service.jobs import JobManager, PreparedRequest
from repro.service.server import SolverServer, _PreparedMemo


def graph_for(seed: int, v: int = 8):
    return paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=1.0, seed=seed))


def body_for(seed: int = 1, **fields) -> bytes:
    obj = {"graph": graph_to_dict(graph_for(seed)), "pes": 2, **fields}
    return json.dumps(obj).encode()


def _post(port: int, body: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/v1/solve", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.fixture
def prepare_calls(monkeypatch):
    """Count ``JobManager.prepare`` calls (the memo's miss path)."""
    calls: list[dict] = []
    original = JobManager.prepare

    def counting(self, obj):
        calls.append(obj)
        return original(self, obj)

    monkeypatch.setattr(JobManager, "prepare", counting)
    return calls


def _serve(**kwargs):
    kwargs.setdefault("solver_workers", 1)
    kwargs.setdefault("options", SolveOptions(max_expansions=20_000))
    srv = SolverServer(port=0, **kwargs)
    thread = srv.serve_in_thread()
    return srv, thread


def _stop(srv: SolverServer, thread) -> None:
    srv.shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def server():
    srv, thread = _serve(queue_limit=8)
    yield srv
    _stop(srv, thread)


# ---------------------------------------------------------------------------
# The memo as a data structure


def _prepared(tag: int = 0) -> PreparedRequest:
    item = item_from_request({"graph": graph_to_dict(graph_for(1)), "pes": 2})
    return PreparedRequest(item, f"fp{tag}", (0,), SolveOptions())


class TestMemoUnit:
    def test_miss_then_hit(self):
        memo = _PreparedMemo()
        assert memo.get(b"a") is None
        prepared = _prepared()
        memo.put(b"a", prepared, False)
        got, wait = memo.get(b"a")
        assert wait is False
        assert got.item is prepared.item and got.fingerprint == "fp0"
        assert got.options is prepared.options
        assert len(memo) == 1 and memo.nbytes == 1

    def test_hits_share_a_frozen_options_record(self):
        memo = _PreparedMemo()
        prepared = _prepared()
        memo.put(b"a", prepared, True)
        first, _ = memo.get(b"a")
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.options.epsilon = 7.0  # type: ignore[misc]
        second, _ = memo.get(b"a")
        assert second.options.epsilon == SolveOptions().epsilon

    def test_repeated_put_counts_once(self):
        memo = _PreparedMemo()
        memo.put(b"abc", _prepared(), True)
        memo.put(b"abc", _prepared(1), True)
        assert len(memo) == 1 and memo.nbytes == 3
        assert memo.get(b"abc")[0].fingerprint == "fp0"


class TestMemoBounds:
    def test_entry_cap_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(server_mod, "_MEMO_ENTRIES", 3)
        memo = _PreparedMemo()
        for key in (b"a", b"b", b"c"):
            memo.put(key, _prepared(), True)
        memo.get(b"a")  # a is now the most recent
        memo.put(b"d", _prepared(), True)
        assert b"b" not in memo
        assert all(key in memo for key in (b"a", b"c", b"d"))
        memo.put(b"e", _prepared(), True)
        assert b"c" not in memo and len(memo) == 3

    def test_byte_budget_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(server_mod, "_MEMO_BYTES", 10)
        memo = _PreparedMemo()
        memo.put(b"1111", _prepared(), True)
        memo.put(b"2222", _prepared(), True)
        assert memo.nbytes == 8
        memo.put(b"333", _prepared(), True)  # 11 bytes: 1111 goes
        assert b"1111" not in memo
        assert b"2222" in memo and b"333" in memo and memo.nbytes == 7

    def test_body_over_the_limit_is_never_stored(self, monkeypatch):
        monkeypatch.setattr(server_mod, "_MEMO_MAX_BODY", 4)
        memo = _PreparedMemo()
        memo.put(b"12345", _prepared(), True)
        assert len(memo) == 0 and memo.nbytes == 0
        memo.put(b"1234", _prepared(), True)
        assert b"1234" in memo

    def test_growing_bodies_never_exceed_the_budget(self, monkeypatch):
        monkeypatch.setattr(server_mod, "_MEMO_BYTES", 1000)
        monkeypatch.setattr(server_mod, "_MEMO_MAX_BODY", 400)
        memo = _PreparedMemo()
        for size in range(1, 500, 7):
            memo.put(bytes([size % 251]) * size, _prepared(), True)
            assert memo.nbytes <= 1000
            assert memo.nbytes == sum(len(k) for k in memo._entries)
        assert 0 < len(memo) < 10

    def test_live_body_over_the_limit_is_answered_not_stored(
        self, server, monkeypatch, prepare_calls
    ):
        body = body_for(seed=7, name="too-big")
        monkeypatch.setattr(server_mod, "_MEMO_MAX_BODY", len(body) - 1)
        first = _post(server.port, body)
        second = _post(server.port, body)
        assert first[0] == second[0] == 200
        assert second[1]["via"] == "cache"
        assert second[1]["result"]["assignment"] == first[1]["result"]["assignment"]
        assert body not in server._memo
        assert len(prepare_calls) == 2


# ---------------------------------------------------------------------------
# Parity on a live daemon


class TestMemoParity:
    def test_identical_repeat_prepares_once_same_answer(
        self, server, prepare_calls
    ):
        body = body_for(seed=11)
        first = _post(server.port, body)
        second = _post(server.port, body)
        assert first[0] == second[0] == 200
        assert len(prepare_calls) == 1
        assert first[1]["via"] == "solve" and second[1]["via"] == "cache"
        assert second[1]["result"]["makespan"] == first[1]["result"]["makespan"]
        assert second[1]["result"]["assignment"] == first[1]["result"]["assignment"]
        assert second[1]["fingerprint"] == first[1]["fingerprint"]
        assert first[1]["id"] != second[1]["id"]
        assert first[1]["name"] == first[1]["id"]  # unnamed: job id
        assert second[1]["name"] == second[1]["id"]

    def test_wait_false_hit_still_answers_202(self, server, prepare_calls):
        body = body_for(seed=12, wait=False)
        first = _post(server.port, body)
        second = _post(server.port, body)
        assert first[0] == second[0] == 202
        assert len(prepare_calls) == 1
        assert body in server._memo

    def test_distinct_bodies_get_distinct_entries(self, server, prepare_calls):
        variants = [
            body_for(seed=13),
            body_for(seed=13, epsilon=0.0),
            body_for(seed=13, name="named"),
            json.dumps({"graph": graph_to_dict(graph_for(13)), "pes": 3}).encode(),
        ]
        before = len(server._memo)
        answers = [_post(server.port, body) for body in variants]
        assert all(status == 200 for status, _ in answers)
        assert len(prepare_calls) == len(variants)
        assert len(server._memo) == before + len(variants)
        assert answers[2][1]["name"] == "named"
        # pes=3 is a different instance: a different fingerprint.
        assert answers[3][1]["fingerprint"] != answers[0][1]["fingerprint"]
        for body in variants:  # every one now hits
            assert _post(server.port, body)[0] == 200
        assert len(prepare_calls) == len(variants)

    @pytest.mark.parametrize("body", [
        b"{not json",
        b"[1, 2]",
        body_for(seed=14, wait="yes"),
        body_for(seed=14).replace(b"[", b"[NaN, ", 1),
        body_for(seed=14).replace(b"[", b"[1e999, ", 1),
        body_for(seed=14, mode="nope"),
        body_for(seed=14, deadline=-1),
    ], ids=["malformed", "array", "wait-type", "nan-literal", "overflow",
            "bad-mode", "bad-deadline"])
    def test_bad_body_gets_400_every_time_and_is_never_stored(
        self, server, body
    ):
        before = server.manager.metrics()["jobs"]["submitted"]
        for _ in range(3):
            status, payload = _post(server.port, body)
            assert status == 400, payload
        assert body not in server._memo
        assert server.manager.metrics()["jobs"]["submitted"] == before

    def test_no_jobs_options_can_reach_a_later_hit(self, server):
        body = body_for(seed=15)
        first = _post(server.port, body)[1]
        job = server.manager.get(first["id"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.options.epsilon = 123.0  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.options.max_expansions = 1  # type: ignore[misc]
        second = _post(server.port, body)[1]
        later = server.manager.get(second["id"])
        assert later.options.epsilon == server.manager.options.epsilon
        assert later.options.max_expansions == 20_000


class TestMemoHitAdmission:
    def test_hit_during_drain_gets_503(self, prepare_calls):
        srv, thread = _serve(queue_limit=4)
        try:
            body = body_for(seed=21)
            assert _post(srv.port, body)[0] == 200
            srv.manager.draining = True
            status, payload = _post(srv.port, body)
            assert status == 503 and "draining" in payload["error"]
            assert len(prepare_calls) == 1  # the 503 was a memo hit
        finally:
            srv.manager.draining = False
            _stop(srv, thread)

    def test_hit_on_a_full_queue_gets_429(self, prepare_calls):
        srv, thread = _serve(queue_limit=4)
        try:
            body = body_for(seed=22)
            srv.manager.queue_limit = 0  # every unique solve is refused
            assert _post(srv.port, body)[0] == 429
            assert body in srv._memo  # prepared fine; admission refused
            status, payload = _post(srv.port, body)
            assert status == 429 and "capacity" in payload["error"]
            assert len(prepare_calls) == 1
            srv.manager.queue_limit = 4
            status, payload = _post(srv.port, body)
            assert status == 200 and payload["via"] == "solve"
            assert len(prepare_calls) == 1
            assert srv.manager.metrics()["jobs"]["rejected"] == 2
        finally:
            _stop(srv, thread)
