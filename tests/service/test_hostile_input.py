"""Non-finite numbers are refused at the request boundary.

Python's ``json.loads`` accepts the non-standard ``NaN``/``Infinity``
literals and reads an overflowing literal such as ``1e999`` as ``inf``;
an integer too large for a float makes ``float()`` raise
``OverflowError``.  Before the boundary checks, a body with a ``NaN`` edge cost solved to a
``proven`` makespan and was cached under its fingerprint.  Now:

* both HTTP listeners parse with :func:`httpwire.reject_nonfinite`, so a
  literal is invalid JSON (400);
* :class:`TaskGraph` and :class:`ProcessorSystem` refuse non-finite
  weights, costs and speeds, so an overflowing number — or a literal
  that reached the model through a permissive parser — is a
  ``ReproError``, which both listeners answer with a 400.

The per-request solver limits (``deadline``, ``epsilon``,
``max_expansions``, ``max_memory_mb``) are range-checked against the
largest finite float by the daemon's option validation, so ``1e999``
or a 400-digit integer there is a 400 too — which the router passes on.
The switches (``preprocess``, ``require_proven``) accept only JSON
booleans: a string such as ``"no"`` is a 400, not a truthy ``True``.

A repeated ``(src, dst)`` edge is refused by the graph parser
(``GraphError``, so a 400): read into a mapping, the last cost would
win, and the answer would depend on the order of the two rows.

No hostile body may get a 500, reach a solver, leave a cache entry, or
be memoized as a prepared request.
"""

from __future__ import annotations

import asyncio
import http.client
import json

import pytest

from repro.errors import GraphError, ReproError
from repro.graph.io import graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.graph.validate import validate_graph
from repro.service import httpwire
from repro.service.batch import SolveOptions, item_from_request
from repro.service.jobs import JobManager
from repro.service.server import SolverServer
from repro.system.processors import ProcessorSystem, system_to_dict
from tests.service.test_router import StubShard, make_router, ok_shard, solve_via

_GRAPH = TaskGraph([2.0, 3.0, 4.0, 1.0], {(0, 1): 1.0, (0, 2): 2.0, (1, 3): 1.0, (2, 3): 1.0})
_HOLE = '"__hostile__"'


def _body(field: str, literal: str) -> bytes:
    """A valid request with one number replaced by ``literal`` verbatim."""
    obj = {"graph": graph_to_dict(_GRAPH), "pes": 2}
    if field == "weight":
        obj["graph"]["weights"][1] = "__hostile__"
    elif field == "cost":
        obj["graph"]["edges"][2][2] = "__hostile__"
    else:
        obj["system"] = system_to_dict(ProcessorSystem.fully_connected(2))
        obj["system"]["speeds"] = [1.0, "__hostile__"]
        del obj["pes"]
    text = json.dumps(obj)
    assert text.count(_HOLE) == 1
    return text.replace(_HOLE, literal).encode()


#: Non-finite JSON literals: invalid JSON at both listeners.
LITERALS = [
    ("cost", "NaN"), ("cost", "Infinity"), ("weight", "NaN"),
    ("weight", "Infinity"), ("weight", "-Infinity"), ("speed", "Infinity"),
]
#: Standard JSON numbers too large for a float: ``1e999`` reads as
#: ``inf``, and a 400-digit integer makes ``float()`` raise
#: ``OverflowError``.  Both are refused by the model.
_HUGE_INT = "9" * 400
OVERFLOWS = [
    ("cost", "1e999"), ("weight", "1e999"), ("speed", "1e999"),
    ("cost", _HUGE_INT), ("weight", _HUGE_INT), ("speed", _HUGE_INT),
]
HOSTILE = LITERALS + OVERFLOWS


#: Per-request solver limits, each sent as a number too large for a float.
OPTION_FIELDS = ("deadline", "epsilon", "max_expansions", "max_memory_mb")
OPTION_OVERFLOWS = [
    (field, literal) for field in OPTION_FIELDS for literal in ("1e999", _HUGE_INT)
]


#: Non-boolean values for the boolean switches (``bool("no")`` is True).
OPTION_NON_BOOLEANS = [
    ("preprocess", '"no"'), ("require_proven", '"false"'),
    ("preprocess", "1"), ("require_proven", "0"),
]


def _option_body(field: str, literal: str) -> bytes:
    """A valid request carrying ``field`` with the number ``literal``."""
    text = json.dumps({"graph": graph_to_dict(_GRAPH), "pes": 2, field: "__hostile__"})
    return text.replace(_HOLE, literal).encode()


def _duplicate_edge_body(cost: float) -> bytes:
    """A valid request whose edge ``(0, 1)`` is listed a second time
    at ``cost``."""
    obj = {"graph": graph_to_dict(_GRAPH), "pes": 2}
    obj["graph"]["edges"].append([0, 1, cost])
    return json.dumps(obj).encode()


#: Duplicates of edge ``(0, 1)`` (cost 1.0): a higher, an equal and a
#: lower repeat are all refused.
DUPLICATE_BODIES = [_duplicate_edge_body(c) for c in (500.0, 1.0, 0.0)]


def _id(case: tuple[str, str]) -> str:
    literal = case[1] if len(case[1]) < 20 else f"{len(case[1])}-digit-int"
    return f"{case[0]}={literal}"


@pytest.mark.parametrize("case", HOSTILE, ids=_id)
def test_item_from_request_refuses_non_finite_values(case):
    # The permissive stdlib parser lets every case through; the model
    # constructors must still refuse it.
    # (NaN and -inf weights were already refused as non-positive.)
    obj = json.loads(_body(*case))
    with pytest.raises(ReproError, match="non-finite|non-positive"):
        item_from_request(obj)


@pytest.mark.parametrize("body", DUPLICATE_BODIES)
def test_item_from_request_refuses_a_duplicate_edge(body):
    with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
        item_from_request(json.loads(body))


@pytest.mark.parametrize("case", LITERALS, ids=_id)
def test_listener_parser_refuses_non_finite_literals(case):
    with pytest.raises(ValueError, match="non-finite literal"):
        json.loads(_body(*case), parse_constant=httpwire.reject_nonfinite)


def test_model_constructors_refuse_non_finite_values():
    inf, nan = float("inf"), float("nan")
    for weights, edges in (([1.0, inf], {}), ([1.0, 2.0], {(0, 1): nan}),
                           ([1.0, 2.0], {(0, 1): inf})):
        with pytest.raises(ReproError, match="non-finite"):
            TaskGraph(weights, edges)
    with pytest.raises(ReproError, match="non-finite"):
        ProcessorSystem.fully_connected(2, speeds=[1.0, inf])
    huge = 10**400
    for weights, edges in (([1.0, huge], {}), ([1.0, 2.0], {(0, 1): huge})):
        with pytest.raises(ReproError, match="non-finite"):
            TaskGraph(weights, edges)
        with pytest.raises(ReproError, match="non-finite"):
            validate_graph(weights, edges)
    with pytest.raises(ReproError, match="non-finite"):
        ProcessorSystem.fully_connected(2, speeds=[1.0, huge])


@pytest.fixture(scope="module")
def server():
    srv = SolverServer(port=0, solver_workers=1, queue_limit=4,
                       options=SolveOptions(max_expansions=5_000))
    thread = srv.serve_in_thread()
    yield srv
    srv.shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive()


def _post(port: int, body: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/v1/solve", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def test_live_server_answers_hostile_bodies_with_400(server):
    for case in HOSTILE:
        status, payload = _post(server.port, _body(*case))
        assert status == 400, (case, payload)
        assert "non-finite" in payload["error"], (case, payload)
    metrics = server.manager.metrics()
    assert metrics["jobs"]["submitted"] == 0
    assert metrics["cache"]["stored_entries"] == 0
    # The same body with finite numbers is solved and cached.
    status, payload = _post(server.port, _body("cost", "2.5"))
    assert status == 200 and payload["result"]["certificate"] == "proven"
    assert server.manager.metrics()["cache"]["stored_entries"] == 1


def test_live_server_answers_duplicate_edges_with_400(server):
    before = server.manager.metrics()
    memoized = len(server._memo)
    for body in DUPLICATE_BODIES:
        status, payload = _post(server.port, body)
        assert status == 400, payload
        assert "duplicate edge (0, 1)" in payload["error"], payload
        assert body not in server._memo
    after = server.manager.metrics()
    assert after["jobs"]["submitted"] == before["jobs"]["submitted"]
    assert after["cache"]["stored_entries"] == before["cache"]["stored_entries"]
    assert len(server._memo) == memoized


def test_router_answers_duplicate_edges_with_400_and_never_forwards():
    async def scenario():
        async with StubShard(ok_shard("a")) as s0:
            router = await make_router(s0)
            try:
                for body in DUPLICATE_BODIES:
                    status, _, data = await solve_via(router, body)
                    assert status == 400, data
                    assert b"duplicate edge (0, 1)" in data, data
                assert s0.requests == []
                assert router.metrics()["routing"]["bad_requests"] == len(DUPLICATE_BODIES)
            finally:
                await router.drain()

    asyncio.run(scenario())


def test_router_answers_hostile_bodies_with_400_and_never_forwards():
    async def scenario():
        async with StubShard(ok_shard("a")) as s0:
            router = await make_router(s0)
            try:
                for case in HOSTILE:
                    status, _, data = await solve_via(router, _body(*case))
                    assert status == 400, (case, data)
                    assert b"non-finite" in data, (case, data)
                assert s0.requests == []
                assert router.metrics()["routing"]["bad_requests"] == len(HOSTILE)
            finally:
                await router.drain()

    asyncio.run(scenario())


@pytest.mark.parametrize("case", OPTION_OVERFLOWS, ids=_id)
def test_prepare_refuses_overflowing_solver_limits(case):
    obj = json.loads(_option_body(*case))
    item_from_request(obj)  # the instance itself is fine
    with pytest.raises(ValueError, match=case[0]):
        JobManager(None).prepare(obj)


@pytest.mark.parametrize("case", OPTION_NON_BOOLEANS, ids=_id)
def test_prepare_refuses_non_boolean_switches(case):
    obj = json.loads(_option_body(*case))
    with pytest.raises(ValueError, match=f"{case[0]} must be a boolean"):
        JobManager(None).prepare(obj)


def test_live_server_answers_overflowing_limits_with_400(server):
    before = server.manager.metrics()
    memoized = len(server._memo)
    for case in OPTION_OVERFLOWS + OPTION_NON_BOOLEANS:
        body = _option_body(*case)
        status, payload = _post(server.port, body)
        assert status == 400, (case, payload)
        assert case[0] in payload["error"], (case, payload)
        assert body not in server._memo
    after = server.manager.metrics()
    assert after["jobs"]["submitted"] == before["jobs"]["submitted"]
    assert after["cache"]["stored_entries"] == before["cache"]["stored_entries"]
    assert len(server._memo) == memoized


def test_router_passes_the_daemons_400_on_for_overflowing_limits(server):
    async def scenario():
        router = await make_router(server)
        try:
            for case in OPTION_OVERFLOWS:
                status, _, data = await solve_via(router, _option_body(*case))
                assert status == 400, (case, data)
                assert case[0].encode() in data, (case, data)
            assert router.metrics()["shards"]["s0"]["errors"] == 0
        finally:
            await router.drain()

    before = server.manager.metrics()
    asyncio.run(scenario())
    after = server.manager.metrics()
    assert after["jobs"]["submitted"] == before["jobs"]["submitted"]
    assert after["cache"]["stored_entries"] == before["cache"]["stored_entries"]
