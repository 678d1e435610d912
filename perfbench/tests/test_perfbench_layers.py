"""The layer wrappers: originals come back, no call is added, self times nest."""

import asyncio
import json
import time

import layers
import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.schedule.partial import PartialSchedule
from repro.search import astar, costs, expansion, focal, weighted
from repro.search.astar import astar_schedule
from repro.service import cache, client, httpwire, jobs, portfolio, router, server
from repro.system.processors import ProcessorSystem

OWNERS = [
    (client.ServerClient, "request"), (client, "json"),
    (server.SolverServer, "_handle"), (server, "json"),
    (httpwire, "read_request"), (httpwire, "render_response"),
    (httpwire, "deliver_response"), (httpwire, "fetch"),
    (jobs.JobManager, "prepare"), (jobs.JobManager, "admit"),
    (jobs.JobManager, "cache_lookup"), (jobs.JobManager, "_finish"),
    (jobs.JobManager, "_complete"), (jobs, "item_from_request"),
    (jobs, "canonical_order"), (jobs, "instance_fingerprint"),
    (cache.ResultCache, "get"), (cache.ResultCache, "put"),
    (router.ShardRouter, "_handle"), (router.ShardRouter, "_routing_key"),
    (router.ShardRouter, "_forward_solve"), (router, "json"),
    (router, "item_from_request"),
    (expansion.StateExpander, "children"),
    (PartialSchedule, "extend"), (PartialSchedule, "child_signature"),
    (costs.PaperCost, "h"), (costs.CombinedCost, "h"), (costs.LoadBoundCost, "h"),
    (astar, "heapq"), (weighted, "heapq"), (focal, "heapq"),
    (portfolio, "preprocess_instance"),
    (asyncio.base_events.BaseEventLoop, "run_in_executor"),
]


def _instance():
    graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=5))
    return graph, ProcessorSystem.fully_connected(2)


def test_uninstall_restores_every_original():
    before = [owner.__dict__[attr] for owner, attr in OWNERS]
    inst = layers.Installer(layers.Recorder())
    layers.client_targets(inst)
    layers.server_targets(inst)
    layers.router_targets(inst)
    layers.search_targets(inst)
    assert any(owner.__dict__[attr] is not orig
               for (owner, attr), orig in zip(OWNERS, before))
    inst.uninstall()
    for (owner, attr), orig in zip(OWNERS, before):
        assert owner.__dict__[attr] is orig, (owner, attr)


@pytest.mark.parametrize("cost", ["paper", "combined"])
def test_search_wrappers_add_no_calls(cost):
    graph, system = _instance()
    plain = astar_schedule(graph, system, cost=cost)
    recorder = layers.Recorder()
    with layers.Installer(recorder) as inst:
        layers.search_targets(inst)
        wrapped = astar_schedule(graph, system, cost=cost)
    assert wrapped.length == plain.length
    assert wrapped.stats.as_dict() | {"wall_seconds": 0} == plain.stats.as_dict() | {"wall_seconds": 0}
    calls = {layer: agg["calls"] for layer, agg in layers.merge_rows(recorder.snapshot()).items()}
    stats = wrapped.stats
    # Every child built is generated or cut by the upper bound, and the
    # list-schedule fallback builds one complete schedule, node by node.
    built = stats.states_generated + stats.pruning.upper_bound_cuts
    assert calls["search.extend"] == built + graph.num_nodes
    if cost == "paper":
        assert calls["search.h"] == stats.cost_evaluations == built
    # One expander call per expanded state (the goal pop expands nothing).
    assert calls["search.children"] == stats.states_expanded - 1


def test_self_times_partition_the_root():
    recorder = layers.Recorder()

    def inner() -> None:
        time.sleep(0.01)

    def outer() -> None:
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    wrapped_inner = recorder.wrap(inner, "inner")
    recorder.wrap(outer, "outer")()
    rows = {r["layer"]: r for r in recorder.snapshot()}
    assert rows["inner"]["calls"] == 2 and rows["inner"]["root"] == "outer"
    total = rows["outer"]["total_s"]
    assert rows["outer"]["self_s"] + rows["inner"]["self_s"] == pytest.approx(total)
    assert rows["outer"]["self_s"] == pytest.approx(0.01, abs=0.008)


def test_async_spans_keep_their_own_parent_across_tasks_and_executor():
    recorder = layers.Recorder()
    inst = layers.Installer(recorder)
    inst.copy_context_into_executors()

    def blocking() -> None:
        time.sleep(0.01)

    hop = recorder.wrap(blocking, "hop")

    async def handle(tag: str) -> None:
        await asyncio.sleep(0.005)
        await asyncio.get_running_loop().run_in_executor(None, hop)

    wrapped = recorder.wrap(handle, "handle")

    async def main() -> None:
        await asyncio.gather(wrapped("a"), wrapped("b"))

    try:
        asyncio.run(main())
    finally:
        inst.uninstall()
    rows = {(r["root"], r["layer"]): r for r in recorder.snapshot()}
    assert rows[("handle", "hop")]["calls"] == 2
    assert ("hop", "hop") not in rows


def test_reset_forgets_earlier_spans_and_relabel_refiles_the_request():
    recorder = layers.Recorder()
    f = recorder.wrap(lambda: None, "f")
    f()
    recorder.request_reset()
    probe = recorder.wrap(lambda: ("GET", "/healthz", b""), "read",
                          relabel=lambda req: "probe")
    root = recorder.wrap(lambda: probe(), "handle")
    root()
    f()
    rows = {(r["root"], r["layer"]): r["calls"] for r in recorder.snapshot()}
    assert rows == {("f", "f"): 1, ("handle/probe", "read"): 1,
                    ("handle/probe", "handle"): 1}


def test_proxied_modules_leave_the_real_ones_alone():
    recorder = layers.Recorder()
    with layers.Installer(recorder) as inst:
        layers.client_targets(inst)
        assert client.json.dumps({"a": 1}) == json.dumps({"a": 1})
        assert json.dumps is not client.json.dumps
    assert not recorder.snapshot() or all(r["layer"] == "client.encode" for r in recorder.snapshot())
    assert client.json is json
