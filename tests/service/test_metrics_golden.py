"""Golden Prometheus exposition for the daemon and the router.

Dashboards and alerts key on metric family names, their ``TYPE`` and
their label keys — not on values.  This pins that set for one fixed
scenario: one solve, one cache hit and one 400, sent through a router
that has one shard up and one unreachable.
"""

import re
import socket
import urllib.request

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.service.batch import SolveOptions
from repro.service.client import ServerClient
from repro.service.router import Shard, ShardRouter
from repro.service.server import SolverServer


def families(kind, labels, *names):
    return {(name, kind, labels) for name in names}


HISTOGRAMS = ("repro_request_seconds", "repro_queue_wait_seconds",
              "repro_solve_expansions")
DAEMON_SHAPE = (
    families("histogram", (), *HISTOGRAMS)
    | families("histogram", ("le",), *HISTOGRAMS)
    | {("repro_solve_seconds", "histogram", ("engine",)),
       ("repro_solve_seconds", "histogram", ("engine", "le")),
       ("repro_jobs_total", "counter", ("event",)),
       ("repro_solve_failures_total", "counter", ("cause",)),
       ("repro_engine_solves_total", "counter", ("algorithm",)),
       ("repro_cache_events_total", "counter", ("event",))}
    | families("gauge", (), *(f"repro_{n}" for n in (
        "uptime_seconds", "draining", "queue_depth", "dedup_followers",
        "queue_limit", "jobs_running", "jobs_in_flight", "pool_workers",
        "cache_hit_rate")))
)
ROUTER_SHAPE = (
    families("gauge", (), *(f"repro_router_{n}" for n in (
        "uptime_seconds", "draining", "ring_members", "routable_shards")))
    | families("counter", (), *(f"repro_router_{n}_total" for n in (
        "requests", "routed", "failovers", "no_shard", "bad_requests",
        "jobs_forwarded", "probes", "probe_failures")))
    | families("gauge", ("shard",), *(f"repro_router_shard_{n}" for n in (
        "open", "draining", "up", "queue_depth", "dedup_followers",
        "running", "in_flight")))
    | families("counter", ("shard",), *(f"repro_router_shard_{n}_total"
                                        for n in ("forwarded", "errors",
                                                  "breaker_trips")))
)


def exposition_shape(text: str) -> set[tuple[str, str, tuple[str, ...]]]:
    """``(family, TYPE, sorted label keys)`` for every sample line; a
    sample belongs to the family of the ``# TYPE`` line above it."""
    shape = set()
    family = kind = ""
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
        elif line and not line.startswith("#"):
            labels = line.rpartition(" ")[0].partition("{")[2]
            keys = re.findall(r'(\w+)="(?:[^"\\]|\\.)*"', labels)
            shape.add((family, kind, tuple(sorted(keys))))
    return shape


def scrape(port: int) -> str:
    url = f"http://127.0.0.1:{port}/metrics?format=prometheus"
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode()


def test_exposition_families_types_and_labels():
    with socket.socket() as sock:  # bound, never listening: unreachable
        sock.bind(("127.0.0.1", 0))
        server = SolverServer(port=0, solver_workers=1, shard_id="up",
                              options=SolveOptions(max_expansions=20_000))
        server_thread = server.serve_in_thread()
        router = ShardRouter(
            [Shard("up", "127.0.0.1", server.port),
             Shard("down", "127.0.0.1", sock.getsockname()[1])],
            port=0, probe_interval=0, retry_base=0.001,
        )
        router_thread = router.serve_in_thread()
        try:
            client = ServerClient(port=router.port, retries=0)
            graph = paper_random_graph(PaperGraphSpec(num_nodes=8, ccr=1.0, seed=3))
            body = client.solve_request(graph, pes=2)
            vias = [client.request("POST", "/v1/solve", body)[1]["via"]
                    for _ in range(2)]
            assert vias == ["solve", "cache"]
            bad = client.request("POST", "/v1/solve", {"graph": {"schema": 99}})
            assert bad[0] == 400
            daemon, routed = scrape(server.port), scrape(router.port)
        finally:
            router.shutdown()
            server.shutdown()
            router_thread.join(timeout=60)
            server_thread.join(timeout=60)
    assert not router_thread.is_alive() and not server_thread.is_alive()
    assert exposition_shape(daemon) == DAEMON_SHAPE
    assert exposition_shape(routed) == ROUTER_SHAPE
