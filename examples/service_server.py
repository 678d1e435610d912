#!/usr/bin/env python3
"""The solver daemon: serve solve requests over HTTP with dedupe.

Starts an embedded :class:`SolverServer` (the same daemon ``repro
serve`` runs, here on a background thread with a free port), then
demonstrates the serving semantics with the bundled client:

* a cold solve runs the portfolio on the persistent worker pool;
* a repeat of the same instance is answered from the result cache;
* a *relabeled* copy (same problem, different node numbering) also
  hits the cache — canonical fingerprints make the instance identity
  label-free;
* concurrent duplicate requests are solved once and fan out from the
  in-flight twin (the dedupe counter is visible in ``/metrics``);
* shutdown drains gracefully: accepted jobs finish, nothing is lost.

Run:  python examples/service_server.py
"""

import random
import threading

from repro import ProcessorSystem, TaskGraph
from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.service import ServerClient, SolveOptions, SolverServer


def relabeled(graph: TaskGraph, seed: int) -> TaskGraph:
    """The same instance with its nodes renumbered at random."""
    rng = random.Random(seed)
    perm = list(range(graph.num_nodes))
    rng.shuffle(perm)
    inv = [0] * graph.num_nodes
    for old, new in enumerate(perm):
        inv[new] = old
    return TaskGraph(
        [graph.weight(inv[i]) for i in range(graph.num_nodes)],
        {(perm[u], perm[w]): c for (u, w), c in graph.edges.items()},
        name=f"{graph.name}-relabeled",
    )


def main() -> None:
    server = SolverServer(port=0, solver_workers=1, queue_limit=16,
                          options=SolveOptions(max_expansions=50_000))
    thread = server.serve_in_thread()
    client = ServerClient(port=server.port)
    print(f"daemon listening on http://{server.host}:{server.port}")
    print(f"health: {client.healthz()}")

    graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=42))
    system = ProcessorSystem.fully_connected(4)

    first = client.solve(graph, system, name="cold")
    print(f"\ncold solve : via {first['via']:5s} "
          f"length {first['result']['makespan']:g} "
          f"({first['result']['certificate']}, "
          f"{first['result']['algorithm']})")

    again = client.solve(graph, system, name="repeat")
    print(f"repeat     : via {again['via']:5s} "
          f"length {again['result']['makespan']:g}")

    twin = client.solve(relabeled(graph, seed=7), system, name="twin")
    print(f"relabeled  : via {twin['via']:5s} "
          f"length {twin['result']['makespan']:g}  "
          f"(same fingerprint: {twin['fingerprint'] == first['fingerprint']})")

    # Concurrent duplicates of a fresh instance: solved once, fanned out.
    fresh = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=10.0, seed=5))
    outcomes = []
    threads = [
        threading.Thread(
            target=lambda: outcomes.append(client.solve(fresh, system))
        )
        for _ in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    vias = sorted(o["via"] for o in outcomes)
    print(f"\n4 concurrent duplicates answered via: {vias}")

    metrics = client.metrics()
    print(f"metrics    : {metrics['jobs']}")
    print(f"engines    : {metrics['engines']}")

    server.shutdown()
    thread.join(timeout=60)
    print("\ndrained cleanly — accepted == completed, nothing lost")


if __name__ == "__main__":
    main()
