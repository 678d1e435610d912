#!/usr/bin/env python3
"""Service layer: fingerprints, the result cache, and batch serving.

Builds a small batch of requests that includes a *relabeled* duplicate
(same problem, different node numbering — the situation a plain
graph-keyed cache would miss), serves it through the portfolio
front-end twice, and shows what the service layer does on each pass:

* pass 1 (cold): the relabeled twin dedupes onto its original via the
  canonical fingerprint, every unique instance is solved once, results
  enter the cache;
* pass 2 (warm): everything is answered from the cache without search.

Run:  python examples/service_batch.py
"""

import random

from repro import ProcessorSystem, TaskGraph, instance_fingerprint
from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.service.batch import BatchItem, SolveOptions, run_batch
from repro.service.cache import ResultCache


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
    system = ProcessorSystem.fully_connected(4)
    original = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=42))
    twin = relabeled(original, seed=7)
    other = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=10.0, seed=5))

    print("fingerprints (node numbering does not matter):")
    print(f"  original : {instance_fingerprint(original, system)}")
    print(f"  relabeled: {instance_fingerprint(twin, system)}")
    print(f"  other    : {instance_fingerprint(other, system)}")

    items = [
        BatchItem(name="original", graph=original, system=system),
        BatchItem(name="relabeled-twin", graph=twin, system=system),
        BatchItem(name="other", graph=other, system=system),
    ]

    cache = ResultCache()  # in-memory; pass a path for persistence
    print("\n-- pass 1: cold cache " + "-" * 40)
    cold = run_batch(items, cache=cache, options=SolveOptions(deadline=20.0))
    print(cold.render())

    print("\n-- pass 2: warm cache " + "-" * 40)
    warm = run_batch(items, cache=cache)
    print(warm.render())

    speedup = cold.wall_seconds / max(warm.wall_seconds, 1e-9)
    print(f"\nwarm-cache speedup: {speedup:.0f}x")
    print(f"cache counters    : {cache.counters()}")


if __name__ == "__main__":
    main()
