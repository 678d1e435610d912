"""Seeded inputs for every workload, built only from the repo's generators.

The benchmark takes ``--seed``; the program only ever sees the request
bodies derived here.  The same seed gives byte-identical bodies.

Seeds:

* :data:`DEFAULT_SEED` is what a run uses when ``--seed`` is omitted and
  what the recorded baseline in ``README.md`` was taken with.
* :data:`RESERVED_SEED` is kept out of development: a change that claims a
  gain is checked once more on it, on inputs nobody tuned against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.io import graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.system.processors import ProcessorSystem
from repro.workloads.suite import paper_suite

DEFAULT_SEED = 1
RESERVED_SEED = 1998

CCRS = (0.1, 1.0, 10.0)

#: warm-hit: unique instances primed into the daemon's cache.
WARM_INSTANCES = 32
WARM_SIZES = (24, 64)
WARM_PES = 4
#: Expansion cap for the priming solves (answers need not be proven; the
#: workload measures the warm path, not search).
PRIME_EXPANSIONS = 400

#: cold-solve: instances per cell of v x CCR in one pass of the stream.
COLD_PER_CELL = 12
COLD_SIZES = (14, 16, 18)
COLD_PES = 2
COLD_EXPANSIONS = 2500

#: fleet-mixed: primed instances that repeats are drawn from.
FLEET_POOL = 16
FLEET_POOL_SIZES = (16, 32)
FLEET_FRESH_SIZES = (9, 12)
FLEET_PES = 4
FRESH_EXPANSIONS = 500

#: hda-2w: the same-work row (paper_suite v16 / CCR 10) and its optimum.
HDA_ROW = (10.0, 16)
HDA_OPTIMUM = 584.0


def rng(seed: int, *labels: object) -> random.Random:
    """An independent stream per (seed, labels); stable across runs."""
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def stratified_size(r: random.Random, i: int, n: int, sizes: tuple[int, int]) -> int:
    """The ``i``-th of ``n`` sizes spread evenly over ``sizes`` (inclusive),
    jittered within its stratum, so the size mix is the same for every
    seed."""
    lo, hi = sizes
    return lo + int((hi - lo + 1) * (i + r.random()) / n)


def paper_graph(v: int, ccr: float, graph_seed: int) -> TaskGraph:
    return paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=ccr, seed=graph_seed))


def relabel(graph: TaskGraph, perm: list[int]) -> TaskGraph:
    """The same instance with node ``i`` renamed ``perm[i]``."""
    weights = [0.0] * graph.num_nodes
    for i, w in enumerate(graph.weights):
        weights[perm[i]] = w
    edges = {(perm[u], perm[v]): c for (u, v), c in graph.edges.items()}
    return TaskGraph(weights, edges, name=graph.name)


@dataclass(frozen=True)
class Request:
    """One solve request: the instance plus the encoded body."""

    name: str
    graph: TaskGraph
    system: ProcessorSystem
    body: dict[str, Any]


def make_request(name: str, graph: TaskGraph, pes: int, **options: Any) -> Request:
    body: dict[str, Any] = {"graph": graph_to_dict(graph), "pes": pes, "name": name}
    body.update(options)
    system = ProcessorSystem.fully_connected(pes, name=f"clique-{pes}")
    return Request(name, graph, system, body)


def warm_requests(seed: int) -> list[Request]:
    """About 32 unique §4.1-shaped instances, v 24-64, on a 4-PE clique."""
    r = rng(seed, "warm")
    out = []
    for i in range(WARM_INSTANCES):
        v = stratified_size(r, i, WARM_INSTANCES, WARM_SIZES)
        ccr = CCRS[i % len(CCRS)]
        graph = paper_graph(v, ccr, r.randrange(1 << 31))
        out.append(make_request(
            f"warm-{i}", graph, WARM_PES,
            max_expansions=PRIME_EXPANSIONS, preprocess=True,
        ))
    return out


def cold_requests(seed: int) -> list[Request]:
    """One pass of the cold stream: v {14,16,18} x CCR {0.1,1,10} on a
    2-PE clique, :data:`COLD_PER_CELL` instances per cell."""
    r = rng(seed, "cold")
    out = []
    for k in range(COLD_PER_CELL):
        for v in COLD_SIZES:
            for ccr in CCRS:
                graph = paper_graph(v, ccr, r.randrange(1 << 31))
                out.append(make_request(
                    f"cold-{k}-v{v}-ccr{ccr:g}", graph, COLD_PES,
                    max_expansions=COLD_EXPANSIONS, preprocess=True,
                ))
    return out


def fleet_pool(seed: int) -> list[Request]:
    """The instances fleet-mixed repeats (primed during set-up)."""
    r = rng(seed, "fleet-pool")
    out = []
    for i in range(FLEET_POOL):
        v = stratified_size(r, i, FLEET_POOL, FLEET_POOL_SIZES)
        graph = paper_graph(v, CCRS[i % len(CCRS)], r.randrange(1 << 31))
        out.append(make_request(
            f"pool-{i}", graph, FLEET_PES,
            max_expansions=PRIME_EXPANSIONS, preprocess=True,
        ))
    return out


def fleet_relabelled(req: Request, r: random.Random) -> Request:
    """A relabelled twin: same fingerprint, different body."""
    perm = list(range(req.graph.num_nodes))
    r.shuffle(perm)
    twin = relabel(req.graph, perm)
    options = {k: v for k, v in req.body.items() if k not in ("graph", "pes", "name")}
    return make_request(req.name, twin, FLEET_PES, **options)


def fleet_fresh(seed: int, tid: int, index: int) -> Request:
    """A small instance no earlier request carried (v 9-12)."""
    r = rng(seed, "fleet-fresh", tid, index)
    v = r.randint(*FLEET_FRESH_SIZES)
    graph = paper_graph(v, r.choice(CCRS), r.randrange(1 << 31))
    return make_request(
        f"fresh-{tid}-{index}", graph, FLEET_PES,
        max_expansions=FRESH_EXPANSIONS, preprocess=True,
    )


#: fleet-mixed op kinds, one cycle of 20 ops per client, shuffled per
#: cycle by the seed: the mix is exact, only the order varies.
FLEET_CYCLE = ["fresh"] * 3 + ["burst"] + ["repeat"] * 8 + ["twin"] * 8


def fleet_ops(seed: int, tid: int):  # type: ignore[no-untyped-def]
    """Endless (kind, rng) stream for one fleet-mixed client."""
    r = rng(seed, "fleet-ops", tid)
    while True:
        cycle = list(FLEET_CYCLE)
        r.shuffle(cycle)
        for kind in cycle:
            yield kind, r


def hda_row() -> tuple[TaskGraph, ProcessorSystem]:
    """The one fixed same-work row; ``--seed`` does not change it."""
    inst = paper_suite().get(*HDA_ROW)
    return inst.graph, inst.system
