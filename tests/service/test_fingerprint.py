"""Canonical fingerprinting: relabeling invariance, identity, the
golden digests persisted caches are keyed by, and the value-keyed memo."""

import hashlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings

from repro.graph.examples import paper_example_dag, paper_example_system
from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.taskgraph import TaskGraph
from repro.schedule import fingerprint as fpmod
from repro.schedule.fingerprint import (
    assignment_from_canonical,
    canonical_assignment,
    canonical_graph,
    canonical_order,
    clear_fingerprint_cache,
    instance_fingerprint,
)
from repro.system import topology as topo
from repro.system.processors import ProcessorSystem
from repro.workloads.suite import paper_suite
from tests.strategies import task_graphs


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts (and leaves) the fingerprint memo empty."""
    clear_fingerprint_cache()
    yield
    clear_fingerprint_cache()


def permuted(graph: TaskGraph, seed: int) -> TaskGraph:
    """A random relabeling of ``graph`` (same instance, new node ids)."""
    rng = random.Random(seed)
    v = graph.num_nodes
    perm = list(range(v))
    rng.shuffle(perm)  # perm[old id] = new id
    inv = [0] * v
    for old, new in enumerate(perm):
        inv[new] = old
    weights = [graph.weight(inv[i]) for i in range(v)]
    edges = {(perm[u], perm[w]): c for (u, w), c in graph.edges.items()}
    return TaskGraph(weights, edges, name="permuted")


class TestCanonicalOrder:
    def test_is_topological(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=14, ccr=1.0, seed=1))
        order = canonical_order(graph)
        pos = {n: i for i, n in enumerate(order)}
        assert sorted(order) == list(range(graph.num_nodes))
        for (u, w), _c in graph.edges.items():
            assert pos[u] < pos[w]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_canonical_graph_invariant_under_relabeling(self, seed):
        graph = paper_random_graph(
            PaperGraphSpec(num_nodes=12, ccr=1.0, seed=seed)
        )
        other = permuted(graph, seed=seed + 100)
        a, b = canonical_graph(graph), canonical_graph(other)
        assert a.weights == b.weights
        assert a.edges == b.edges


class TestFingerprint:
    @pytest.mark.parametrize("v,ccr,seed", [
        (10, 0.1, 1), (12, 1.0, 2), (14, 10.0, 3), (8, 1.0, 4),
    ])
    def test_invariant_under_relabeling(self, v, ccr, seed):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=ccr, seed=seed))
        system = ProcessorSystem.fully_connected(4)
        fp = instance_fingerprint(graph, system)
        for k in range(3):
            assert instance_fingerprint(permuted(graph, k), system) == fp

    @settings(max_examples=30, deadline=None)
    @given(task_graphs(min_nodes=2, max_nodes=7))
    def test_invariant_under_relabeling_hypothesis(self, graph):
        system = ProcessorSystem.fully_connected(3)
        assert instance_fingerprint(permuted(graph, 5), system) == \
            instance_fingerprint(graph, system)

    def test_sensitive_to_every_component(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=5))
        system = ProcessorSystem.fully_connected(4)
        fp = instance_fingerprint(graph, system)
        # Different node weight.
        w2 = list(graph.weights)
        w2[0] += 1.0
        assert instance_fingerprint(
            TaskGraph(w2, graph.edges), system) != fp
        # Different edge cost.
        edges = dict(graph.edges)
        (u, w), c = next(iter(edges.items()))
        edges[(u, w)] = c + 1.0
        assert instance_fingerprint(
            TaskGraph(graph.weights, edges), system) != fp
        # Different system.
        assert instance_fingerprint(
            graph, ProcessorSystem.fully_connected(5)) != fp
        assert instance_fingerprint(graph, ProcessorSystem.ring(4)) != fp
        # Different cost model.
        assert instance_fingerprint(graph, system, cost="improved") != fp

    def test_name_is_not_semantic(self):
        graph = paper_random_graph(PaperGraphSpec(num_nodes=8, ccr=1.0, seed=6))
        renamed = TaskGraph(graph.weights, graph.edges, name="other-name")
        system = ProcessorSystem.fully_connected(3)
        assert instance_fingerprint(graph, system) == \
            instance_fingerprint(renamed, system)

    def test_stable_literal_value(self):
        """Fingerprints are persisted; the digest must never drift."""
        graph = TaskGraph([2.0, 3.0], {(0, 1): 1.0})
        system = ProcessorSystem.fully_connected(2)
        fp = instance_fingerprint(graph, system)
        assert fp == "4f15338a8b5c31c2903702d7412d317e"
        assert fp == instance_fingerprint(graph, system)


class TestCanonicalAssignment:
    def test_round_trip_across_relabelings(self):
        from repro.schedule.schedule import Schedule
        from repro.search.astar import astar_schedule

        graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=7))
        system = ProcessorSystem.fully_connected(3)
        other = permuted(graph, seed=11)

        sched = astar_schedule(graph, system).schedule
        rows = canonical_assignment(sched, canonical_order(graph))
        # Replay the canonical rows onto the *relabeled* twin.
        replayed = Schedule(
            other, system,
            assignment_from_canonical(canonical_order(other), rows),
        )
        from repro.schedule.validate import validate_schedule

        validate_schedule(replayed)  # feasible on the twin, not just equal
        assert replayed.length == pytest.approx(sched.length)


# -- golden digests ----------------------------------------------------------
#
# Persisted result caches (SQLite stores, benchmark pins) are keyed by
# these digests: any change that re-keys them must fail here first.

_SUITE = paper_suite(sizes=(10, 12, 14, 16, 18, 20))
_HETERO3 = ProcessorSystem.fully_connected(3, speeds=[1.0, 2.0, 0.5])
_CHAIN3_SCALED = ProcessorSystem(
    3, links=topo.chain_links(3), distance_scaled=True)


def _suite(ccr, size, system=None):
    inst = _SUITE.get(ccr, size)
    return inst.graph, system if system is not None else inst.system


GOLDEN = [
    ("suite-ccr0.1-v10", lambda: _suite(0.1, 10), "paper",
     "4fb6a668d19baf18ce78ea3e99b8cc91"),
    ("suite-ccr0.1-v16", lambda: _suite(0.1, 16), "combined",
     "d94c64d907ea920ddba268ad528b1b65"),
    ("suite-ccr1.0-v12", lambda: _suite(1.0, 12), "paper",
     "69240e42073c3b174437f11e2b1aafde"),
    ("suite-ccr1.0-v20", lambda: _suite(1.0, 20), "combined",
     "54c3c253dfc4677329ae760fe1a5d538"),
    ("suite-ccr10.0-v14", lambda: _suite(10.0, 14), "paper",
     "6e2d31d16906d071638f288a4cf12f3b"),
    ("suite-ccr10.0-v18", lambda: _suite(10.0, 18), "combined",
     "18b971faf648bb4471b6af34c9c2a3a4"),
    ("ring4-ccr1.0-v10", lambda: _suite(1.0, 10, ProcessorSystem.ring(4)),
     "paper", "aeaf7cb14363443eed41600ce8d41a29"),
    ("ring4-ccr1.0-v10", lambda: _suite(1.0, 10, ProcessorSystem.ring(4)),
     "combined", "202369017a76543081a20dbefd9d5a82"),
    ("hetero3-ccr10.0-v12", lambda: _suite(10.0, 12, _HETERO3), "paper",
     "d9f73fb10078fe827194a770514cf0ca"),
    ("hetero3-ccr10.0-v12", lambda: _suite(10.0, 12, _HETERO3), "combined",
     "609fb65b0005e21881bcffa52e65b8fe"),
    ("chain3-scaled-ccr0.1-v12", lambda: _suite(0.1, 12, _CHAIN3_SCALED),
     "paper", "2c8ee1ce61dd264e4d3627a099022fae"),
    ("paper-example", lambda: (paper_example_dag(), paper_example_system()),
     "paper", "224d5e7b861b4088d89b78c1a2fc3369"),
    ("paper-example", lambda: (paper_example_dag(), paper_example_system()),
     "combined", "796a74159faedd72b6b0b1a1633f5733"),
]


@pytest.mark.parametrize(
    "build,cost,digest", [row[1:] for row in GOLDEN],
    ids=[f"{row[0]}-{row[2]}" for row in GOLDEN],
)
def test_golden_digest(build, cost, digest):
    graph, system = build()
    assert instance_fingerprint(graph, system, cost=cost) == digest  # cold
    assert instance_fingerprint(graph, system, cost=cost) == digest  # warm
    assert fresh_digest(graph, system, cost) == digest


# -- the memo ----------------------------------------------------------------


def fresh_digest(graph, system, cost="paper"):
    """The unmemoized fingerprint: canonical order and doc from scratch."""
    order = fpmod._compute_canonical_order(graph)
    doc = fpmod._canonical_doc(graph, system, cost, order)
    return hashlib.blake2b(doc, digest_size=16).hexdigest()


def seeded_graph(seed: int) -> TaskGraph:
    """Paper-style graphs on even seeds; tie-heavy small-integer DAGs
    (equal weights and costs, so WL leaves classes) on odd seeds."""
    if seed % 2 == 0:
        return paper_random_graph(PaperGraphSpec(
            num_nodes=4 + seed % 9, ccr=(0.1, 1.0, 10.0)[seed % 3], seed=seed))
    rng = random.Random(seed)
    v = rng.randint(2, 9)
    edges = {(u, w): float(rng.randint(0, 2))
             for u in range(v) for w in range(u + 1, v)
             if rng.random() < 0.4}
    return TaskGraph([float(rng.randint(1, 3)) for _ in range(v)], edges)


SYSTEMS = [
    ProcessorSystem.fully_connected(3),
    ProcessorSystem.ring(4),
    _HETERO3,
]


class TestMemo:
    def test_equal_values_share_one_entry(self):
        graph = seeded_graph(2)
        order = canonical_order(graph)
        copy = TaskGraph(graph.weights, graph.edges, name="another copy")
        assert canonical_order(copy) is order  # a hit, keyed by value
        relabeled = TaskGraph(graph.weights, graph.edges,
                              labels=[f"t{i}" for i in range(graph.num_nodes)])
        assert canonical_order(relabeled) == order  # a miss, same answer
        assert len(fpmod._memo) == 2

    def test_memoized_equals_fresh_for_200_seeded_graphs(self):
        cases = [(seeded_graph(seed), SYSTEMS[seed % 3],
                  ("paper", "combined")[seed % 2]) for seed in range(200)]
        fresh = [fresh_digest(g, s, c) for g, s, c in cases]
        for graph, _s, _c in cases:
            assert canonical_order(graph) == \
                fpmod._compute_canonical_order(graph)
        for (graph, system, cost), want in zip(cases, fresh):
            assert instance_fingerprint(graph, system, cost=cost) == want
        # Warm: every lookup is a hit now, and still byte-identical.
        for (graph, system, cost), want in zip(cases, fresh):
            assert instance_fingerprint(graph, system, cost=cost) == want
        # Relabeled twins (a miss unless the shuffle is the identity)
        # still get exactly the fresh digest.
        for seed, (graph, system, cost) in enumerate(cases):
            twin = permuted(graph, seed=seed + 1000)
            assert instance_fingerprint(twin, system, cost=cost) == \
                fresh_digest(twin, system, cost)

    def test_explicit_order_is_part_of_the_key(self):
        graph = TaskGraph([1.0, 2.0, 3.0], {(0, 2): 1.0, (1, 2): 2.0})
        system = ProcessorSystem.fully_connected(2)
        canonical = canonical_order(graph)
        other = (canonical[1], canonical[0], canonical[2])
        by_other = instance_fingerprint(graph, system, order=list(other))
        assert by_other == hashlib.blake2b(
            fpmod._canonical_doc(graph, system, "paper", other),
            digest_size=16).hexdigest()
        assert by_other != instance_fingerprint(graph, system)

    def test_never_grows_past_its_cap(self):
        cap = fpmod._MEMO_CAP
        system = ProcessorSystem.fully_connected(2)
        peak = 0
        for i in range(10 * cap):
            graph = TaskGraph([1.0 + i, 2.0], {(0, 1): 1.0})
            instance_fingerprint(graph, system)
            peak = max(peak, len(fpmod._memo))
        assert peak == cap

    def test_threads_get_the_single_threaded_digests(self):
        # 24 instances every thread shares (each holding its own equal
        # copies) plus 60 of its own: about 1000 entries against a cap
        # of 512, so the threads also race evictions.
        work = {
            t: [(seeded_graph(seed), SYSTEMS[seed % 3]) for seed in range(24)]
            + [(seeded_graph(1000 + 100 * t + k), SYSTEMS[k % 3])
               for k in range(60)]
            for t in range(8)
        }
        for t, items in work.items():
            random.Random(t).shuffle(items)
        want = {t: [fresh_digest(g, s) for g, s in items]
                for t, items in work.items()}
        got: dict[int, list[str]] = {}
        barrier = threading.Barrier(8)

        def run(t):
            barrier.wait()
            got[t] = [instance_fingerprint(g, s) for g, s in work[t]]

        threads = [threading.Thread(target=run, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == want
        assert len(fpmod._memo) <= fpmod._MEMO_CAP
        for key, value in fpmod._memo.items():
            if key[0] == "fingerprint":
                _tag, graph, system, cost, _order = key
                assert value == fresh_digest(graph, system, cost)


class TestNegativeZeroCost:
    """``-0.0 == 0.0`` but ``repr`` differs; one instance, one digest."""

    def graphs(self):
        return (TaskGraph([1, 2], {(0, 1): -0.0}),
                TaskGraph([1, 2], {(0, 1): 0.0}))

    def test_graph_stores_one_spelling(self):
        neg, pos = self.graphs()
        assert neg == pos and hash(neg) == hash(pos)
        assert repr(neg.comm_cost(0, 1)) == "0.0"

    @pytest.mark.parametrize("first", [0, 1])
    def test_one_digest_either_order_cold_or_warm(self, first):
        system = ProcessorSystem.fully_connected(2)
        graphs = self.graphs()
        a = graphs[first]
        b = graphs[1 - first]
        cold = instance_fingerprint(a, system)
        assert instance_fingerprint(b, system) == cold  # warm
        clear_fingerprint_cache()
        assert instance_fingerprint(b, system) == cold  # cold again
        assert cold == "f03d0bc35e2941a44cf8bfcd4acb7b5b"
