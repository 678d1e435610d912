"""Canonical fingerprinting: relabeling invariance and identity."""

import random

import pytest
from hypothesis import given, settings

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.taskgraph import TaskGraph
from repro.schedule.fingerprint import (
    assignment_from_canonical,
    canonical_assignment,
    canonical_graph,
    canonical_order,
    instance_fingerprint,
)
from repro.system.processors import ProcessorSystem
from tests.strategies import task_graphs


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
        assert len(fp) == 32
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
