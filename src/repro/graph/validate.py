"""Task-graph validation helpers.

Construction of :class:`~repro.graph.taskgraph.TaskGraph` already rejects
cycles and malformed weights; these helpers exist for validating *raw*
inputs (edge lists, parsed files) before construction and for asserting
structural properties in tests.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping

from repro.errors import CycleError, GraphError
from repro.graph.taskgraph import TaskGraph

__all__ = ["check_acyclic", "validate_graph", "is_connected_dag"]

#: The largest finite float.  One comparison against it refuses NaN,
#: infinities and ints too large for a float (which ``math.isfinite``
#: would raise ``OverflowError`` on), as in :class:`TaskGraph`.
_FLOAT_MAX = sys.float_info.max


def check_acyclic(num_nodes: int, edges: Iterable[tuple[int, int]]) -> None:
    """Raise :class:`CycleError` when the edge set has a directed cycle.

    Iterative DFS three-colouring; safe for deep graphs (no recursion).
    """
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].append(v)
    WHITE, GRAY, BLACK = 0, 1, 2
    colour = [WHITE] * num_nodes
    for root in range(num_nodes):
        if colour[root] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        colour[root] = GRAY
        while stack:
            node, idx = stack[-1]
            if idx < len(adj[node]):
                stack[-1] = (node, idx + 1)
                child = adj[node][idx]
                if colour[child] == GRAY:
                    raise CycleError(f"cycle detected through node {child}")
                if colour[child] == WHITE:
                    colour[child] = GRAY
                    stack.append((child, 0))
            else:
                colour[node] = BLACK
                stack.pop()


def validate_graph(
    weights: Iterable[float],
    edges: Mapping[tuple[int, int], float],
) -> None:
    """Validate raw weights/edges; raises :class:`GraphError` on problems.

    Checks everything the :class:`TaskGraph` constructor checks, plus it
    reports *all* weight problems at once (useful for file parsing).
    """
    weights = list(weights)
    problems: list[str] = []
    if not weights:
        problems.append("graph has no nodes")
    for i, w in enumerate(weights):
        if not (w > 0):
            problems.append(f"node {i} has non-positive weight {w!r}")
        elif not w <= _FLOAT_MAX:
            problems.append(f"node {i} has non-finite weight {w!r}")
    v = len(weights)
    for (a, b), c in edges.items():
        if not (0 <= a < v) or not (0 <= b < v):
            problems.append(f"edge ({a}, {b}) references unknown node")
        elif a == b:
            problems.append(f"self-loop on node {a}")
        if not -_FLOAT_MAX <= c <= _FLOAT_MAX:
            problems.append(f"edge ({a}, {b}) has non-finite cost {c!r}")
        elif c < 0:
            problems.append(f"edge ({a}, {b}) has negative cost {c!r}")
    if problems:
        raise GraphError("; ".join(problems))
    check_acyclic(v, edges.keys())


def is_connected_dag(graph: TaskGraph) -> bool:
    """True when the underlying undirected graph is connected.

    The paper's random graphs are built from a single root so they are
    always connected; generators assert this property.
    """
    v = graph.num_nodes
    if v == 1:
        return True
    seen = [False] * v
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        n = stack.pop()
        for m in graph.succs(n) + graph.preds(n):
            if not seen[m]:
                seen[m] = True
                count += 1
                stack.append(m)
    return count == v
