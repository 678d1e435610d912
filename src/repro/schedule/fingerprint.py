"""Canonical instance fingerprints.

A result cache keyed on the *caller's* node numbering misses whenever
two requests describe the same problem with the nodes in a different
order — which is the common case for instances arriving from different
front-ends or serialized by different tools.  This module derives a
canonical relabeling first, so the fingerprint (and everything stored
under it) is invariant under node permutation.

Canonicalization is a two-step scheme:

1. **Invariant refinement** (Weisfeiler-Lehman style, adapted to
   weighted DAGs): every node starts from a 64-bit key of its weight and
   is repeatedly re-keyed from the sorted multiset of its in- and
   out-edges ``(edge cost, neighbour key)``.  The mixing reuses the
   splitmix64 finalizer of the search states' Zobrist machinery
   (:func:`repro.schedule.partial.placement_key`), giving full avalanche
   per round.  Refinement stops when the partition of nodes by key stops
   splitting.
2. **Canonical topological order**: Kahn's algorithm where the ready
   pool is ordered by ``(placed-parent positions + edge costs, refined
   key)`` — both components are label-free, so two relabelings of the
   same DAG pop nodes in the same structural order.

Nodes that remain tied after refinement are either automorphic (any
pick yields the same canonical form — the common case: equal-weight
twins) or, in adversarial regular instances, WL-indistinguishable
without being automorphic; the tie then falls back to the caller's node
id and two relabelings may fingerprint differently.  That failure mode
is *safe*: it can only cause a cache miss, never a wrong cache hit,
because the fingerprint digests the full canonical serialization —
different instances produce different digests up to a 2^-128 collision.

The digest itself is BLAKE2b-128 over the canonical byte serialization
of (graph, system, cost model): stable across processes and Python
versions (``repr`` of floats round-trips exactly), unlike salted
``hash()``.

Both :func:`canonical_order` and :func:`instance_fingerprint` are
memoized in one bounded, lock-guarded LRU keyed by the instance *value*
(:class:`TaskGraph` and :class:`ProcessorSystem` compare and hash by
weights, edges, labels, PEs, links, speeds and model), so a repeated
instance — every warm cache hit in the daemon and the router — is
canonicalized once per process.  Equal values serialize to equal bytes
(``TaskGraph`` folds ``-0.0`` edge costs into ``0.0``; weights and
speeds are positive), so a memo hit is byte-identical to a fresh
computation.  A relabeled twin, a label change or a NaN cost (NaN never
equals itself) is simply a miss.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence
from typing import Any, TypeVar

from repro.graph.taskgraph import TaskGraph
from repro.schedule.schedule import Schedule
from repro.system.processors import ProcessorSystem
from repro.util.hashing import MASK64 as _MASK64
from repro.util.hashing import PE64 as _PE64
from repro.util.hashing import PHI64 as _PHI64
from repro.util.hashing import splitmix64 as _mix64

__all__ = [
    "canonical_order",
    "canonical_graph",
    "instance_fingerprint",
    "canonical_assignment",
    "assignment_from_canonical",
    "clear_fingerprint_cache",
]

_T = TypeVar("_T")

#: Entries (canonical orders and digests together) kept per process.
_MEMO_CAP = 512
_memo: "OrderedDict[tuple, Any]" = OrderedDict()
_memo_lock = threading.Lock()


def clear_fingerprint_cache() -> None:
    """Drop every memoized canonical order and fingerprint (tests)."""
    with _memo_lock:
        _memo.clear()


def _memoized(key: tuple, compute: Callable[[], _T]) -> _T:
    """``compute()``, remembered under the value ``key`` (LRU, capped)."""
    hash(key)  # warm TaskGraph's cached hash outside the lock
    with _memo_lock:
        hit = _memo.get(key)
        if hit is not None:
            _memo.move_to_end(key)
            return hit
    value = compute()
    with _memo_lock:
        _memo[key] = value
        _memo.move_to_end(key)
        while len(_memo) > _MEMO_CAP:
            _memo.popitem(last=False)
    return value


def _fold_sorted(base: int, parts: list[int]) -> int:
    """Order-independent combine: fold the *sorted* parts into ``base``.

    Sorting makes the combination an exact multiset function (unlike a
    plain XOR, where equal parts cancel).
    """
    h = base
    for p in sorted(parts):
        h = _mix64(h * _PHI64 + p)
    return h


def refined_node_keys(graph: TaskGraph) -> tuple[int, ...]:
    """Label-free 64-bit invariant per node (WL refinement to fixpoint).

    Two nodes get equal keys only when refinement cannot tell them apart
    by weight or by any chain of weighted in/out edges; relabeling the
    graph permutes the keys with the nodes but never changes their
    values.
    """
    v = graph.num_nodes
    keys = [_mix64((hash(w) & _MASK64) ^ _PHI64) for w in graph.weights]
    num_classes = len(set(keys))
    for _round in range(v):
        nxt = []
        for n in range(v):
            pred_parts = [
                _mix64(keys[p] ^ _mix64((hash(c) & _MASK64) ^ _PE64))
                for p, c in graph.pred_edges(n)
            ]
            succ_parts = [
                _mix64(keys[s] * _PHI64 ^ _mix64(hash(c) & _MASK64))
                for s, c in graph.succ_edges(n)
            ]
            h = keys[n]
            h = _fold_sorted(h, pred_parts)
            h = _fold_sorted(_mix64(h ^ _PE64), succ_parts)
            nxt.append(h)
        nxt_classes = len(set(nxt))
        keys = nxt
        if nxt_classes == num_classes:
            break
        num_classes = nxt_classes
    return tuple(keys)


def canonical_order(graph: TaskGraph) -> tuple[int, ...]:
    """Canonical topological order: ``order[i]`` is the node at position i.

    Memoized per graph value; see :func:`_compute_canonical_order`.
    """
    return _memoized(("order", graph), lambda: _compute_canonical_order(graph))


def _compute_canonical_order(graph: TaskGraph) -> tuple[int, ...]:
    """Kahn's algorithm over a ready pool sorted by label-free criteria:
    the fold of the node's placed-parent ``(position, edge cost)`` pairs
    first (a perfect discriminator once ancestors are placed), the
    refined WL key second.  Only WL-indistinguishable siblings fall back
    to the original node id (see the module docstring for why that is
    safe).
    """
    v = graph.num_nodes
    base = refined_node_keys(graph)
    indegree = [len(graph.preds(n)) for n in range(v)]
    # Dynamic key: parents' canonical positions folded with edge costs.
    parent_parts: list[list[int]] = [[] for _ in range(v)]
    ready = [((base[n], base[n]), n) for n in range(v) if indegree[n] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _k, n = heapq.heappop(ready)
        pos = len(order)
        order.append(n)
        for s, c in graph.succ_edges(n):
            parent_parts[s].append(
                _mix64((pos + 1) * _PHI64 + (hash(c) & _MASK64))
            )
            indegree[s] -= 1
            if indegree[s] == 0:
                heapq.heappush(
                    ready, ((_fold_sorted(base[s], parent_parts[s]), base[s]), s)
                )
    return tuple(order)


def canonical_graph(graph: TaskGraph) -> TaskGraph:
    """The graph relabeled into canonical positions.

    Two relabelings of the same instance produce equal
    :class:`TaskGraph` values (up to WL ties), which the fingerprint
    tests assert directly.
    """
    order = canonical_order(graph)
    pos = {n: i for i, n in enumerate(order)}
    weights = [graph.weight(n) for n in order]
    edges = {(pos[u], pos[w]): c for (u, w), c in graph.edges.items()}
    return TaskGraph(weights, edges, name=f"{graph.name}[canonical]")


def _canonical_doc(
    graph: TaskGraph,
    system: ProcessorSystem,
    cost: str,
    order: Sequence[int],
) -> bytes:
    """Byte serialization of the instance in canonical node positions."""
    pos = {n: i for i, n in enumerate(order)}
    lines = [f"v={graph.num_nodes}", f"cost={cost}"]
    lines.append("w=" + ",".join(repr(graph.weight(n)) for n in order))
    edge_rows = sorted(
        (pos[u], pos[w], c) for (u, w), c in graph.edges.items()
    )
    lines.append("e=" + ";".join(f"{u}>{w}:{c!r}" for u, w, c in edge_rows))
    lines.append(f"p={system.num_pes}")
    lines.append("links=" + ";".join(f"{i}-{j}" for i, j in sorted(system.links)))
    lines.append("speeds=" + ",".join(repr(s) for s in system.speeds))
    lines.append(f"dist={int(system.distance_scaled)}")
    return "\n".join(lines).encode()


def instance_fingerprint(
    graph: TaskGraph,
    system: ProcessorSystem,
    *,
    cost: str = "paper",
    order: Sequence[int] | None = None,
) -> str:
    """Stable 128-bit hex fingerprint of a (graph, system, cost) instance.

    ``order`` lets callers that already computed :func:`canonical_order`
    skip recomputing it (the batch front-end needs the order anyway to
    map cached assignments back into the request's node space).

    Graph/system *names* are deliberately excluded: they are report
    labels, not problem semantics.  Memoized per
    ``(graph, system, cost, order)`` value.
    """
    order = canonical_order(graph) if order is None else tuple(order)
    return _memoized(
        ("fingerprint", graph, system, cost, order),
        lambda: hashlib.blake2b(
            _canonical_doc(graph, system, cost, order), digest_size=16
        ).hexdigest(),
    )


# -- schedule <-> canonical assignment mapping ------------------------------


def canonical_assignment(
    schedule: Schedule, order: Sequence[int]
) -> tuple[tuple[int, float], ...]:
    """Per-canonical-position ``(pe, start)`` rows of a schedule.

    Stored in the cache instead of raw node ids, so a hit can be
    replayed onto any relabeling of the instance.
    """
    by_node = {t.node: (t.pe, t.start) for t in schedule.tasks}
    return tuple(by_node[n] for n in order)


def assignment_from_canonical(
    order: Sequence[int], rows: Sequence[Sequence[float]]
) -> Mapping[int, tuple[int, float]]:
    """Invert :func:`canonical_assignment` into a ``node -> (pe, start)``
    mapping in this instance's node space."""
    return {
        node: (int(pe), float(start))
        for node, (pe, start) in zip(order, rows)
    }
