"""The weighted-DAG task graph data structure.

Design notes
------------
Nodes are dense integers ``0..v-1`` internally (optionally labelled),
because every hot structure downstream — bitmask state sets, numpy cost
vectors, adjacency lists — indexes by position.  The structure is
immutable after construction: analysis results (levels, topological
order) are computed lazily once and cached, which is safe only because
the graph cannot change.

Edges are stored both as a ``(u, v) -> cost`` dict (O(1) cost lookup
during state expansion) and as per-node predecessor/successor tuples
(cache-friendly iteration in the expansion inner loop).

For the search hot path the adjacency is additionally flattened into
CSR-style arrays (``pred_flat``/``pred_offsets``/``pred_costs`` and the
successor mirror) plus one predecessor *bitmask* per node, so that

* iterating a node's in-edges is a contiguous slice walk with no
  generator frames or dict probes, and
* "are all parents of ``n`` scheduled?" / "is ``m`` a parent of ``n``?"
  are single big-int AND operations against a scheduled-set mask.

The flat views are built lazily on first access (one O(v + e) pass) and
cached — safe because the graph is immutable.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro.errors import CycleError, GraphError

__all__ = ["TaskGraph"]

#: The largest finite float.  One comparison against it refuses NaN,
#: infinities and ints too large for a float (which ``math.isfinite``
#: would raise ``OverflowError`` on), without a call per value.
_FLOAT_MAX = sys.float_info.max

Edge = tuple[int, int]


class TaskGraph:
    """An immutable node- and edge-weighted DAG.

    Parameters
    ----------
    weights:
        Computation cost per node, indexed by node id.  Must be positive.
    edges:
        Mapping ``(u, v) -> communication cost`` with non-negative costs.
    labels:
        Optional human-readable node names (defaults to ``n1..nv``,
        matching the paper's examples which are 1-based).
    name:
        Optional graph name used in reports.

    Raises
    ------
    GraphError
        On malformed weights/edges (wrong node ids, non-positive weights,
        negative or non-finite values).
    CycleError
        When the edge set contains a directed cycle.
    """

    __slots__ = (
        "_weights",
        "_edge_cost",
        "_preds",
        "_succs",
        "_labels",
        "name",
        "_topo_order",
        "_entries",
        "_exits",
        "_hash",
        "_pred_offsets",
        "_pred_flat",
        "_pred_costs",
        "_succ_offsets",
        "_succ_flat",
        "_succ_costs",
        "_pred_masks",
        "_pred_pairs",
    )

    def __init__(
        self,
        weights: Sequence[float],
        edges: Mapping[Edge, float],
        labels: Sequence[str] | None = None,
        name: str = "taskgraph",
    ) -> None:
        v = len(weights)
        if v == 0:
            raise GraphError("a task graph needs at least one node")
        for i, w in enumerate(weights):
            if not (w > 0):
                raise GraphError(f"node {i} has non-positive weight {w!r}")
            if not w <= _FLOAT_MAX:
                raise GraphError(f"node {i} has non-finite weight {w!r}")
        self._weights = tuple(float(w) for w in weights)

        pred_lists: list[list[int]] = [[] for _ in range(v)]
        succ_lists: list[list[int]] = [[] for _ in range(v)]
        edge_cost: dict[Edge, float] = {}
        for (u, w_node), cost in edges.items():
            if not (0 <= u < v and 0 <= w_node < v):
                raise GraphError(f"edge ({u}, {w_node}) references unknown node")
            if u == w_node:
                raise GraphError(f"self-loop on node {u}")
            if not -_FLOAT_MAX <= cost <= _FLOAT_MAX:
                raise GraphError(f"edge ({u}, {w_node}) has non-finite cost {cost!r}")
            if cost < 0:
                raise GraphError(f"edge ({u}, {w_node}) has negative cost {cost!r}")
            # ``or 0.0`` folds -0.0 into 0.0: the two compare and hash
            # equal but ``repr`` apart, and equal graphs must serialise
            # (and fingerprint) identically.
            edge_cost[(u, w_node)] = float(cost) or 0.0
            succ_lists[u].append(w_node)
            pred_lists[w_node].append(u)
        self._edge_cost = edge_cost
        self._preds = tuple(tuple(sorted(p)) for p in pred_lists)
        self._succs = tuple(tuple(sorted(s)) for s in succ_lists)

        if labels is None:
            labels = tuple(f"n{i + 1}" for i in range(v))
        else:
            if len(labels) != v:
                raise GraphError("labels length must equal number of nodes")
            labels = tuple(str(x) for x in labels)
        self._labels = labels
        self.name = name

        self._topo_order = self._compute_topo_order()
        self._entries = tuple(i for i in range(v) if not self._preds[i])
        self._exits = tuple(i for i in range(v) if not self._succs[i])
        self._hash: int | None = None
        self._pred_offsets: tuple[int, ...] | None = None
        self._pred_flat: tuple[int, ...] | None = None
        self._pred_costs: tuple[float, ...] | None = None
        self._succ_offsets: tuple[int, ...] | None = None
        self._succ_flat: tuple[int, ...] | None = None
        self._succ_costs: tuple[float, ...] | None = None
        self._pred_masks: tuple[int, ...] | None = None
        self._pred_pairs: tuple[tuple[tuple[int, float], ...], ...] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of tasks v."""
        return len(self._weights)

    @property
    def num_edges(self) -> int:
        """Number of precedence edges e."""
        return len(self._edge_cost)

    @property
    def weights(self) -> tuple[float, ...]:
        """Computation cost per node."""
        return self._weights

    def weight(self, node: int) -> float:
        """Computation cost ``w(n)`` of one node."""
        return self._weights[node]

    @property
    def edges(self) -> Mapping[Edge, float]:
        """Read-only view of the ``(u, v) -> cost`` edge map."""
        return dict(self._edge_cost)

    def comm_cost(self, u: int, v: int) -> float:
        """Communication cost ``c(u, v)`` of edge ``u -> v``.

        Raises
        ------
        KeyError
            When no such edge exists.
        """
        return self._edge_cost[(u, v)]

    def preds(self, node: int) -> tuple[int, ...]:
        """Parents of ``node`` in ascending id order."""
        return self._preds[node]

    def succs(self, node: int) -> tuple[int, ...]:
        """Children of ``node`` in ascending id order."""
        return self._succs[node]

    @property
    def entry_nodes(self) -> tuple[int, ...]:
        """Nodes with no parents."""
        return self._entries

    @property
    def exit_nodes(self) -> tuple[int, ...]:
        """Nodes with no children."""
        return self._exits

    @property
    def labels(self) -> tuple[str, ...]:
        """Human-readable node names."""
        return self._labels

    def label(self, node: int) -> str:
        """Human-readable name of one node."""
        return self._labels[node]

    def index_of(self, label: str) -> int:
        """Node id for a label.

        Raises
        ------
        KeyError
            When the label is unknown.
        """
        try:
            return self._labels.index(label)
        except ValueError:
            raise KeyError(f"unknown node label {label!r}") from None

    @property
    def topological_order(self) -> tuple[int, ...]:
        """A fixed topological order (Kahn's algorithm, smallest-id first).

        Deterministic: ties are broken by node id, so two identical graphs
        have identical orders.
        """
        return self._topo_order

    # -- aggregates --------------------------------------------------------

    @property
    def total_computation(self) -> float:
        """Sum of all node weights."""
        return sum(self._weights)

    @property
    def total_communication(self) -> float:
        """Sum of all edge costs."""
        return sum(self._edge_cost.values())

    @property
    def mean_computation(self) -> float:
        """Average node weight."""
        return self.total_computation / self.num_nodes

    @property
    def mean_communication(self) -> float:
        """Average edge cost (0.0 for edge-less graphs)."""
        return self.total_communication / self.num_edges if self._edge_cost else 0.0

    # -- flat (CSR) views for the search hot path --------------------------

    def _build_csr(self) -> None:
        """One O(v + e) pass building every flat adjacency view."""
        v = len(self._weights)
        cost = self._edge_cost
        pred_offsets = [0] * (v + 1)
        pred_flat: list[int] = []
        pred_costs: list[float] = []
        succ_offsets = [0] * (v + 1)
        succ_flat: list[int] = []
        succ_costs: list[float] = []
        pred_masks = [0] * v
        pred_pairs: list[tuple[tuple[int, float], ...]] = []
        for n in range(v):
            mask = 0
            pairs: list[tuple[int, float]] = []
            for p in self._preds[n]:
                c = cost[(p, n)]
                pred_flat.append(p)
                pred_costs.append(c)
                pairs.append((p, c))
                mask |= 1 << p
            pred_offsets[n + 1] = len(pred_flat)
            pred_masks[n] = mask
            pred_pairs.append(tuple(pairs))
            for s in self._succs[n]:
                succ_flat.append(s)
                succ_costs.append(cost[(n, s)])
            succ_offsets[n + 1] = len(succ_flat)
        self._pred_offsets = tuple(pred_offsets)
        self._pred_flat = tuple(pred_flat)
        self._pred_costs = tuple(pred_costs)
        self._succ_offsets = tuple(succ_offsets)
        self._succ_flat = tuple(succ_flat)
        self._succ_costs = tuple(succ_costs)
        self._pred_masks = tuple(pred_masks)
        self._pred_pairs = tuple(pred_pairs)

    @property
    def pred_offsets(self) -> tuple[int, ...]:
        """CSR row pointers: preds of ``n`` live at ``pred_flat[o[n]:o[n+1]]``."""
        if self._pred_offsets is None:
            self._build_csr()
        return self._pred_offsets  # type: ignore[return-value]

    @property
    def pred_flat(self) -> tuple[int, ...]:
        """Concatenated predecessor lists (ascending id within each node)."""
        if self._pred_flat is None:
            self._build_csr()
        return self._pred_flat  # type: ignore[return-value]

    @property
    def pred_costs(self) -> tuple[float, ...]:
        """Edge cost aligned with :attr:`pred_flat`."""
        if self._pred_costs is None:
            self._build_csr()
        return self._pred_costs  # type: ignore[return-value]

    @property
    def succ_offsets(self) -> tuple[int, ...]:
        """CSR row pointers for the successor mirror."""
        if self._succ_offsets is None:
            self._build_csr()
        return self._succ_offsets  # type: ignore[return-value]

    @property
    def succ_flat(self) -> tuple[int, ...]:
        """Concatenated successor lists (ascending id within each node)."""
        if self._succ_flat is None:
            self._build_csr()
        return self._succ_flat  # type: ignore[return-value]

    @property
    def succ_costs(self) -> tuple[float, ...]:
        """Edge cost aligned with :attr:`succ_flat`."""
        if self._succ_costs is None:
            self._build_csr()
        return self._succ_costs  # type: ignore[return-value]

    @property
    def pred_pairs(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-node ``((parent, cost), ...)`` tuples.

        The EST inner loop unpacks these directly — measurably faster in
        CPython than offset arithmetic into the flat arrays, at the cost
        of one extra materialized view.
        """
        if self._pred_pairs is None:
            self._build_csr()
        return self._pred_pairs  # type: ignore[return-value]

    @property
    def pred_masks(self) -> tuple[int, ...]:
        """Per-node bitmask of predecessors.

        ``pred_masks[n] & scheduled_mask == pred_masks[n]`` iff every
        parent of ``n`` is in the scheduled set — the O(1) readiness test
        of the delta-encoded search states.
        """
        if self._pred_masks is None:
            self._build_csr()
        return self._pred_masks  # type: ignore[return-value]

    # -- derived views -----------------------------------------------------

    def pred_edges(self, node: int) -> Iterable[tuple[int, float]]:
        """Yield ``(parent, c(parent, node))`` pairs."""
        cost = self._edge_cost
        for p in self._preds[node]:
            yield p, cost[(p, node)]

    def succ_edges(self, node: int) -> Iterable[tuple[int, float]]:
        """Yield ``(child, c(node, child))`` pairs."""
        cost = self._edge_cost
        for s in self._succs[node]:
            yield s, cost[(node, s)]

    def relabeled(self, labels: Sequence[str]) -> "TaskGraph":
        """Copy of this graph with different node labels."""
        return TaskGraph(self._weights, self._edge_cost, labels, name=self.name)

    def induced_prefix(self, nodes: Iterable[int]) -> "TaskGraph":
        """Sub-graph induced by a downward-closed node set.

        Used by tests and by the approximate lower bounds; node ids are
        compacted to ``0..k-1`` preserving relative order.

        Raises
        ------
        GraphError
            When ``nodes`` is not closed under predecessors.
        """
        keep = sorted(set(nodes))
        keep_set = set(keep)
        for n in keep:
            for p in self._preds[n]:
                if p not in keep_set:
                    raise GraphError(
                        f"prefix not downward closed: {n} kept but parent {p} dropped"
                    )
        remap = {old: new for new, old in enumerate(keep)}
        weights = [self._weights[n] for n in keep]
        edges = {
            (remap[u], remap[w]): c
            for (u, w), c in self._edge_cost.items()
            if u in keep_set and w in keep_set
        }
        labels = [self._labels[n] for n in keep]
        return TaskGraph(weights, edges, labels, name=f"{self.name}[prefix]")

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return (
            f"TaskGraph(name={self.name!r}, v={self.num_nodes}, "
            f"e={self.num_edges})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (
            self._weights == other._weights
            and self._edge_cost == other._edge_cost
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._weights, frozenset(self._edge_cost.items()), self._labels)
            )
        return self._hash

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_lists(
        cls,
        weights: Sequence[float],
        edge_list: Iterable[tuple[int, int, float]],
        labels: Sequence[str] | None = None,
        name: str = "taskgraph",
    ) -> "TaskGraph":
        """Build from an ``(u, v, cost)`` triple list; a repeated
        ``(u, v)`` pair is a :class:`GraphError`, not a fold into its
        last cost."""
        edges: dict[Edge, float] = {}
        for u, v, c in edge_list:
            if (u, v) in edges:
                raise GraphError(f"duplicate edge ({u}, {v})")
            edges[u, v] = c
        return cls(weights, edges, labels, name)

    # -- internals -----------------------------------------------------------

    def _compute_topo_order(self) -> tuple[int, ...]:
        """Kahn topological sort with a smallest-id-first tie-break."""
        import heapq

        v = len(self._weights)
        indegree = [len(self._preds[i]) for i in range(v)]
        ready = [i for i in range(v) if indegree[i] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for s in self._succs[n]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) != v:
            raise CycleError(
                f"task graph contains a cycle ({v - len(order)} nodes unreachable)"
            )
        return tuple(order)
