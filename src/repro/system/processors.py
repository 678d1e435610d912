"""The processor network model.

A :class:`ProcessorSystem` is a set of processors with per-PE speed
factors connected by homogeneous links (paper §2).  Execution time of a
task with weight ``w`` on PE *p* is ``w / speed[p]``; homogeneous systems
use speed 1.0 everywhere so execution time equals the node weight, as in
the paper's examples.

Communication cost between tasks on different PEs defaults to the edge
weight regardless of hop distance (this matches every number in the
paper's Figure-3 search tree); an optional ``distance_scaled`` mode
multiplies the edge weight by hop count, the model the Chen & Yu
baseline's path-matching bound targets.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from typing import Any

from repro.errors import SystemError_
from repro.system import topology as topo

__all__ = ["ProcessorSystem", "system_to_dict", "system_from_dict"]

#: The largest finite float.  One comparison against it refuses NaN,
#: infinities and ints too large for a float (which ``math.isfinite``
#: would raise ``OverflowError`` on), as in the graph constructor.
_FLOAT_MAX = sys.float_info.max

Link = tuple[int, int]


class ProcessorSystem:
    """An immutable processor network.

    Parameters
    ----------
    num_pes:
        Number of processing elements p ≥ 1.
    links:
        Undirected link pairs; omitted or ``None`` means fully connected.
    speeds:
        Per-PE speed factors (all 1.0 when omitted → homogeneous).
    distance_scaled:
        When True, inter-PE communication cost is edge-weight × hop
        distance; when False (default, the paper's model) it is the edge
        weight whenever the PEs differ.
    name:
        Report label.
    """

    __slots__ = (
        "_num_pes",
        "_links",
        "_speeds",
        "_neighbors",
        "_dist",
        "name",
        "distance_scaled",
    )

    def __init__(
        self,
        num_pes: int,
        links: Iterable[Link] | None = None,
        speeds: Sequence[float] | None = None,
        *,
        distance_scaled: bool = False,
        name: str = "system",
    ) -> None:
        if num_pes < 1:
            raise SystemError_("need at least one processor")
        self._num_pes = num_pes
        if links is None:
            link_set = topo.fully_connected_links(num_pes)
        else:
            link_set = set()
            for i, j in links:
                if not (0 <= i < num_pes and 0 <= j < num_pes):
                    raise SystemError_(f"link ({i}, {j}) references unknown PE")
                if i == j:
                    raise SystemError_(f"self-link on PE {i}")
                link_set.add((i, j) if i < j else (j, i))
        self._links = frozenset(link_set)

        if speeds is None:
            self._speeds = (1.0,) * num_pes
        else:
            if len(speeds) != num_pes:
                raise SystemError_("speeds length must equal num_pes")
            for i, s in enumerate(speeds):
                if not (s > 0):
                    raise SystemError_(f"PE {i} has non-positive speed {s!r}")
                if not s <= _FLOAT_MAX:
                    raise SystemError_(f"PE {i} has non-finite speed {s!r}")
            self._speeds = tuple(float(s) for s in speeds)

        neighbor_lists: list[set[int]] = [set() for _ in range(num_pes)]
        for i, j in self._links:
            neighbor_lists[i].add(j)
            neighbor_lists[j].add(i)
        self._neighbors = tuple(tuple(sorted(s)) for s in neighbor_lists)
        self._dist: tuple[tuple[int, ...], ...] | None = None
        self.distance_scaled = distance_scaled
        self.name = name

    # -- constructors --------------------------------------------------------

    @classmethod
    def fully_connected(cls, n: int, *, speeds=None, name: str | None = None) -> "ProcessorSystem":
        """Clique of ``n`` PEs."""
        return cls(n, topo.fully_connected_links(n), speeds, name=name or f"clique-{n}")

    @classmethod
    def ring(cls, n: int, *, speeds=None, name: str | None = None) -> "ProcessorSystem":
        """Ring of ``n`` PEs (the paper's Figure-1(b) uses n = 3)."""
        return cls(n, topo.ring_links(n), speeds, name=name or f"ring-{n}")

    @classmethod
    def chain(cls, n: int, *, speeds=None, name: str | None = None) -> "ProcessorSystem":
        """Linear array of ``n`` PEs."""
        return cls(n, topo.chain_links(n), speeds, name=name or f"chain-{n}")

    @classmethod
    def mesh(cls, rows: int, cols: int, *, speeds=None, name: str | None = None) -> "ProcessorSystem":
        """2-D mesh of ``rows × cols`` PEs (Paragon-style)."""
        return cls(
            rows * cols, topo.mesh_links(rows, cols), speeds,
            name=name or f"mesh-{rows}x{cols}",
        )

    @classmethod
    def hypercube(cls, dim: int, *, speeds=None, name: str | None = None) -> "ProcessorSystem":
        """Hypercube of dimension ``dim``."""
        return cls(
            1 << dim, topo.hypercube_links(dim), speeds,
            name=name or f"hypercube-{dim}",
        )

    @classmethod
    def star(cls, n: int, *, speeds=None, name: str | None = None) -> "ProcessorSystem":
        """Star of ``n`` PEs with PE 0 as hub."""
        return cls(n, topo.star_links(n), speeds, name=name or f"star-{n}")

    # -- accessors -------------------------------------------------------------

    @property
    def num_pes(self) -> int:
        """Number of processors p."""
        return self._num_pes

    @property
    def links(self) -> frozenset[Link]:
        """Undirected link set."""
        return self._links

    @property
    def speeds(self) -> tuple[float, ...]:
        """Per-PE speed factors."""
        return self._speeds

    def speed(self, pe: int) -> float:
        """Speed factor of one PE."""
        return self._speeds[pe]

    @property
    def is_homogeneous(self) -> bool:
        """True when all PEs share one speed."""
        return len(set(self._speeds)) == 1

    def neighbors(self, pe: int) -> tuple[int, ...]:
        """PEs directly linked to ``pe`` (ascending order)."""
        return self._neighbors[pe]

    def degree(self, pe: int) -> int:
        """Node degree of ``pe`` in the processor graph."""
        return len(self._neighbors[pe])

    def exec_time(self, weight: float, pe: int) -> float:
        """Execution time of a task of weight ``weight`` on ``pe``."""
        return weight / self._speeds[pe]

    # -- distances ---------------------------------------------------------

    @property
    def hop_distance(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop-distance matrix (BFS per source; cached).

        Unreachable pairs get a large sentinel (num_pes), which only
        arises for deliberately disconnected test systems.
        """
        if self._dist is None:
            n = self._num_pes
            rows: list[tuple[int, ...]] = []
            for src in range(n):
                dist = [n] * n
                dist[src] = 0
                frontier = [src]
                d = 0
                while frontier:
                    d += 1
                    nxt: list[int] = []
                    for u in frontier:
                        for w in self._neighbors[u]:
                            if dist[w] > d:
                                dist[w] = d
                                nxt.append(w)
                    frontier = nxt
                rows.append(tuple(dist))
            self._dist = tuple(rows)
        return self._dist

    def comm_time(self, edge_cost: float, pe_from: int, pe_to: int) -> float:
        """Communication time for a message of cost ``edge_cost``.

        Zero when source and destination PE coincide (paper §2); the edge
        cost itself otherwise, optionally scaled by hop distance.
        """
        if pe_from == pe_to:
            return 0.0
        if self.distance_scaled:
            return edge_cost * self.hop_distance[pe_from][pe_to]
        return edge_cost

    # -- dunder --------------------------------------------------------------

    def __repr__(self) -> str:
        kind = "hetero" if not self.is_homogeneous else "homog"
        return (
            f"ProcessorSystem(name={self.name!r}, p={self._num_pes}, "
            f"links={len(self._links)}, {kind})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ProcessorSystem):
            return NotImplemented
        return (
            self._num_pes == other._num_pes
            and self._links == other._links
            and self._speeds == other._speeds
            and self.distance_scaled == other.distance_scaled
        )

    def __hash__(self) -> int:
        return hash((self._num_pes, self._links, self._speeds, self.distance_scaled))


def system_to_dict(system: ProcessorSystem) -> dict[str, Any]:
    """The JSON-safe wire form of a processor system: schedule files,
    request bodies and worker-process jobs all carry this dict."""
    return {
        "num_pes": system.num_pes,
        "links": [list(link) for link in sorted(system.links)],
        "speeds": list(system.speeds),
        "distance_scaled": system.distance_scaled,
        "name": system.name,
    }


def system_from_dict(data: dict[str, Any]) -> ProcessorSystem:
    """Inverse of :func:`system_to_dict`.  ``name`` may be omitted
    (``"system"``); a missing other key raises ``KeyError``, and the
    constructor's checks (:class:`SystemError_`) guard the values."""
    return ProcessorSystem(
        data["num_pes"],
        links=[tuple(link) for link in data["links"]],
        speeds=data["speeds"],
        distance_scaled=data["distance_scaled"],
        name=data.get("name", "system"),
    )
