"""The simulated message-passing machine the parallel A* runs on.

Physical processing elements (PPEs — the paper's term, distinct from
the *target* PEs the DAG is scheduled onto) are connected by a
topology; the Intel Paragon's is a 2-D mesh.  Time is counted in
abstract units: one state expansion costs ``expansion_cost`` units and
one message ``comm_latency`` units.  The defaults make expansion ~10×
a message, mirroring the paper's observation that the Paragon
"permits the PPEs to exchange small messages in a short time compared
with the processing time for states expansion".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SystemError_
from repro.system import topology as topo

__all__ = ["MachineSpec", "PPENetwork"]


@dataclass(frozen=True)
class MachineSpec:
    """Configuration of the simulated parallel machine.

    Attributes
    ----------
    num_ppes:
        Number of physical PEs running the search (paper: 2/4/8/16).
    topology:
        ``"mesh"`` (default, Paragon-style), ``"ring"``, ``"chain"``,
        ``"hypercube"``, ``"clique"`` or ``"star"``.
    expansion_cost:
        Simulated time units per state expansion.
    comm_latency:
        Simulated time units per message sent or received.
    """

    num_ppes: int = 4
    topology: str = "mesh"
    expansion_cost: float = 1.0
    comm_latency: float = 0.1

    def __post_init__(self) -> None:
        if self.num_ppes < 1:
            raise SystemError_("need at least one PPE")
        if self.expansion_cost <= 0 or self.comm_latency < 0:
            raise SystemError_("costs must be positive (latency may be 0)")
        if self.topology not in ("mesh", "ring", "chain", "hypercube", "clique", "star"):
            raise SystemError_(f"unknown topology {self.topology!r}")


class PPENetwork:
    """Neighbour structure of the PPEs plus simulated-time bookkeeping."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        q = spec.num_ppes
        if spec.topology == "mesh":
            rows, cols = _near_square(q)
            links = topo.mesh_links(rows, cols)
            self.shape: tuple[int, ...] = (rows, cols)
        elif spec.topology == "ring":
            links = topo.ring_links(q)
            self.shape = (q,)
        elif spec.topology == "chain":
            links = topo.chain_links(q)
            self.shape = (q,)
        elif spec.topology == "hypercube":
            dim = (q - 1).bit_length()
            if 1 << dim != q:
                raise SystemError_(
                    f"hypercube needs a power-of-two PPE count, got {q}"
                )
            links = topo.hypercube_links(dim)
            self.shape = (q,)
        elif spec.topology == "star":
            links = topo.star_links(q)
            self.shape = (q,)
        else:  # clique
            links = topo.fully_connected_links(q)
            self.shape = (q,)

        neighbor_sets: list[set[int]] = [set() for _ in range(q)]
        for i, j in links:
            neighbor_sets[i].add(j)
            neighbor_sets[j].add(i)
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in neighbor_sets
        )

    @property
    def num_ppes(self) -> int:
        """PPE count q."""
        return self.spec.num_ppes

    def group(self, ppe: int) -> tuple[int, ...]:
        """The communication group of a PPE: itself plus its neighbours."""
        return (ppe, *self.neighbors[ppe])


def _near_square(q: int) -> tuple[int, int]:
    """Factor ``q`` into the most square ``rows × cols`` mesh."""
    best = (1, q)
    for rows in range(1, int(math.isqrt(q)) + 1):
        if q % rows == 0:
            best = (rows, q // rows)
    return best
