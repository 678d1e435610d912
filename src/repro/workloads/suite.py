"""The §4.1 experimental workload.

Three sets of random task graphs, one per CCR ∈ {0.1, 1.0, 10.0}; each
set sweeps v = 10, 12, …, 32 (12 graphs per set).  Node costs are
uniform with mean 40, out-degrees uniform with mean v/10, edge costs
uniform with mean 40·CCR.  The algorithms are given O(v) target
processors (we use a fully-connected homogeneous system with v PEs —
the processor-isomorphism rule keeps the effective branching far
smaller, which is exactly the paper's observation that "the algorithms
used far less than v TPEs").

A 1998 Paragon node spent up to days on the largest instances; a
single-threaded Python reproduction must budget accordingly.  The
default suite therefore stops at v = 20 and experiment runners accept
budgets; ``full=True`` reproduces the complete 10…32 sweep for patient
runs.  EXPERIMENTS.md records which points ran to proven optimality.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.graph.taskgraph import TaskGraph
from repro.schedule.fingerprint import instance_fingerprint
from repro.system.processors import ProcessorSystem

__all__ = [
    "WorkloadInstance",
    "WorkloadSuite",
    "paper_suite",
    "paper_target_system",
]

PAPER_CCRS = (0.1, 1.0, 10.0)
PAPER_SIZES = tuple(range(10, 33, 2))
DEFAULT_SIZES = tuple(range(10, 21, 2))


@dataclass(frozen=True)
class WorkloadInstance:
    """One problem instance of the suite."""

    ccr: float
    size: int
    seed: int
    graph: TaskGraph = field(compare=False)
    system: ProcessorSystem = field(compare=False)

    @property
    def fingerprint(self) -> str:
        """Canonical 128-bit instance fingerprint (see
        :mod:`repro.schedule.fingerprint`); relabeling-invariant, so two
        suite points that generate the same problem share cached results.
        Memoized per (graph, system) value by
        :func:`~repro.schedule.fingerprint.instance_fingerprint` itself."""
        return instance_fingerprint(self.graph, self.system)

    @property
    def key(self) -> str:
        """Stable identity string used for caching results.

        Human-readable sweep coordinates plus the canonical fingerprint,
        so experiment caches keyed on it dedupe identical instances even
        across differently-parameterized sweeps.
        """
        return f"v{self.size}-ccr{self.ccr}-{self.fingerprint[:12]}"


@dataclass(frozen=True)
class WorkloadSuite:
    """A generated workload: instances indexed by (ccr, size)."""

    instances: tuple[WorkloadInstance, ...]

    def __iter__(self) -> Iterator[WorkloadInstance]:
        return iter(self.instances)

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def ccrs(self) -> tuple[float, ...]:
        """Distinct CCR values, ascending."""
        return tuple(sorted({inst.ccr for inst in self.instances}))

    @property
    def sizes(self) -> tuple[int, ...]:
        """Distinct graph sizes, ascending."""
        return tuple(sorted({inst.size for inst in self.instances}))

    def by_ccr(self, ccr: float) -> tuple[WorkloadInstance, ...]:
        """Instances of one CCR set, ordered by size."""
        out = tuple(
            sorted(
                (inst for inst in self.instances if inst.ccr == ccr),
                key=lambda inst: inst.size,
            )
        )
        if not out:
            raise WorkloadError(f"no instances with CCR {ccr}")
        return out

    def get(self, ccr: float, size: int) -> WorkloadInstance:
        """The instance for one (ccr, size) point."""
        for inst in self.instances:
            if inst.ccr == ccr and inst.size == size:
                return inst
        raise WorkloadError(f"no instance with CCR {ccr}, size {size}")


def paper_target_system(num_nodes: int, *, max_pes: int | None = None) -> ProcessorSystem:
    """The target system for a v-node instance: fully-connected, O(v) PEs.

    ``max_pes`` caps the PE count (useful for heavily budgeted runs);
    the cap never affects optimality when ≥ the width of the DAG, and
    the experiment drivers only use it where the paper's "minimum TPEs"
    observation applies.
    """
    pes = num_nodes if max_pes is None else min(num_nodes, max_pes)
    return ProcessorSystem.fully_connected(pes, name=f"clique-{pes}")


def paper_suite(
    *,
    ccrs: tuple[float, ...] = PAPER_CCRS,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    base_seed: int = 19980810,  # ICPP'98 dates: 10-14 August 1998
    full: bool = False,
    max_pes: int | None = None,
) -> WorkloadSuite:
    """Generate the §4.1 workload.

    Parameters
    ----------
    ccrs, sizes:
        Sweep points; ``full=True`` overrides ``sizes`` with the paper's
        complete 10…32 range.
    base_seed:
        Master seed; each (ccr, size) point derives a unique child seed.
    max_pes:
        Optional PE cap passed to :func:`paper_target_system`.
    """
    if full:
        sizes = PAPER_SIZES
    instances: list[WorkloadInstance] = []
    for ccr in ccrs:
        for size in sizes:
            seed = base_seed + size * 1009 + int(ccr * 1000) * 9176
            spec = PaperGraphSpec(num_nodes=size, ccr=ccr, seed=seed)
            graph = paper_random_graph(spec)
            instances.append(
                WorkloadInstance(
                    ccr=ccr,
                    size=size,
                    seed=seed,
                    graph=graph,
                    system=paper_target_system(size, max_pes=max_pes),
                )
            )
    return WorkloadSuite(instances=tuple(instances))
