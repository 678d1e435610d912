"""The four state-space pruning techniques of §3.2.

Each rule is independently toggleable so the Table-1 middle column
("A* without pruning") and the per-rule ablation (E4) run on one engine:

* **Processor isomorphism** (Definition 2): when expanding a ready node,
  among structurally-isomorphic PEs that are still empty only the
  lowest-numbered representative is tried.  Sound because swapping two
  empty PEs with identical neighbourhoods (and speeds) is an
  automorphism of the processor graph that fixes every busy PE.
* **Node equivalence** (Definition 3): two ready nodes with identical
  parents, children, weight and identical communication costs to those
  parents/children lead to equal-length schedules whichever is placed
  first, so only the lowest-numbered ready member of each equivalence
  class generates states.
* **Priority ordering**: ready nodes are considered in decreasing
  ``b-level + t-level`` so the more promising sub-trees enter OPEN first
  (FIFO tie-breaking then expands them first), causing later
  re-generations of the same placements to die in duplicate detection.
* **Upper-bound cost**: states with ``f > U`` (the linear-time list
  schedule length, §3.2) can never improve on a schedule we can already
  construct, because ``g`` is monotone increasing and ``h`` admissible.
* **Duplicate detection**: two expansion orders reaching the *same*
  placement collide on the canonical signature and the second is
  discarded (the "visited before" rule of the Figure-3 walk-through).

Two extensions beyond the paper (both off by default in the engines,
both property-tested against exhaustive enumeration): **commutation**,
a partial-order reduction over the last placement that the service
ladder turns on for its best-first stages, and **fixed task
order** (Sinnen; Akram et al. 2024), which collapses the node branching
factor to 1 whenever the ready set forms a fork/join chain admitting a
total order.  See :class:`PruningConfig` for the exact conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.errors import SearchError

__all__ = ["PruningConfig", "PruningStats"]


@dataclass(frozen=True)
class PruningConfig:
    """On/off switches for each §3.2 technique.

    ``duplicate_detection`` is listed with the pruning rules because the
    paper's no-pruning baseline still needs *some* CLOSED-list check to
    terminate on graphs with many transpositions; set it False only for
    the exhaustive-tree baseline.
    """

    processor_isomorphism: bool = True
    node_equivalence: bool = True
    priority_ordering: bool = True
    upper_bound: bool = True
    duplicate_detection: bool = True
    #: Extension beyond the paper: skip candidate placements that
    #: commute with the state's most recent placement — two
    #: simultaneously-ready nodes placed on *different* PEs produce the
    #: same partial schedule in either order, so only the canonical
    #: order is generated.  A partial-order reduction that avoids even
    #: *constructing* most transposition duplicates; optimality is
    #: preserved (property-tested against exhaustive enumeration).  Off
    #: by default in the engines, so :meth:`all` stays the paper's
    #: configuration; the service ladder
    #: (:mod:`repro.service.portfolio`) turns it on for its best-first
    #: stages and leaves it off for B&B, whose budget-stopped answers
    #: come from dives the rule reroutes.
    commutation: bool = False
    #: Extension beyond the paper (off by default): **fixed task order**
    #: (Sinnen's FTO, engineered by Akram et al. 2024).  When the ready
    #: set forms a fork/join chain — every ready node has at most one
    #: parent and at most one child, parented ready nodes share the one
    #: parent, childed ready nodes share the one child, and sorting by
    #: (data-ready time ascending, out-communication descending) leaves
    #: the out-communication non-increasing — only the chain's head is
    #: branched, collapsing the node branching factor to 1.  Applied
    #: only on homogeneous-speed, non-distance-scaled systems (the
    #: exchange argument swaps task positions across PEs).  Mutually
    #: exclusive with ``commutation``: each rule's soundness argument
    #: assumes the sibling orders the *other* rule prunes were explored,
    #: so composing them can lose optimal completions.
    fixed_task_order: bool = False
    #: Extension beyond the paper (off by default): **processor-symmetry
    #: normalization**.  On homogeneous-speed, non-distance-scaled
    #: systems the communication cost ignores the processor topology
    #: entirely, so *every* empty PE is interchangeable — not just the
    #: structurally-isomorphic ones Definition 2 groups — and each state
    #: needs only the lowest-numbered empty PE as a candidate.  At the
    #: root this pins the first task to PE 0 (the normalization
    #: :mod:`repro.schedule.preprocess` detects eligibility for).
    #: Self-gates off on heterogeneous or distance-scaled systems,
    #: where distinct empty PEs genuinely differ; composes freely with
    #: the other rules (the justifying PE permutation fixes every busy
    #: PE, the same shape as Definition 2's soundness argument).
    root_symmetry: bool = False
    #: Diagnostic switch (off by default): re-verify every duplicate-
    #: detection hash hit against the exact ``(mask, pes, starts)``
    #: signature, admitting (never pruning) true Zobrist collisions.
    #: Restores the old per-probe O(v) cost — used by the equivalence
    #: property tests and for paranoid runs; see
    #: :class:`repro.search.dedup.SignatureSet`.
    verify_signatures: bool = False

    def __post_init__(self) -> None:
        if self.commutation and self.fixed_task_order:
            raise SearchError(
                "commutation and fixed_task_order are mutually exclusive: "
                "each partial-order reduction assumes the expansion orders "
                "the other prunes were explored"
            )

    @classmethod
    def all(cls) -> "PruningConfig":
        """Every paper technique enabled (the paper's "A*" column).

        The commutation extension stays off so this config reproduces
        the paper's algorithm exactly; use :meth:`extended` to add it.
        """
        return cls()

    @classmethod
    def extended(cls) -> "PruningConfig":
        """Every paper technique plus the commutation extension."""
        return cls(commutation=True)

    @classmethod
    def with_fixed_order(cls) -> "PruningConfig":
        """Every paper technique plus the fixed-task-order extension."""
        return cls(fixed_task_order=True)

    @classmethod
    def with_symmetry(cls) -> "PruningConfig":
        """Every paper technique plus processor-symmetry normalization."""
        return cls(root_symmetry=True)

    @classmethod
    def none(cls) -> "PruningConfig":
        """No §3.2 techniques (the paper's "A* w/o pruning" column).

        Duplicate detection stays on — without it the search tree, not
        graph, is explored and even 12-node instances become infeasible;
        the paper's baseline likewise retains the CLOSED list.
        """
        return cls(
            processor_isomorphism=False,
            node_equivalence=False,
            priority_ordering=False,
            upper_bound=False,
            duplicate_detection=True,
        )

    @classmethod
    def only(cls, **enabled: bool) -> "PruningConfig":
        """Start from :meth:`none` and switch on the given rules; a
        misspelt switch raises ``TypeError``.

        >>> PruningConfig.only(upper_bound=True).upper_bound
        True
        """
        return replace(cls.none(), **enabled)

    def describe(self) -> str:
        """Short human-readable switch summary."""
        flags = [
            ("iso", self.processor_isomorphism),
            ("equiv", self.node_equivalence),
            ("prio", self.priority_ordering),
            ("ub", self.upper_bound),
            ("dup", self.duplicate_detection),
            ("comm", self.commutation),
            ("fto", self.fixed_task_order),
            ("sym", self.root_symmetry),
            ("vsig", self.verify_signatures),
        ]
        return "+".join(name for name, on in flags if on) or "none"


@dataclass
class PruningStats:
    """Hit counters: how many candidate states each rule discarded."""

    isomorphism_skips: int = 0
    equivalence_skips: int = 0
    upper_bound_cuts: int = 0
    duplicate_hits: int = 0
    commutation_skips: int = 0
    fixed_order_skips: int = 0
    symmetry_skips: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Total candidate states discarded by all rules."""
        return sum(getattr(self, key) for key in _COUNTERS)

    def as_dict(self) -> dict[str, int]:
        """Flat dict for reports: the rule counters in declaration
        order, then :attr:`extra`."""
        return {key: getattr(self, key) for key in _COUNTERS} | self.extra

    def merge(self, other: "PruningStats | dict") -> None:
        """Fold another run's hit counters into this one, in place.

        Accepts either a :class:`PruningStats` or a counter dict (the
        preprocessing pass reports its reductions as one); unknown dict
        keys land in :attr:`extra` so those counters survive the fold.
        """
        if isinstance(other, dict):
            for key, value in other.items():
                if key in _COUNTERS:
                    setattr(self, key, getattr(self, key) + value)
                else:
                    self.extra[key] = self.extra.get(key, 0) + value
            return
        for key in _COUNTERS:
            setattr(self, key, getattr(self, key) + getattr(other, key))
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value


#: The per-rule counters of :class:`PruningStats`, in declaration order.
_COUNTERS = tuple(f.name for f in fields(PruningStats) if f.name != "extra")
