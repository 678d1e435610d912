"""State expansion shared by every search engine.

Expanding a state (paper §3.1) exhaustively matches every ready node to
every candidate processor; each match is one child state.  The §3.2
pruning rules act here:

* node-equivalence filters the ready list;
* priority ordering sorts it;
* processor isomorphism filters the candidate PE list per state.

The expander owns all per-instance precomputation (levels, priority
ranks, node-equivalence classes, PE isomorphism classes) so the
per-expansion work is pure array traffic.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.graph.analysis import compute_levels
from repro.graph.taskgraph import TaskGraph
from repro.schedule.partial import PartialSchedule

# Definition 3 lives with the other graph transformations in the
# preprocessing module (its canonical home since the preprocess pass can
# merge classes); re-exported here because every engine reaches it
# through the expander.
from repro.schedule.preprocess import node_equivalence_classes
from repro.search.dedup import SignatureSet
from repro.search.pruning import PruningConfig, PruningStats
from repro.system.isomorphism import isomorphism_classes
from repro.system.processors import ProcessorSystem

__all__ = ["StateExpander", "node_equivalence_classes"]


class StateExpander:
    """Generates the children of a partial schedule under a pruning config."""

    def __init__(
        self,
        graph: TaskGraph,
        system: ProcessorSystem,
        config: PruningConfig,
        stats: PruningStats | None = None,
    ) -> None:
        self.graph = graph
        self.system = system
        self.config = config
        self.stats = stats if stats is not None else PruningStats()

        levels = compute_levels(graph)
        # Priority = b-level + t-level, larger first (§3.2).  Precomputed
        # as a rank so sorting the ready list is a cheap key lookup.
        order = sorted(
            range(graph.num_nodes),
            key=lambda n: (
                -(levels.b_level[n] + levels.t_level[n]),
                -levels.b_level[n],
                n,
            ),
        )
        self._prio_rank = [0] * graph.num_nodes
        for rank, n in enumerate(order):
            self._prio_rank[n] = rank

        # node -> equivalence-class id, and class id -> members.
        self._equiv_id = [0] * graph.num_nodes
        for cid, members in enumerate(node_equivalence_classes(graph)):
            for n in members:
                self._equiv_id[n] = cid

        # PE isomorphism classes (structural part of Definition 2).
        self._pe_classes = isomorphism_classes(system)

        # Per-node predecessor bitmasks: the commutation rule's "is the
        # last-placed node a parent of this candidate?" test becomes a
        # single shift-and-mask instead of a tuple `in` scan.
        self._pred_masks = graph.pred_masks

        # Fixed-task-order precomputation: per node, the single parent /
        # child id (-1 = none, -2 = more than one) and the in/out edge
        # communication costs.  The exchange argument behind the rule
        # swaps task positions across PEs, so it requires PE-independent
        # execution and communication times: homogeneous speeds and
        # non-distance-scaled links.
        self._fto_applicable = (
            config.fixed_task_order
            and system.is_homogeneous
            and not system.distance_scaled
        )

        # Processor-symmetry normalization self-gates exactly like FTO:
        # its justifying permutation swaps empty PEs, which only
        # preserves schedules when execution times are PE-independent
        # (homogeneous) and communication ignores topology (uniform).
        self._sym_applicable = (
            config.root_symmetry
            and system.is_homogeneous
            and not system.distance_scaled
        )
        if self._fto_applicable:
            single_parent: list[int] = []
            single_child: list[int] = []
            in_cost: list[float] = []
            out_cost: list[float] = []
            for n in range(graph.num_nodes):
                pe_edges = tuple(graph.pred_edges(n))
                se_edges = tuple(graph.succ_edges(n))
                single_parent.append(
                    -1 if not pe_edges
                    else pe_edges[0][0] if len(pe_edges) == 1 else -2
                )
                single_child.append(
                    -1 if not se_edges
                    else se_edges[0][0] if len(se_edges) == 1 else -2
                )
                in_cost.append(pe_edges[0][1] if len(pe_edges) == 1 else 0.0)
                out_cost.append(se_edges[0][1] if len(se_edges) == 1 else 0.0)
            self._fto_single_parent = single_parent
            self._fto_single_child = single_child
            self._fto_in_cost = in_cost
            self._fto_out_cost = out_cost

    # -- candidate selection ---------------------------------------------------

    def candidate_nodes(self, ps: PartialSchedule) -> list[int]:
        """Ready nodes, equivalence-filtered and priority-ordered."""
        ready = ps.ready_nodes()
        if self.config.node_equivalence and len(ready) > 1:
            seen_classes: set[int] = set()
            filtered: list[int] = []
            equiv_id = self._equiv_id
            for n in ready:  # ascending id: keeps lowest member per class
                cid = equiv_id[n]
                if cid in seen_classes:
                    self.stats.equivalence_skips += 1
                    continue
                seen_classes.add(cid)
                filtered.append(n)
            ready = filtered
        if self.config.priority_ordering and len(ready) > 1:
            rank = self._prio_rank
            ready.sort(key=lambda n: rank[n])
        return ready

    def fixed_order_head(self, nodes: list[int]) -> int | None:
        """The head of the ready chain when fixed task order applies.

        The ready set admits a fixed order (Sinnen's FTO; Akram et al.
        2024) when

        * every ready node has at most one parent and at most one child,
        * either *every* ready node has the same single parent (a fork —
          availability co-varies across PEs: the common parent's finish
          locally, plus each node's own in-edge cost remotely) or *no*
          ready node has a parent (all data-ready at 0 everywhere).
          Mixing the two groups is unsound: a zero-DRT entry task can
          order ahead of a fork task yet displace it by its full weight,
          delaying the fork task's child (found by property testing),
        * symmetrically, either *every* ready node has the same single
          child (a join — the only downstream influence is that child's
          data-ready time) or *no* ready node has a child.  Mixing is
          unsound here too: a childless task can tie with a join task on
          out-communication (both 0) yet win the id tiebreak, and
          delaying the join task delays the shared child by its full
          weight — no message cost needed (also found by property
          testing; the pinned counterexample is two entry tasks feeding
          a join plus one childless entry task),
        * sorting by (data-ready time ascending, out-communication
          descending, node id) leaves the out-communication costs
          non-increasing — i.e. one order is simultaneously earliest-
          available-first and most-urgent-message-first.

        Then an exchange argument gives: some optimal completion
        schedules the head next, so only the head need be branched
        (property-tested against exhaustive enumeration).  With a shared
        parent, data-ready order is entry-tasks-first then in-edge cost
        ascending — no finish times needed.  Returns ``None`` when the
        conditions fail.
        """
        single_parent = self._fto_single_parent
        single_child = self._fto_single_child
        first_parent = single_parent[nodes[0]]
        first_child = single_child[nodes[0]]
        for n in nodes:
            p = single_parent[n]
            if p == -2 or p != first_parent:
                return None
            c = single_child[n]
            if c == -2 or c != first_child:
                return None
        in_cost = self._fto_in_cost
        out_cost = self._fto_out_cost
        # All-fork: data-ready order is the in-edge cost order (the
        # shared parent's finish is a common constant).  All-entry:
        # in_cost is 0.0 across the board, so the sort is pure
        # out-communication order.
        ordered = sorted(
            nodes, key=lambda n: (in_cost[n], -out_cost[n], n)
        )
        prev = math.inf
        for n in ordered:
            oc = out_cost[n]
            if oc > prev:
                return None  # no order serves both criteria at once
            prev = oc
        return ordered[0]

    def candidate_pes(self, ps: PartialSchedule) -> list[int]:
        """Candidate PEs: all busy PEs plus one representative per
        isomorphism class among the empty ones (Definition 2).

        Under processor-symmetry normalization (homogeneous speeds,
        uniform communication) *all* empty PEs collapse to the single
        lowest-numbered one — topology is irrelevant to the cost model,
        so the structural classes merge; at the root this pins the
        first task to PE 0.
        """
        num_pes = self.system.num_pes
        if self._sym_applicable:
            ready_time = ps.ready_time
            pes = [pe for pe in range(num_pes) if ready_time[pe] > 0.0]
            empties = num_pes - len(pes)
            if empties:
                pes.append(min(
                    pe for pe in range(num_pes) if ready_time[pe] == 0.0
                ))
                self.stats.symmetry_skips += empties - 1
            pes.sort()
            return pes
        if not self.config.processor_isomorphism:
            return list(range(num_pes))
        ready_time = ps.ready_time
        pes: list[int] = []
        for members in self._pe_classes:
            rep_taken = False
            for pe in members:
                if ready_time[pe] > 0.0:
                    pes.append(pe)  # busy PEs are always distinct
                elif not rep_taken:
                    pes.append(pe)  # first empty member represents the class
                    rep_taken = True
                else:
                    self.stats.isomorphism_skips += 1
        pes.sort()
        return pes

    def children(
        self, ps: PartialSchedule, seen: SignatureSet | None = None
    ) -> Iterator[PartialSchedule]:
        """Yield every child state of ``ps`` (after node/PE filtering).

        Children are yielded highest-priority node first, lowest PE id
        first — determinism the tests rely on.

        When ``seen`` is given, duplicate placements are filtered *before
        construction*: the child's duplicate key is previewed
        (:meth:`PartialSchedule.child_signature` — one EST plus one
        Zobrist XOR) and only unseen keys are materialized and recorded.
        Profiling showed 80-90% of expansion candidates dying in the
        engines' duplicate checks after paying full construction cost —
        this is the paper's CLOSED-list check, hoisted.  In the table's
        ``verify`` mode the child is constructed first so its exact
        signature can confirm each hash hit.
        """
        pes = self.candidate_pes(ps)
        nodes = self.candidate_nodes(ps)
        if self._fto_applicable and len(nodes) > 1:
            head = self.fixed_order_head(nodes)
            if head is not None:
                # The whole ready chain collapses to its head: the
                # other ready nodes' candidate placements are skipped
                # wholesale (they will be branched, in order, in the
                # head's descendants).
                self.stats.fixed_order_skips += (len(nodes) - 1) * len(pes)
                nodes = [head]
        commut = self.config.commutation and ps.last_node >= 0
        skip_other_pes = False
        if commut:
            last_node = ps.last_node
            last_pe = ps.last_pe
            last_rank = self._prio_rank[last_node]
            rank = self._prio_rank
            pred_masks = self._pred_masks
        verify = seen is not None and seen.verify
        # Per-candidate names, bound once per expansion.
        stats = self.stats
        child_signature = ps.child_signature
        extend = ps.extend
        check_add = seen.check_add if seen is not None else None
        for node in nodes:
            if commut:
                # Partial-order reduction: if `node` was already ready
                # before the last placement (the last node is not its
                # parent) and orders canonically before it, the states
                # reachable by placing `node` on a *different* PE are
                # transpositions of placements explored via the swapped
                # order (or isomorphic/equivalent variants of them).
                skip_other_pes = (
                    rank[node] < last_rank
                    and not (pred_masks[node] >> last_node) & 1
                )
            for pe in pes:
                if skip_other_pes and pe != last_pe:
                    stats.commutation_skips += 1
                    continue
                if check_add is None:
                    yield extend(node, pe)
                    continue
                key, start = child_signature(node, pe)
                if verify:
                    child = extend(node, pe, _start=start, _sig=key)
                    if check_add(key, lambda c=child: c.signature):
                        stats.duplicate_hits += 1
                        continue
                    yield child
                    continue
                if check_add(key):
                    stats.duplicate_hits += 1
                    continue
                yield extend(node, pe, _start=start, _sig=key)
