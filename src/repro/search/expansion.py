"""State expansion shared by every search engine.

Expanding a state (paper §3.1) exhaustively matches every ready node to
every candidate processor; each match is one child state.  The §3.2
pruning rules act here:

* node-equivalence filters the ready list;
* priority ordering sorts it;
* processor isomorphism filters the candidate PE list per state.

The expander owns all per-instance precomputation (levels, priority
ranks, node-equivalence classes, PE isomorphism classes) so the
per-expansion work is pure array traffic, and a per-search rows table
(:meth:`StateExpander.candidate_rows`) so a state whose bitmasks were
seen before costs one dict lookup.
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

#: Entries the rows table holds before it starts over.  One search
#: meets a few hundred distinct keys on the service's instances.
ROWS_CAP = 4096
#: The counters the node/PE filters advance, in a rows-table entry's order.
_SKIPS = ("equivalence_skips", "isomorphism_skips", "symmetry_skips",
          "fixed_order_skips", "commutation_skips")


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

        # Per node, the lower-id members of its equivalence class: it is
        # its class's lowest ready member iff none of them is ready.
        self._equiv_lower = [0] * graph.num_nodes
        for members in node_equivalence_classes(graph):
            lower = 0
            for n in sorted(members):
                self._equiv_lower[n] = lower
                lower |= 1 << n

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
        # candidate_pes keeps one empty PE per class (all PEs under symmetry
        # normalization, else Definition 2's).
        pe_classes = (isomorphism_classes(system) if config.processor_isomorphism
                      else [(pe,) for pe in range(system.num_pes)])
        if self._sym_applicable:
            pe_classes = [range(system.num_pes)]
        self._pe_class_masks = [sum(1 << pe for pe in members) for members in pe_classes]
        # candidate_rows' table: key -> (rows, the five skip counts the
        # miss added).
        self._rows: dict[tuple[int, ...], tuple] = {}

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
        """Ready nodes, equivalence-filtered (a node goes when
        ``ps.ready_mask`` holds a lower-id member of its class) and
        priority-ordered."""
        if self.config.node_equivalence:
            ready_mask = ps.ready_mask
            lower = self._equiv_lower
            ready = []
            m = ready_mask
            while m:
                low = m & -m
                n = low.bit_length() - 1
                m ^= low
                if not ready_mask & lower[n]:
                    ready.append(n)
            self.stats.equivalence_skips += ready_mask.bit_count() - len(ready)
        else:
            ready = ps.ready_nodes()
        if self.config.priority_ordering and len(ready) > 1:
            ready.sort(key=self._prio_rank.__getitem__)
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

        Read off the ``used_pes`` mask: its set bits are the busy PEs and
        each class's lowest free bit its representative.  With
        positive weights "busy" is "ready time past 0", save a finish
        that underflows to 0.0, where the mask is the sound rule.
        """
        num_pes = self.system.num_pes
        used = ps.used_pes
        pes = [pe for pe in range(num_pes) if used >> pe & 1]
        for cmask in self._pe_class_masks:
            free = cmask & ~used
            if free:
                pes.append((free & -free).bit_length() - 1)
        pes.sort()
        skips = num_pes - len(pes)
        if skips:
            if self._sym_applicable:
                self.stats.symmetry_skips += skips
            else:
                self.stats.isomorphism_skips += skips
        return pes

    def candidate_rows(
        self, ps: PartialSchedule
    ) -> list[tuple[int, list[int]]]:
        """Every placement the pruning rules keep, as ``(node, pes)`` rows.

        Rows come highest-priority node first and each row's PEs lowest
        id first — the order :meth:`children` yields in, which the tests
        rely on.  The filters read only ``ready_mask`` and ``used_pes``
        (and, under commutation, ``last_node``/``last_pe``), so the rows
        are worked out once per such key (:meth:`_filter_rows`) and kept
        in a per-search table of at most :data:`ROWS_CAP` entries; each
        skip is counted once per call, a hit adding what its miss did.
        The rows list and its PE lists are shared with later calls, so
        callers must not mutate them.
        """
        if self.config.commutation:
            key = (ps.ready_mask, ps.used_pes, ps.last_node, ps.last_pe)
        else:
            key = (ps.ready_mask, ps.used_pes)
        stats = self.stats
        entry = self._rows.get(key)
        if entry is None:
            before = [getattr(stats, name) for name in _SKIPS]
            rows = self._filter_rows(ps)
            if len(self._rows) >= ROWS_CAP:
                self._rows.clear()
            self._rows[key] = (rows, *[getattr(stats, name) - b
                                       for name, b in zip(_SKIPS, before)])
            return rows
        rows, eq, iso, sym, fto, com = entry
        if eq:
            stats.equivalence_skips += eq
        if iso:
            stats.isomorphism_skips += iso
        if sym:
            stats.symmetry_skips += sym
        if fto:
            stats.fixed_order_skips += fto
        if com:
            stats.commutation_skips += com
        return rows

    def _filter_rows(
        self, ps: PartialSchedule
    ) -> list[tuple[int, list[int]]]:
        """:meth:`candidate_rows` worked out from scratch: the one home
        of the node/PE filters — equivalence and priority
        (:meth:`candidate_nodes`), isomorphism and symmetry
        (:meth:`candidate_pes`), fixed task order and commutation —
        each skip counted as it is made."""
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
        last_node = ps.last_node
        if not self.config.commutation or last_node < 0:
            return [(node, pes) for node in nodes]
        # Partial-order reduction: if a node was already ready before
        # the last placement (the last node is not its parent) and
        # orders canonically before it, the states reachable by placing
        # it on a *different* PE are transpositions of placements
        # explored via the swapped order (or isomorphic/equivalent
        # variants of them).
        last_pe = ps.last_pe
        same_pe = [last_pe] if last_pe in pes else []
        dropped = len(pes) - len(same_pe)
        rank = self._prio_rank
        last_rank = rank[last_node]
        pred_masks = self._pred_masks
        rows = []
        for node in nodes:
            if rank[node] < last_rank and not (pred_masks[node] >> last_node) & 1:
                self.stats.commutation_skips += dropped
                rows.append((node, same_pe))
            else:
                rows.append((node, pes))
        return rows

    def children(
        self, ps: PartialSchedule, seen: SignatureSet | None = None
    ) -> Iterator[PartialSchedule]:
        """Yield every child state of ``ps`` (after node/PE filtering).

        The kernel and IDA* expand through this; B&B and HDA*'s workers
        walk :meth:`candidate_rows` to cost and cut a child first.

        Children are yielded in :meth:`candidate_rows` order: highest-
        priority node first, lowest PE id first — determinism the tests
        rely on.

        When ``seen`` is given, duplicate placements are filtered *before
        construction*: the child's duplicate key is previewed
        (:meth:`PartialSchedule.child_signature` — one EST plus one
        Zobrist XOR) and only unseen keys are materialized and recorded
        — the paper's CLOSED-list check, hoisted.  In the table's
        ``verify`` mode the child is constructed first so its exact
        signature can confirm each hash hit.
        """
        rows = self.candidate_rows(ps)
        verify = seen is not None and seen.verify
        # Per-candidate names, bound once per expansion.
        stats = self.stats
        child_signature = ps.child_signature
        extend = ps.extend
        check_add = seen.check_add if seen is not None else None
        for node, pes in rows:
            for pe in pes:
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
