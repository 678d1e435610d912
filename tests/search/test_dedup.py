"""SignatureSet: the duplicate table and its collision fallback.

The fast path keys states by ``(mask, zobrist)`` and trusts the hash;
the ``verify`` mode re-checks every key hit against the exact signature
so a true Zobrist collision is *admitted* (and counted), never pruned.
These tests force collisions — impossible to hit by chance at 2^-64 —
both at the table level and through a whole engine run.
"""

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.schedule.partial import PartialSchedule
from repro.search.astar import astar_schedule
from repro.search.dedup import SignatureSet
from repro.search.pruning import PruningConfig
from repro.system.processors import ProcessorSystem


class TestFastPath:
    def test_check_add_admits_then_rejects(self):
        table = SignatureSet()
        assert not table.check_add(("k", 1))
        assert table.check_add(("k", 1))
        assert len(table) == 1

    def test_fast_mode_cannot_see_collisions(self):
        """Without verify, colliding keys ARE duplicates — by design."""
        table = SignatureSet()
        assert not table.check_add("key", lambda: "exact-A")
        assert table.check_add("key", lambda: "exact-B")  # falsely pruned
        assert table.collisions == 0


class TestVerifiedCollisionFallback:
    def test_forced_collision_is_admitted_not_pruned(self):
        table = SignatureSet(verify=True)
        assert not table.check_add("key", lambda: "exact-A")
        # Same 64-bit key, different placement: a true hash collision.
        assert not table.check_add("key", lambda: "exact-B")
        assert table.collisions == 1
        # Both exact signatures are now known under the key...
        assert table.check_add("key", lambda: "exact-A")
        assert table.check_add("key", lambda: "exact-B")
        # ...and a third distinct placement still gets admitted.
        assert not table.check_add("key", lambda: "exact-C")
        assert table.collisions == 2

    def test_seen_counts_collision_and_reports_unseen(self):
        table = SignatureSet(verify=True)
        table.add("key", lambda: "exact-A")
        assert table.seen("key", lambda: "exact-A")
        assert not table.seen("key", lambda: "exact-B")
        assert table.collisions == 1

    def test_copy_preserves_exact_buckets(self):
        table = SignatureSet(verify=True)
        table.add("key", lambda: "exact-A")
        dup = table.copy()
        assert not dup.check_add("key", lambda: "exact-B")
        assert dup.collisions == 1
        assert table.collisions == 0  # the original is untouched


class _ColossalCollisions(PartialSchedule):
    """States whose Zobrist lane is constant: every same-mask pair collides.

    The mask component still separates different node *sets*, so all the
    collision pressure lands exactly where the verified fallback must
    save correctness: states placing the same nodes differently.
    """

    __slots__ = ()

    def child_signature(self, node, pe):
        (mask, _z), start = super().child_signature(node, pe)
        return (mask, 0), start

    def extend(self, node, pe, **kwargs):
        # ``PartialSchedule.extend`` always builds a plain state; keep
        # every state of the search in this class, not just the root.
        child = super().extend(node, pe, **kwargs)
        child.__class__ = _ColossalCollisions
        return child

    @property
    def dedup_key(self):
        return (self.mask, 0)


class TestEngineUnderCollisions:
    def test_verified_mode_stays_exact_under_total_collisions(self):
        """Force every same-mask signature to collide; verified A* must
        still reject the false duplicates and return the true optimum."""
        graph = paper_random_graph(PaperGraphSpec(num_nodes=8, ccr=1.0, seed=21))
        system = ProcessorSystem.fully_connected(3)
        truth = astar_schedule(graph, system)
        verified = astar_schedule(
            graph, system,
            pruning=PruningConfig(verify_signatures=True),
            state_cls=_ColossalCollisions,
        )
        assert verified.optimal
        assert verified.length == pytest.approx(truth.length)
        # The degenerate key makes the verified run explore at least as
        # much as the honest one (collisions admit, never prune).
        assert verified.stats.states_generated >= truth.stats.states_generated
        # The keys really collide below the root: without verification
        # the same run prunes states the honest search keeps.
        unverified = astar_schedule(graph, system, state_cls=_ColossalCollisions)
        assert unverified.stats.states_generated < truth.stats.states_generated
