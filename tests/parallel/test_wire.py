"""The packed HDA* wire form: exact round trips and exact child patches.

``PartialSchedule.to_wire`` → ``from_wire`` must reproduce every field
the search reads bit for bit (so ``h`` on the rebuild equals ``h`` on
the original), on heterogeneous speeds, distance-scaled topologies and
PE counts past any 8-bit typecode; ``child_wire`` — the sender's patch
of its parent's blob — must equal ``to_wire()`` byte for byte; and the
worker's per-record size bound must cover every real record.
"""

import pickle
import random

import pytest
from hypothesis import given, settings

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.parallel.hda import _record_bytes
from repro.schedule.partial import PartialSchedule, child_wire
from repro.search.costs import COST_FUNCTIONS
from repro.search.expansion import StateExpander
from repro.search.pruning import PruningConfig
from repro.search.result import SearchStats
from repro.system import topology as topo
from repro.system.processors import ProcessorSystem
from tests.strategies import scheduling_instances

_SETTINGS = settings(max_examples=60, deadline=None)


def _walks(graph, system, walks, seed=0):
    """Yield ``(parent, children)`` along random root-to-leaf walks."""
    expander = StateExpander(
        graph, system, PruningConfig.none(), SearchStats().pruning
    )
    r = random.Random(seed)
    for _ in range(walks):
        state = PartialSchedule.empty(graph, system)
        while not state.is_complete():
            kids = list(expander.children(state))
            yield state, kids
            state = r.choice(kids)


def _assert_exact_rebuild(state):
    graph, system = state.graph, state.system
    wire = state.to_wire()
    clone = PartialSchedule.from_wire(graph, system, wire)
    assert (wire[0], wire[1]) == state.dedup_key
    for slot in ("mask", "zkey", "ready_mask", "makespan", "num_scheduled",
                 "used_pes", "remaining_weight", "ready_time",
                 "pes", "starts", "finishes", "max_finish_nodes",
                 "last_node", "last_pe", "last_start", "last_finish"):
        assert getattr(clone, slot) == getattr(state, slot), slot
    assert clone.signature == state.signature
    assert clone.to_wire() == wire
    for name, cls in COST_FUNCTIONS.items():
        cost = cls(graph, system)
        assert cost.h(clone) == cost.h(state), name


_SYSTEMS = {
    "heterogeneous-speeds": ProcessorSystem(3, speeds=[1.0, 2.5, 0.75]),
    "distance-scaled-chain": ProcessorSystem(
        4, links=topo.chain_links(4), distance_scaled=True
    ),
    "200-pe-clique": ProcessorSystem.fully_connected(200),
}


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_round_trip_and_child_patch_are_exact(name):
    system = _SYSTEMS[name]
    graph = paper_random_graph(PaperGraphSpec(num_nodes=9, ccr=1.0, seed=4))
    walks = 2 if system.num_pes > 50 else 6
    checked = 0
    for parent, kids in _walks(graph, system, walks):
        _assert_exact_rebuild(parent)
        blob = parent.to_wire()[-1]
        for kid in kids:
            assert child_wire(kid, blob) == kid.to_wire()
            checked += 1
    if system.num_pes > 127:
        # PE ids past 127 survive the blob's integer typecode.
        assert any(kid.last_pe > 127 for _p, kids in _walks(graph, system, 1)
                   for kid in kids)
    assert checked > 0


@_SETTINGS
@given(scheduling_instances())
def test_child_patch_matches_to_wire_on_random_walks(instance):
    graph, system = instance
    for parent, kids in _walks(graph, system, 2):
        blob = parent.to_wire()[-1]
        for kid in kids:
            wire = child_wire(kid, blob)
            assert wire == kid.to_wire()
            # The patch of a rebuilt parent is the same patch.
            rebuilt = PartialSchedule.from_wire(graph, system, parent.to_wire())
            twin = rebuilt.extend(kid.last_node, kid.last_pe)
            assert child_wire(twin, blob) == wire


@_SETTINGS
@given(scheduling_instances())
def test_round_trip_keeps_the_last_placement(instance):
    """The commutation rule reads ``last_node``/``last_pe``: a state
    rebuilt from its wire (or from a child patch) keeps all four last-
    placement fields, and the empty state keeps its -1 sentinels."""
    graph, system = instance
    root = PartialSchedule.empty(graph, system)
    clone = PartialSchedule.from_wire(graph, system, root.to_wire())
    assert (clone.last_node, clone.last_pe) == (-1, -1)
    for parent, kids in _walks(graph, system, 2):
        blob = parent.to_wire()[-1]
        for kid in kids:
            for wire in (kid.to_wire(), child_wire(kid, blob)):
                clone = PartialSchedule.from_wire(graph, system, wire)
                assert (clone.last_node, clone.last_pe, clone.last_start,
                        clone.last_finish) == (kid.last_node, kid.last_pe,
                                               kid.last_start, kid.last_finish)
                assert sorted(clone.placements()) == sorted(kid.placements())


def test_rebuilt_state_prunes_like_the_original():
    """A received state expands to exactly the sender's children under
    commutation — before the wire carried ``last_node`` it pruned
    nothing."""
    graph = paper_random_graph(PaperGraphSpec(num_nodes=9, ccr=1.0, seed=4))
    system = ProcessorSystem.fully_connected(3)
    config = PruningConfig.extended()
    skipped = 0
    for parent, _kids in _walks(graph, system, 4):
        stats = SearchStats()
        expander = StateExpander(graph, system, config, stats.pruning)
        sent = [k.dedup_key for k in expander.children(parent)]
        clone = PartialSchedule.from_wire(graph, system, parent.to_wire())
        assert [k.dedup_key for k in expander.children(clone)] == sent
        skipped += stats.pruning.commutation_skips
    assert skipped > 0


@_SETTINGS
@given(scheduling_instances())
def test_record_size_bound_covers_real_records(instance):
    graph, system = instance
    bound = _record_bytes(graph.num_nodes, system.num_pes)
    for parent, kids in _walks(graph, system, 1):
        for kid in kids:
            rec = (kid.makespan + 1.5, 1.5, kid.to_wire())
            assert len(pickle.dumps(rec, pickle.HIGHEST_PROTOCOL)) <= bound
