"""Delta-encoded states must be indistinguishable from the old tuples.

The search-state layer was rewritten from fully-materialized tuple
states to delta-encoded states with incremental Zobrist signatures (see
DESIGN.md).  The original implementation is kept as
:class:`repro.schedule.partial_reference.ReferencePartialSchedule`, and
every engine accepts a ``state_cls`` — so the strongest possible
regression test is to run the *same* engine over both representations
and demand byte-identical observable behaviour:

* the returned schedule's exact placements,
* ``states_expanded`` / ``states_generated``,
* every pruning counter (duplicate hits included — i.e. the Zobrist
  duplicate keys partition candidate states exactly like the exact
  tuple signatures on these instances).
"""

from hypothesis import given, settings

from repro.schedule.partial import PartialSchedule, placement_key
from repro.schedule.partial_reference import ReferencePartialSchedule
from repro.search.astar import astar_schedule
from repro.search.bnb import bnb_schedule
from repro.search.focal import focal_schedule
from repro.search.idastar import idastar_schedule
from repro.search.pruning import PruningConfig
from repro.search.weighted import weighted_astar_schedule
from tests.strategies import scheduling_instances

_SETTINGS = settings(max_examples=40, deadline=None)


def _placements(schedule):
    """Exact per-node (pe, start, finish) triples of a schedule."""
    return tuple(
        (t.node, t.pe, t.start, t.finish)
        for t in sorted(schedule.tasks, key=lambda t: t.node)
    )


def _observables(result):
    return (
        _placements(result.schedule),
        result.optimal,
        result.stats.states_expanded,
        result.stats.states_generated,
        result.stats.pruning.as_dict(),
    )


def _assert_equivalent(run):
    new = run(PartialSchedule)
    ref = run(ReferencePartialSchedule)
    assert _observables(new) == _observables(ref)


@_SETTINGS
@given(scheduling_instances())
def test_astar_equivalence(instance):
    graph, system = instance
    _assert_equivalent(
        lambda cls: astar_schedule(graph, system, state_cls=cls)
    )


@_SETTINGS
@given(scheduling_instances())
def test_astar_equivalence_no_pruning(instance):
    graph, system = instance
    _assert_equivalent(
        lambda cls: astar_schedule(
            graph, system, pruning=PruningConfig.none(), state_cls=cls
        )
    )


@_SETTINGS
@given(scheduling_instances())
def test_astar_equivalence_commutation(instance):
    graph, system = instance
    _assert_equivalent(
        lambda cls: astar_schedule(
            graph, system, pruning=PruningConfig.extended(), state_cls=cls
        )
    )


@_SETTINGS
@given(scheduling_instances())
def test_astar_equivalence_verified_signatures(instance):
    """The verified-on-collision path must not change behaviour either."""
    graph, system = instance
    _assert_equivalent(
        lambda cls: astar_schedule(
            graph,
            system,
            pruning=PruningConfig(verify_signatures=True),
            state_cls=cls,
        )
    )


@_SETTINGS
@given(scheduling_instances())
def test_astar_equivalence_combined_cost(instance):
    """The composite bound reads the delta-maintained load aggregates;
    both representations must drive it to identical searches."""
    graph, system = instance
    _assert_equivalent(
        lambda cls: astar_schedule(graph, system, cost="combined",
                                   state_cls=cls)
    )


@_SETTINGS
@given(scheduling_instances())
def test_astar_equivalence_fixed_task_order(instance):
    graph, system = instance
    _assert_equivalent(
        lambda cls: astar_schedule(
            graph, system, pruning=PruningConfig.with_fixed_order(),
            state_cls=cls,
        )
    )


@_SETTINGS
@given(scheduling_instances())
def test_astar_equivalence_root_symmetry(instance):
    graph, system = instance
    _assert_equivalent(
        lambda cls: astar_schedule(
            graph, system, pruning=PruningConfig(root_symmetry=True),
            state_cls=cls,
        )
    )


@_SETTINGS
@given(scheduling_instances())
def test_astar_equivalence_on_preprocessed_graph(instance):
    """The reduced graph the preprocessing pass hands the engines (plus
    its implied pruning overrides) must drive both representations to
    identical searches, exactly like any raw instance."""
    from repro.schedule.preprocess import preprocess_instance

    graph, system = instance
    pre = preprocess_instance(graph, system)
    _assert_equivalent(
        lambda cls: astar_schedule(
            pre.graph, system,
            pruning=PruningConfig(**pre.pruning_overrides()),
            state_cls=cls,
        )
    )


@_SETTINGS
@given(scheduling_instances())
def test_bnb_equivalence(instance):
    graph, system = instance
    _assert_equivalent(lambda cls: bnb_schedule(graph, system, state_cls=cls))


@_SETTINGS
@given(scheduling_instances(max_nodes=5))
def test_idastar_equivalence(instance):
    graph, system = instance
    _assert_equivalent(
        lambda cls: idastar_schedule(graph, system, state_cls=cls)
    )


@_SETTINGS
@given(scheduling_instances())
def test_weighted_equivalence(instance):
    graph, system = instance
    _assert_equivalent(
        lambda cls: weighted_astar_schedule(graph, system, 0.3, state_cls=cls)
    )


@_SETTINGS
@given(scheduling_instances())
def test_focal_equivalence(instance):
    graph, system = instance
    _assert_equivalent(
        lambda cls: focal_schedule(graph, system, 0.2, state_cls=cls)
    )


# -- state-level equivalence (no engine in the loop) -------------------------


@_SETTINGS
@given(scheduling_instances())
def test_state_fields_track_reference(instance):
    """Greedy topological walk: every queryable field must match."""
    graph, system = instance
    new = PartialSchedule.empty(graph, system)
    ref = ReferencePartialSchedule.empty(graph, system)
    p = system.num_pes
    for i, node in enumerate(graph.topological_order):
        pe = i % p
        new = new.extend(node, pe)
        ref = ref.extend(node, pe)
        assert new.makespan == ref.makespan
        assert new.num_scheduled == ref.num_scheduled
        assert new.mask == ref.mask
        assert new.ready_time == ref.ready_time
        assert new.ready_nodes() == ref.ready_nodes()
        assert new.used_pes_mask() == ref.used_pes_mask()
        assert sorted(new.max_finish_nodes) == sorted(ref.max_finish_nodes)
        # Lazy materialization must reproduce the eager tuples exactly.
        assert new.pes == ref.pes
        assert new.starts == ref.starts
        assert new.finishes == ref.finishes
        assert new.signature == ref.signature


@_SETTINGS
@given(scheduling_instances())
def test_wire_roundtrip(instance):
    """to_wire() -> from_wire() preserves identity, behaviour, and —
    unlike compact() — survives *further extension*: a snapshot root's
    placements() must still cover the pre-transfer placements (the HDA*
    workers complete schedules descended from transferred states)."""
    graph, system = instance
    state = PartialSchedule.empty(graph, system)
    p = system.num_pes
    order = list(graph.topological_order)
    cut = len(order) // 2
    for i, node in enumerate(order[:cut]):
        state = state.extend(node, (i + 1) % p)
    clone = PartialSchedule.from_wire(graph, system, state.to_wire())
    assert clone.dedup_key == state.dedup_key
    assert clone.signature == state.signature
    assert clone.ready_time == state.ready_time
    assert clone.makespan == state.makespan
    assert clone.ready_mask == state.ready_mask
    assert clone == state
    assert hash(clone) == hash(state)
    assert sorted(clone.placements()) == sorted(state.placements())
    # Extend both to completion identically: byte-identical schedules.
    for i, node in enumerate(order[cut:]):
        state = state.extend(node, i % p)
        clone = clone.extend(node, i % p)
    assert clone.signature == state.signature
    if order:
        assert clone.to_schedule().length == state.to_schedule().length


@_SETTINGS
@given(scheduling_instances())
def test_child_signature_matches_placement_key(instance):
    """child_signature's inlined hash must equal the placement_key module
    function — the two copies silently corrupt dedup if they diverge."""
    graph, system = instance
    state = PartialSchedule.empty(graph, system)
    p = system.num_pes
    for i, node in enumerate(graph.topological_order):
        for pe in range(p):
            (cmask, czkey), start = state.child_signature(node, pe)
            assert cmask == state.mask | (1 << node)
            assert czkey == state.zkey ^ placement_key(node, pe, start)
        state = state.extend(node, i % p)


@_SETTINGS
@given(scheduling_instances())
def test_zobrist_order_independence(instance):
    """Two interleavings of the same placements share one dedup key."""
    graph, system = instance
    order = graph.topological_order
    if len(order) < 2:
        return
    p = system.num_pes
    placements = [(node, i % p) for i, node in enumerate(order)]
    forward = PartialSchedule.empty(graph, system)
    for node, pe in placements:
        forward = forward.extend(node, pe)
    # Replay in the (start, node) order compact() certifies as valid.
    shuffled = PartialSchedule.empty(graph, system)
    for node, pe, _start in forward.compact():
        shuffled = shuffled.extend(node, pe)
    assert shuffled.dedup_key == forward.dedup_key
    assert shuffled.zkey == forward.zkey
