"""``PartialSchedule.extend`` builds the child the constructor would.

``extend`` is the one place every engine builds a child, and it fills
the child's slots directly instead of calling ``__init__``.  These
properties pin that shortcut to the slow, obvious construction: on
random reachable states, the child ``extend(n, p)`` returns holds, slot
for slot, the value a child built through ``PartialSchedule.__init__``
holds when its aggregates are computed from scratch — the EST through
:meth:`PartialSchedule.est`, the execution time through
:meth:`ProcessorSystem.exec_time`, and the ready set by a full
readiness scan.  The ``_start``/``_sig`` fast path (values previewed by
``child_signature``) must build the same child, and both ``ScheduleError``
checks must still fire.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.schedule.partial import PartialSchedule, placement_key
from repro.system import topology as topo
from repro.system.processors import ProcessorSystem
from tests.strategies import processor_systems, task_graphs

_SETTINGS = settings(max_examples=60, deadline=None)


def _constructed_child(ps: PartialSchedule, node: int, pe: int) -> PartialSchedule:
    """The child of ``ps`` built through ``__init__``, aggregates recomputed."""
    graph, system = ps.graph, ps.system
    start = ps.est(node, pe)
    finish = start + system.exec_time(graph.weight(node), pe)
    mask = ps.mask | (1 << node)
    ready = 0
    for n in range(graph.num_nodes):
        if not (mask >> n) & 1 and all((mask >> p) & 1 for p in graph.preds(n)):
            ready |= 1 << n
    if finish > ps.makespan:
        makespan, mfn = finish, (node,)
    elif finish == ps.makespan:
        makespan, mfn = ps.makespan, ps.max_finish_nodes + (node,)
    else:
        makespan, mfn = ps.makespan, ps.max_finish_nodes
    rt = list(ps.ready_time)
    rt[pe] = finish
    return PartialSchedule(
        graph, system,
        mask=mask,
        ready_mask=ready,
        ready_time=tuple(rt),
        makespan=makespan,
        num_scheduled=ps.num_scheduled + 1,
        zkey=ps.zkey ^ placement_key(node, pe, start),
        used_pes=ps.used_pes | (1 << pe),
        remaining_weight=ps.remaining_weight - graph.weight(node),
        max_finish_nodes=mfn,
        parent=ps,
        last_node=node,
        last_pe=pe,
        last_start=start,
        last_finish=finish,
    )


def _slots(state: PartialSchedule) -> dict:
    """Every slot value, floats by ``repr`` so bit-level drift shows."""
    out = {}
    for name in PartialSchedule.__slots__:
        value = getattr(state, name)
        out[name] = repr(value) if isinstance(value, float) else value
    return out


def _assert_same_state(child: PartialSchedule, want: PartialSchedule) -> None:
    assert type(child) is PartialSchedule
    got, expected = _slots(child), _slots(want)
    # Shared references must be the very same objects.
    for name in ("graph", "system", "_parent"):
        assert got.pop(name) is expected.pop(name), name
    assert got == expected
    # The lazily materialized arrays agree too (they replay the chain).
    assert (child.pes, child.starts, child.finishes) == (
        want.pes, want.starts, want.finishes)


#: A chain of 4 PEs with hop-scaled messages: PEs 0 and 3 are three
#: hops apart, so ``child_signature`` must take the scaled EST.
_SCALED_CHAIN = ProcessorSystem(
    4, links=topo.chain_links(4), distance_scaled=True, name="chain-4-ds"
)


@st.composite
def _walks(draw, systems=processor_systems(max_pes=3, allow_distance_scaled=True)):
    """A random instance plus a random reachable state of it."""
    graph = draw(task_graphs(max_nodes=7))
    system = draw(systems)
    ps = PartialSchedule.empty(graph, system)
    depth = draw(st.integers(0, graph.num_nodes - 1))
    for _ in range(depth):
        ready = ps.ready_nodes()
        node = ready[draw(st.integers(0, len(ready) - 1))]
        ps = ps.extend(node, draw(st.integers(0, system.num_pes - 1)))
    return ps


@_SETTINGS
@given(_walks())
def test_extend_matches_the_constructor(ps):
    for node in ps.ready_nodes():
        for pe in range(ps.system.num_pes):
            _assert_same_state(ps.extend(node, pe), _constructed_child(ps, node, pe))


@_SETTINGS
@given(st.one_of(_walks(), _walks(st.just(_SCALED_CHAIN))))
def test_previewed_extend_matches_the_constructor(ps):
    for node in ps.ready_nodes():
        for pe in range(ps.system.num_pes):
            key, start = ps.child_signature(node, pe)
            assert repr(start) == repr(ps.est(node, pe))
            assert key == (ps.mask | (1 << node),
                           ps.zkey ^ placement_key(node, pe, start))
            child = ps.extend(node, pe, _start=start, _sig=key)
            _assert_same_state(child, _constructed_child(ps, node, pe))
            assert child.dedup_key == key


@_SETTINGS
@given(_walks())
def test_extend_rejects_unready_nodes_and_unknown_pes(ps):
    num_pes = ps.system.num_pes
    ready = ps.ready_nodes()
    for node in range(ps.graph.num_nodes):
        if node in ready:
            continue
        with pytest.raises(ScheduleError, match="not ready"):
            ps.extend(node, 0)
    for node in ready:
        for pe in (-1, num_pes):
            with pytest.raises(ScheduleError, match="unknown PE"):
                ps.extend(node, pe)
            with pytest.raises(ScheduleError, match="unknown PE"):
                ps.extend(node, pe, _start=0.0, _sig=(0, 0))
