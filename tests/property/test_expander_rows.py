"""``StateExpander.children`` walks ``candidate_rows``: the same search.

The node/PE filters (equivalence, priority, fixed task order,
isomorphism/symmetry, commutation) live in one method,
:meth:`StateExpander.candidate_rows`, and :meth:`StateExpander.children`
walks its rows.  The kernel and IDA* search through ``children``, so it
must yield exactly what the loop that applied the filters inline
yielded: the same children, in the same order, with the same
``PruningStats``.  ``_inline_children`` below is that loop, frozen, and
is the reference.

``candidate_pes`` and ``candidate_nodes`` read the state's bitmasks
(``used_pes``, ``ready_mask``); the per-PE scan and the set-based class
filter they replaced are frozen here too (``_frozen_candidate_pes``,
``_frozen_candidate_nodes``), so ``_inline_children`` does not lean on
the live filters and a mask bug shows against either reference.

``candidate_rows`` answers from a per-search table keyed by the state's
bitmasks, and a hit adds the skip counts its miss added;
``_frozen_rows`` is the rows list worked out from scratch on every call,
the reference for the table.
"""

import itertools
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule.partial import PartialSchedule
from repro.schedule.partial_reference import ReferencePartialSchedule
from repro.schedule.preprocess import node_equivalence_classes
from repro.search.dedup import SignatureSet
from repro.search import expansion
from repro.search.expansion import StateExpander
from repro.search.pruning import PruningConfig
from repro.system.isomorphism import isomorphism_classes
from repro.system.processors import ProcessorSystem
from tests.strategies import processor_systems, task_graphs

#: Every pruning switch the expander reads (the bound and the CLOSED
#: set act outside it; ``seen`` covers the latter).
_SWITCHES = ("processor_isomorphism", "node_equivalence", "priority_ordering",
             "commutation", "fixed_task_order", "root_symmetry")

_SWITCH_SETS = st.fixed_dictionaries({k: st.booleans() for k in _SWITCHES}).filter(
    # The two partial-order reductions refuse to combine.
    lambda s: not (s["commutation"] and s["fixed_task_order"]))

#: Every combination of the switches, the same filter applied.
_ALL_SWITCH_SETS = [
    s for s in (dict(zip(_SWITCHES, bits))
                for bits in itertools.product((False, True), repeat=len(_SWITCHES)))
    if not (s["commutation"] and s["fixed_task_order"])
]


def _frozen_candidate_pes(expander, ps):
    """``candidate_pes`` as a scan of every PE's ready time, as it stood
    before it read the ``used_pes`` mask."""
    num_pes = expander.system.num_pes
    if expander._sym_applicable:
        ready_time = ps.ready_time
        pes = [pe for pe in range(num_pes) if ready_time[pe] > 0.0]
        empties = num_pes - len(pes)
        if empties:
            pes.append(min(
                pe for pe in range(num_pes) if ready_time[pe] == 0.0
            ))
            expander.stats.symmetry_skips += empties - 1
        pes.sort()
        return pes
    if not expander.config.processor_isomorphism:
        return list(range(num_pes))
    ready_time = ps.ready_time
    pes = []
    for members in isomorphism_classes(expander.system):
        rep_taken = False
        for pe in members:
            if ready_time[pe] > 0.0:
                pes.append(pe)  # busy PEs are always distinct
            elif not rep_taken:
                pes.append(pe)  # first empty member represents the class
                rep_taken = True
            else:
                expander.stats.isomorphism_skips += 1
    pes.sort()
    return pes


def _frozen_candidate_nodes(expander, ps):
    """``candidate_nodes`` with the class filter over a set of class
    ids, as it stood before it read the ``ready_mask``."""
    ready = ps.ready_nodes()
    if expander.config.node_equivalence and len(ready) > 1:
        equiv_id = {}
        for cid, members in enumerate(node_equivalence_classes(expander.graph)):
            for n in members:
                equiv_id[n] = cid
        seen_classes = set()
        filtered = []
        for n in ready:  # ascending id: keeps lowest member per class
            cid = equiv_id[n]
            if cid in seen_classes:
                expander.stats.equivalence_skips += 1
                continue
            seen_classes.add(cid)
            filtered.append(n)
        ready = filtered
    if expander.config.priority_ordering and len(ready) > 1:
        rank = expander._prio_rank
        ready.sort(key=lambda n: rank[n])
    return ready


def _inline_children(expander, ps, seen=None):
    """The children loop with the filters inline, as it stood before
    ``candidate_rows`` existed."""
    pes = _frozen_candidate_pes(expander, ps)
    nodes = _frozen_candidate_nodes(expander, ps)
    if expander._fto_applicable and len(nodes) > 1:
        head = expander.fixed_order_head(nodes)
        if head is not None:
            expander.stats.fixed_order_skips += (len(nodes) - 1) * len(pes)
            nodes = [head]
    commut = expander.config.commutation and ps.last_node >= 0
    skip_other_pes = False
    if commut:
        last_node = ps.last_node
        last_pe = ps.last_pe
        last_rank = expander._prio_rank[last_node]
        rank = expander._prio_rank
        pred_masks = expander._pred_masks
    verify = seen is not None and seen.verify
    stats = expander.stats
    check_add = seen.check_add if seen is not None else None
    for node in nodes:
        if commut:
            skip_other_pes = (
                rank[node] < last_rank
                and not (pred_masks[node] >> last_node) & 1
            )
        for pe in pes:
            if skip_other_pes and pe != last_pe:
                stats.commutation_skips += 1
                continue
            if check_add is None:
                yield ps.extend(node, pe)
                continue
            key, start = ps.child_signature(node, pe)
            if verify:
                child = ps.extend(node, pe, _start=start, _sig=key)
                if check_add(key, lambda c=child: c.signature):
                    stats.duplicate_hits += 1
                    continue
                yield child
                continue
            if check_add(key):
                stats.duplicate_hits += 1
                continue
            yield ps.extend(node, pe, _start=start, _sig=key)


def _walk(graph, system, rng, steps, state_cls=PartialSchedule):
    """States along random walks (plus the empty state)."""
    out = []
    while len(out) < steps:
        ps = state_cls.empty(graph, system)
        out.append(ps)
        while not ps.is_complete() and len(out) < steps:
            ps = ps.extend(rng.choice(ps.ready_nodes()), rng.randrange(system.num_pes))
            out.append(ps)
    return out


def _ident(child):
    return (child.signature, child.last_node, child.last_pe, child.makespan,
            child.ready_time, child.remaining_weight, child.max_finish_nodes)


@settings(max_examples=60, deadline=None)
@given(task_graphs(max_nodes=7, max_weight=4, max_comm=4),
       processor_systems(max_pes=4, allow_distance_scaled=True),
       _SWITCH_SETS,
       st.sampled_from(["none", "seen", "verify"]),
       st.integers(0, 2**16))
def test_children_match_the_inline_filters(graph, system, switches, closed, seed):
    config = PruningConfig(**switches, verify_signatures=closed == "verify")
    rows_side = StateExpander(graph, system, config)
    inline_side = StateExpander(graph, system, config)
    seen_rows = SignatureSet(verify=config.verify_signatures) if closed != "none" else None
    seen_inline = SignatureSet(verify=config.verify_signatures) if closed != "none" else None
    for ps in _walk(graph, system, random.Random(seed), 30):
        got = [_ident(c) for c in rows_side.children(ps, seen_rows)]
        want = [_ident(c) for c in _inline_children(inline_side, ps, seen_inline)]
        assert got == want
        assert rows_side.stats == inline_side.stats
    if seen_rows is not None:
        assert len(seen_rows) == len(seen_inline)


def test_children_build_the_rows_in_row_order():
    """Every placement ``children`` builds is a row entry, in row
    order, and the rows are counted as skipped once per call."""
    from repro.graph.examples import paper_example_dag
    from repro.system.processors import ProcessorSystem

    graph = paper_example_dag()
    system = ProcessorSystem.fully_connected(3)
    expander = StateExpander(graph, system, PruningConfig.extended())
    ps = PartialSchedule.empty(graph, system).extend(0, 0).extend(2, 1)
    rows = expander.candidate_rows(ps)
    skips = expander.stats.total
    assert expander.stats.commutation_skips == 2
    built = [(c.last_node, c.last_pe) for c in expander.children(ps)]
    assert built == [(n, pe) for n, pes in rows for pe in pes]
    assert expander.stats.total == 2 * skips


@st.composite
def _any_topology(draw):
    """Every shipped topology, with heterogeneous speeds (repeated, so
    isomorphism classes still form) and the distance-scaled model."""
    kind = draw(st.sampled_from(["clique", "ring", "chain", "star", "mesh", "hypercube"]))
    if kind == "mesh":
        system = ProcessorSystem.mesh(draw(st.integers(1, 2)), draw(st.integers(2, 3)))
    elif kind == "hypercube":
        system = ProcessorSystem.hypercube(draw(st.integers(1, 3)))
    else:
        factory = {"clique": ProcessorSystem.fully_connected, "ring": ProcessorSystem.ring,
                   "chain": ProcessorSystem.chain, "star": ProcessorSystem.star}[kind]
        system = factory(draw(st.integers(1, 6)))
    p = system.num_pes
    speeds = None
    if draw(st.booleans()):
        speeds = [draw(st.sampled_from([1.0, 2.0])) for _ in range(p)]
    return ProcessorSystem(p, system.links, speeds,
                           distance_scaled=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(task_graphs(max_nodes=8, max_weight=3, max_comm=3),
       _any_topology(),
       _SWITCH_SETS,
       st.sampled_from([PartialSchedule, ReferencePartialSchedule]),
       st.integers(0, 2**16))
def test_mask_filters_match_the_frozen_scans(graph, system, switches, state_cls, seed):
    """The mask-based node and PE filters return the lists the frozen
    scans return, and count every skip the same."""
    config = PruningConfig(**switches)
    live = StateExpander(graph, system, config)
    frozen = StateExpander(graph, system, config)
    for ps in _walk(graph, system, random.Random(seed), 40, state_cls):
        assert live.candidate_pes(ps) == _frozen_candidate_pes(frozen, ps)
        assert live.candidate_nodes(ps) == _frozen_candidate_nodes(frozen, ps)
        assert live.stats == frozen.stats


def _frozen_rows(expander, ps):
    """``candidate_rows`` worked out from scratch, as it stood before the
    rows table: the frozen filters, fixed task order, commutation."""
    pes = _frozen_candidate_pes(expander, ps)
    nodes = _frozen_candidate_nodes(expander, ps)
    if expander._fto_applicable and len(nodes) > 1:
        head = expander.fixed_order_head(nodes)
        if head is not None:
            expander.stats.fixed_order_skips += (len(nodes) - 1) * len(pes)
            nodes = [head]
    last = ps.last_node
    if not expander.config.commutation or last < 0:
        return [(node, pes) for node in nodes]
    rank = expander._prio_rank
    rows = []
    for node in nodes:
        if rank[node] < rank[last] and last not in expander.graph.preds(node):
            kept = [pe for pe in pes if pe == ps.last_pe]
            expander.stats.commutation_skips += len(pes) - len(kept)
            rows.append((node, kept))
        else:
            rows.append((node, pes))
    return rows


def _near_root(graph, system, state_cls, rng, depth=3, width=25):
    """States within ``depth`` placements of the root, no pruning: each
    level extends a sample of ``width`` states of the one before, so
    different placement orders and PE choices meet on one key."""
    level = [state_cls.empty(graph, system)]
    out = list(level)
    for _ in range(depth):
        level = [ps.extend(node, pe) for ps in level for node in ps.ready_nodes()
                 for pe in range(system.num_pes)]
        level = rng.sample(level, min(width, len(level)))
        out.extend(level)
    return out


@pytest.mark.parametrize("switches", _ALL_SWITCH_SETS,
                         ids=lambda s: "".join("1" if s[k] else "0" for k in _SWITCHES))
@settings(max_examples=10, deadline=None)
@given(task_graphs(max_nodes=6, max_weight=3, max_comm=3),
       processor_systems(max_pes=3, allow_distance_scaled=True),
       st.sampled_from([PartialSchedule, ReferencePartialSchedule]),
       st.integers(0, 2**16))
def test_rows_table_hits_repeat_the_miss(switches, graph, system, state_cls, seed):
    """Each state asked twice (a miss or a hit, then a hit), and states
    that share a key: the rows and every skip counter advance as the
    from-scratch filters do on every call."""
    config = PruningConfig(**switches)
    live = StateExpander(graph, system, config)
    frozen = StateExpander(graph, system, config)
    for ps in _near_root(graph, system, state_cls, random.Random(seed)):
        for _ in range(2):
            assert live.candidate_rows(ps) == _frozen_rows(frozen, ps)
            assert live.stats == frozen.stats


def _table_key(config, ps):
    if config.commutation:
        return (ps.ready_mask, ps.used_pes, ps.last_node, ps.last_pe)
    return (ps.ready_mask, ps.used_pes)


@pytest.mark.parametrize("state_cls", [PartialSchedule, ReferencePartialSchedule])
@pytest.mark.parametrize("commutation", [False, True])
def test_a_hit_from_another_state_repeats_its_miss(state_cls, commutation):
    """Two different states on one key: the second is answered from the
    first's entry, with the first's skip counts."""
    from repro.graph.examples import paper_example_dag

    graph = paper_example_dag()
    system = ProcessorSystem.fully_connected(3)
    config = PruningConfig(commutation=commutation)
    states = _near_root(graph, system, state_cls, random.Random(1), width=200)
    by_key = {}
    for ps in states:
        by_key.setdefault(_table_key(config, ps), {})[ps.signature] = ps
    pairs = [list(group.values())[:2] for group in by_key.values() if len(group) > 1]
    assert pairs
    for first, second in pairs:
        live = StateExpander(graph, system, config)
        frozen = StateExpander(graph, system, config)
        for ps in (first, second):
            assert live.candidate_rows(ps) == _frozen_rows(frozen, ps)
            assert live.stats == frozen.stats
        assert len(live._rows) == 1


def test_rows_table_never_exceeds_its_cap(monkeypatch):
    """With a cap of 4 the table starts over as it fills, and every row
    list and counter still matches the from-scratch filters."""
    from repro.graph.examples import paper_example_dag

    monkeypatch.setattr(expansion, "ROWS_CAP", 4)
    graph = paper_example_dag()
    system = ProcessorSystem.ring(4)
    config = PruningConfig.extended()
    live = StateExpander(graph, system, config)
    frozen = StateExpander(graph, system, config)
    keys = set()
    for ps in _near_root(graph, system, PartialSchedule, random.Random(2), depth=4, width=40):
        keys.add(_table_key(config, ps))
        assert live.candidate_rows(ps) == _frozen_rows(frozen, ps)
        assert live.stats == frozen.stats
        assert len(live._rows) <= 4
    assert len(keys) > 4 * 3
