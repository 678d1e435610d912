"""The service ladder's search configuration vs. the exhaustive oracle.

The portfolio ladder searches with ``PruningConfig(commutation=True,
root_symmetry=<eligible>)`` on the (optionally preprocessed) instance
its set-up returns, and drops commutation again for B&B.  Every
composition that set-up can produce must keep the exhaustively
enumerated optimum: commutation with symmetry normalization, with the
preprocessing reductions (transitive-edge removal, chain plans,
equivalence groups), on heterogeneous speeds and on distance-scaled
systems — through every engine the ladder reaches (A*, WA*, HDA*) and
through both public entry points.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.parallel.hda import hda_astar_schedule
from repro.schedule.validate import validate_schedule
from repro.search.astar import astar_schedule
from repro.search.bnb import bnb_schedule
from repro.search.pruning import PruningConfig
from repro.search.weighted import weighted_astar_schedule
from repro.service.portfolio import _set_up, portfolio_schedule, solve_auto
from repro.system.processors import ProcessorSystem
from tests.oracle import exhaustive_optimal
from tests.strategies import (
    equivalence_instances,
    paper_instances,
    processor_systems,
    task_graphs,
)

_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def ladder_instances(draw, max_nodes: int = 6, max_pes: int = 3):
    """Every system regime the ladder serves: four topologies,
    heterogeneous speeds, distance-scaled links; preprocessing on/off."""
    graph = draw(task_graphs(max_nodes=max_nodes))
    system = draw(processor_systems(max_pes=max_pes, allow_distance_scaled=True))
    return graph, system, draw(st.booleans())


def _ladder(graph, system, preprocess):
    """The ladder's own set-up: the searched instance and its config."""
    s = _set_up(graph, system, cost=None, preprocess=preprocess,
                tracer=None, probe_every=None)
    assert s.pruning.commutation
    return s


def _restored(s, result, graph):
    schedule = s.restore(result.schedule, result.stats)
    validate_schedule(schedule)
    assert schedule.graph == graph
    return schedule


@_SETTINGS
@given(ladder_instances())
def test_astar_with_the_ladder_config_matches_oracle(instance):
    graph, system, preprocess = instance
    reference = exhaustive_optimal(graph, system)
    s = _ladder(graph, system, preprocess)
    result = astar_schedule(s.graph, system, cost=s.cost, pruning=s.pruning)
    assert result.optimal
    assert _restored(s, result, graph).length == pytest.approx(reference)


@_SETTINGS
@given(ladder_instances(), st.sampled_from([0.0, 0.25, 1.0]))
def test_wastar_with_the_ladder_config_keeps_its_bound(instance, epsilon):
    """Proven-equal at ε = 0, within ``1 + ε`` otherwise."""
    graph, system, preprocess = instance
    reference = exhaustive_optimal(graph, system)
    s = _ladder(graph, system, preprocess)
    result = weighted_astar_schedule(
        s.graph, system, epsilon, cost=s.cost, pruning=s.pruning
    )
    length = _restored(s, result, graph).length
    if epsilon == 0.0:
        assert result.optimal
        assert length == pytest.approx(reference)
    else:
        assert reference - 1e-9 <= length <= (1 + epsilon) * reference + 1e-9


@settings(max_examples=12, deadline=None)
@given(ladder_instances())
def test_hda_with_the_ladder_config_matches_oracle(instance):
    """Two real workers; ``oversubscribe=1`` deals the frontier after
    the first expansions, so even these small instances reach them."""
    graph, system, preprocess = instance
    reference = exhaustive_optimal(graph, system)
    s = _ladder(graph, system, preprocess)
    result = hda_astar_schedule(
        s.graph, system, workers=2, cost=s.cost, pruning=s.pruning,
        oversubscribe=1,
    )
    assert result.optimal
    assert _restored(s, result, graph).length == pytest.approx(reference)


@_SETTINGS
@given(equivalence_instances(max_nodes=5, max_pes=3))
def test_equivalence_groups_with_the_ladder_config(instance):
    """Interchangeable clones (Definition 3) with commutation on, raw
    and preprocessed."""
    graph, system = instance
    reference = exhaustive_optimal(graph, system)
    for preprocess in (False, True):
        s = _ladder(graph, system, preprocess)
        result = astar_schedule(s.graph, system, cost=s.cost, pruning=s.pruning)
        assert _restored(s, result, graph).length == pytest.approx(reference)


@_SETTINGS
@given(paper_instances(max_nodes=7, max_pes=3))
def test_symmetry_and_commutation_on_paper_instances(instance):
    """The cold stream's shape: homogeneous cliques, where the set-up
    turns symmetry normalization on next to commutation."""
    graph, system = instance
    s = _ladder(graph, system, True)
    assert s.pruning.root_symmetry
    result = astar_schedule(s.graph, system, cost=s.cost, pruning=s.pruning)
    assert result.optimal
    assert _restored(s, result, graph).length == pytest.approx(
        exhaustive_optimal(graph, system)
    )


@settings(max_examples=30, deadline=None)
@given(ladder_instances(max_nodes=6, max_pes=2))
def test_entry_points_at_epsilon_zero_match_oracle(instance):
    """Both public entry points, with and without preprocessing."""
    graph, system, preprocess = instance
    reference = exhaustive_optimal(graph, system)
    port = portfolio_schedule(graph, system, epsilon=0.0, preprocess=preprocess)
    assert port.optimal
    assert port.length == pytest.approx(reference)
    validate_schedule(port.schedule)
    auto = solve_auto(graph, system, epsilon=0.0, preprocess=preprocess)
    assert auto.length == pytest.approx(reference)
    validate_schedule(auto.schedule)


@_SETTINGS
@given(ladder_instances(max_nodes=5))
def test_bnb_with_commutation_matches_oracle(instance):
    """The ladder keeps commutation off for B&B (its budget-stopped
    answers, not its proofs, suffer); the composition stays exact."""
    graph, system, _preprocess = instance
    result = bnb_schedule(graph, system, pruning=PruningConfig.extended())
    assert result.optimal
    assert result.length == pytest.approx(exhaustive_optimal(graph, system))


@pytest.mark.slow
def test_paper_style_sweep_v7():
    """A fixed-seed population of §4.1-style v4-7 instances on 2-3 PE
    cliques through A* with the ladder config and through the ladder
    itself: zero makespan mismatches against exhaustive enumeration."""
    rng = random.Random(20261018)
    mismatches = []
    for trial in range(120):
        graph = paper_random_graph(PaperGraphSpec(
            num_nodes=rng.randint(4, 7), ccr=rng.choice([0.1, 1.0, 10.0]),
            seed=rng.randrange(1 << 16),
        ))
        system = ProcessorSystem.fully_connected(rng.randint(2, 3))
        reference = exhaustive_optimal(graph, system)
        s = _ladder(graph, system, True)
        found = astar_schedule(s.graph, system, cost=s.cost, pruning=s.pruning)
        port = portfolio_schedule(graph, system, epsilon=0.0, preprocess=True)
        for label, length in (("astar", s.restore(found.schedule, found.stats).length),
                              ("portfolio", port.length)):
            if abs(length - reference) > 1e-9:
                mismatches.append((trial, label, length, reference))
    assert mismatches == []
