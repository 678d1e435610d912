"""Property-based invariants of the parallel machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.machine import MachineSpec
from repro.parallel.parallel_astar import parallel_astar_schedule
from repro.search.astar import astar_schedule
from tests.strategies import scheduling_instances


@settings(max_examples=15, deadline=None)
@given(
    scheduling_instances(max_nodes=5, max_pes=2),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from(["mesh", "ring", "clique"]),
)
def test_parallel_exactness_across_configs(instance, q, topology):
    """Any PPE count and topology proves the serial optimum."""
    graph, system = instance
    serial = astar_schedule(graph, system)
    par = parallel_astar_schedule(
        graph, system, MachineSpec(num_ppes=q, topology=topology)
    )
    assert par.result.optimal
    assert par.result.length == pytest.approx(serial.length)


@settings(max_examples=15, deadline=None)
@given(scheduling_instances(max_nodes=5, max_pes=2))
def test_simulation_accounting_invariants(instance):
    graph, system = instance
    par = parallel_astar_schedule(graph, system, MachineSpec(num_ppes=4))
    # Makespan covers at least the critical serial fraction of the work.
    assert par.makespan_units >= par.seed_expansions * par.spec.expansion_cost
    assert par.makespan_units >= max(par.per_ppe_expansions) * par.spec.expansion_cost
    # Message/phase counters are consistent.  A search the seed phase
    # decides (a goal, or a floor that meets the incumbent) runs no
    # local phase.
    assert par.phases >= 1 or sum(par.per_ppe_expansions) == 0
    assert par.comm_rounds <= par.phases
    assert par.comm_units <= par.makespan_units + 1e-9


@settings(max_examples=10, deadline=None)
@given(scheduling_instances(max_nodes=5, max_pes=2))
def test_deterministic_simulation(instance):
    graph, system = instance
    spec = MachineSpec(num_ppes=4)
    a = parallel_astar_schedule(graph, system, spec)
    b = parallel_astar_schedule(graph, system, spec)
    assert a.makespan_units == b.makespan_units
    assert a.per_ppe_expansions == b.per_ppe_expansions
    assert a.result.length == b.result.length
