"""The one proof rule against the exhaustive oracle.

Every engine and the service ladder decide their certificate by one
rule (:func:`repro.search.result.certify`): a result is ``proven``
exactly when its proven floor meets its length.  On small hypothesis
instances, under expansion budgets from one expansion to none, every
exit must keep that equivalence, its floor must be a real floor on the
enumerated optimum, and every proven length must be the optimum.
"""

import math

import pytest
from hypothesis import given, settings

from repro.parallel.machine import MachineSpec
from repro.parallel.parallel_astar import parallel_astar_schedule
from repro.search.astar import astar_schedule
from repro.search.bnb import bnb_schedule
from repro.search.focal import focal_schedule
from repro.search.idastar import idastar_schedule
from repro.search.weighted import weighted_astar_schedule
from repro.service.portfolio import portfolio_schedule
from repro.util.timing import Budget
from tests.oracle import exhaustive_optimal
from tests.strategies import processor_systems, task_graphs

#: Expansion budgets: the first few stop most runs mid-search.
BUDGETS = (1, 2, 3, 5, 8, None)


def _solvers(graph, system, cap):
    """Every engine and the ladder, each run under expansion cap ``cap``."""

    def budget():
        return None if cap is None else Budget(max_expanded=cap)

    yield "astar", lambda: astar_schedule(graph, system, budget=budget())
    for eps in (0.1, 0.5):
        yield f"wastar-{eps}", lambda eps=eps: weighted_astar_schedule(
            graph, system, eps, budget=budget())
        yield f"focal-{eps}", lambda eps=eps: focal_schedule(
            graph, system, eps, budget=budget())
    yield "bnb", lambda: bnb_schedule(graph, system, budget=budget())
    yield "idastar", lambda: idastar_schedule(graph, system, budget=budget())
    yield "parallel_astar", lambda: parallel_astar_schedule(
        graph, system, MachineSpec(num_ppes=2), budget=budget()).result
    for pre in (False, True):
        yield f"portfolio-pre{pre}", lambda pre=pre: portfolio_schedule(
            graph, system, max_expansions=cap, preprocess=pre)


@pytest.mark.timeout(600)
@settings(max_examples=30, deadline=None)
@given(
    graph=task_graphs(max_nodes=7),
    system=processor_systems(min_pes=2, max_pes=3),
)
def test_proven_iff_floor_meets_length(graph, system):
    optimum = exhaustive_optimal(graph, system)
    for cap in BUDGETS:
        for name, solve in _solvers(graph, system, cap):
            res = solve()
            where = f"{name} cap={cap}: {res.algorithm}"
            assert (res.certificate == "proven") == (
                res.lower_bound == res.length), where
            assert res.optimal == (res.certificate == "proven"), where
            assert res.lower_bound <= optimum * (1 + 1e-9), where
            assert res.length >= optimum * (1 - 1e-9), where
            if res.optimal:
                assert math.isclose(res.length, optimum, rel_tol=1e-9), where
                assert res.bound == 1.0 and res.interrupted is None, where
