"""The answer checker accepts real answers and rejects tampered ones."""

import copy
import math

import pytest
from checker import Checker

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.search.astar import astar_schedule
from repro.system.processors import ProcessorSystem


@pytest.fixture(scope="module")
def answer():
    graph = paper_random_graph(PaperGraphSpec(num_nodes=10, ccr=1.0, seed=11))
    system = ProcessorSystem.fully_connected(2)
    res = astar_schedule(graph, system)
    result = {
        "fingerprint": "fp-10",
        "makespan": res.length,
        "certificate": "proven",
        "lower_bound": res.lower_bound,
        "assignment": [[t.node, t.pe, t.start] for t in res.schedule.tasks],
    }
    return graph, system, result


def _check(answer, result, pins=None):
    graph, system, _ = answer
    checker = Checker(pins=pins or {})
    ok = checker.check_result("t", graph, system, result)
    return ok, checker.failures


def test_real_answer_passes(answer):
    ok, failures = _check(answer, answer[2], pins={"fp-10": answer[2]["makespan"]})
    assert ok and not failures


def test_shifted_start_is_rejected(answer):
    graph = answer[0]
    result = copy.deepcopy(answer[2])
    # Move a task with a predecessor to time 0: it now starts before its
    # data can arrive.
    child = next(v for (_, v) in graph.edges)
    row = next(r for r in result["assignment"] if r[0] == child)
    row[2] = 0.0
    ok, failures = _check(answer, result)
    assert not ok and "infeasible" in failures[0]


def test_nan_makespan_is_rejected(answer):
    result = dict(answer[2], makespan=math.nan)
    ok, failures = _check(answer, result)
    assert not ok and "non-finite" in failures[0]


def test_proven_with_a_gap_is_rejected(answer):
    result = dict(answer[2], lower_bound=answer[2]["makespan"] - 5)
    ok, failures = _check(answer, result)
    assert not ok and "gap" in failures[0]


def test_lower_bound_above_makespan_is_rejected(answer):
    result = dict(answer[2], certificate="budget", lower_bound=answer[2]["makespan"] + 1)
    ok, failures = _check(answer, result)
    assert not ok and "above" in failures[0]


def test_proven_makespan_must_match_its_pin(answer):
    ok, failures = _check(answer, answer[2], pins={"fp-10": answer[2]["makespan"] - 1})
    assert not ok and "pinned" in failures[0]


def test_twins_must_agree():
    checker = Checker(pins={})
    assert checker.check_same("twin", "relabelled", 10.0, 10.0)
    assert not checker.check_same("twin", "relabelled", 10.0, 11.0)
    assert not checker.check_same("twin", "relabelled", math.nan, math.nan)
    assert checker.failed == 2
