"""SolveOptions: the one record of the service's solver options.

Defaults, legal ranges, request-body overrides, the ``cost="auto"``
resolution and the equality that decides who may ride an in-flight
solve all live on this record; these tests pin each of them.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.service import SolveOptions
from repro.service.portfolio import select_cost
from repro.system.processors import ProcessorSystem


def test_defaults():
    opts = SolveOptions()
    assert (opts.deadline, opts.epsilon, opts.cost, opts.max_expansions) == (
        None, 0.25, "auto", 200_000)
    assert (opts.mode, opts.solver_workers, opts.max_memory_mb) == (
        "portfolio", 1, None)
    assert opts.preprocess is False and opts.require_proven is False


@pytest.mark.parametrize("field, value, message", [
    ("mode", "nope", "unknown mode"),
    ("cost", "nope", "unknown cost"),
    ("deadline", 0, "deadline"),
    ("deadline", float("nan"), "deadline"),
    ("deadline", "5s", "deadline"),
    ("epsilon", -1.0, "epsilon"),
    ("epsilon", float("inf"), "epsilon"),
    ("max_expansions", 0, "max_expansions"),
    ("max_expansions", 1.5, "max_expansions"),
    ("max_expansions", True, "max_expansions"),
    ("solver_workers", 0, "solver_workers"),
    ("solver_workers", 17, "solver_workers"),
    ("max_memory_mb", -5.0, "max_memory_mb"),
    ("preprocess", "no", "preprocess must be a boolean"),
    ("require_proven", 1, "require_proven must be a boolean"),
])
def test_construction_validates(field, value, message):
    with pytest.raises(ValueError, match=message):
        SolveOptions(**{field: value})


def test_override_applies_non_null_fields_only():
    base = SolveOptions(epsilon=0.5, max_expansions=1_000)
    body = {"graph": {}, "pes": 2, "wait": False, "epsilon": None,
            "max_expansions": 20, "preprocess": True}
    got = base.override(body)
    assert got == dataclasses.replace(base, max_expansions=20, preprocess=True)
    assert got.epsilon == 0.5
    assert base.override({"graph": {}}) is base
    with pytest.raises(ValueError, match="epsilon"):
        base.override({"epsilon": -1})


def test_for_instance_resolves_auto_only():
    graph = paper_random_graph(PaperGraphSpec(num_nodes=8, ccr=1.0, seed=5))
    system = ProcessorSystem.fully_connected(2)
    resolved = SolveOptions().for_instance(graph, system)
    assert resolved.cost == select_cost(graph, system)
    explicit = SolveOptions(cost="paper")
    assert explicit.for_instance(graph, system) is explicit


def test_equality_leaves_out_require_proven_only():
    opts = SolveOptions(epsilon=0.1)
    proven = dataclasses.replace(opts, require_proven=True)
    assert opts == proven and hash(opts) == hash(proven)
    assert [f.name for f in dataclasses.fields(SolveOptions) if not f.compare] == [
        "require_proven"]


def test_frozen_and_picklable():
    opts = SolveOptions(deadline=2.0, cost="paper", preprocess=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.epsilon = 0.0  # type: ignore[misc]
    copy = pickle.loads(pickle.dumps(opts))
    assert copy == opts and copy.preprocess is True
