"""Seed discipline: a seed fixes every request body and fingerprint."""

import json

import inputs

from repro.schedule.fingerprint import canonical_order, instance_fingerprint
from repro.service.portfolio import select_cost


def _fingerprint(req: inputs.Request) -> str:
    cost = select_cost(req.graph, req.system)
    return instance_fingerprint(req.graph, req.system, cost=cost,
                                order=canonical_order(req.graph))


def _encoded(req: inputs.Request) -> str:
    return json.dumps(req.body)


def _all(seed: int) -> list[inputs.Request]:
    return (inputs.warm_requests(seed) + inputs.cold_requests(seed)
            + inputs.fleet_pool(seed) + [inputs.fleet_fresh(seed, t, i)
                                         for t in range(2) for i in range(5)])


def test_same_seed_gives_identical_bodies_and_fingerprints():
    a, b = _all(7), _all(7)
    assert [_encoded(r) for r in a] == [_encoded(r) for r in b]
    assert [_fingerprint(r) for r in a] == [_fingerprint(r) for r in b]


def test_other_seed_gives_other_inputs():
    a, b = inputs.cold_requests(7), inputs.cold_requests(8)
    assert [_encoded(r) for r in a] != [_encoded(r) for r in b]


def test_default_and_reserved_seeds_differ():
    assert inputs.DEFAULT_SEED != inputs.RESERVED_SEED


def test_stream_shapes():
    cold = inputs.cold_requests(inputs.DEFAULT_SEED)
    assert len(cold) == 3 * 3 * inputs.COLD_PER_CELL
    assert {r.graph.num_nodes for r in cold} == set(inputs.COLD_SIZES)
    assert all(r.system.num_pes == 2 for r in cold)
    warm = inputs.warm_requests(inputs.DEFAULT_SEED)
    assert len({_fingerprint(r) for r in warm}) == len(warm)
    assert all(24 <= r.graph.num_nodes <= 64 for r in warm)


def test_relabelled_twin_shares_fingerprint_not_body():
    req = inputs.fleet_pool(3)[0]
    twin = inputs.fleet_relabelled(req, inputs.rng(3, "twin"))
    assert _encoded(twin) != _encoded(req)
    assert _fingerprint(twin) == _fingerprint(req)
