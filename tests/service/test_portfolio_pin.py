"""The portfolio ladder's trace pin: spans, events and timelines replay.

Each case runs :func:`~repro.service.portfolio.portfolio_schedule` and
:func:`~repro.service.portfolio.solve_auto` with preprocessing on, a
convergence probe and a buffering :class:`~repro.obs.trace.Tracer`,
and compares what the tracer recorded against
``portfolio_pin.json``:

* every record's kind and name, in order;
* nesting, as the index of the enclosing span (ids are process-bound);
* span and event attrs;
* the ``search.timeline`` samples, without their wall-clock field.

The cases are the golden search table's nine ``portfolio`` instances
(v 12–16, 2 PEs, 2500 expansions) plus two v=16 instances whose
improver runs with ε = 0, so the ladder's improver-proves-optimal exit
is pinned as well as its exact exits.  Seed 7's improver proved its
answer until the ladder turned the commutation reduction on; then it
stopped on its budget (A* there needed 2,789 expansions instead of
340) and the B&B exact stage proved the answer.  Since the best-first
loop stops once its floor meets ``U``, both improvers prove their
answer on the floor exit within two expansions and skip the exact
stage.

Every case's ``search.timeline`` samples were re-recorded when the
probe began reporting the incumbent a stage holds before it generates
a schedule: each such sample's incumbent went from ``null`` to that
schedule's length, nothing else.

The improver's ``portfolio.stage.result`` event may carry ``optimal``
and ``interrupted``, as the exact stages' events do; those two attrs
are not part of the pin for that one event.

Every case was re-recorded when the ladder turned the commutation
reduction on for its best-first stages: the expansions, the stage
answers and the timelines changed; every proven answer kept its
makespan.

Four cases were re-recorded when the ladder and its engines began
deciding the certificate by one rule (a floor that meets the length
proves it) and the best-first loop began stopping on that floor: the
v12/CCR 0.1 and v12/CCR 1 exact stages end on ``astar(floor)`` two and
three expansions earlier, and both ε = 0 improvers end on
``wastar(eps=0.0,floor)`` after two expansions (seed 7 no longer runs
its B&B exact stage); the four ``solve_auto`` runs end on the same
exits.  Every makespan and certificate stayed the same.

Record missing cases (existing ones are kept; delete a case's line to
re-record it, only on purpose)::

    PYTHONPATH=src python -m tests.service.test_portfolio_pin
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.obs.trace import Tracer
from repro.service.portfolio import portfolio_schedule, solve_auto
from repro.system.processors import ProcessorSystem

PIN = pathlib.Path(__file__).with_name("portfolio_pin.json")

#: Probe interval: a handful of samples per stage on these sizes.
PROBE_EVERY = 64

#: Attrs the improver's result event may add over the recording.
_IMPROVER_EXTRA = ("optimal", "interrupted")


def _cases() -> list[dict]:
    cases = [
        {"v": v, "ccr": ccr, "pes": 2, "seed": 2000 + 10 * v + i,
         "epsilon": 0.25, "max_expansions": 2500}
        for i, (v, ccr) in enumerate(
            itertools.product((12, 14, 16), (0.1, 1.0, 10.0)))
    ]
    cases.append({"v": 16, "ccr": 0.1, "pes": 2, "seed": 7,
                  "epsilon": 0.0, "max_expansions": 8000})
    cases.append({"v": 16, "ccr": 0.1, "pes": 2, "seed": 9,
                  "epsilon": 0.0, "max_expansions": 8000})
    return cases


def _case_id(case: dict) -> str:
    return (f"v{case['v']}-ccr{case['ccr']:g}-p{case['pes']}-s{case['seed']}"
            f"-eps{case['epsilon']:g}")


def _shape(records: list[dict]) -> list[list]:
    """Records without ids or clocks: parent links become span indexes."""
    index: dict[str, int] = {}
    out = []
    for rec in records:
        attrs = dict(rec.get("attrs") or {})
        if rec["name"] == "search.timeline":
            attrs["samples"] = [
                {k: v for k, v in s.items() if k != "wall_time"}
                for s in attrs["samples"]
            ]
        if rec["kind"] == "span_start":
            index[rec["id"]] = len(index)
        where = index[rec["id"]] if rec["kind"] == "span_end" \
            else index.get(rec.get("parent"))
        out.append([rec["kind"], rec["name"], where, attrs])
    return out


def _run(case: dict) -> dict:
    graph = paper_random_graph(
        PaperGraphSpec(num_nodes=case["v"], ccr=case["ccr"], seed=case["seed"]))
    system = ProcessorSystem.fully_connected(case["pes"])
    out = {}
    for label, solve in (("portfolio", portfolio_schedule), ("auto", solve_auto)):
        tracer = Tracer()
        solve(graph, system, epsilon=case["epsilon"],
              max_expansions=case["max_expansions"], preprocess=True,
              probe_every=PROBE_EVERY, tracer=tracer)
        out[label] = _shape(tracer.drain())
    return out


def _loosen(shaped: list[list]) -> list[list]:
    """Drop the attrs the improver's result event may add."""
    for _, name, _, attrs in shaped:
        if name == "portfolio.stage.result" and attrs.get("stage") == "improve":
            for key in _IMPROVER_EXTRA:
                attrs.pop(key, None)
    return shaped


@functools.cache
def _pinned() -> dict:
    return json.loads(PIN.read_text(encoding="utf-8"))


CASES = _cases()


def test_pin_shape():
    pinned = _pinned()
    assert sorted(pinned) == sorted(_case_id(c) for c in CASES)
    names = {rec[1] for case in pinned.values() for rec in case["portfolio"]}
    # The cases reach every stage the ladder runs without workers.
    assert {"portfolio.list", "portfolio.contract", "portfolio.improve",
            "portfolio.exact", "search.timeline"} <= names
    improver_proofs = [
        rec for case in pinned.values() for rec in case["portfolio"]
        if rec[1] == "search.timeline" and rec[3]["label"] == "improve"
    ]
    assert improver_proofs


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_ladder_trace_replays(case):
    want = _pinned()[_case_id(case)]
    got = _run(case)
    assert _loosen(got["portfolio"]) == _loosen(want["portfolio"])
    assert got["auto"] == want["auto"]


if __name__ == "__main__":
    known = _pinned() if PIN.exists() else {}
    lines = []
    for c in CASES:
        cid = _case_id(c)
        lines.append(f"{json.dumps(cid)}: {json.dumps(known.get(cid) or _run(c))}")
    PIN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(CASES) - len(known)} new cases; {PIN} holds {len(CASES)}")
