"""Golden search table: the best-first engines replay recorded runs.

Each row runs ``astar``, ``wastar`` or ``focal`` on one §4.1 paper
graph (v 8–12, CCR 0.1/1/10, 2 or 3 PEs, ε 0.1/0.5, ``paper`` or
``combined`` cost, with and without an expansion budget) and compares
the result against ``golden_search.json``.  The table was recorded
before A*, WA* and Aε* shared one best-first loop, so it pins that the
loop reproduces the three engines it replaced:

* A* rows are identical in every ``SearchStats`` counter, the
  placements, ``lower_bound``, ``algorithm`` and the probe timeline
  (wall-clock fields excluded).
* WA*/Aε* rows are identical in the placements, ``lower_bound``,
  ``algorithm``, ``optimal``, every counter but the three below, and
  the timeline's expansions, incumbents and floors.  Both now tighten
  ``U`` when they generate a complete child, as A* always did, so a
  state that used to be generated can now be cut instead:
  ``states_generated + upper_bound_cuts`` is conserved and
  ``states_generated`` and ``max_open_size`` may only shrink.

Re-record (only on purpose, for a deliberate behaviour change)::

    PYTHONPATH=src python -m tests.search.test_golden_search
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib

import pytest

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.obs.probe import SearchProbe
from repro.search.astar import astar_schedule
from repro.search.focal import focal_schedule
from repro.search.weighted import weighted_astar_schedule
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget

GOLDEN = pathlib.Path(__file__).with_name("golden_search.json")

#: Expansion cap of the budgeted rows: small enough that most of them
#: stop on it, so the budget exit is pinned as well as the goal exit.
BUDGET_EXPANSIONS = 40

#: Probe interval: a few samples per run on these sizes.
PROBE_EVERY = 128


def _rows() -> list[dict]:
    """30 instances × 3 engines; the knobs rotate so every value of
    cost, ε and budget meets every engine."""
    rows = []
    instances = itertools.product((8, 9, 10, 11, 12), (0.1, 1.0, 10.0), (2, 3))
    for i, (v, ccr, pes) in enumerate(instances):
        for engine in ("astar", "wastar", "focal"):
            rows.append({
                "engine": engine,
                "v": v,
                "ccr": ccr,
                "pes": pes,
                "seed": 1000 + 10 * v + i,
                "cost": ("paper", "combined")[i % 2],
                "epsilon": (0.1, 0.5)[(i // 2) % 2],
                "budget": (None, BUDGET_EXPANSIONS)[(i // 4) % 2],
            })
    return rows


def _row_id(row: dict) -> str:
    budget = "open" if row["budget"] is None else f"b{row['budget']}"
    return (f"{row['engine']}-v{row['v']}-ccr{row['ccr']:g}-p{row['pes']}"
            f"-{row['cost']}-eps{row['epsilon']:g}-{budget}")


def _run(row: dict) -> dict:
    graph = paper_random_graph(
        PaperGraphSpec(num_nodes=row["v"], ccr=row["ccr"], seed=row["seed"])
    )
    system = ProcessorSystem.fully_connected(row["pes"])
    budget = None if row["budget"] is None else Budget(max_expanded=row["budget"])
    probe = SearchProbe(every=PROBE_EVERY)
    kw = {"cost": row["cost"], "budget": budget, "probe": probe}
    if row["engine"] == "astar":
        res = astar_schedule(graph, system, **kw)
    elif row["engine"] == "wastar":
        res = weighted_astar_schedule(graph, system, row["epsilon"], **kw)
    else:
        res = focal_schedule(graph, system, row["epsilon"], **kw)
    stats = res.stats.as_dict()
    del stats["wall_seconds"]
    return {
        "placements": [[t.node, t.pe, t.start] for t in res.schedule.tasks],
        "length": res.length,
        "lower_bound": res.lower_bound,
        "algorithm": res.algorithm,
        "optimal": res.optimal,
        "bound": res.bound,
        "interrupted": res.interrupted,
        "stats": stats,
        # wall_time dropped: the only machine-dependent field.
        "timeline": [list(s[1:]) for s in res.timeline],
    }


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


ROWS = _rows()


def test_table_shape():
    golden = _golden()
    assert sorted(golden) == sorted(_row_id(r) for r in ROWS)
    assert len(ROWS) >= 24
    # The budgeted rows really exercise the budget exit.
    assert any(v["interrupted"] == "expansions" for v in golden.values())


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_replays_golden_row(row):
    want = _golden()[_row_id(row)]
    got = _run(row)
    if row["engine"] == "astar":
        assert got == want
        return
    for key in ("placements", "length", "lower_bound", "algorithm",
                "optimal", "bound", "interrupted"):
        assert got[key] == want[key], key
    gs, ws = got["stats"], want["stats"]
    moved = ("states_generated", "upper_bound_cuts", "max_open_size",
             "duplicate_rate")
    for key in ws:
        if key not in moved:
            assert gs[key] == ws[key], key
    assert (gs["states_generated"] + gs["upper_bound_cuts"]
            == ws["states_generated"] + ws["upper_bound_cuts"])
    assert gs["states_generated"] <= ws["states_generated"]
    assert gs["max_open_size"] <= ws["max_open_size"]
    # Samples land at the same expansions with the same incumbent and
    # floor; only the sampled OPEN size may differ.
    assert ([(s[0], s[2], s[3]) for s in got["timeline"]]
            == [(s[0], s[2], s[3]) for s in want["timeline"]])


if __name__ == "__main__":
    # One row per line keeps the file small and its diffs readable.
    lines = [f"{json.dumps(_row_id(r))}: {json.dumps(_run(r))}" for r in ROWS]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(ROWS)} rows to {GOLDEN}")
