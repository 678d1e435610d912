"""Golden search table: the engines replay recorded runs.

Each row runs ``astar``, ``wastar``, ``focal``, ``bnb``, ``idastar`` or
``parallel_astar`` on one §4.1 paper graph (v 8–12, CCR 0.1/1/10, 2 or
3 PEs, ε 0.1/0.5, ``paper`` or ``combined`` cost, with and without an
expansion budget) and compares the result against
``golden_search.json``.  The A*/WA*/Aε* rows were
recorded before the three engines shared one best-first loop, so they
pin that the loop reproduces the engines it replaced:

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

* B&B rows are identical in every field, like the A* rows.
* IDA* and simulated parallel A* rows were recorded before the engines
  shared one set-up and exit (:mod:`repro.search.frame`) and are
  identical in every field.  The parallel rows also pin the simulated
  ``makespan_units``, ``phases`` and ``total_messages``; they hold no
  ``lower_bound``, which that engine used to leave at 0.0.  Its
  budgeted rows were re-recorded when it began naming its stop reason:
  ``interrupted`` went from ``null`` to ``"expansions"``, nothing else.
* 40 A*, WA*, Aε* and IDA* rows had their timelines re-recorded when
  the probe began reporting the incumbent an engine holds before it
  generates a schedule: each such sample's incumbent went from
  ``Infinity`` to the list-schedule length, nothing else.
* ``portfolio`` rows run the service ladder the way the daemon's cold
  path does (v 12–16, 2 PEs, ``preprocess=True``, 2500 expansions, no
  deadline) and pin each stage's algorithm, makespan and expansions
  plus the answer and its counters.  They were re-recorded when the
  ladder turned the commutation reduction on for its best-first
  stages (B&B excepted): the counters and stage answers changed, every
  proven answer kept its makespan, and no other row changed.

* 44 rows were re-recorded when every engine began deciding its
  certificate by one rule (a proven floor that meets the length proves
  it), the best-first loop began stopping once its floor meets ``U``
  (``astar(floor)``, ``focal(eps=…,floor)``) and IDA* began ending its
  probe at its first goal: 14 A* and 7 Aε* rows took the floor exit
  (one budgeted A* row among them, ``budget`` before, is now
  ``proven``), 20 of 21 changed IDA* rows expand fewer states and 4
  budgeted IDA* rows whose threshold already met their length became
  ``proven``, and 2 portfolio rows took the floor exit in their exact
  stage.  No length changed and no certificate got weaker.
* 42 rows were re-recorded when the simulated PPEs began running the
  best-first loop and IDA* began stopping at a probe whose threshold
  meets ``U`` (``idastar(floor)``): all 30 ``parallel_astar`` rows
  (the seed phase's expansions now count in ``states_expanded``, the
  budgeted rows stop at exactly 40 expansions where they overshot to
  42–47, 5 rows are proven by the seed phase, and load sharing no
  longer drops a moved state the receiver has handed on) and 12 IDA*
  rows.  No length changed, no certificate got weaker and no bound
  grew.

* 22 rows (19 B&B, 3 portfolio) were re-recorded when B&B began to
  cost and cut each child before it keys or builds it.  Every child is
  now costed (``h_preview``) before the visited check, so
  ``cost_evaluations`` grew in all 22 and nothing else moved in 19.  A
  cut child's key is no longer recorded, so a later copy of it is cut
  instead of counted as a duplicate: in 3 rows (two B&B, one
  portfolio) ``duplicate_hits`` fell and ``upper_bound_cuts`` rose by
  the same amount, moving ``duplicate_rate``.  Placements, lengths,
  certificates and expansion and generation counts are unchanged.

The B&B and portfolio rows were recorded before the per-child hot path
(``extend``, ``child_signature``, the engine loops) was tuned, so they
pin that the tuning changed no search.

Record missing rows (existing rows are kept; delete a row's line to
re-record it, only on purpose, for a deliberate behaviour change)::

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
from repro.parallel.parallel_astar import parallel_astar_schedule
from repro.search.astar import astar_schedule
from repro.search.bnb import bnb_schedule
from repro.search.focal import focal_schedule
from repro.search.idastar import idastar_schedule
from repro.search.weighted import weighted_astar_schedule
from repro.service.portfolio import portfolio_schedule
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget

GOLDEN = pathlib.Path(__file__).with_name("golden_search.json")

#: Expansion cap of the budgeted rows: small enough that most of them
#: stop on it, so the budget exit is pinned as well as the goal exit.
BUDGET_EXPANSIONS = 40

#: Probe interval: a few samples per run on these sizes.
PROBE_EVERY = 128

#: Engines of the instance grid, in row order.
ENGINES = ("astar", "wastar", "focal", "bnb", "idastar", "parallel_astar")

#: Per-ladder expansion cap of the portfolio rows (the cold-solve
#: request cap of the service benchmark).
PORTFOLIO_EXPANSIONS = 2500


def _rows() -> list[dict]:
    """30 instances × 6 engines; the knobs rotate so every value of
    cost, ε and budget meets every engine.  ``parallel_astar`` rotates
    its own ε through 0, 0.1 and 0.5 so its exact exit is pinned too."""
    rows = []
    instances = itertools.product((8, 9, 10, 11, 12), (0.1, 1.0, 10.0), (2, 3))
    for i, (v, ccr, pes) in enumerate(instances):
        for engine in ENGINES:
            rows.append({
                "engine": engine,
                "v": v,
                "ccr": ccr,
                "pes": pes,
                "seed": 1000 + 10 * v + i,
                "cost": ("paper", "combined")[i % 2],
                "epsilon": (
                    (0.0, 0.1, 0.5)[i % 3] if engine == "parallel_astar"
                    else (0.1, 0.5)[(i // 2) % 2]
                ),
                "budget": (None, BUDGET_EXPANSIONS)[(i // 4) % 2],
            })
    for i, (v, ccr) in enumerate(itertools.product((12, 14, 16), (0.1, 1.0, 10.0))):
        rows.append({
            "engine": "portfolio", "v": v, "ccr": ccr, "pes": 2,
            "seed": 2000 + 10 * v + i,
        })
    return rows


def _row_id(row: dict) -> str:
    if row["engine"] == "portfolio":
        return f"portfolio-v{row['v']}-ccr{row['ccr']:g}-p{row['pes']}"
    budget = "open" if row["budget"] is None else f"b{row['budget']}"
    return (f"{row['engine']}-v{row['v']}-ccr{row['ccr']:g}-p{row['pes']}"
            f"-{row['cost']}-eps{row['epsilon']:g}-{budget}")


def _run(row: dict) -> dict:
    graph = paper_random_graph(
        PaperGraphSpec(num_nodes=row["v"], ccr=row["ccr"], seed=row["seed"])
    )
    system = ProcessorSystem.fully_connected(row["pes"])
    if row["engine"] == "portfolio":
        return _run_portfolio(graph, system)
    budget = None if row["budget"] is None else Budget(max_expanded=row["budget"])
    if row["engine"] == "parallel_astar":
        return _run_parallel(graph, system, row["cost"], row["epsilon"], budget)
    probe = SearchProbe(every=PROBE_EVERY)
    kw = {"cost": row["cost"], "budget": budget, "probe": probe}
    if row["engine"] == "astar":
        res = astar_schedule(graph, system, **kw)
    elif row["engine"] == "wastar":
        res = weighted_astar_schedule(graph, system, row["epsilon"], **kw)
    elif row["engine"] == "focal":
        res = focal_schedule(graph, system, row["epsilon"], **kw)
    elif row["engine"] == "idastar":
        res = idastar_schedule(graph, system, **kw)
    else:
        res = bnb_schedule(graph, system, **kw)
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


def _run_parallel(graph, system, cost, epsilon, budget) -> dict:
    par = parallel_astar_schedule(
        graph, system, cost=cost, epsilon=epsilon, budget=budget,
    )
    res = par.result
    stats = res.stats.as_dict()
    del stats["wall_seconds"]
    # lower_bound left out: the rows were recorded while this engine
    # still reported the dataclass default 0.0 for it.
    return {
        "placements": [[t.node, t.pe, t.start] for t in res.schedule.tasks],
        "length": res.length,
        "algorithm": res.algorithm,
        "optimal": res.optimal,
        "bound": res.bound,
        "interrupted": res.interrupted,
        "stats": stats,
        "makespan_units": par.makespan_units,
        "phases": par.phases,
        "total_messages": par.total_messages,
    }


def _run_portfolio(graph, system) -> dict:
    res = portfolio_schedule(
        graph, system, max_expansions=PORTFOLIO_EXPANSIONS, preprocess=True,
    )
    stats = res.stats.as_dict()
    del stats["wall_seconds"]
    return {
        "placements": [[t.node, t.pe, t.start] for t in res.schedule.tasks],
        "length": res.length,
        "lower_bound": res.lower_bound,
        "algorithm": res.algorithm,
        "winner": res.winner,
        "optimal": res.optimal,
        "bound": res.bound,
        "interrupted": res.interrupted,
        "stats": stats,
        # seconds dropped: the only machine-dependent field.
        "stages": [[st.stage, st.algorithm, st.makespan, st.expanded,
                    st.improved, st.optimal] for st in res.stages],
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


def _param(row: dict):
    # Unbudgeted IDA* re-expands every probe from the root; a few of
    # its rows take tens of seconds, so they sit out the fast tier.
    slow = row["engine"] == "idastar" and row["budget"] is None
    return pytest.param(row, marks=pytest.mark.slow if slow else ())


@pytest.mark.parametrize("row", [_param(r) for r in ROWS], ids=_row_id)
def test_replays_golden_row(row):
    want = _golden()[_row_id(row)]
    got = _run(row)
    if row["engine"] in ("astar", "bnb", "idastar", "parallel_astar", "portfolio"):
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
    # Recorded rows are kept as they are: the older ones pin engines
    # that no longer exist in their recorded form.
    known = _golden() if GOLDEN.exists() else {}
    lines = []
    for r in ROWS:
        rid = _row_id(r)
        lines.append(f"{json.dumps(rid)}: {json.dumps(known.get(rid) or _run(r))}")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(ROWS) - len(known)} new rows; {GOLDEN} holds {len(ROWS)}")
