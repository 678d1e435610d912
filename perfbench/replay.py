"""The search layers, timed in this process.

The daemon's pool worker cannot be traced from outside, so the traced run
replays the same solves here: the same ``portfolio_schedule`` call
``repro.service.batch._worker_solve`` makes, with the search hot loop
wrapped (expander, signature preview, state construction, ``h``, heap).
"""

from __future__ import annotations

import time
from typing import Any

import inputs
import layers

from repro.search.result import SearchStats
from repro.service.portfolio import portfolio_schedule, select_cost

#: The daemon's default Aε* weight (``repro serve --epsilon``).
EPSILON = 0.25

_SEARCH = ("children", "child_signature", "extend", "h", "heap")


def search_metrics(rows: list[dict[str, Any]], stats: list[SearchStats],
                   wall_s: float, stage_s: float) -> dict[str, float]:
    """Counts and self times of the search layers.

    ``stage_s`` is the time the engines ran (portfolio stages, or one
    engine call); what the wrapped layers do not cover of it is the search
    loop's own bookkeeping, ``search.loop_s``.
    """
    merged = layers.merge_rows(rows)
    built = merged.get("search.extend", {}).get("calls", 0)
    popped = sum(s.states_expanded for s in stats)
    dups = sum(s.pruning.duplicate_hits for s in stats)
    out = {
        "search.expanded": float(popped),
        "search.generated": float(sum(s.states_generated for s in stats)),
        "search.built_per_popped": built / popped if popped else 0.0,
        "search.dup_hit_frac": dups / (dups + built) if dups + built else 0.0,
        "search.open_peak": float(max((s.max_open_size for s in stats), default=0)),
    }
    for name in _SEARCH:
        out[f"search.{name}_s"] = merged.get(f"search.{name}", {}).get("self_s", 0.0)
    out["search.loop_s"] = stage_s - sum(out[f"search.{n}_s"] for n in _SEARCH)
    out["search.extend_share"] = out["search.extend_s"] / wall_s if wall_s else 0.0
    return out


def replay(requests: list[inputs.Request]) -> tuple[dict[str, float], list[Any]]:
    """Solve ``requests`` as the pool worker would, with the search wrapped.

    Returns the per-layer metrics and the results (for cross-checks).
    """
    recorder = layers.Recorder()
    results = []
    wall = 0.0
    stages = {"list": 0.0, "contract": 0.0, "improve": 0.0, "exact": 0.0}
    with layers.Installer(recorder) as inst:
        layers.search_targets(inst)
        for req in requests:
            t0 = time.perf_counter()
            res = portfolio_schedule(
                req.graph, req.system,
                epsilon=EPSILON, cost=select_cost(req.graph, req.system),
                max_expansions=req.body["max_expansions"],
                preprocess=req.body["preprocess"],
            )
            wall += time.perf_counter() - t0
            results.append(res)
            for stage in res.stages:
                stages[stage.stage.split("-")[0]] += stage.seconds
    rows = recorder.snapshot()
    preprocess_s = layers.merge_rows(rows).get("preprocess", {}).get("total_s", 0.0)
    searched = stages["contract"] + stages["improve"] + stages["exact"]
    out = search_metrics(rows, [r.stats for r in results], wall, searched)
    out.update({
        "preprocess.ms": preprocess_s * 1e3 / len(requests),
        "portfolio.list_s": stages["list"],
        "portfolio.contract_s": stages["contract"],
        "portfolio.improve_s": stages["improve"],
        "portfolio.exact_s": stages["exact"],
        "replay.wall_s": wall,
        "replay.residual_s": wall - preprocess_s - sum(stages.values()),
    })
    return out, results
