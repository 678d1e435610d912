"""Benchmark gate for the search-probe instrumentation overhead.

PR 7 added a convergence probe to every engine hot loop: one
``if probe is not None`` branch per expansion when disabled
(``repro/obs/probe.py``).  This bench measures what that branch costs
on a deterministic, budget-stopped serial A* run and gates it.

Method
------
Two searches over the identical instance and expansion budget:

* **reference** — a replica of the kernel's A* path *without*
  the probe branch, defined in this file.  It replays exactly the same
  expansions (the search is deterministic: heap order is
  ``(f, h, seq)`` and the budget stops on an expansion count), which
  the bench asserts by comparing expansion/generation counters and the
  returned makespan against the library engine.
* **disabled** — ``astar_schedule(probe=None)``: the shipped code with
  the instrumentation present but switched off.

Both are timed as the min over ``--repeats`` runs (min, not mean: the
lower envelope is the code's actual cost; everything above it is
scheduler noise).  An **enabled** row (``probe=SearchProbe()`` at the
default 4096-expansion interval) rides along for the honest
what-it-costs-when-on story; it is reported, not gated.

* **Gate: disabled overhead ≤ 3%** relative to the reference loop, on
  a run of ≥ 100k expansions.

Appends one entry to ``BENCH_obs.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py [--smoke]
        [--repeats N] [--out PATH]

``--smoke`` shrinks the budget (seconds, for CI) and skips the 3%
gate — wall-clock ratios on a short run are scheduler noise — but the
replica-equivalence assertions still run.  Exits non-zero on any gate
miss or replica divergence.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.heuristics.listsched import fast_upper_bound_schedule  # noqa: E402
from repro.obs.probe import SearchProbe  # noqa: E402
from repro.schedule.partial import PartialSchedule  # noqa: E402
from repro.search.astar import astar_schedule  # noqa: E402
from repro.search.costs import make_cost_function  # noqa: E402
from repro.search.dedup import SignatureSet  # noqa: E402
from repro.search.expansion import StateExpander  # noqa: E402
from repro.search.pruning import PruningConfig  # noqa: E402
from repro.search.result import SearchStats  # noqa: E402
from repro.system.processors import ProcessorSystem  # noqa: E402
from repro.util import tolerance as tol  # noqa: E402
from repro.util.timing import Budget  # noqa: E402
from repro.workloads.suite import paper_suite  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_obs.json"

#: Acceptance ceiling on the disabled-probe overhead (percent).
GATE_MAX_OVERHEAD_PCT = 3.0
#: The gate instance must run at least this many expansions.
GATE_MIN_EXPANSIONS = 100_000

#: Gate instance: the §4.1 v=30, CCR=1.0 point on 2 PEs under the paper
#: bound — reliably budget-stopped (the search space dwarfs the budget),
#: so the run is deterministic and exactly FULL_BUDGET expansions long.
V, CCR, PES, COST = 30, 1.0, 2, "paper"
FULL_BUDGET = 150_000
SMOKE_BUDGET = 4_000
DEFAULT_REPEATS = 3


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _reference_astar(graph, system, *, cost: str, max_expanded: int):
    """The A* hot loop with no probe branch: the pre-instrumentation
    baseline: the kernel's A* path (``repro.search.astar._best_first``
    with w = 1) written out inline, minus probe/trace.  Returns
    ``(stats, best_length)``."""
    pruning = PruningConfig.all()
    cost_fn = make_cost_function(cost, graph, system)
    budget = Budget(max_expanded=max_expanded)
    budget.start()

    stats = SearchStats()
    expander = StateExpander(graph, system, pruning, stats.pruning)
    fallback = fast_upper_bound_schedule(graph, system)
    upper = fallback.length

    root = PartialSchedule.empty(graph, system)
    open_heap = [(0.0, 0.0, 0, root)]
    seq = 1
    seen = SignatureSet(verify=pruning.verify_signatures)
    seen.add(root.dedup_key, lambda: root.signature)
    incumbent = None
    lower = 0.0

    while open_heap:
        if budget.exhausted(stats.states_expanded, stats.states_generated,
                            len(open_heap) + len(seen)):
            best = incumbent if incumbent is not None else fallback
            stats.cost_evaluations = cost_fn.evaluations
            return stats, best.length
        f, h, _s, state = heapq.heappop(open_heap)
        if f > lower:
            lower = f
        if state.is_complete():
            stats.states_expanded += 1
            stats.cost_evaluations = cost_fn.evaluations
            return stats, state.to_schedule().length
        stats.states_expanded += 1
        for child in expander.children(state, seen):
            ch = cost_fn.h(child)
            cf = child.makespan + ch
            if tol.gt(cf, upper):
                stats.pruning.upper_bound_cuts += 1
                continue
            stats.states_generated += 1
            if child.is_complete():
                if incumbent is None or child.makespan < incumbent.length:
                    incumbent = child.to_schedule()
                    if incumbent.length < upper:
                        upper = incumbent.length
            heapq.heappush(open_heap, (cf, ch, seq, child))
            seq += 1
        if len(open_heap) > stats.max_open_size:
            stats.max_open_size = len(open_heap)

    best = incumbent if incumbent is not None else fallback
    stats.cost_evaluations = cost_fn.evaluations
    return stats, best.length


def _time_min(fn, repeats: int) -> tuple[float, object]:
    best_t, last = math.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        last = fn()
        best_t = min(best_t, time.perf_counter() - t0)
    return best_t, last


def run(budget: int, repeats: int) -> dict:
    inst = paper_suite(sizes=(V,), ccrs=(CCR,)).instances[0]
    system = ProcessorSystem.fully_connected(PES)

    ref_t, (ref_stats, ref_len) = _time_min(
        lambda: _reference_astar(
            inst.graph, system, cost=COST, max_expanded=budget
        ),
        repeats,
    )
    dis_t, dis_res = _time_min(
        lambda: astar_schedule(
            inst.graph, system, cost=COST,
            budget=Budget(max_expanded=budget), probe=None,
        ),
        repeats,
    )
    en_t, en_res = _time_min(
        lambda: astar_schedule(
            inst.graph, system, cost=COST,
            budget=Budget(max_expanded=budget), probe=SearchProbe(),
        ),
        repeats,
    )
    return {
        "instance": f"v{V}-ccr{CCR}-pes{PES}-{COST}",
        "budget": budget,
        "repeats": repeats,
        "reference": {
            "seconds": round(ref_t, 4),
            "expanded": ref_stats.states_expanded,
            "generated": ref_stats.states_generated,
            "makespan": ref_len,
        },
        "disabled": {
            "seconds": round(dis_t, 4),
            "expanded": dis_res.stats.states_expanded,
            "generated": dis_res.stats.states_generated,
            "makespan": dis_res.length,
        },
        "enabled": {
            "seconds": round(en_t, 4),
            "expanded": en_res.stats.states_expanded,
            "samples": len(en_res.timeline),
            "makespan": en_res.length,
        },
        "disabled_overhead_pct": round((dis_t - ref_t) / ref_t * 100, 2),
        "enabled_overhead_pct": round((en_t - ref_t) / ref_t * 100, 2),
    }


def evaluate(row: dict, *, smoke: bool) -> list[str]:
    """Gate checks; returns failure messages (empty = pass)."""
    failures: list[str] = []
    ref, dis = row["reference"], row["disabled"]
    for key in ("expanded", "generated", "makespan"):
        if ref[key] != dis[key]:
            failures.append(
                f"replica diverged from astar_schedule on {key}: "
                f"{ref[key]} != {dis[key]} (the baseline is not measuring "
                f"the same search)"
            )
    if dis["makespan"] != row["enabled"]["makespan"]:
        failures.append(
            "enabling the probe changed the result makespan "
            f"({dis['makespan']} -> {row['enabled']['makespan']})"
        )
    if smoke:
        return failures
    if dis["expanded"] < GATE_MIN_EXPANSIONS:
        failures.append(
            f"gate run expanded only {dis['expanded']:,} states "
            f"(< {GATE_MIN_EXPANSIONS:,})"
        )
    if row["disabled_overhead_pct"] > GATE_MAX_OVERHEAD_PCT:
        failures.append(
            f"disabled-probe overhead {row['disabled_overhead_pct']:.2f}% "
            f"> {GATE_MAX_OVERHEAD_PCT}% ceiling"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small budget, no 3% gate (CI mode); the "
                             "replica-equivalence assertions still run")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repetitions (min is reported)")
    parser.add_argument("--out", type=Path, default=RESULTS_PATH,
                        help="results file (JSON array)")
    args = parser.parse_args(argv)

    budget = SMOKE_BUDGET if args.smoke else FULL_BUDGET
    repeats = args.repeats or (1 if args.smoke else DEFAULT_REPEATS)

    row = run(budget, repeats)
    failures = evaluate(row, smoke=args.smoke)

    entry = {
        "bench": "obs",
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "row": row,
        "gate_max_overhead_pct": GATE_MAX_OVERHEAD_PCT,
        "pass": not failures,
    }
    existing: list = []
    if args.out.exists():
        try:
            existing = json.loads(args.out.read_text())
        except json.JSONDecodeError:
            print(f"warning: {args.out} is not valid JSON; starting fresh",
                  file=sys.stderr)
    existing.append(entry)
    args.out.write_text(json.dumps(existing, indent=2) + "\n")

    print(
        f"{row['instance']}: {row['disabled']['expanded']:,} expansions\n"
        f"  reference (no probe code) {row['reference']['seconds']:.4f}s\n"
        f"  disabled  (probe=None)    {row['disabled']['seconds']:.4f}s "
        f"({row['disabled_overhead_pct']:+.2f}%)\n"
        f"  enabled   (every=4096)    {row['enabled']['seconds']:.4f}s "
        f"({row['enabled_overhead_pct']:+.2f}%, "
        f"{row['enabled']['samples']} samples)"
    )
    if failures:
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        return 1
    print("gate: PASS" + (" (smoke mode, overhead gate skipped)"
                          if args.smoke else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
