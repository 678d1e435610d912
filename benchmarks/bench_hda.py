"""HDA* vs serial A* on the §4.1 suite -> ``BENCH_hda.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hda.py [--workers N] [--smoke]

Runs serial A* and the multiprocess HDA* engine over a fixed set of
§4.1 suite instances, verifies the makespans are identical and proven
on both sides, and appends one entry to the ``BENCH_hda.json`` array at
the repository root.  Exits non-zero unless at least one instance shows
the >= 2x wall-clock speedup acceptance floor with identical
proven-optimal makespan.

Reading the numbers honestly: the entry records ``cpu_count``.  On a
multi-core host the hash-distributed search adds core-parallel speedup
on top of what is reported here; on a single-core host (CI containers)
worker processes time-slice one core, and any speedup comes purely
from the HDA* engine's *algorithmic* advantage — its shared-incumbent
pruning discards ``f >= U`` ties, so instances whose list-schedule
bound is already optimal are proven by quiescence without the goal-
plateau exploration serial A* pays (see DESIGN.md).  Instances where
real search dominates (``ccr10-v16`` below) then show the transfer
overhead instead; both kinds are in the set so the trajectory is
meaningful on any hardware.  Each row carries ``same_work`` (serial
and HDA* expansions within 1%), and the entry reports
``best_same_work_speedup`` — the core-parallel number, apart from the
algorithmic rows that dominate ``best_proven_identical_speedup``.

``--smoke`` runs one small same-work row at 2 workers and checks only
that both engines prove the identical makespan (no speed floor); it
writes to ``/tmp/bench_hda_smoke.json`` unless ``--out`` says
otherwise, never to ``BENCH_hda.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.parallel.hda import hda_astar_schedule
from repro.search.astar import astar_schedule
from repro.util.timing import Budget
from repro.workloads.suite import paper_suite

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_hda.json"
SPEEDUP_FLOOR = 2.0  # acceptance criterion at 4 workers

#: (ccr, size) suite points: two where the incumbent-pruning proof
#: dominates, one where real distributed search dominates.
BENCH_POINTS = ((0.1, 18), (0.1, 20), (10.0, 16))
#: The smoke run's one row: ~6k expansions, the same search on both
#: engines, sub-second.
SMOKE_POINTS = ((10.0, 12),)
SMOKE_PATH = Path("/tmp/bench_hda_smoke.json")
#: Largest relative expansion-count difference of a same-work row.
SAME_WORK_TOLERANCE = 0.01


def run_hda_bench(
    *, workers: int = 4, budget_seconds: float = 300.0,
    points: tuple[tuple[float, int], ...] = BENCH_POINTS,
) -> dict:
    """Serial-vs-HDA sweep; returns the machine-readable report."""
    suite = paper_suite()
    rows = []
    for ccr, size in points:
        inst = suite.get(ccr, size)
        t0 = time.perf_counter()
        serial = astar_schedule(
            inst.graph, inst.system, budget=Budget(max_seconds=budget_seconds)
        )
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = hda_astar_schedule(
            inst.graph, inst.system, workers=workers,
            budget=Budget(max_seconds=budget_seconds),
        )
        parallel_s = time.perf_counter() - t0
        rows.append(
            {
                "instance": f"v{size}-ccr{ccr}",
                "serial_seconds": serial_s,
                "hda_seconds": parallel_s,
                "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
                "serial_makespan": serial.length,
                "hda_makespan": parallel.length,
                "serial_proven": serial.optimal,
                "hda_proven": parallel.optimal,
                "identical": parallel.length == serial.length,
                "serial_expanded": serial.stats.states_expanded,
                "hda_expanded": parallel.stats.states_expanded,
                "same_work": abs(
                    parallel.stats.states_expanded - serial.stats.states_expanded
                ) <= SAME_WORK_TOLERANCE * serial.stats.states_expanded,
            }
        )
    qualifying = [
        r for r in rows
        if r["identical"] and r["serial_proven"] and r["hda_proven"]
    ]
    best = max((r["speedup"] for r in qualifying), default=0.0)
    best_same = max(
        (r["speedup"] for r in qualifying if r["same_work"]), default=0.0
    )
    return {
        "suite": "paper-4.1-default",
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "budget_seconds": budget_seconds,
        "instances": rows,
        "best_proven_identical_speedup": best,
        "best_same_work_speedup": best_same,
    }


def _git_rev() -> str | None:
    """Short rev of the checkout, suffixed ``-dirty`` when it has
    uncommitted changes, so an entry names the code it measured."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--budget", type=float, default=300.0,
                        help="per-search wall-clock cap (seconds)")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (JSON array; default "
                             f"{RESULTS_PATH.name}, or {SMOKE_PATH} with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="one small same-work row at 2 workers; checks "
                             "identical proven makespans, no speed floor")
    args = parser.parse_args(argv)
    workers = 2 if args.smoke else args.workers
    out = args.out or (SMOKE_PATH if args.smoke else RESULTS_PATH)

    report = run_hda_bench(
        workers=workers, budget_seconds=args.budget,
        points=SMOKE_POINTS if args.smoke else BENCH_POINTS,
    )
    entry = {
        "bench": "hda_vs_serial",
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "smoke": args.smoke,
        **report,
    }

    existing: list = []
    if out.exists():
        try:
            existing = json.loads(out.read_text())
        except json.JSONDecodeError:
            print(f"warning: {out} is not valid JSON; starting fresh",
                  file=sys.stderr)
    existing.append(entry)
    out.write_text(json.dumps(existing, indent=2) + "\n")

    for row in report["instances"]:
        print(f"{row['instance']}: serial {row['serial_seconds']:.2f}s, "
              f"hda({workers}w) {row['hda_seconds']:.2f}s, "
              f"speedup {row['speedup']:.2f}x, identical={row['identical']}, "
              f"proven={row['serial_proven'] and row['hda_proven']}, "
              f"same_work={row['same_work']}")
    best = report["best_proven_identical_speedup"]
    print(f"best proven-identical speedup: {best:.2f}x "
          f"(floor {SPEEDUP_FLOOR}x, cpus={report['cpu_count']}); "
          f"best same-work speedup: {report['best_same_work_speedup']:.2f}x")
    if args.smoke:
        if not all(r["identical"] and r["serial_proven"] and r["hda_proven"]
                   for r in report["instances"]):
            print("FAIL: HDA* and serial A* did not prove the same makespan",
                  file=sys.stderr)
            return 1
        return 0
    if best < SPEEDUP_FLOOR:
        print("FAIL: no instance met the speedup acceptance floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
