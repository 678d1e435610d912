"""Append state-microbenchmark results to ``BENCH_states.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_states_bench.py [--smoke] [--limit N] [--repeats R]

Runs :mod:`benchmarks.bench_states_micro` and appends one entry to the
``BENCH_states.json`` array at the repository root, so successive PRs
accumulate a machine-readable perf trajectory to regress against.  Each
entry records the per-size states/second of both state representations,
the delta/tuple speedup, the interpreter version and ``cpu_count``;
``git_rev`` names the checkout ``repro`` was imported from (``-dirty``
when it has uncommitted changes) and is left empty outside git.

Both representations must build the same number of states in every
cell (they walk the same candidate stream).  In full mode the script
also exits non-zero when the 100-node speedup falls below the 3x
acceptance floor established by the delta-state PR.  ``--smoke`` runs
the machinery on a tiny ``--limit`` with one repeat and skips the
floor, which tiny runs cannot measure (CI runs it this way).
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

sys.path.insert(0, str(Path(__file__).parent))

from bench_states_micro import run_suite  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_states.json"
SPEEDUP_FLOOR = 3.0  # acceptance criterion on the 100-node instance
FULL_LIMIT = 20_000
SMOKE_LIMIT = 500


def _git_rev() -> str | None:
    """Short rev of the checkout the measured ``repro`` package was
    imported from, suffixed ``-dirty`` when that tree has uncommitted
    changes, so an entry names the code it measured."""
    import repro

    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=Path(repro.__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help=f"limit {SMOKE_LIMIT}, one repeat, no speedup floor")
    parser.add_argument("--limit", type=int, default=None,
                        help=f"states generated per measurement "
                             f"(default {FULL_LIMIT}; {SMOKE_LIMIT} with --smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of repeats per cell (default 3; 1 with --smoke)")
    parser.add_argument("--out", type=Path, default=RESULTS_PATH,
                        help="results file (JSON array)")
    args = parser.parse_args(argv)
    limit = args.limit or (SMOKE_LIMIT if args.smoke else FULL_LIMIT)
    repeats = args.repeats or (1 if args.smoke else 3)

    report = run_suite(limit=limit, repeats=repeats)
    entry = {
        "bench": "states_micro",
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        **report,
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

    for v, cell in report["sizes"].items():
        print(
            f"v={v:>3}: delta {cell['delta']['states_per_sec']:>12,.0f}/s  "
            f"tuple {cell['tuple']['states_per_sec']:>12,.0f}/s  "
            f"speedup {cell['speedup']:.2f}x"
        )
    print(f"appended entry #{len(existing)} to {args.out}")

    for v, cell in report["sizes"].items():
        if cell["delta"]["states"] != cell["tuple"]["states"]:
            print(f"FAIL: v={v} delta built {cell['delta']['states']} states, "
                  f"tuple {cell['tuple']['states']}", file=sys.stderr)
            return 1
    if args.smoke:
        print("gate: PASS (smoke mode, speedup floor skipped)")
        return 0
    speedup_100 = report["sizes"]["100"]["speedup"]
    if speedup_100 < SPEEDUP_FLOOR:
        print(
            f"FAIL: 100-node speedup {speedup_100:.2f}x < {SPEEDUP_FLOOR}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
