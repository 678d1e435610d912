"""The repo's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload warm-hit --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  Every answer is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is non-zero when any check
failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("warm-hit", "cold-solve", "hda-2w", "fleet-mixed")


def parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: inputs.DEFAULT_SEED)")
    p.add_argument("--seconds", type=float, default=15.0,
                   help="how long the measured load runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(ctx, checker):  # type: ignore[no-untyped-def]
    """Run the workload; returns its metrics (end-to-end or per-layer)."""
    import hda
    import inputs
    import replay
    import service

    if ctx.workload == "hda-2w":
        return (hda.traced if ctx.trace else hda.timed)(ctx, checker)
    if not ctx.trace:
        return service.timed(ctx, checker)[0]
    metrics, load = service.traced(ctx, checker)
    if ctx.workload == "cold-solve":
        reqs = inputs.cold_requests(ctx.seed)
        searched, results = replay.replay(reqs)
        metrics.update(searched)
        passes = load.via.get("solve", 0) / len(reqs)
        expected = passes * sum(r.stats.states_expanded for r in results)
        checker.check_same("replay", "daemon vs replay states_expanded",
                           metrics.pop("daemon.expanded"), expected)
    return metrics


def main(argv: list[str]) -> int:
    args = parse(argv)
    # SIGTERM unwinds like an exception, so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}/repro; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))

    import inputs
    from checker import Checker
    from common import WORK, RunContext, host_stamp

    WORK.mkdir(exist_ok=True)
    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    ctx = RunContext(args.workload, seed, args.seconds, bool(args.trace))
    stamp = host_stamp(seed)
    checker = Checker()
    metrics = measure(ctx, checker)
    stamp["loadavg_end"] = list(os.getloadavg())

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if ctx.trace else "end_to_end"]
    out = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
           for m in wanted}
    attempted = max(checker.attempted, 1)
    print(f"perfbench {ctx.workload} trace={int(ctx.trace)} " + json.dumps(stamp))
    for line in ctx.notes:
        print(f"  {line}")
    for failure in checker.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  failed_frac {checker.failed / attempted:.6f} ratio "
          f"({checker.failed} of {attempted}; {checker.pinned} pinned proofs matched)")
    for name, value in out.items():
        print(f"  {name} {value['value']:.6g} {value['unit']}")
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
