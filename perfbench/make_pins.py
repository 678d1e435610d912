"""Regenerate ``pins.json``: proven makespans for the pinned seeds.

    python3 perfbench/make_pins.py

Solves every instance the default and reserved seeds produce (warm-hit
priming set, one cold-solve pass, the fleet-mixed pool and its first fresh
instances) in this process, exactly as a pool worker would, and records the
makespan of each *proven* answer under the instance fingerprint the daemon
reports.  A proven answer the benchmark later receives for a pinned
fingerprint must carry that makespan.  Answers that are not proven are not
pinned: their makespan depends on the search budget, not on the instance.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from checker import PINS_FILE  # noqa: E402
from replay import EPSILON  # noqa: E402

from repro.schedule.fingerprint import canonical_order, instance_fingerprint  # noqa: E402
from repro.service.portfolio import portfolio_schedule, select_cost  # noqa: E402

#: Fresh fleet instances pinned per client thread and seed.
FRESH_PINNED = 400


def pinned_requests(seed: int) -> list[inputs.Request]:
    reqs = inputs.warm_requests(seed) + inputs.cold_requests(seed) + inputs.fleet_pool(seed)
    for tid in range(2):
        reqs += [inputs.fleet_fresh(seed, tid, i) for i in range(FRESH_PINNED)]
    return reqs


def pin(req: inputs.Request) -> tuple[str, float] | None:
    cost = select_cost(req.graph, req.system)
    res = portfolio_schedule(
        req.graph, req.system, epsilon=EPSILON, cost=cost,
        max_expansions=req.body["max_expansions"], preprocess=req.body["preprocess"],
    )
    if not res.optimal:
        return None
    fp = instance_fingerprint(req.graph, req.system, cost=cost,
                              order=canonical_order(req.graph))
    return fp, res.length


def main() -> int:
    pins: dict[str, float] = {}
    for seed in (inputs.DEFAULT_SEED, inputs.RESERVED_SEED):
        for req in pinned_requests(seed):
            got = pin(req)
            if got is not None:
                pins[got[0]] = got[1]
        print(f"seed {seed}: {len(pins)} proven makespans pinned so far", flush=True)
    PINS_FILE.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
