"""Benchmark: batch-serving throughput and cache-hit speedup.

Serves the §4.1 suite through the service front-end twice against one
persistent result cache:

* **cold** — empty cache: every unique fingerprint runs the portfolio
  ladder (budgeted, so the sweep terminates on any machine);
* **warm** — same requests again: everything must come from the cache.

Reported per pass: wall seconds, instances/second, solved / cache-hit /
deduped counts; plus the warm/cold speedup — the number the acceptance
gate in ``run_service_bench.py`` checks (≥ 10x).

Run directly for a human-readable table::

    PYTHONPATH=src python benchmarks/bench_service.py

or use ``benchmarks/run_service_bench.py`` to append machine-readable
results to ``BENCH_service.json``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.service.batch import SolveOptions, items_from_suite, run_batch
from repro.service.cache import ResultCache

__all__ = ["run_suite_bench"]

#: Per-instance budgets keeping the cold pass to tens of seconds.
DEADLINE_SECONDS = 5.0
MAX_EXPANSIONS = 50_000


def _pass_row(label: str, report) -> dict[str, float]:
    return {
        "pass": label,
        "instances": len(report.outcomes),
        "wall_seconds": report.wall_seconds,
        "instances_per_second": report.instances_per_second,
        "solved": report.solved,
        "cache_hits": report.cache_hits,
        "deduped": report.deduped,
        "proven": sum(1 for o in report.outcomes if o.certificate == "proven"),
    }


def run_suite_bench(
    *,
    workers: int = 1,
    deadline: float = DEADLINE_SECONDS,
    max_expansions: int = MAX_EXPANSIONS,
    cache_path: str | Path | None = None,
) -> dict[str, object]:
    """Cold + warm pass over the §4.1 suite; returns the report dict."""
    items = items_from_suite()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(cache_path) if cache_path else Path(tmp) / "bench_cache.db"
        with ResultCache(path) as cache:
            cold = run_batch(
                items, cache=cache, workers=workers,
                options=SolveOptions(
                    deadline=deadline, max_expansions=max_expansions),
            )
            warm = run_batch(items, cache=cache, workers=workers)
            counters = cache.counters()
    speedup = cold.wall_seconds / max(warm.wall_seconds, 1e-9)
    return {
        "suite": "paper-4.1-default",
        "workers": workers,
        "deadline_seconds": deadline,
        "max_expansions": max_expansions,
        "passes": [_pass_row("cold", cold), _pass_row("warm", warm)],
        "cold_instances_per_second": cold.instances_per_second,
        "warm_instances_per_second": warm.instances_per_second,
        "warm_speedup": speedup,
        "cache_counters": counters,
    }


def main() -> None:
    from repro.util.tables import render_table

    report = run_suite_bench()
    rows = [
        [
            p["pass"], p["instances"], p["wall_seconds"],
            p["instances_per_second"], p["solved"], p["cache_hits"],
            p["proven"],
        ]
        for p in report["passes"]
    ]
    print(render_table(
        ["pass", "instances", "seconds", "inst/s", "solved", "hits", "proven"],
        rows,
        title="service batch throughput (§4.1 suite)",
        float_fmt="{:.3f}",
    ))
    print(f"\nwarm-cache speedup: {report['warm_speedup']:.1f}x")


if __name__ == "__main__":
    main()
