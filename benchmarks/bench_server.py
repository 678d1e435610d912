"""Benchmark: solver-daemon sustained throughput, cold vs. warm.

Drives a real :class:`~repro.service.server.SolverServer` (background
thread, real worker-process pool, real HTTP) with a **200-request mixed
stream**: requests drawn with repetition from a pool of unique
§4.1-style instances, arriving in **duplicate bursts** (each unique's
repeats cluster in time — the thundering-herd shape that makes
in-flight dedupe matter, and the traffic the daemon exists for).  It
measures:

* **cold** — fresh server, empty cache: unique instances run the
  portfolio on the persistent pool; repeats hit the warming cache or
  dedupe onto in-flight twins;
* **warm** — the same 200 requests again: everything is answered from
  the result cache (the ≥ 10x acceptance gate);
* **per-request dispatch** — the same cold stream under the same
  8-way client concurrency, served the naive way: every request is its
  own ``run_batch`` call on its own transient worker pool (the
  per-call pool lifecycle a one-shot invocation pays on every request;
  the daemon pays it once), with a shared in-memory result cache but
  **no in-flight dedupe** — duplicate requests that arrive while their
  twin is still being solved are solved again.  The daemon's cold
  throughput must beat this (the persistent-pool acceptance gate); the
  report also records how many redundant solves the naive side paid.
  An informational sequential in-process variant (no pool, no
  concurrency) is recorded as the single-core floor.

Run directly for a human-readable table (also appends an entry to
``BENCH_server.json`` at the repo root and exits non-zero when either
gate fails, making it usable as a CI perf gate)::

    PYTHONPATH=src python benchmarks/bench_server.py [--requests 200]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.service.batch import BatchItem, SolveOptions, run_batch
from repro.service.cache import ResultCache
from repro.service.client import ServerClient
from repro.service.server import SolverServer
from repro.system.processors import ProcessorSystem

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_server.json"

#: Acceptance gates (ISSUE 4): warm sustained throughput >= 10x cold,
#: and persistent-pool serving beats per-request run_batch dispatch.
WARM_SPEEDUP_FLOOR = 10.0

#: The mixed-suite shape: unique (v, ccr, seed) coordinates requests
#: are drawn from, spanning the paper's CCR decades.
UNIQUE_COORDS = [
    (v, ccr, seed)
    for v in (9, 10, 11, 12)
    for ccr in (0.1, 1.0, 10.0)
    for seed in (1, 2)
]
DEADLINE_SECONDS = 5.0
MAX_EXPANSIONS = 50_000
CLIENT_THREADS = 8


def build_stream(requests: int, *, seed: int = 73) -> list[BatchItem]:
    """The mixed stream: unique instances repeated in duplicate bursts.

    Every unique appears at least once; the remaining requests are
    distributed at random.  Each unique's occurrences are contiguous
    (a burst) and the bursts are shuffled — duplicate arrivals cluster
    in time, so under concurrent clients the duplicates of a burst are
    in flight *together*.  A deduping server solves each burst once; a
    per-request dispatcher re-solves whatever lands before its twin's
    result is cached.
    """
    uniques = [
        BatchItem(
            name=f"v{v}-ccr{ccr}-s{s}",
            graph=paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=ccr, seed=s)),
            system=ProcessorSystem.fully_connected(4),
        )
        for v, ccr, s in UNIQUE_COORDS
    ]
    rng = random.Random(seed)
    counts = {item.name: 1 for item in uniques}
    for _ in range(requests - len(uniques)):
        counts[rng.choice(uniques).name] += 1
    bursts = [[item] * counts[item.name] for item in uniques]
    rng.shuffle(bursts)
    return [item for burst in bursts for item in burst][:requests]


def _serve_stream(
    client: ServerClient, stream: list[BatchItem], threads: int
) -> dict[str, float]:
    """Push the stream through the daemon from ``threads`` clients."""
    index = {"next": 0}
    lock = threading.Lock()
    failures: list[str] = []

    def worker() -> None:
        while True:
            with lock:
                i = index["next"]
                if i >= len(stream):
                    return
                index["next"] = i + 1
            item = stream[i]
            try:
                client.solve(
                    item.graph, item.system, name=item.name,
                    deadline=DEADLINE_SECONDS, max_expansions=MAX_EXPANSIONS,
                )
            except Exception as exc:  # noqa: BLE001 - a failed request
                # must fail the gate, not silently kill this thread.
                with lock:
                    failures.append(f"{item.name}: {exc}")

    t0 = time.perf_counter()
    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    wall = time.perf_counter() - t0
    if failures:
        raise RuntimeError(f"{len(failures)} requests failed: {failures[:3]}")
    return {
        "requests": len(stream),
        "wall_seconds": wall,
        "requests_per_second": len(stream) / wall,
    }


def _quantile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, round(q * (len(sorted_vals) - 1)))
    return sorted_vals[idx]


def _soak_with_worker_kills(
    client: ServerClient, server: SolverServer, stream: list[BatchItem],
    threads: int, *, kill_interval: float = 1.0,
) -> dict[str, object]:
    """The fault-injection soak: drive the stream while a killer thread
    SIGKILLs a live pool worker every ``kill_interval`` seconds.

    Measures what an operator cares about under churn: **availability**
    (fraction of requests answered — degraded answers count, errors and
    rejections do not) and the **latency tail** (p50/p99), since every
    kill costs a pool rebuild and a list-schedule fallback for the
    victim job.  See the "Failure model" section of ``DESIGN.md``.
    """
    latencies: list[float] = []
    counts = {"answered": 0, "degraded": 0, "errors": 0}
    index = {"next": 0}
    lock = threading.Lock()
    stop = threading.Event()
    kills = [0]

    def killer() -> None:
        import signal

        while not stop.wait(kill_interval):
            executor = server.manager.pool.executor
            procs = list(getattr(executor, "_processes", {}).values())
            if not procs:
                continue
            try:
                os.kill(procs[0].pid, signal.SIGKILL)
                kills[0] += 1
            except (ProcessLookupError, OSError, AttributeError):
                pass  # lost the race with a rebuild — fine

    def worker() -> None:
        while True:
            with lock:
                i = index["next"]
                if i >= len(stream):
                    return
                index["next"] = i + 1
            item = stream[i]
            t0 = time.perf_counter()
            try:
                out = client.solve(
                    item.graph, item.system, name=item.name,
                    deadline=DEADLINE_SECONDS, max_expansions=MAX_EXPANSIONS,
                )
            except Exception:  # noqa: BLE001 - an unanswered request is
                # exactly what availability measures; count, don't crash.
                with lock:
                    counts["errors"] += 1
                continue
            elapsed = time.perf_counter() - t0
            with lock:
                latencies.append(elapsed)
                counts["answered"] += 1
                if out.get("result", {}).get("certificate") == "degraded":
                    counts["degraded"] += 1

    reaper = threading.Thread(target=killer, daemon=True)
    reaper.start()
    t0 = time.perf_counter()
    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    wall = time.perf_counter() - t0
    stop.set()
    reaper.join(timeout=10)
    latencies.sort()
    return {
        "requests": len(stream),
        "wall_seconds": wall,
        "requests_per_second": len(stream) / wall,
        "worker_kills": kills[0],
        "availability": counts["answered"] / len(stream),
        "answered": counts["answered"],
        "degraded": counts["degraded"],
        "errors": counts["errors"],
        "p50_seconds": _quantile(latencies, 0.50),
        "p99_seconds": _quantile(latencies, 0.99),
    }


def run_server_bench(
    *, requests: int = 200, solver_workers: int = 2,
    client_threads: int = CLIENT_THREADS,
) -> dict[str, object]:
    """Cold + warm daemon passes plus the per-request dispatch baseline."""
    stream = build_stream(requests)
    options = SolveOptions(
        deadline=DEADLINE_SECONDS, max_expansions=MAX_EXPANSIONS)

    server = SolverServer(
        port=0, solver_workers=solver_workers,
        queue_limit=max(64, requests), options=options,
    )
    thread = server.serve_in_thread()
    client = ServerClient(port=server.port, timeout=600)
    try:
        cold = _serve_stream(client, stream, client_threads)
        warm = _serve_stream(client, stream, client_threads)
        # Fault-injection soak: fresh (uncached) instances so the pool
        # is genuinely busy while the killer thread takes workers down.
        soak_stream = [
            BatchItem(
                name=f"soak-v{v}-ccr{ccr}-s{s}",
                graph=paper_random_graph(
                    PaperGraphSpec(num_nodes=v, ccr=ccr, seed=s + 100)
                ),
                system=ProcessorSystem.fully_connected(4),
            )
            for v, ccr, s in UNIQUE_COORDS
        ]
        soak = _soak_with_worker_kills(
            client, server, soak_stream, client_threads
        )
        metrics = client.metrics()
    finally:
        server.shutdown()
        thread.join(timeout=300)

    # Baseline A (the gate): the same stream at the same client
    # concurrency, but every request is an independent run_batch call
    # on its own transient pool.  A shared (in-memory) cache is the
    # only cross-request state — there is no in-flight dedupe, so
    # duplicates arriving while their twin is mid-solve are re-solved,
    # and every request pays the per-call pool lifecycle.
    from repro.parallel.mp_backend import SolverPool

    cache = ResultCache()
    index = {"next": 0}
    lock = threading.Lock()
    solved_counts: list[int] = []

    def dispatch_worker() -> None:
        while True:
            with lock:
                i = index["next"]
                if i >= len(stream):
                    return
                index["next"] = i + 1
            item = stream[i]
            with SolverPool(solver_workers) as transient:
                report = run_batch(
                    [item], cache=cache, pool=transient, options=options,
                )
            with lock:
                solved_counts.append(report.solved)

    t0 = time.perf_counter()
    dispatchers = [
        threading.Thread(target=dispatch_worker) for _ in range(client_threads)
    ]
    for t in dispatchers:
        t.start()
    for t in dispatchers:
        t.join()
    per_request_wall = time.perf_counter() - t0
    per_request = {
        "requests": len(stream),
        "wall_seconds": per_request_wall,
        "requests_per_second": len(stream) / per_request_wall,
        "solved": sum(solved_counts),
        "redundant_solves": sum(solved_counts) - len(UNIQUE_COORDS),
    }

    # Baseline B (informational): plain in-process run_batch per
    # request — no pool, no HTTP; the single-core floor.
    with tempfile.TemporaryDirectory() as tmp:
        with ResultCache(Path(tmp) / "in_process.db") as cache:
            t0 = time.perf_counter()
            for item in stream:
                run_batch([item], cache=cache, options=options)
            in_process_wall = time.perf_counter() - t0
    in_process = {
        "requests": len(stream),
        "wall_seconds": in_process_wall,
        "requests_per_second": len(stream) / in_process_wall,
    }

    warm_speedup = warm["requests_per_second"] / cold["requests_per_second"]
    pool_advantage = (
        cold["requests_per_second"] / per_request["requests_per_second"]
    )
    return {
        "requests": requests,
        "unique_instances": len(UNIQUE_COORDS),
        "solver_workers": solver_workers,
        "client_threads": client_threads,
        "cpu_count": os.cpu_count(),
        "deadline_seconds": DEADLINE_SECONDS,
        "max_expansions": MAX_EXPANSIONS,
        "passes": [
            {"pass": "cold", **cold},
            {"pass": "warm", **warm},
            {"pass": "fault_soak", **soak},
            {"pass": "per_request_run_batch", **per_request},
            {"pass": "in_process_run_batch", **in_process},
        ],
        "cold_requests_per_second": cold["requests_per_second"],
        "warm_requests_per_second": warm["requests_per_second"],
        "per_request_requests_per_second": per_request["requests_per_second"],
        "in_process_requests_per_second": in_process["requests_per_second"],
        "warm_speedup": warm_speedup,
        "persistent_pool_advantage": pool_advantage,
        "soak_availability": soak["availability"],
        "soak_p99_seconds": soak["p99_seconds"],
        "soak_worker_kills": soak["worker_kills"],
        "soak_degraded": soak["degraded"],
        "server_jobs": metrics["jobs"],
        "server_failures": metrics.get("failures", {}),
        "server_engines": metrics["engines"],
    }


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--solver-workers", type=int, default=2)
    parser.add_argument("--client-threads", type=int, default=CLIENT_THREADS)
    parser.add_argument("--out", type=Path, default=RESULTS_PATH)
    args = parser.parse_args(argv)

    report = run_server_bench(
        requests=args.requests, solver_workers=args.solver_workers,
        client_threads=args.client_threads,
    )

    from repro.util.tables import render_table

    rows = [
        [p["pass"], p["requests"], p["wall_seconds"], p["requests_per_second"]]
        for p in report["passes"]
    ]
    print(render_table(
        ["pass", "requests", "seconds", "req/s"],
        rows, title="solver daemon sustained throughput", float_fmt="{:.3f}",
    ))
    print(f"\nwarm-cache speedup        : {report['warm_speedup']:.1f}x "
          f"(floor {WARM_SPEEDUP_FLOOR}x)")
    print(f"persistent-pool advantage : "
          f"{report['persistent_pool_advantage']:.2f}x over per-request "
          f"run_batch (floor 1x)")
    naive = report["passes"][3]
    print(f"naive redundant solves    : {naive['redundant_solves']} "
          f"(daemon: 0 — in-flight dedupe)")
    print(f"fault soak                : availability "
          f"{report['soak_availability']:.3f} across "
          f"{report['soak_worker_kills']} worker kill(s), "
          f"{report['soak_degraded']} degraded answer(s), "
          f"p99 {report['soak_p99_seconds']:.3f}s")

    entry = {
        "bench": "server",
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
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

    failed = False
    if report["warm_speedup"] < WARM_SPEEDUP_FLOOR:
        print("FAIL: warm-cache speedup below the acceptance floor",
              file=sys.stderr)
        failed = True
    if report["persistent_pool_advantage"] <= 1.0:
        print("FAIL: persistent-pool serving did not beat per-request "
              "run_batch dispatch", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
