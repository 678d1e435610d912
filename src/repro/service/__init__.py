"""The solver service layer: the engines packaged as a request server.

The search engines under :mod:`repro.search` answer one instance at a
time; this package turns the collection into something that can serve
traffic:

* canonical instance identity — a stable 128-bit key for (graph,
  system, cost model) invariant under node relabeling, so identical
  problems hash identically however the caller numbered their tasks;
  it lives in :mod:`repro.schedule.fingerprint` (it has no
  service-layer dependencies), the one import path for it;
* :mod:`repro.service.cache` — a persistent result cache (in-memory LRU
  in front of an optional SQLite store) keyed by fingerprint, storing
  the schedule, its optimality certificate, and the search counters;
* :mod:`repro.service.portfolio` — a deadline-driven portfolio solver
  that races a list-schedule incumbent, a weighted-A* improver, and an
  exact engine (seeded with the incumbent bound), plus the static
  engine-selection heuristic for the single-engine fast path;
* :mod:`repro.service.batch` — the batch front-end: solve a directory,
  a JSON-lines stream, or the §4.1 suite with fingerprint-level request
  deduplication, cache reuse, and multi-process dispatch; it also holds
  :class:`SolveOptions`, the one record of solver options every
  front-end builds, validates and carries;
* :mod:`repro.service.server` / :mod:`repro.service.jobs` — the solver
  daemon (``repro serve``): an asyncio HTTP front-end with a persistent
  worker pool, bounded admission queue, in-flight dedupe fan-out, and
  graceful SIGTERM drain;
* :mod:`repro.service.client` — a small blocking client for the daemon;
* :mod:`repro.service.router` / :mod:`repro.service.shardcache` /
  :mod:`repro.service.fleet` — the fleet layer (``repro route``):
  consistent-hash routing of fingerprints across N shard daemons with
  health probing, per-shard circuit breakers, failover, drain/rejoin,
  pluggable (shareable) cache backends, and local shard supervision.
"""

from repro.service.batch import (
    BatchItem,
    BatchReport,
    ItemOutcome,
    SolveOptions,
    item_from_request,
    items_from_suite,
    load_items,
    run_batch,
)
from repro.service.cache import CacheEntry, ResultCache
from repro.service.client import DaemonUnavailable, ServerClient, ServerError
from repro.service.fleet import ShardProcess, spawn_fleet, spawn_shard
from repro.service.jobs import Draining, Job, JobManager, QueueFull
from repro.service.portfolio import (
    PortfolioResult,
    StageReport,
    portfolio_schedule,
    select_engine,
    solve_auto,
)
from repro.service.router import CircuitBreaker, HashRing, Shard, ShardRouter
from repro.service.server import SolverServer
from repro.service.shardcache import (
    CacheBackend,
    CacheBackendError,
    SQLiteBackend,
    backend_from_spec,
)

__all__ = [
    "BatchItem",
    "BatchReport",
    "CacheBackend",
    "CacheBackendError",
    "CacheEntry",
    "CircuitBreaker",
    "Draining",
    "HashRing",
    "ItemOutcome",
    "Job",
    "JobManager",
    "PortfolioResult",
    "QueueFull",
    "ResultCache",
    "SQLiteBackend",
    "ServerClient",
    "ServerError",
    "DaemonUnavailable",
    "Shard",
    "ShardProcess",
    "ShardRouter",
    "SolveOptions",
    "SolverServer",
    "StageReport",
    "backend_from_spec",
    "item_from_request",
    "items_from_suite",
    "load_items",
    "portfolio_schedule",
    "run_batch",
    "select_engine",
    "solve_auto",
    "spawn_fleet",
    "spawn_shard",
]
