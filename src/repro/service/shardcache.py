"""Pluggable persistence backends for the result cache.

:class:`~repro.service.cache.ResultCache` is a two-tier structure: a
bounded in-memory LRU in front of an optional durable store.  This
module is the second tier made pluggable — a small
:class:`CacheBackend` interface plus the SQLite implementation that
used to live inline in ``cache.py``.  The split exists for the sharded
fleet (:mod:`repro.service.router`): shard daemons can point at a
*shared* store (``SQLiteBackend(path, shared=True)``, WAL journal +
busy timeout, safe across processes), so when the router fails a
request over to another shard after a crash, the replay hits a warm
result instead of re-running the search.

Error contract (what :class:`ResultCache` relies on):

* ``load``/``store``/``count``/``contains``/``probe`` raise
  :class:`CacheBackendError` for *store-level* failures (corrupt file,
  dead connection) — the cache counts those as stale and keeps serving
  from memory.
* Undecodable **payloads** (schema drift, crash-mangled rows) read as
  ``None`` — a miss, never an exception: the caller falls through to
  the solver whose fresh result then overwrites the bad row.
* Caller bugs (e.g. an entry whose stats are not JSON-serializable)
  propagate unchanged — they are not storage faults and must not be
  silently absorbed.

:class:`CacheEntry` lives here (not in ``cache.py``) purely to keep
the import direction single-file: backends serialize entries, the
cache builds on backends.  ``repro.service.cache`` re-exports both
names, so existing imports keep working.
"""

from __future__ import annotations

import abc
import json
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.graph.taskgraph import TaskGraph

__all__ = [
    "CacheEntry",
    "CacheBackendError",
    "CacheBackend",
    "SQLiteBackend",
    "backend_from_spec",
]


@dataclass(frozen=True)
class CacheEntry:
    """One cached solve, in canonical node space."""

    fingerprint: str
    assignment: tuple[tuple[int, float], ...]  # (pe, start) per canonical pos
    makespan: float
    certificate: str  # "proven" | "epsilon" | "budget" | "degraded"
    bound: float
    algorithm: str
    stats: dict[str, float] = field(default_factory=dict)
    created: float = 0.0

    @property
    def proven(self) -> bool:
        """True when the cached schedule carries an optimality proof."""
        return self.certificate == "proven"

    def fits(self, graph: TaskGraph) -> bool:
        """True when the entry places every node of ``graph``.

        Every site that serves a stored entry checks this first: an
        entry that does not cover the instance (a fingerprint collision
        or a mangled row) must never be replayed onto it.
        """
        return len(self.assignment) == graph.num_nodes

    def better_than(self, other: "CacheEntry") -> bool:
        """Replacement order: proof first, then makespan."""
        if self.proven != other.proven:
            return self.proven
        return self.makespan < other.makespan

    #: Payload schema version; bump on any CacheEntry field change so
    #: stores written by other code versions read as misses, not crashes.
    SCHEMA = 1

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe payload (used by the SQLite store and reports)."""
        return {
            "schema": self.SCHEMA,
            "fingerprint": self.fingerprint,
            "assignment": [[pe, start] for pe, start in self.assignment],
            "makespan": self.makespan,
            "certificate": self.certificate,
            "bound": self.bound,
            "algorithm": self.algorithm,
            "stats": self.stats,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CacheEntry":
        if data.get("schema") != cls.SCHEMA:
            raise ValueError(f"unsupported cache payload schema {data.get('schema')!r}")
        return cls(
            fingerprint=data["fingerprint"],
            assignment=tuple(
                (int(pe), float(start)) for pe, start in data["assignment"]
            ),
            makespan=float(data["makespan"]),
            certificate=data["certificate"],
            bound=float(data["bound"]),
            algorithm=data["algorithm"],
            stats=dict(data.get("stats", {})),
            created=float(data.get("created", 0.0)),
        )


class CacheBackendError(RuntimeError):
    """A store-level backend failure (corrupt file, dead connection).

    :class:`~repro.service.cache.ResultCache` treats these like a stale
    read: counted, never fatal — the memory tier keeps serving.
    """


class CacheBackend(abc.ABC):
    """The durable tier behind :class:`ResultCache`'s in-memory LRU."""

    #: Short backend family name, surfaced in ``describe()`` and logs.
    kind: str = "backend"

    @abc.abstractmethod
    def load(self, fingerprint: str) -> CacheEntry | None:
        """Return the stored entry, or ``None`` when absent *or* when
        the stored payload is undecodable (schema drift reads as a
        miss).  Raises :class:`CacheBackendError` on store failure."""

    @abc.abstractmethod
    def store(self, entry: CacheEntry) -> None:
        """Durably upsert ``entry`` (last write wins; the replacement
        policy — proof first, then makespan — is the cache's job).
        Raises :class:`CacheBackendError` on store failure."""

    @abc.abstractmethod
    def count(self) -> int:
        """Number of durable entries."""

    @abc.abstractmethod
    def contains(self, fingerprint: str) -> bool:
        """Membership test without deserializing the payload."""

    def probe(self) -> None:
        """Verify the store is *writable* — the deep-readiness check
        (``/healthz?deep=1``).  Raises :class:`CacheBackendError` when
        it is not.  Default: nothing durable to verify."""

    def close(self) -> None:
        """Release resources; idempotent.  Default: nothing to release."""

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; operations may fail afterwards."""
        return False

    def describe(self) -> str:
        """Human-readable location, for ``repr`` and readiness lines."""
        return self.kind

    def __enter__(self) -> "CacheBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SQLiteBackend(CacheBackend):
    """The historical durable tier: one SQLite file.

    Parameters
    ----------
    path:
        Database file (created on first use).
    shared:
        Tune the connection for *multi-process* sharing — the fleet
        mode, where every shard daemon opens the same file.  Turns on
        WAL journaling (readers never block the single writer) and a
        busy timeout (a write colliding with another shard's commit
        retries for up to :data:`_BUSY_TIMEOUT_S` instead of raising
        ``database is locked``).  Off by default: the single-daemon
        layout keeps the exact pre-fleet journal behavior.
    """

    kind = "sqlite"

    #: Seconds a shared-mode connection waits on a locked database
    #: before surfacing the lock as a store failure.
    _BUSY_TIMEOUT_S = 5.0

    def __init__(self, path: str | Path, *, shared: bool = False) -> None:
        self.path = Path(path)
        self.shared = shared
        # check_same_thread=False: the daemon constructs the cache on
        # its event-loop thread but routes all get/put I/O through a
        # dedicated single-worker cache executor (see
        # repro.service.jobs), so the connection crosses threads.
        # CPython's sqlite3 is built in serialized mode
        # (threadsafety == 3), making the shared handle safe; the
        # single-worker executor keeps writes strictly ordered.
        self._db: sqlite3.Connection | None = sqlite3.connect(
            str(self.path),
            check_same_thread=False,
            timeout=self._BUSY_TIMEOUT_S if shared else 5.0,
        )
        # Switching a fresh file to WAL does not wait out the busy
        # timeout: when several processes open one new store at once,
        # the losers get "database is locked" straight away.  Retry
        # those, for no longer than the busy timeout itself.
        give_up = time.monotonic() + self._BUSY_TIMEOUT_S
        while True:
            try:
                if shared:
                    self._db.execute("PRAGMA journal_mode=WAL")
                self._db.execute(
                    "CREATE TABLE IF NOT EXISTS results ("
                    " fingerprint TEXT PRIMARY KEY,"
                    " payload TEXT NOT NULL,"
                    " makespan REAL NOT NULL,"
                    " proven INTEGER NOT NULL,"
                    " created REAL NOT NULL)"
                )
                self._db.commit()
                return
            except sqlite3.DatabaseError as exc:
                if "locked" in str(exc) and time.monotonic() < give_up:
                    time.sleep(0.01)
                    continue
                raise CacheBackendError(
                    f"cannot open store {self.path}: {exc}") from exc

    @property
    def connection(self) -> sqlite3.Connection | None:
        """The live handle (``None`` once closed); exposed for the
        cache's backward-compatible ``_db`` property."""
        return self._db

    def _conn(self) -> sqlite3.Connection:
        if self._db is None:
            raise CacheBackendError(f"store {self.path} is closed")
        return self._db

    def load(self, fingerprint: str) -> CacheEntry | None:
        try:
            row = self._conn().execute(
                "SELECT payload FROM results WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            raise CacheBackendError(f"load failed: {exc}") from exc
        if row is None:
            return None
        try:
            return CacheEntry.from_dict(json.loads(row[0]))
        except (ValueError, KeyError, TypeError):
            # Covers json.JSONDecodeError (a ValueError), schema
            # mismatches, and structurally-wrong payloads: a bad
            # payload is a miss, not a fault — the solver's fresh
            # result overwrites it.
            return None

    def store(self, entry: CacheEntry) -> None:
        # Serialize BEFORE touching the connection: a non-serializable
        # entry (caller bug) must propagate as-is, not masquerade as a
        # storage fault.
        payload = json.dumps(entry.as_dict())
        try:
            conn = self._conn()
            conn.execute(
                "INSERT OR REPLACE INTO results"
                " (fingerprint, payload, makespan, proven, created)"
                " VALUES (?, ?, ?, ?, ?)",
                (
                    entry.fingerprint,
                    payload,
                    entry.makespan,
                    int(entry.proven),
                    entry.created,
                ),
            )
            conn.commit()
        except sqlite3.DatabaseError as exc:
            raise CacheBackendError(f"store failed: {exc}") from exc

    def count(self) -> int:
        try:
            row = self._conn().execute("SELECT COUNT(*) FROM results").fetchone()
        except sqlite3.DatabaseError as exc:
            raise CacheBackendError(f"count failed: {exc}") from exc
        return int(row[0])

    def contains(self, fingerprint: str) -> bool:
        try:
            return (
                self._conn().execute(
                    "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
                ).fetchone()
                is not None
            )
        except sqlite3.DatabaseError as exc:
            raise CacheBackendError(f"contains failed: {exc}") from exc

    def probe(self) -> None:
        """Round-trip a write through a scratch table: proves the file
        is present, the journal is writable, and (in shared mode) the
        lock is obtainable — exactly what a result put will need."""
        try:
            conn = self._conn()
            conn.execute(
                "CREATE TABLE IF NOT EXISTS probe (k INTEGER PRIMARY KEY, v REAL)"
            )
            conn.execute("INSERT OR REPLACE INTO probe (k, v) VALUES (0, 0.0)")
            conn.commit()
        except sqlite3.DatabaseError as exc:
            raise CacheBackendError(f"probe write failed: {exc}") from exc

    def close(self) -> None:
        if self._db is not None:
            self._db.close()
            self._db = None

    @property
    def closed(self) -> bool:
        return self._db is None

    def describe(self) -> str:
        mode = "shared sqlite" if self.shared else "sqlite"
        return f"{mode}:{self.path}"


def backend_from_spec(
    spec: "str | Path | CacheBackend | None",
) -> CacheBackend | None:
    """Resolve a CLI/embedding cache spec into a backend.

    ``None`` or ``"memory"``
        No durable tier (the cache stays purely in-memory).
    ``"shared:PATH"``
        :class:`SQLiteBackend` in multi-process shared mode — the
        fleet layout where every shard opens the same store.
    any other string / ``Path``
        :class:`SQLiteBackend` on that file (historical behavior).
    a :class:`CacheBackend`
        Passed through unchanged.
    """
    if spec is None:
        return None
    if isinstance(spec, CacheBackend):
        return spec
    if isinstance(spec, Path):
        return SQLiteBackend(spec)
    if spec == "memory" or spec == "":
        return None
    if spec.startswith("shared:"):
        target = spec.removeprefix("shared:")
        if not target:
            raise ValueError("shared: cache spec needs a path, got 'shared:'")
        return SQLiteBackend(target, shared=True)
    return SQLiteBackend(spec)
