"""Persistent result cache keyed by instance fingerprint.

The paper's introduction motivates optimal schedules partly by reuse
("once an optimal schedule for a given problem is determined, it can be
re-used"); this cache is that reuse made operational.  Results live in
an in-memory LRU (bounded, O(1) touch) in front of an optional durable
tier, so a warm service answers repeated instances without searching
and survives restarts.

The durable tier is pluggable (:mod:`repro.service.shardcache`):
SQLite by default, including a multi-process *shared* mode the sharded
fleet uses so a failover replay on another shard hits a warm result.
:class:`CacheEntry` is defined in ``shardcache`` (backends serialize
it) and re-exported here for compatibility.

Entries store the *canonical* assignment (per canonical node position,
see :mod:`repro.schedule.fingerprint`), the makespan, the optimality
certificate, and the search counters.  Storing in canonical space is
what makes the cache relabeling-proof: a hit computed for one node
numbering replays onto any permutation of the same instance.

Write policy: a new entry replaces an existing one only when it is
*better* — a proven certificate beats an unproven one, then shorter
makespan wins.  Read policy: ``get(..., require_proven=True)`` treats
unproven entries as **stale** (counted, not returned), so callers that
need certificates transparently fall through to the solver which then
overwrites the stale entry.

Threads: one lock guards the memory tier and the counters, so
:meth:`ResultCache.memory_hit` and :meth:`~ResultCache.counters` may
run on one thread (the daemon's event loop) while
:meth:`~ResultCache.get` and :meth:`~ResultCache.put` run on another
(its cache thread).  The lock is never held across durable-tier I/O or
a fault point: a wedged store blocks only the thread doing the I/O,
and the durable tier's size is kept in memory so reading the counters
never touches the store.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

from repro.service.shardcache import (
    CacheBackend,
    CacheBackendError,
    CacheEntry,
    backend_from_spec,
)
from repro.testing import faults

__all__ = ["CacheEntry", "ResultCache", "CacheBackend", "CacheBackendError"]


class ResultCache:
    """LRU-fronted, optionally persistent fingerprint -> result cache.

    Parameters
    ----------
    path:
        The durable tier: a SQLite file path, a ``"shared:PATH"`` spec
        (multi-process shared store, see
        :class:`~repro.service.shardcache.SQLiteBackend`), a ready
        :class:`~repro.service.shardcache.CacheBackend`, or ``None`` /
        ``"memory"`` for a purely in-memory cache (still LRU-bounded).
        The cache owns whatever backend it ends up with —
        :meth:`close` closes it; give each cache its own backend
        instance (cross-*process* sharing goes through the shared
        SQLite file, not a shared Python object).
    capacity:
        Maximum entries held in memory.  The durable store is
        unbounded — evicted entries remain there and reload on demand.

    Counters: :attr:`hits` (entry served), :attr:`misses` (nothing
    stored), :attr:`stale` (entry present but rejected by
    ``require_proven``, or a store-level backend failure absorbed), and
    :attr:`stored_entries`.
    """

    def __init__(
        self,
        path: str | Path | CacheBackend | None = None,
        *,
        capacity: int = 512,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._mem: OrderedDict[str, CacheEntry] = OrderedDict()
        #: Guards ``_mem`` and the three counters (see the module notes).
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self._backend = backend_from_spec(path)
        self.path = getattr(self._backend, "path", None)
        # The durable tier's size, read once here and raised by each put
        # that adds a row, so the counters never wait on the store.  A
        # store that cannot count at open starts from 0.
        self._stored = 0
        if self._backend is not None:
            try:
                self._stored = self._backend.count()
            except CacheBackendError:
                pass

    @property
    def backend(self) -> CacheBackend | None:
        """The durable tier (``None`` for memory-only caches)."""
        return self._backend

    def _store_open(self) -> bool:
        """True while the durable tier can be used."""
        return self._backend is not None and not self._backend.closed

    # -- core protocol -------------------------------------------------------

    def memory_hit(
        self, fingerprint: str, *, require_proven: bool = False
    ) -> CacheEntry | None:
        """The memory tier's servable entry for ``fingerprint``, or ``None``.

        No I/O and no fault point, so it is safe on a thread that must
        never block.  Only a hit is counted: ``None`` means "not
        answered here", and the caller follows it with :meth:`get`,
        which counts the miss or the stale entry.
        """
        with self._lock:
            entry = self._mem.get(fingerprint)
            if entry is None or (require_proven and not entry.proven):
                return None
            return self._serve(entry, require_proven)

    def get(
        self, fingerprint: str, *, require_proven: bool = False
    ) -> CacheEntry | None:
        """Look up a fingerprint; updates LRU order and counters."""
        faults.sleep_point("cache-slow")
        faults.raise_point("cache-get-error")
        with self._lock:
            entry = self._mem.get(fingerprint)
            if entry is not None:
                return self._serve(entry, require_proven)
        entry = self._load(fingerprint) if self._store_open() else None
        with self._lock:
            if entry is None:
                self.misses += 1
                return None
            self._admit(entry)
            return self._serve(entry, require_proven)

    def _serve(
        self, entry: CacheEntry, require_proven: bool
    ) -> CacheEntry | None:
        """Count one answered lookup of a present entry (lock held)."""
        if require_proven and not entry.proven:
            self.stale += 1
            return None
        self._mem.move_to_end(entry.fingerprint)
        self.hits += 1
        return entry

    def put(self, entry: CacheEntry) -> bool:
        """Store an entry; returns False when an existing one is better."""
        faults.sleep_point("cache-slow")
        faults.raise_point("cache-put-error")
        if entry.created == 0.0:
            entry = replace(entry, created=time.time())
        with self._lock:
            current = self._mem.get(entry.fingerprint)
        if current is None and self._store_open():
            current = self._load(entry.fingerprint)
        if current is not None and not entry.better_than(current):
            return False
        with self._lock:
            self._admit(entry)
        if self._store_open():
            try:
                self._backend.store(entry)  # type: ignore[union-attr]
                if current is None:
                    with self._lock:
                        self._stored += 1
            except CacheBackendError:
                # A corrupt store must not abort the batch: the entry
                # stays served from the memory tier, the broken write is
                # counted like a stale read.  Caller bugs (e.g. a
                # non-serializable entry) are NOT backend errors and
                # propagate unchanged.
                with self._lock:
                    self.stale += 1
        return True

    def _load(self, fingerprint: str) -> CacheEntry | None:
        """Read one persisted entry; corruption reads as a miss.

        A store written by a different code version (schema mismatch)
        or a payload mangled by a crash reads as ``None`` inside the
        backend; a store whose *file* is broken raises
        :class:`CacheBackendError`, absorbed here — either way the
        caller falls through to the solver, whose fresh result then
        overwrites the bad row.  Store-level failures are counted in
        :attr:`stale`: an entry was (nominally) present but unusable.
        """
        try:
            return self._backend.load(fingerprint)  # type: ignore[union-attr]
        except CacheBackendError:
            with self._lock:
                self.stale += 1
            return None

    def _admit(self, entry: CacheEntry) -> None:
        """Insert into the LRU tier, evicting least-recently-used (call
        with the lock held)."""
        self._mem[entry.fingerprint] = entry
        self._mem.move_to_end(entry.fingerprint)
        while len(self._mem) > self.capacity:
            self._mem.popitem(last=False)

    # -- introspection -------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Hit/miss/stale counters plus sizes, for reports.  Reads
        memory only, so it never blocks on the durable tier."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stale": self.stale,
                "memory_entries": len(self._mem),
                "stored_entries": self.stored_entries,
            }

    @property
    def stored_entries(self) -> int:
        """Entries in the durable tier (= memory tier when none): the
        count read at open plus the rows this cache's puts added.  Rows
        another process adds to a shared store show after a reopen."""
        if not self._store_open():
            return len(self._mem)
        return self._stored

    def probe(self) -> None:
        """Deep-readiness check: prove a future ``put`` would land.

        Runs on the daemon's cache thread for ``/healthz?deep=1``:
        verifies the durable tier is *writable* (not just present) by
        round-tripping a scratch write.  Raises
        :class:`CacheBackendError` on failure; a memory-only or
        already-closed cache trivially passes (puts degrade to the
        memory tier by design).
        """
        faults.sleep_point("cache-slow")
        faults.raise_point("cache-probe-error")
        if self._store_open():
            self._backend.probe()  # type: ignore[union-attr]

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, fingerprint: str) -> bool:
        if fingerprint in self._mem:
            return True
        if not self._store_open():
            return False
        return self._backend.contains(fingerprint)  # type: ignore[union-attr]

    def close(self) -> None:
        """Close the durable tier (no-op for in-memory caches)."""
        if self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        tier = self._backend.describe() if self._backend else "memory"
        return (
            f"ResultCache({len(self._mem)}/{self.capacity} in memory, "
            f"store={tier}, hits={self.hits}, misses={self.misses})"
        )
