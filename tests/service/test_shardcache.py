"""The pluggable cache-backend layer under :class:`ResultCache`.

The fleet mode leans on two properties tested here: backend selection
via the one-string spec grammar (``repro serve --cache``), and the
``shared:`` SQLite mode letting several shard processes read each
other's results — failover replays must warm-hit on the substitute
shard.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import sqlite3

import pytest

from repro.service.cache import ResultCache
from repro.service.shardcache import (
    CacheBackend,
    CacheBackendError,
    CacheEntry,
    SQLiteBackend,
    backend_from_spec,
)


def entry_for(fp: str, makespan: float = 10.0, proven: bool = True):
    return CacheEntry(
        fingerprint=fp,
        assignment=((0, 0.0),),
        makespan=makespan,
        certificate="proven" if proven else "epsilon",
        bound=makespan if proven else makespan - 1,
        algorithm="astar",
        stats={"expanded": 1},
    )


class TestSpecGrammar:
    def test_none_and_memory_mean_no_backend(self):
        assert backend_from_spec(None) is None
        assert backend_from_spec("") is None
        assert backend_from_spec("memory") is None

    def test_path_makes_private_sqlite(self, tmp_path):
        backend = backend_from_spec(tmp_path / "c.db")
        try:
            assert isinstance(backend, SQLiteBackend)
            assert not backend.shared
        finally:
            backend.close()

    def test_shared_prefix_makes_shared_sqlite(self, tmp_path):
        backend = backend_from_spec(f"shared:{tmp_path / 'c.db'}")
        try:
            assert isinstance(backend, SQLiteBackend)
            assert backend.shared
        finally:
            backend.close()

    def test_bare_shared_prefix_rejected(self):
        with pytest.raises(ValueError, match="shared:"):
            backend_from_spec("shared:")

    def test_backend_instance_passes_through(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        try:
            assert backend_from_spec(backend) is backend
        finally:
            backend.close()


class TestSQLiteBackend:
    def test_round_trip(self, tmp_path):
        with SQLiteBackend(tmp_path / "c.db") as backend:
            entry = entry_for("ab" * 16)
            backend.store(entry)
            got = backend.load(entry.fingerprint)
            assert got is not None and got.makespan == 10.0
            assert backend.count() == 1
            assert backend.contains(entry.fingerprint)
            assert not backend.contains("cd" * 16)

    def test_probe_round_trips_a_write(self, tmp_path):
        with SQLiteBackend(tmp_path / "c.db") as backend:
            backend.probe()  # no exception == writable

    def test_probe_after_close_raises(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        backend.close()
        assert backend.closed
        with pytest.raises(CacheBackendError):
            backend.probe()

    def test_shared_mode_uses_wal(self, tmp_path):
        path = tmp_path / "c.db"
        with SQLiteBackend(path, shared=True):
            # WAL is a property of the file: a second handle sees it.
            with contextlib.closing(sqlite3.connect(path)) as db:
                mode = db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"

    def test_two_connections_see_each_others_writes(self, tmp_path):
        """The shared-mode contract inside one process: a second
        backend on the same file reads the first one's stores."""
        path = tmp_path / "c.db"
        with SQLiteBackend(path, shared=True) as writer, \
                SQLiteBackend(path, shared=True) as reader:
            writer.store(entry_for("ab" * 16, makespan=7.0))
            got = reader.load("ab" * 16)
            assert got is not None and got.makespan == 7.0


def _store_in_child(path: str, fp: str) -> None:
    with SQLiteBackend(path, shared=True) as backend:
        backend.store(entry_for(fp, makespan=3.0))


class TestSharedAcrossProcesses:
    def test_child_process_write_is_visible(self, tmp_path):
        """The actual fleet topology: another *process* stores a
        result; this process's read-through cache serves it as a hit."""
        path = tmp_path / "fleet.db"
        fp = "12" * 16
        ctx = mp.get_context("spawn")
        child = ctx.Process(target=_store_in_child, args=(str(path), fp))
        child.start()
        child.join(60)
        assert child.exitcode == 0
        with ResultCache(f"shared:{path}") as cache:
            got = cache.get(fp)
            assert got is not None and got.makespan == 3.0
            assert cache.counters()["hits"] == 1


class TestResultCacheOverBackends:
    def test_cache_accepts_backend_instance(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        with ResultCache(backend) as cache:
            cache.put(entry_for("ef" * 16))
            assert cache.get("ef" * 16) is not None
        assert backend.closed  # cache owns and closes its backend

    def test_cache_shared_spec_repr_mentions_shared(self, tmp_path):
        with ResultCache(f"shared:{tmp_path / 'c.db'}") as cache:
            assert "shared" in repr(cache)

    def test_memory_tier_serves_when_backend_breaks(self, tmp_path):
        """A backend that starts failing costs durability, not
        correctness: entries admitted to memory keep being served."""

        class Flaky(CacheBackend):
            kind = "flaky"
            broken = False

            def load(self, fingerprint):
                if self.broken:
                    raise CacheBackendError("backend offline")
                return None

            def store(self, entry):
                if self.broken:
                    raise CacheBackendError("backend offline")

            def count(self):
                return 0

            def contains(self, fingerprint):
                return False

        backend = Flaky()
        cache = ResultCache(backend)
        cache.put(entry_for("aa" * 16))
        backend.broken = True
        cache.put(entry_for("bb" * 16))  # store fails -> stale, no raise
        assert cache.get("aa" * 16) is not None
        assert cache.get("bb" * 16) is not None
        assert cache.counters()["stale"] >= 1

    def test_undecodable_row_is_a_miss(self, tmp_path):
        path = tmp_path / "c.db"
        with SQLiteBackend(path) as backend:
            backend.store(entry_for("cd" * 16))
            conn = sqlite3.connect(path)
            conn.execute("UPDATE results SET payload = 'not json'")
            conn.commit()
            conn.close()
            assert backend.load("cd" * 16) is None
