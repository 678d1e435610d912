"""Result cache: LRU behaviour, persistence, and replacement policy."""

import threading
import time
from collections import OrderedDict

import pytest

from repro.service.cache import CacheEntry, ResultCache
from repro.testing import lockcheck


def entry(fp: str, makespan: float = 10.0, certificate: str = "proven",
          algorithm: str = "astar") -> CacheEntry:
    return CacheEntry(
        fingerprint=fp,
        assignment=((0, 0.0), (1, 2.0)),
        makespan=makespan,
        certificate=certificate,
        bound=1.0 if certificate == "proven" else float("inf"),
        algorithm=algorithm,
    )


class TestMemoryTier:
    def test_round_trip(self):
        cache = ResultCache()
        assert cache.get("aa") is None
        assert cache.put(entry("aa"))
        got = cache.get("aa")
        assert got is not None
        assert got.assignment == ((0, 0.0), (1, 2.0))
        assert got.proven
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(entry("aa"))
        cache.put(entry("bb"))
        cache.get("aa")  # touch: aa becomes most-recent
        cache.put(entry("cc"))  # evicts bb
        assert "aa" in cache and "cc" in cache
        assert "bb" not in cache

    def test_replacement_keeps_better(self):
        cache = ResultCache()
        cache.put(entry("aa", makespan=10.0, certificate="proven"))
        # Worse certificate never replaces a proof.
        assert not cache.put(entry("aa", makespan=5.0, certificate="budget"))
        assert cache.get("aa").makespan == 10.0
        # A proof with a shorter makespan does.
        assert cache.put(entry("aa", makespan=8.0, certificate="proven"))
        assert cache.get("aa").makespan == 8.0

    def test_unproven_improves_on_unproven(self):
        cache = ResultCache()
        cache.put(entry("aa", makespan=10.0, certificate="budget"))
        assert cache.put(entry("aa", makespan=9.0, certificate="budget"))
        assert cache.put(entry("aa", makespan=12.0, certificate="proven"))
        assert cache.get("aa").makespan == 12.0

    def test_stale_counter(self):
        cache = ResultCache()
        cache.put(entry("aa", certificate="budget"))
        assert cache.get("aa", require_proven=True) is None
        assert cache.stale == 1
        assert cache.hits == 0
        # Plain reads still serve the unproven entry.
        assert cache.get("aa") is not None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class _YieldingTier(OrderedDict):
    """A memory tier that hands the GIL to the other thread inside every
    read and write, so an unlocked check-then-act sequence (a lookup
    whose entry is evicted before it is touched) actually interleaves."""

    def get(self, key, default=None):
        time.sleep(0)
        return super().get(key, default)

    def move_to_end(self, key, last=True):
        time.sleep(0)
        super().move_to_end(key, last)

    def popitem(self, last=True):
        time.sleep(0)
        return super().popitem(last)


class TestMemoryHit:
    def test_counts_only_a_hit(self):
        cache = ResultCache()
        assert cache.memory_hit("aa") is None
        assert (cache.hits, cache.misses, cache.stale) == (0, 0, 0)
        cache.put(entry("aa", certificate="budget"))
        assert cache.memory_hit("aa", require_proven=True) is None
        assert (cache.hits, cache.misses, cache.stale) == (0, 0, 0)
        assert cache.memory_hit("aa").certificate == "budget"
        assert (cache.hits, cache.misses, cache.stale) == (1, 0, 0)

    def test_touches_lru_order(self):
        cache = ResultCache(capacity=2)
        cache.put(entry("aa"))
        cache.put(entry("bb"))
        assert cache.memory_hit("aa") is not None
        cache.put(entry("cc"))  # evicts bb, the least recently used
        assert "aa" in cache and "bb" not in cache

    def test_never_reads_the_durable_tier(self, tmp_path):
        db = tmp_path / "cache.db"
        with ResultCache(db) as cache:
            cache.put(entry("aa"))
        with ResultCache(db) as reopened:
            assert reopened.memory_hit("aa") is None
            assert reopened.get("aa") is not None
            assert reopened.memory_hit("aa") is not None

    def test_races_get_put_and_eviction_on_another_thread(self):
        """The daemon answers memory hits on its event loop while the
        cache thread runs get/put; with a capacity small enough to
        evict, no lookup may raise and no counter update may be lost."""
        rounds = 3000
        fingerprints = [f"fp{i}" for i in range(12)]
        answered = []
        errors = []
        with lockcheck.guard() as checker:
            cache = ResultCache(capacity=3)
            cache._mem = _YieldingTier()

            def loop_thread():
                try:
                    hits = 0
                    for i in range(rounds):
                        fp = fingerprints[i % len(fingerprints)]
                        proven = i % 5 == 0
                        hits += cache.memory_hit(
                            fp, require_proven=proven) is not None
                    answered.append(hits)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            def cache_thread():
                try:
                    for i in range(rounds):
                        fp = fingerprints[(7 * i) % len(fingerprints)]
                        certificate = "proven" if i % 3 else "budget"
                        cache.put(entry(fp, makespan=100.0 - i % 50,
                                        certificate=certificate))
                        cache.get(fp, require_proven=i % 4 == 0)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=loop_thread),
                       threading.Thread(target=cache_thread)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        checker.assert_clean()
        assert errors == []
        assert len(answered) == 1
        # Every get() answers and counts once; a memory hit counts
        # only when it answers.
        lookups = rounds + answered[0]
        assert cache.hits + cache.misses + cache.stale == lookups
        assert len(cache) <= 3


class TestPersistentTier:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "cache.db"
        with ResultCache(path) as cache:
            cache.put(entry("aa", makespan=7.0))
        with ResultCache(path) as cache:
            got = cache.get("aa")
            assert got is not None and got.makespan == 7.0
            assert got.created > 0  # stamped on first put

    def test_eviction_does_not_lose_persisted_entries(self, tmp_path):
        path = tmp_path / "cache.db"
        with ResultCache(path, capacity=1) as cache:
            cache.put(entry("aa"))
            cache.put(entry("bb"))  # evicts aa from memory only
            assert len(cache) == 1
            assert cache.get("aa") is not None  # reloaded from SQLite
            assert cache.stored_entries == 2

    def test_replacement_policy_applies_across_tiers(self, tmp_path):
        path = tmp_path / "cache.db"
        with ResultCache(path) as cache:
            cache.put(entry("aa", makespan=10.0, certificate="proven"))
        with ResultCache(path, capacity=8) as cache:
            # Memory tier is empty; the existing proof is on disk only.
            assert not cache.put(entry("aa", makespan=5.0, certificate="budget"))
            assert cache.get("aa").makespan == 10.0

    def test_corrupt_payload_reads_as_miss_and_is_overwritable(self, tmp_path):
        import sqlite3

        path = tmp_path / "cache.db"
        with ResultCache(path) as cache:
            cache.put(entry("aa", makespan=7.0))
        db = sqlite3.connect(path)
        db.execute("UPDATE results SET payload = '{\"not\": \"an entry\"}'")
        db.commit()
        db.close()
        with ResultCache(path) as cache:
            assert cache.get("aa") is None  # miss, not a crash
            assert cache.put(entry("aa", makespan=9.0))  # overwrites bad row
            assert cache.get("aa").makespan == 9.0

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        import json as _json
        import sqlite3

        path = tmp_path / "cache.db"
        with ResultCache(path) as cache:
            cache.put(entry("aa"))
        db = sqlite3.connect(path)
        (payload,) = db.execute("SELECT payload FROM results").fetchone()
        doc = _json.loads(payload)
        doc["schema"] = 999
        db.execute("UPDATE results SET payload = ?", (_json.dumps(doc),))
        db.commit()
        db.close()
        with ResultCache(path) as cache:
            assert cache.get("aa") is None

    def test_counters_shape(self, tmp_path):
        with ResultCache(tmp_path / "c.db") as cache:
            cache.put(entry("aa"))
            cache.get("aa")
            cache.get("zz")
            counters = cache.counters()
        assert counters == {
            "hits": 1, "misses": 1, "stale": 0,
            "memory_entries": 1, "stored_entries": 1,
        }


class TestCorruptStore:
    """Regression tests (ISSUE 3): file-level SQLite corruption must
    read as a miss (counted stale), never crash a batch run."""

    def _corrupt_data_page(self, path):
        """Overwrite the table's data page, sparing page 1 (the header
        and schema), so connecting and CREATE TABLE still succeed but
        touching the row raises sqlite3.DatabaseError."""
        blob = bytearray(path.read_bytes())
        assert len(blob) > 4096, "store too small to hold a second page"
        for i in range(4096, min(len(blob), 8192)):
            blob[i] = 0xFF
        path.write_bytes(bytes(blob))

    def test_malformed_blob_reads_as_stale_miss(self, tmp_path):
        db = tmp_path / "cache.db"
        with ResultCache(db) as cache:
            cache.put(entry("aa"))
        self._corrupt_data_page(db)
        with ResultCache(db) as cache:  # schema page intact: opens fine
            assert cache.get("aa") is None  # DatabaseError absorbed
            assert cache.stale == 1
            assert cache.misses == 1

    def test_corrupt_store_does_not_abort_puts(self, tmp_path):
        db = tmp_path / "cache.db"
        with ResultCache(db) as cache:
            cache.put(entry("aa"))
        self._corrupt_data_page(db)
        with ResultCache(db) as cache:
            assert cache.put(entry("bb", makespan=7.0))  # swallowed, counted
            assert cache.stale >= 1
            # The entry is still served from the memory tier.
            assert cache.get("bb").makespan == 7.0

    def test_malformed_row_blob_injected_directly(self, tmp_path):
        """A structurally-valid DB holding a garbage payload row."""
        import sqlite3 as sql

        db = tmp_path / "cache.db"
        ResultCache(db).close()  # create the schema
        con = sql.connect(db)
        con.execute(
            "INSERT INTO results (fingerprint, payload, makespan, proven,"
            " created) VALUES (?, ?, ?, ?, ?)",
            ("aa", b"\x00\xffnot json\xfe", 1.0, 1, 0.0),
        )
        con.commit()
        con.close()
        with ResultCache(db) as cache:
            assert cache.get("aa") is None
            assert cache.misses == 1
            # The solver's fresh result overwrites the bad row.
            assert cache.put(entry("aa", makespan=4.0))
        with ResultCache(db) as cache:
            assert cache.get("aa").makespan == 4.0


class TestLifecycle:
    """Context-manager / close() behaviour under exceptions mid-put."""

    def test_exception_mid_put_closes_connection_and_db_survives(
        self, tmp_path
    ):
        db = tmp_path / "cache.db"
        bad = entry("bb")
        # stats must be JSON-serializable; an object() is not, so the
        # put raises *after* the memory admit, mid-persistence.
        bad = type(bad)(
            fingerprint=bad.fingerprint,
            assignment=bad.assignment,
            makespan=bad.makespan,
            certificate=bad.certificate,
            bound=bad.bound,
            algorithm=bad.algorithm,
            stats={"oops": object()},
        )
        with pytest.raises(TypeError):
            with ResultCache(db) as cache:
                assert cache.put(entry("aa"))
                cache.put(bad)
        assert cache.backend.closed  # __exit__ ran: no leaked connection
        # The store is intact and still readable afterwards.
        with ResultCache(db) as reopened:
            assert reopened.get("aa").makespan == 10.0
            assert reopened.get("bb") is None  # never persisted

    def test_close_is_idempotent_and_get_after_close_uses_memory(self):
        cache = ResultCache()
        cache.put(entry("aa"))
        cache.close()
        cache.close()  # no-op twice
        assert cache.get("aa") is not None  # memory tier still serves

    def test_double_close_with_persistent_store(self, tmp_path):
        db = tmp_path / "cache.db"
        cache = ResultCache(db)
        cache.put(entry("aa"))
        cache.close()
        cache.close()  # second close must not touch the dead handle
        assert cache.backend.closed
        with ResultCache(db) as reopened:
            assert reopened.get("aa").makespan == 10.0

    def test_put_after_close_degrades_to_memory_only(self, tmp_path):
        """A put racing shutdown lands in the memory tier without
        raising — the entry is simply not durable."""
        db = tmp_path / "cache.db"
        cache = ResultCache(db)
        cache.put(entry("aa"))
        cache.close()
        assert cache.put(entry("bb"))  # no crash, admitted to memory
        assert cache.get("bb") is not None
        with ResultCache(db) as reopened:
            assert reopened.get("aa") is not None  # persisted before close
            assert reopened.get("bb") is None  # post-close put was not

    def test_executor_shutdown_races_in_flight_put(self, tmp_path, monkeypatch):
        """The daemon routes cache I/O through a single-worker executor
        and shuts it down while a put may still be running (drain).  A
        slow in-flight put must complete and persist; queued work that
        shutdown cancels must not corrupt the store."""
        from concurrent.futures import CancelledError, ThreadPoolExecutor

        from repro.testing import faults

        db = tmp_path / "cache.db"
        cache = ResultCache(db)
        pool = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setenv(faults.ENV_VAR, "cache-slow:0.3")
        in_flight = pool.submit(cache.put, entry("aa"))  # sleeps 0.3s
        queued = pool.submit(cache.put, entry("bb"))
        pool.shutdown(wait=True, cancel_futures=True)
        assert in_flight.result(timeout=5) is True
        with pytest.raises(CancelledError):
            queued.result(timeout=5)
        cache.close()
        monkeypatch.delenv(faults.ENV_VAR)
        with ResultCache(db) as reopened:
            assert reopened.get("aa").makespan == 10.0  # survived the race
            assert reopened.get("bb") is None  # cancelled cleanly
