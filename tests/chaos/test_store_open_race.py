"""Chaos tier: many processes opening one fresh shared store at once.

A fleet starts its shards together, and every shard opens the same
``shared:PATH`` result store.  Switching a fresh SQLite file to WAL does
not wait out the busy timeout, so without a retry on open some of those
processes fail with ``database is locked``.  This test releases several
processes at one barrier onto a new store, over and over, and requires
every open to succeed.
"""

from __future__ import annotations

import multiprocessing as mp

import pytest

from repro.service.shardcache import SQLiteBackend

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

PROCESSES = 4
ROUNDS = 40


def _open_each_round(directory, barrier, results) -> None:
    """Open each round's fresh store together with the other processes;
    report every failure, once, at the end."""
    failures = []
    for i in range(ROUNDS):
        barrier.wait()
        try:
            SQLiteBackend(f"{directory}/store{i}.db", shared=True).close()
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            failures.append(f"round {i}: {type(exc).__name__}: {exc}")
    results.put(failures)


@pytest.mark.timeout(300)
def test_concurrent_opens_of_a_fresh_shared_store_all_succeed(tmp_path):
    ctx = mp.get_context("spawn")
    barrier = ctx.Barrier(PROCESSES)
    results = ctx.Queue()
    procs = [
        ctx.Process(target=_open_each_round, args=(tmp_path, barrier, results))
        for _ in range(PROCESSES)
    ]
    for proc in procs:
        proc.start()
    # Drain before joining: a child blocks on exit until its put is read.
    failures = [f for _ in procs for f in results.get(timeout=240)]
    for proc in procs:
        proc.join(timeout=30)
    assert not any(proc.is_alive() for proc in procs)
    assert failures == []
