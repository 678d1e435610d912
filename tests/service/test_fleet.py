"""Local shard supervision: stopping a shard leaves none of its
processes behind."""

from __future__ import annotations

import os

import pytest

from repro.service.fleet import spawn_shard
from tests.procs import HAVE_PROC, group_members, wait_empty

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(not HAVE_PROC, reason="needs procfs"),
]


@pytest.mark.parametrize("stop", ["kill", "terminate"])
def test_stopping_a_shard_leaves_no_process_of_its_group(stop):
    shard = spawn_shard("s0", solver_workers=1)
    pgid = shard.proc.pid
    try:
        assert os.getpgid(pgid) == pgid  # the shard leads its own group
        members = group_members(pgid)
        assert pgid in members and len(members) >= 2  # shard + pool worker
    finally:
        getattr(shard, stop)()
    assert wait_empty(pgid) == set()
