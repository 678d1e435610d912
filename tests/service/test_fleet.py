"""Local shard supervision: stopping a shard leaves none of its
processes behind."""

from __future__ import annotations

import os
import time

import pytest

from repro.service.fleet import spawn_shard

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs"),
]


def group_members(pgid: int) -> set[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited while we looked
        # Fields after the parenthesised command: state ppid pgrp ...
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.add(int(entry))
    return members


def wait_empty(pgid: int, timeout: float = 10.0) -> set[int]:
    deadline = time.monotonic() + timeout
    while (members := group_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return members


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
