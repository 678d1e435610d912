"""Process-table helpers for tests that check no process outlives the
one that started it.  They read Linux procfs; :data:`HAVE_PROC` gates
the tests elsewhere.
"""

from __future__ import annotations

import os
import time

HAVE_PROC = os.path.isdir("/proc")


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
    """Poll until group ``pgid`` is empty; returns the survivors."""
    deadline = time.monotonic() + timeout
    while (members := group_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return members
