"""Spawning and supervising local shard daemons.

The router (:mod:`repro.service.router`) only needs addresses — shards
can live anywhere.  This module covers the common local case: launch N
``repro serve`` subprocesses on ephemeral ports, scrape each one's
readiness line for the bound address, and keep a handle good for the
operations the chaos tests and the soak benchmark exercise — SIGKILL,
graceful terminate, and respawn on the same port so a revived shard
slots back into its old ring segment.

Each shard is started with ``--port 0`` (the kernel picks a free port)
and ``--shard-id``, which makes the daemon print::

    repro serve: listening on http://127.0.0.1:43117 shard=s0 (...)

A reader thread drains the child's merged stdout/stderr into a bounded
deque from the moment it starts (so the child can never block on a
full pipe) and parses that line for the advertised address.

Each shard leads its own session and process group, so SIGKILL can
take its pool workers down with it; the flip side is that a terminal's
Ctrl-C reaches only the supervising process, which must stop its
shards itself (the chaos tests and ``bench_router`` do so on exit).
"""

from __future__ import annotations

import collections
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any

__all__ = ["ShardProcess", "spawn_shard", "spawn_fleet"]

#: How much child output to keep for post-mortems.
_OUTPUT_LINES = 200

_READY_RE = re.compile(
    r"listening on http://([^:\s]+):(\d+) shard=(\S+)"
)


def _child_env() -> dict[str, str]:
    """The child's environment: inherit, but make sure the running
    ``repro`` package wins the import race (tests run from a repo
    checkout where PYTHONPATH may not be exported)."""
    env = dict(os.environ)
    # This file is <root>/repro/service/fleet.py; the import root is
    # two levels up, wherever the package is installed or checked out.
    pkg_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH", "")
    if pkg_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            f"{pkg_root}{os.pathsep}{existing}" if existing else pkg_root
        )
    return env


class ShardProcess:
    """One supervised ``repro serve`` subprocess.

    Constructed via :func:`spawn_shard`; after :meth:`wait_ready` the
    ``host``/``port`` attributes hold the advertised address (the real
    bound port even when started with ``--port 0``).
    """

    def __init__(
        self, name: str, argv: list[str], env: dict[str, str]
    ) -> None:
        self.name = name
        self.argv = argv
        self.host: str | None = None
        self.port: int | None = None
        self.output: collections.deque[str] = collections.deque(
            maxlen=_OUTPUT_LINES
        )
        self._ready = threading.Event()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            # Its own process group, so kill() reaches the shard's pool
            # workers too (see kill()).
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line.rstrip("\n"))
            if not self._ready.is_set():
                match = _READY_RE.search(line)
                if match and match.group(3) == self.name:
                    self.host = match.group(1)
                    self.port = int(match.group(2))
                    self._ready.set()
        # EOF: the child exited.  Unblock any waiter; wait_ready tells
        # readiness from death by checking host/port.
        self._ready.set()

    def wait_ready(self, timeout: float = 30.0) -> "ShardProcess":
        """Block until the readiness line was scraped; raises
        ``RuntimeError`` (with the child's output) on death/timeout."""
        if not self._ready.wait(timeout) or self.port is None:
            tail = "\n".join(self.output)
            self.kill()
            raise RuntimeError(
                f"shard {self.name} not ready within {timeout}s "
                f"(exit={self.proc.poll()}):\n{tail}"
            )
        return self

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL — the chaos case: no drain, no goodbye.

        The signal goes to the shard's whole process group: a killed
        shard cannot reap its ``SolverPool`` workers, which would
        otherwise run on as orphans.  The group is signalled only while
        the shard is unreaped: until then its pid (the group id) cannot
        have been reused.
        """
        if self.proc.returncode is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()

    def terminate(self, timeout: float = 30.0) -> int:
        """SIGTERM (to the shard only) and wait for the graceful drain,
        which reaps the shard's own workers, to finish."""
        if self.alive:
            self.proc.terminate()
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return self.proc.returncode

    def respawn(self, timeout: float = 30.0) -> "ShardProcess":
        """A fresh process for the same shard on the *same* port.

        The original argv asked for ``--port 0``; the replacement pins
        the port the dead shard had bound, so the router's existing
        address for this ring segment becomes valid again.
        """
        if self.alive:
            raise RuntimeError(f"shard {self.name} is still running")
        if self.port is None:
            raise RuntimeError(f"shard {self.name} was never ready")
        argv = list(self.argv)
        idx = argv.index("--port")
        argv[idx + 1] = str(self.port)
        return ShardProcess(self.name, argv, _child_env()).wait_ready(timeout)


def spawn_shard(
    name: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    solver_workers: int = 1,
    queue_limit: int = 64,
    cache: str | None = None,
    cache_capacity: int | None = None,
    deadline: float | None = None,
    max_expansions: int | None = None,
    timeout: float = 30.0,
    extra_args: "list[str] | None" = None,
    env: dict[str, str] | None = None,
) -> ShardProcess:
    """Launch one ``repro serve`` shard and wait for readiness.

    ``env`` entries overlay the inherited environment (the chaos tests
    plant ``REPRO_FAULTS`` here).  ``cache`` takes the same spec as
    ``repro serve --cache`` — pass ``shared:PATH`` to give the fleet a
    common durable tier.
    """
    argv: list[str] = [
        sys.executable, "-m", "repro", "serve",
        "--host", host,
        "--port", str(port),
        "--shard-id", name,
        "--solver-workers", str(solver_workers),
        "--queue-limit", str(queue_limit),
    ]
    if cache is not None:
        argv += ["--cache", str(cache)]
    if cache_capacity is not None:
        argv += ["--cache-capacity", str(cache_capacity)]
    if deadline is not None:
        argv += ["--deadline", str(deadline)]
    if max_expansions is not None:
        argv += ["--max-expansions", str(max_expansions)]
    if extra_args:
        argv += list(extra_args)
    child_env = _child_env()
    if env:
        child_env.update(env)
    return ShardProcess(name, argv, child_env).wait_ready(timeout)


def spawn_fleet(
    count: int, *, name_prefix: str = "s", **kwargs: Any
) -> list[ShardProcess]:
    """Spawn ``count`` shards (``s0``, ``s1``, ...), tearing down any
    already-started ones if a later spawn fails."""
    shards: list[ShardProcess] = []
    try:
        for i in range(count):
            shards.append(spawn_shard(f"{name_prefix}{i}", **kwargs))
    except Exception:
        for shard in shards:
            shard.kill()
        raise
    return shards
