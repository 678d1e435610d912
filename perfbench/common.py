"""Run context, host stamp, statistics and server processes."""

from __future__ import annotations

import collections
import contextlib
import http.client
import math
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

#: The checkout the benchmark runs in (this file is ``<root>/perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (SQLite store, span dumps) stays under here.
WORK = ROOT / ".perfbench_run"
ENTRY = Path(__file__).resolve().parent / "serve_entry.py"

_READY_RE = re.compile(r"listening on http://([^:\s]+):(\d+)")


def cpu_split() -> tuple[set[int], set[int]] | None:
    """(server CPUs, load-generator CPU) when there are two or more CPUs.

    Servers and the load generator never share a core, and no server
    thread migrates to the load generator's core: unpinned, the warm
    path's p50 moved between 9.7 and 12.8 ms from run to run on the same
    inputs (interpreter-lock hand-offs between the daemon's threads
    landing on either core).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return set(cpus[:-1]), {cpus[-1]}


@contextlib.contextmanager
def load_affinity(pinned: bool) -> Iterator[set[int] | None]:
    """With ``pinned``, pin this thread (and the client threads it starts)
    to the load generator's CPU and yield the server CPUs for
    :class:`ServerProc`; otherwise leave placement to the kernel."""
    split = cpu_split() if pinned else None
    if split is None:
        yield None
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, split[1])
    try:
        yield split[0]
    finally:
        os.sched_setaffinity(0, before)


@dataclass
class RunContext:
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Free-form lines printed above the JSON result.
    notes: list[str] = field(default_factory=list)

    def note(self, line: str) -> None:
        self.notes.append(line)


def host_stamp(seed: int) -> dict[str, Any]:
    """What a reader needs to recognise the host a result came from."""
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "seed": seed,
        "loadavg": list(os.getloadavg()),
    }


def git_rev() -> str:
    """The checkout's commit, or ``"unknown"`` when it is not a git work
    tree (git would otherwise report an enclosing repository's commit)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


# -- statistics ----------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    n = len(values)
    for label, q in (("p99", 0.99), ("p90", 0.90)):
        if n * (1 - q) >= 10:
            return label, quantile(values, q)
    return "p50", quantile(values, 0.5)


# -- processes -----------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_FAULTS", None)
    return env


class ServerProc:
    """One ``repro serve`` / ``repro route`` process started through
    :mod:`serve_entry`, which (with ``spans``) installs the layer wrappers
    before the server starts and writes the spans out at drain."""

    def __init__(self, args: list[str], *, spans: Path | None = None,
                 cpus: set[int] | None = None) -> None:
        argv = [sys.executable, str(ENTRY)]
        if cpus:
            argv += ["--cpus", ",".join(str(c) for c in sorted(cpus))]
        if spans is not None:
            argv += ["--spans", str(spans)]
        self.output: collections.deque[str] = collections.deque(maxlen=100)
        self.host = ""
        self.port = 0
        self._ready = threading.Event()
        self._reset = threading.Event()
        self.args = args
        self.proc = subprocess.Popen(
            argv + args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=child_env(), cwd=str(ROOT),
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Wait for the readiness line, then for one ``/healthz`` answer.

        The line is printed before the server installs its SIGTERM
        handler; a SIGTERM in between kills it without a drain and
        orphans its pool worker.  The first answered request proves the
        handler is in place.
        """
        if self._ready.wait(timeout) and self.port:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status in (200, 503):
                    return
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
        self.stop()
        raise RuntimeError(
            f"server did not become ready: {' '.join(self.args)}\n"
            + "\n".join(self.output)
        )

    def reset_spans(self, timeout: float = 30.0) -> None:
        """Make a traced server forget the spans recorded so far."""
        self._reset.clear()
        self.proc.send_signal(signal.SIGUSR1)
        if not self._reset.wait(timeout):
            raise RuntimeError("traced server did not confirm the span reset")

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line.rstrip("\n"))
            if line.startswith("perfbench: spans reset"):
                self._reset.set()
            if not self._ready.is_set():
                match = _READY_RE.search(line)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    self._ready.set()
        self._ready.set()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def worker_rss_mb(self) -> float:
        """Largest peak RSS (VmHWM) among this server's worker processes
        (0 when it has none, as a router).  The server process itself is
        left out: its size tracks how many finished jobs it retains, so it
        would grow with throughput."""
        return max((peak_rss_mb(pid) for pid in descendants(self.proc.pid)[1:]),
                   default=0.0)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit;
        workers it left behind are killed too."""
        workers = descendants(self.proc.pid)[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # exited with its server, as it should
        self._reader.join(timeout=5)


def stop_all(procs: list[ServerProc]) -> None:
    """Stop front-ends before back-ends (callers list them that way)."""
    for proc in procs:
        proc.stop()


def descendants(pid: int) -> list[int]:
    """``pid`` and every live descendant, from ``/proc``."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        cur = todo.pop()
        out.append(cur)
        todo.extend(parents.get(cur, []))
    return out


def peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- closed-loop load ----------------------------------------------------------


def closed_loop(
    threads: int, op: Callable[[int, int], None], seconds: float,
) -> float:
    """Run ``op(thread_index, op_index)`` back to back on ``threads``
    threads until ``seconds`` elapse; returns the measured wall time.

    An op that raises stops the whole loop: the benchmark's ops record
    their own failures and only raise on a harness bug.
    """
    deadline = time.perf_counter() + seconds
    errors: list[BaseException] = []

    def body(tid: int) -> None:
        i = 0
        try:
            while time.perf_counter() < deadline and not errors:
                op(tid, i)
                i += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    t0 = time.perf_counter()
    workers = [threading.Thread(target=body, args=(t,)) for t in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall
