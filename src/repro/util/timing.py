"""Timers and search budgets.

``Timer`` is a context-manager stopwatch; ``Budget`` bounds a search by
wall-clock time, states expanded, states generated, tracked search
footprint and/or process RSS, so the exponential algorithms in this
library always terminate in bounded time *and* bounded memory during
experiments and in the daemon.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

__all__ = ["Timer", "Budget", "process_rss_mb"]

_PAGE_SIZE = None


def process_rss_mb() -> float:
    """Resident set size of this process in MiB (best effort).

    Reads ``/proc/self/statm`` where available (Linux — one cheap read,
    no dependencies); falls back to ``resource.getrusage`` peak RSS
    elsewhere.  Returns ``0.0`` when neither source is usable, which
    disables RSS-based ceilings rather than crashing the search.
    """
    global _PAGE_SIZE
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        if _PAGE_SIZE is None:
            _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
        return int(fields[1]) * _PAGE_SIZE / (1024 * 1024)
    # Documented fallback chain: /proc may not exist (macOS, sandboxes);
    # the resource-module path below then runs, and total failure means
    # "RSS unknown -> ceilings disabled", per the docstring.
    # repro: ignore[swallowed-error]
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        if sys.platform == "darwin":
            return peak / (1024 * 1024)
        return peak / 1024
    except (ImportError, OSError, ValueError):
        return 0.0


class Timer:
    """Stopwatch usable as a context manager.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    __slots__ = ("start", "end")

    def __init__(self) -> None:
        self.start: float | None = None
        self.end: float | None = None

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        self.end = None
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Seconds elapsed (running total if still inside the context)."""
        if self.start is None:
            return 0.0
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start


@dataclass
class Budget:
    """Resource limits for a search run.

    ``None`` disables the corresponding limit.  ``check`` functions are
    cheap and designed to be called in inner loops; wall-clock is only
    consulted every ``time_check_interval`` expansions and RSS every
    ``memory_check_interval`` checks to avoid syscall overhead in the
    hot path.

    After ``exhausted`` returns True, :attr:`reason` names which limit
    tripped (``"expansions"``, ``"generations"``, ``"time"``,
    ``"memory"`` or ``"interrupt"``) so engines can report *why* they
    stopped in the anytime result they hand back.
    """

    max_expanded: int | None = None
    max_generated: int | None = None
    max_seconds: float | None = None
    max_memory_mb: float | None = None
    max_tracked_states: int | None = None
    time_check_interval: int = 256
    memory_check_interval: int = 2048
    _start: float = field(default=0.0, repr=False)
    _checks: int = field(default=0, repr=False)
    _mem_checks: int = field(default=0, repr=False)
    _reason: str | None = field(default=None, repr=False)
    _interrupted: bool = field(default=False, repr=False)

    def start(self) -> None:
        """Arm the wall-clock limit (call once at search start)."""
        self._start = time.perf_counter()
        self._checks = 0
        self._mem_checks = 0
        self._reason = None
        self._interrupted = False

    def interrupt(self, reason: str = "interrupt") -> None:
        """Cooperatively stop the search at its next budget check.

        Used by signal handlers and supervisors: the engine observes the
        flag at its next ``exhausted`` call and returns its incumbent.
        """
        self._interrupted = True
        self._reason = reason

    @property
    def reason(self) -> str | None:
        """Which limit tripped (set by the first failing check)."""
        return self._reason

    def expansions_exhausted(self, expanded: int) -> bool:
        """True when the expansion budget is spent."""
        return self.max_expanded is not None and expanded >= self.max_expanded

    def generations_exhausted(self, generated: int) -> bool:
        """True when the generation budget is spent."""
        return self.max_generated is not None and generated >= self.max_generated

    def time_exhausted(self) -> bool:
        """True when the wall-clock budget is spent (sampled).

        The *first* call always consults the clock: a stage handed an
        already-expired (or zero/negative) remainder of a deadline must
        trip immediately, not after ``time_check_interval`` expansions
        of overrun.  Subsequent calls sample every
        ``time_check_interval``-th check as before.
        """
        if self.max_seconds is None:
            return False
        self._checks += 1
        if self._checks != 1 and self._checks % self.time_check_interval:
            return False
        return (time.perf_counter() - self._start) >= self.max_seconds

    def memory_exhausted(self, tracked: int = 0) -> bool:
        """True when the memory ceiling is hit.

        Two guards, either of which trips the same ``"memory"`` reason:

        * ``max_tracked_states`` — a deterministic count of live search
          states (open + closed) the engine reports; checked every call
          because it is a plain comparison.
        * ``max_memory_mb`` — actual process RSS, sampled every
          ``memory_check_interval``-th call (the first call always
          samples, so an already-over-ceiling process trips at once).
        """
        if (
            self.max_tracked_states is not None
            and tracked >= self.max_tracked_states
        ):
            return True
        if self.max_memory_mb is None:
            return False
        self._mem_checks += 1
        if self._mem_checks != 1 and self._mem_checks % self.memory_check_interval:
            return False
        return process_rss_mb() >= self.max_memory_mb

    def exhausted(self, expanded: int, generated: int, tracked: int = 0) -> bool:
        """Combined check used by the search main loops.

        Records the tripping limit in :attr:`reason` so the caller can
        label its anytime result.
        """
        if self._interrupted:
            return True
        if self.expansions_exhausted(expanded):
            self._reason = "expansions"
            return True
        if self.generations_exhausted(generated):
            self._reason = "generations"
            return True
        if self.memory_exhausted(tracked):
            self._reason = "memory"
            return True
        if self.time_exhausted():
            self._reason = "time"
            return True
        return False

    @classmethod
    def unlimited(cls) -> "Budget":
        """A budget that never trips."""
        return cls()
