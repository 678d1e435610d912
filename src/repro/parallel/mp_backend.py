"""The persistent worker-process pool and its plain-dict helpers.

:class:`SolverPool` is the one process pool the service layer
dispatches on (the batch runner and the solver daemon).  Jobs cross the
process boundary as plain serializable dicts: graphs via
:func:`repro.graph.io.graph_to_dict` and processor systems via
:func:`system_to_args` / :func:`system_from_args`, so no library class
is ever pickled.  The real-cores parallel A* engine is
:mod:`repro.parallel.hda`, which shares :func:`pool_context` and the
system helpers.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Iterable

from repro.system.processors import ProcessorSystem

__all__ = [
    "pool_context",
    "system_to_args",
    "system_from_args",
    "SolverPool",
]


def pool_context() -> mp.context.BaseContext:
    """The multiprocessing context used for all fan-out in this library.

    Prefers ``fork`` (workers inherit the parent's imports and the jobs
    need no re-import cost); falls back to ``spawn`` on platforms
    without it.  Shared by :class:`SolverPool` and the HDA* engine
    (:mod:`repro.parallel.hda`).
    """
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def system_to_args(system: ProcessorSystem) -> dict[str, Any]:
    """Serialize a processor system to a plain picklable dict."""
    return {
        "num_pes": system.num_pes,
        "links": sorted(system.links),
        "speeds": list(system.speeds),
        "distance_scaled": system.distance_scaled,
        "name": system.name,
    }


def system_from_args(args: dict[str, Any]) -> ProcessorSystem:
    """Inverse of :func:`system_to_args` (runs on the worker side)."""
    return ProcessorSystem(
        args["num_pes"],
        links=[tuple(l) for l in args["links"]],
        speeds=args["speeds"],
        distance_scaled=args["distance_scaled"],
        name=args["name"],
    )


#: Seconds between a pool worker's checks that its parent is alive.
_PARENT_POLL_S = 0.5


def _worker_init() -> None:
    """Give a freshly forked worker default stop-signal handling, and
    make it exit with its parent.

    Under ``fork`` a worker inherits the daemon's asyncio stop-signal
    handler and its wakeup fd.  A SIGTERM aimed at the worker (the
    executor terminates the survivors when one worker dies) would then
    leave the worker running and be relayed into the daemon's event
    loop, draining the daemon as if it had been signalled itself.

    A parent that dies without shutting the executor down (SIGKILL,
    ``os._exit``) never tells its workers to stop, and an orphaned
    worker would live on under init.  A daemon thread watches for the
    re-parenting and exits the worker when it happens.  It only sleeps
    and reads the parent pid, holding no lock, so a job that forks
    (HDA* workers) inherits nothing it could deadlock on.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),),
        name="exit-with-parent", daemon=True,
    ).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _warmup() -> int:
    """No-op task used to force worker processes to exist (see
    :meth:`SolverPool.warm`)."""
    return mp.current_process().pid or 0


class SolverPool:
    """A persistent worker-process pool for instance-level fan-out.

    ``run_batch`` historically spun up a fresh ``multiprocessing.Pool``
    per call and tore it down afterwards — fine for a one-shot CLI
    invocation, wasteful for anything long-running.  This class is the
    pool abstraction both front-ends now share: the batch runner borrows
    one transiently when the caller passed plain ``workers=N``, and the
    solver daemon (:mod:`repro.service.server`) keeps one alive across
    requests so process startup and module import are paid once per
    *server*, not once per request.

    Built on :class:`concurrent.futures.ProcessPoolExecutor` with this
    library's :func:`pool_context`:

    * :meth:`submit` returns a real :class:`~concurrent.futures.Future`,
      so an asyncio event loop can await jobs via ``run_in_executor``;
    * executor workers are **non-daemonic** (unlike ``mp.Pool``'s), so a
      pooled job may itself spawn HDA* worker processes —
      ``solver_workers`` composes with request fan-out instead of
      silently degrading to serial;
    * :meth:`warm` pre-forks every worker up front, moving the fork cost
      out of the first request's latency.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = self._new_executor()

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The underlying executor (for ``loop.run_in_executor``)."""
        if self._executor is None:
            raise RuntimeError("SolverPool is closed")
        return self._executor

    def submit(self, fn: Callable, /, *args: Any) -> Future:
        """Schedule ``fn(*args)`` on a pool worker."""
        return self.executor.submit(fn, *args)

    def map(self, fn: Callable, jobs: Iterable[Any]) -> list[Any]:
        """Run ``fn`` over ``jobs`` on the pool; results in job order."""
        return list(self.executor.map(fn, jobs))

    def warm(self) -> None:
        """Spawn all worker processes now rather than on first use."""
        for f in [self.executor.submit(_warmup) for _ in range(self.workers)]:
            f.result()

    def rebuild(self, *, broken: ProcessPoolExecutor | None = None) -> bool:
        """Replace the executor after a worker crash.

        A :class:`ProcessPoolExecutor` whose worker died (OOM kill,
        segfault) is broken forever — every later submit raises
        ``BrokenProcessPool``.  Long-lived owners (the solver daemon)
        call this to swap in a fresh executor.  Pass the executor the
        caller observed failing as ``broken``: if another caller
        already rebuilt (the pool's executor is no longer that object),
        this is a no-op, so concurrent observers of one crash perform
        one rebuild.  Returns True when a rebuild happened.
        """
        if self._executor is None:
            raise RuntimeError("SolverPool is closed")
        if broken is not None and self._executor is not broken:
            return False
        self._executor.shutdown(wait=False)
        self._executor = self._new_executor()
        return True

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=pool_context(),
            initializer=_worker_init,
        )

    def liveness(self) -> str:
        """Non-blocking health verdict: empty string = live.

        The deep-readiness probe (``/healthz?deep=1``) must not submit
        work to find out whether the pool can solve — on a busy pool a
        ping would queue behind real searches and time out, flagging a
        perfectly healthy shard as dead.  Instead this inspects
        executor state directly: the broken flag a worker death sets,
        and the worker processes' own liveness (the same
        ``_processes`` view the server benchmark's kill harness uses).
        A lazily-started executor with no processes yet is live — the
        first submit will fork them.  Returns a human-readable reason
        when unhealthy.
        """
        ex = self._executor
        if ex is None:
            return "pool closed"
        if getattr(ex, "_broken", False):
            return "executor broken (worker process died)"
        processes = getattr(ex, "_processes", None) or {}
        dead = sum(1 for p in processes.values() if not p.is_alive())
        if dead:
            return f"{dead} of {len(processes)} worker processes dead"
        return ""

    def close(self, *, wait: bool = True) -> None:
        """Shut the pool down; idempotent."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    @property
    def closed(self) -> bool:
        return self._executor is None

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"SolverPool(workers={self.workers}, {state})"
