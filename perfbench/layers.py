"""Layer spans recorded from outside the program.

The traced run replaces public functions and methods of ``repro`` modules
with thin timing wrappers, runs the workload, and puts the originals back.
Nothing under ``src/`` carries tracing code: every span here is taken
around a call *into* a layer.

A span knows its parent through a context variable, so the stack is right
for nested calls, for interleaved asyncio tasks (each task owns a copy of
the context) and across the event loop's thread-executor hops (the traced
process copies the context into the executor, as ``asyncio.to_thread``
does).  A span's self time is its duration minus the durations of its
direct children; self times of one request therefore add up to the
duration of its root span.

Spans are aggregated in memory per ``(root, layer)``: total seconds, self
seconds and calls.  Nothing is written until :meth:`Recorder.snapshot`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import functools
import inspect
import json
import threading
import time
import types
from typing import Any, Callable

__all__ = [
    "Recorder",
    "Installer",
    "client_targets",
    "server_targets",
    "router_targets",
    "search_targets",
]

_perf = time.perf_counter


class _Root:
    """The name a request's spans are filed under; shared by every frame of
    one request so a layer that learns what the request is (the HTTP read
    sees the path) can re-file the whole request."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class _Frame:
    __slots__ = ("layer", "root", "child")

    def __init__(self, layer: str, root: _Root) -> None:
        self.layer = layer
        self.root = root
        self.child = 0.0


class Recorder:
    """In-memory span aggregator keyed by ``(root layer, layer)``."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar[_Frame | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._lock = threading.Lock()
        self._reset = False
        self.total: dict[tuple[str, str], float] = {}
        self.self_s: dict[tuple[str, str], float] = {}
        self.calls: dict[tuple[str, str], int] = {}

    def request_reset(self) -> None:
        """Forget everything recorded so far, at the next span's end.

        Safe from a signal handler: it only sets a flag, so it can never
        wait on the lock the interrupted thread may hold.
        """
        self._reset = True

    # -- span bookkeeping ------------------------------------------------------

    def _frame(self, layer: str) -> tuple[_Frame, _Frame | None]:
        parent = self._current.get()
        root = parent.root if parent is not None else _Root(layer)
        return _Frame(layer, root), parent

    def _exit(self, frame: _Frame, parent: _Frame | None, duration: float) -> None:
        key = (frame.root.name, frame.layer)
        with self._lock:
            if self._reset:
                self._reset = False
                self.total.clear()
                self.self_s.clear()
                self.calls.clear()
            if parent is not None:
                parent.child += duration
            self.total[key] = self.total.get(key, 0.0) + duration
            self.self_s[key] = self.self_s.get(key, 0.0) + duration - frame.child
            self.calls[key] = self.calls.get(key, 0) + 1

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str,
             relabel: Callable[[Any], str | None] | None = None) -> Callable:
        """A timing wrapper matching ``fn``'s kind (sync, async, generator).

        ``relabel(result)`` may return a suffix that re-files the whole
        request under ``"<root>/<suffix>"`` (health probes, for example).
        """
        def settle(frame: _Frame, result: Any) -> None:
            suffix = relabel(result) if relabel is not None else None
            if suffix is not None:
                frame.root.name = f"{frame.root.name}/{suffix}"

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                frame, parent = self._frame(layer)
                token = self._current.set(frame)
                t0 = _perf()
                try:
                    result = await fn(*args, **kwargs)
                    settle(frame, result)
                    return result
                finally:
                    duration = _perf() - t0
                    self._current.reset(token)
                    self._exit(frame, parent, duration)
            return async_wrapper

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                # Only the time spent inside the generator counts; the
                # consumer's work between items is the caller's.
                gen = fn(*args, **kwargs)
                frame, parent = self._frame(layer)
                spent = 0.0
                try:
                    while True:
                        token = self._current.set(frame)
                        t0 = _perf()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            spent += _perf() - t0
                            self._current.reset(token)
                        yield item
                finally:
                    gen.close()
                    self._exit(frame, parent, spent)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame, parent = self._frame(layer)
            token = self._current.set(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
                settle(frame, result)
                return result
            finally:
                duration = _perf() - t0
                self._current.reset(token)
                self._exit(frame, parent, duration)
        return wrapper

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-ready rows, one per ``(root, layer)``."""
        with self._lock:
            return [
                {
                    "root": root, "layer": layer,
                    "total_s": self.total[(root, layer)],
                    "self_s": self.self_s[(root, layer)],
                    "calls": self.calls[(root, layer)],
                }
                for root, layer in sorted(self.total)
            ]


def merge_rows(rows: list[dict[str, Any]], roots: set[str] | None = None
               ) -> dict[str, dict[str, float]]:
    """Sum snapshot rows by layer, keeping only spans under ``roots``."""
    out: dict[str, dict[str, float]] = {}
    for row in rows:
        if roots is not None and row["root"] not in roots:
            continue
        agg = out.setdefault(row["layer"], {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        agg["total_s"] += row["total_s"]
        agg["self_s"] += row["self_s"]
        agg["calls"] += row["calls"]
    return out


# -- installing wrappers ---------------------------------------------------------


class Installer:
    """Replaces attributes with wrappers and restores every original."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, layer: str,
             relabel: Callable[[Any], str | None] | None = None) -> None:
        """Wrap ``owner.attr`` (a function or method defined on ``owner``)."""
        self.replace(owner, attr,
                      self.recorder.wrap(getattr(owner, attr), layer, relabel))

    def proxy_module(self, owner: Any, attr: str, funcs: dict[str, str]) -> None:
        """Give ``owner`` a stand-in for the module bound to ``owner.attr``
        whose functions named in ``funcs`` are wrapped (``json`` and
        ``heapq`` are called through their module by the program, so
        wrapping the module object itself would time every caller in the
        process)."""
        module = getattr(owner, attr)
        stand_in = types.SimpleNamespace(**{
            name: getattr(module, name) for name in dir(module)
            if not name.startswith("__")
        })
        for name, layer in funcs.items():
            setattr(stand_in, name, self.recorder.wrap(getattr(module, name), layer))
        self.replace(owner, attr, stand_in)

    def copy_context_into_executors(self) -> None:
        """Run thread-executor callables inside a copy of the caller's
        context (what ``asyncio.to_thread`` does), so spans taken on the
        executor thread find their parent.  Process executors are left
        alone: a context cannot be pickled."""
        loop_cls = asyncio.base_events.BaseEventLoop
        original = loop_cls.run_in_executor

        def run_in_executor(self_loop, executor, func, *args):  # type: ignore[no-untyped-def]
            if isinstance(executor, concurrent.futures.ProcessPoolExecutor):
                return original(self_loop, executor, func, *args)
            ctx = contextvars.copy_context()
            return original(self_loop, executor, ctx.run, func, *args)

        self.replace(loop_cls, "run_in_executor", run_in_executor)

    def uninstall(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


# -- the layer maps --------------------------------------------------------------
#
# Each function installs the wrappers for one process kind and returns the
# root layers whose spans make up a request in that process.


def client_targets(inst: Installer) -> set[str]:
    """The load generator: one ``ServerClient.request`` per request."""
    from repro.service import client

    inst.wrap(client.ServerClient, "request", "client.request")
    inst.proxy_module(client, "json", {"dumps": "client.encode", "loads": "client.decode"})
    return {"client.request"}


def _fingerprint_targets(inst: Installer, module: Any) -> None:
    inst.wrap(module, "item_from_request", "batch.graph_build")
    inst.wrap(module, "canonical_order", "fingerprint.order")
    inst.wrap(module, "instance_fingerprint", "fingerprint.hash")


def _probe_path(request: tuple[str, str, bytes]) -> str | None:
    """Health checks and scrapes are filed apart from client requests."""
    path = request[1]
    return "probe" if path.startswith(("/healthz", "/metrics")) else None


def _wire_targets(inst: Installer) -> None:
    from repro.service import httpwire

    inst.wrap(httpwire, "read_request", "httpwire.read", relabel=_probe_path)
    inst.wrap(httpwire, "render_response", "httpwire.render")
    inst.wrap(httpwire, "deliver_response", "httpwire.deliver")


def server_targets(inst: Installer) -> set[str]:
    """A ``repro serve`` daemon or shard."""
    from repro.service import cache, jobs, server

    inst.copy_context_into_executors()
    _wire_targets(inst)
    inst.wrap(server.SolverServer, "_handle", "server.handle")
    inst.proxy_module(server, "json", {"loads": "server.json_parse"})
    inst.wrap(jobs.JobManager, "prepare", "jobs.prepare")
    _fingerprint_targets(inst, jobs)
    inst.wrap(jobs.JobManager, "cache_lookup", "jobs.cache_lookup")
    inst.wrap(jobs.JobManager, "admit", "jobs.admit")
    inst.wrap(jobs.JobManager, "_finish", "jobs.finish")
    inst.wrap(jobs.JobManager, "_complete", "jobs.complete")
    inst.wrap(cache.ResultCache, "get", "cache.get")
    inst.wrap(cache.ResultCache, "put", "cache.put")
    return {"server.handle", "jobs.complete"}


def router_targets(inst: Installer) -> set[str]:
    """A ``repro route`` front-end."""
    from repro.service import httpwire, router

    inst.copy_context_into_executors()
    _wire_targets(inst)
    inst.wrap(httpwire, "fetch", "httpwire.fetch")
    inst.wrap(router.ShardRouter, "_handle", "router.handle")
    inst.proxy_module(router, "json", {"loads": "router.json"})
    inst.wrap(router.ShardRouter, "_routing_key", "router.routing_key")
    _fingerprint_targets(inst, router)
    inst.wrap(router.ShardRouter, "_forward_solve", "router.forward")
    return {"router.handle"}


def search_targets(inst: Installer) -> None:
    """The search hot loop: expander, state construction, ``h``, heap."""
    from repro.schedule.partial import PartialSchedule
    from repro.search import astar, costs, expansion, focal, weighted
    from repro.service import portfolio

    inst.wrap(expansion.StateExpander, "children", "search.children")
    inst.wrap(PartialSchedule, "child_signature", "search.child_signature")
    inst.wrap(PartialSchedule, "extend", "search.extend")
    for cls in set(costs.COST_FUNCTIONS.values()) | {costs.CostFunction}:
        if "h" in cls.__dict__:
            inst.wrap(cls, "h", "search.h")
    for module in (astar, weighted, focal):
        inst.proxy_module(module, "heapq", {"heappush": "search.heap", "heappop": "search.heap"})
    inst.wrap(portfolio, "preprocess_instance", "preprocess")


def dump(recorder: Recorder, path: str) -> None:
    """Write the recorder's rows as JSON (called once, at drain)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorder.snapshot(), fh)

