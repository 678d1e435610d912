"""Concurrency-safety pass over ``repro.parallel`` and ``repro.service``.

Two rules tuned to the HDA* multiprocessing backend and the solver
daemon, where the seed repo's worst bugs historically lived:

``worker-shared-state``
    Module-level (or closure) state mutated from code *reachable from a
    worker entry point*.  Under the spawn start method each worker gets
    a copy-on-write snapshot, so a mutated module global silently
    diverges between parent and children — the bug looks like a lost
    update, reproduces only under load, and is invisible to tests that
    run the serial path.  Shared state must go through the sanctioned
    channels (``multiprocessing`` queues/values, ``SharedIncumbent``,
    ``WorkerBoard``, ``Links``, ``Outbox``).

    Worker entry points are found by name (``_worker``/``*_loop``/
    ``*_main`` and friends), by being passed as ``target=`` to a
    process/thread constructor, or as the callable handed to
    ``.submit``/``.map``/``.apply_async``.  Reachability follows the
    module-local call graph from those roots.

``blocking-recv``
    ``Connection.recv()`` / ``queue.get()`` with no timeout in those
    same packages.  The PR 6 quiescence protocol relies on every
    blocking receive having a timeout so a dead peer cannot hang the
    join path forever; ``get_nowait`` and ``await``-ed asyncio gets are
    exempt (the event loop owns cancellation there).
"""

from __future__ import annotations

import ast
import re
from collections import deque

from repro.analysis.driver import ModuleContext, Rule

__all__ = ["WorkerSharedStateRule", "BlockingRecvRule"]

_WORKER_NAME_RE = re.compile(
    r"(^_?worker|_worker$|_loop$|_main$|^_?run_worker|^_pump|^_drain)", re.I
)

#: Methods whose first positional argument is executed elsewhere.
_DISPATCH_METHODS = frozenset({"submit", "map", "apply_async", "imap",
                               "imap_unordered", "starmap"})

#: Mutator method names on containers.
_MUTATORS = frozenset({
    "append", "add", "update", "extend", "insert", "setdefault", "pop",
    "clear", "remove", "discard", "popleft", "appendleft",
})


def _func_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class WorkerSharedStateRule(Rule):
    id = "worker-shared-state"
    description = (
        "module-level state mutated in worker-reachable code diverges "
        "across process boundaries"
    )
    interests = ()  # whole-module analysis in finish_module

    def begin_module(self, ctx: ModuleContext) -> bool:
        return ctx.in_packages("parallel", "service")

    # -- module model -------------------------------------------------

    @staticmethod
    def _module_globals(tree: ast.Module) -> set[str]:
        """Names bound by top-level assignments (candidate shared state)."""
        out: set[str] = set()

        def add(target: ast.AST) -> None:
            if isinstance(target, ast.Name):
                out.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    add(elt)

        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    add(t)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                add(stmt.target)
        return out

    @classmethod
    def _entry_points(cls, tree: ast.Module, funcs: dict[str, ast.AST]):
        """Function names that run on a worker thread/process."""
        entries = {
            name for name in funcs if _WORKER_NAME_RE.search(name)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    entries.add(kw.value.id)
            name = _func_name(node.func)
            if name in _DISPATCH_METHODS and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name):
                    entries.add(first.id)
        return entries & set(funcs)

    @staticmethod
    def _calls_in(func: ast.AST) -> set[str]:
        return {
            node.func.id
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
        }

    @staticmethod
    def _local_names(func: ast.AST) -> set[str]:
        """Parameters plus plainly-assigned locals (shadow the globals)."""
        out: set[str] = set()
        args = func.args
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            out.add(a.arg)
        if args.vararg:
            out.add(args.vararg.arg)
        if args.kwarg:
            out.add(args.kwarg.arg)
        declared_global: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        out.add(t.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    out.add(node.target.id)
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.target
                if isinstance(target, ast.Name):
                    out.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            out.add(elt.id)
            elif isinstance(node, ast.withitem) and isinstance(
                node.optional_vars, ast.Name
            ):
                out.add(node.optional_vars.id)
        return out - declared_global

    # -- the pass -----------------------------------------------------

    def finish_module(self, ctx: ModuleContext) -> None:
        tree = ctx.tree
        funcs: dict[str, ast.AST] = {
            stmt.name: stmt
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not funcs:
            return
        entries = self._entry_points(tree, funcs)
        if not entries:
            return
        module_globals = self._module_globals(tree)

        # Worker-reachable functions: BFS over the local call graph.
        reachable: set[str] = set()
        queue = deque(entries)
        while queue:
            name = queue.popleft()
            if name in reachable:
                continue
            reachable.add(name)
            for callee in self._calls_in(funcs[name]) & set(funcs):
                if callee not in reachable:
                    queue.append(callee)

        for name in sorted(reachable):
            func = funcs[name]
            locals_ = self._local_names(func)

            def is_shared(root: str) -> bool:
                return root in module_globals and root not in locals_

            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    hit = [n for n in node.names if n in module_globals]
                    if hit:
                        ctx.report(
                            self,
                            node,
                            f"worker-reachable '{name}' rebinds module "
                            f"global(s) {', '.join(sorted(hit))}; the write "
                            f"lands in one process's copy only — use a "
                            f"multiprocessing-safe channel "
                            f"(SharedIncumbent/WorkerBoard/queues)",
                        )
                elif isinstance(node, ast.Assign):
                    for t in node.targets:
                        if isinstance(
                            t, (ast.Subscript, ast.Attribute)
                        ) and isinstance(t.value, ast.Name) and is_shared(
                            t.value.id
                        ):
                            ctx.report(
                                self,
                                node,
                                f"worker-reachable '{name}' mutates module-"
                                f"level '{t.value.id}' "
                                f"('{ctx.segment(t)} = …'); each process "
                                f"sees its own copy — route through a "
                                f"multiprocessing-safe channel",
                            )
                elif isinstance(node, ast.Call):
                    func_node = node.func
                    if (
                        isinstance(func_node, ast.Attribute)
                        and func_node.attr in _MUTATORS
                        and isinstance(func_node.value, ast.Name)
                        and is_shared(func_node.value.id)
                    ):
                        ctx.report(
                            self,
                            node,
                            f"worker-reachable '{name}' mutates module-"
                            f"level '{func_node.value.id}' via "
                            f".{func_node.attr}(); each process sees its "
                            f"own copy — route through a multiprocessing-"
                            f"safe channel",
                        )


class BlockingRecvRule(Rule):
    id = "blocking-recv"
    description = (
        "Connection.recv()/queue.get() without a timeout can hang the "
        "quiescence/join path forever"
    )
    interests = (ast.Call,)

    def begin_module(self, ctx: ModuleContext) -> bool:
        return ctx.in_packages("parallel", "service")

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "recv" and not node.args and not node.keywords:
            if isinstance(ctx.ancestors[-1], ast.Await):
                return
            ctx.report(
                self,
                node,
                f"'{ctx.segment(node)}' blocks forever if the peer dies; "
                f"poll with a timeout so supervision can intervene",
            )
        elif func.attr == "get" and not node.args:
            if any(kw.arg in ("timeout", "block") for kw in node.keywords):
                return
            if isinstance(ctx.ancestors[-1], ast.Await):
                return  # asyncio queue: cancellation owns unblocking
            # Heuristic guard: dict.get(...) has positional args and is
            # filtered above; a zero-arg .get() on a non-queue object is
            # rare enough that receiver-name filtering is unnecessary.
            ctx.report(
                self,
                node,
                f"'{ctx.segment(node)}' has no timeout; a crashed producer "
                f"hangs this receive forever — pass timeout= and loop "
                f"(see the worker supervision pattern in repro.parallel)",
            )
