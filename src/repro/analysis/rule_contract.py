"""``engine-contract`` — every registered engine honors the anytime API.

The engine registry (:data:`repro.search.ENGINES`) is the seam the
portfolio, the daemon and the CLI dispatch through; PRs 6–7 settled
its contract:

* every engine accepts keyword-only ``budget=``, ``incumbent=`` and
  ``probe=`` — callers thread resource limits, warm starts and
  convergence sampling through generically;
* every engine returns a :class:`repro.search.result.SearchResult`
  with ``lower_bound`` and ``interrupted`` populated, so a
  budget-stopped run is a *certified-approximate* answer, not a shrug.
  An engine that builds a :class:`repro.search.frame.SearchFrame`
  reports through the frame's one exit, which constructs that result.

This rule checks the statically-visible half: it collects engine
registrations (``_ENGINE_LOADERS = {...}`` literals and
``register_engine("name", lambda: fn)`` calls) across the linted
modules, resolves each loader to its function definition through the
registry module's imports, and verifies the signature and that the
defining module constructs ``SearchResult`` with both contract fields
(itself, or through a ``SearchFrame`` whose module does).
The dynamic half — real signatures after decorators, values actually
populated — is pinned by the import-time conformance test
(``tests/search/test_engine_registry.py``) parametrized over
:data:`~repro.search.ENGINES`.
"""

from __future__ import annotations

import ast

from repro.analysis.driver import ModuleContext, Rule
from repro.analysis.findings import Finding

__all__ = ["EngineContractRule"]

_REQUIRED_KWONLY = ("budget", "incumbent", "probe")
_REQUIRED_RESULT_FIELDS = ("lower_bound", "interrupted")
_FRAME_MODULE = ("repro", "search", "frame")


class EngineContractRule(Rule):
    id = "engine-contract"
    description = (
        "registered engines must accept budget=/incumbent=/probe= and "
        "return SearchResult with lower_bound/interrupted"
    )
    interests = (ast.FunctionDef, ast.Call, ast.Assign, ast.ImportFrom)

    def __init__(self) -> None:
        #: (engine, registry module, display path, line, func name)
        self._registrations: list[tuple[str, tuple, str, int, str]] = []
        #: (module, func) -> set of keyword-only parameter names
        self._functions: dict[tuple[tuple, str], set[str]] = {}
        #: modules that build SearchResult(..., lower_bound=, interrupted=)
        self._contract_ctors: set[tuple] = set()
        #: modules that build a SearchFrame (and exit through it)
        self._frame_users: set[tuple] = set()
        #: registry module -> {imported name: source module tuple}
        self._imports: dict[tuple, dict[str, tuple]] = {}
        self._linted_modules: set[tuple] = set()

    def begin_module(self, ctx: ModuleContext) -> bool:
        if ctx.module is None or ctx.module[0] != "repro":
            return False
        self._linted_modules.add(ctx.module)
        return True

    @staticmethod
    def _loader_target(value: ast.AST) -> str | None:
        """Function name a loader resolves to (lambda body or bare name)."""
        if isinstance(value, ast.Lambda):
            value = value.body
        if isinstance(value, ast.Name):
            return value.id
        return None

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith(
                "repro"
            ):
                table = self._imports.setdefault(ctx.module, {})
                source = tuple(node.module.split("."))
                for alias in node.names:
                    table[alias.asname or alias.name] = source
            return
        if isinstance(node, ast.FunctionDef):
            if isinstance(ctx.ancestors[-1], ast.Module):
                self._functions[(ctx.module, node.name)] = {
                    a.arg for a in node.args.kwonlyargs
                }
            return
        if isinstance(node, ast.Assign):
            if (
                isinstance(node.value, ast.Dict)
                and any(
                    isinstance(t, ast.Name) and t.id == "_ENGINE_LOADERS"
                    for t in node.targets
                )
            ):
                for key, value in zip(node.value.keys, node.value.values):
                    if not (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    ):
                        continue
                    target = self._loader_target(value)
                    if target is not None:
                        self._registrations.append(
                            (key.value, ctx.module, ctx.display,
                             value.lineno, target)
                        )
            return
        # ast.Call
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name == "register_engine" and len(node.args) >= 2:
            key = node.args[0]
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                target = self._loader_target(node.args[1])
                if target is not None:
                    self._registrations.append(
                        (key.value, ctx.module, ctx.display,
                         node.lineno, target)
                    )
        elif name == "SearchResult":
            kw = {k.arg for k in node.keywords}
            if all(field in kw for field in _REQUIRED_RESULT_FIELDS):
                self._contract_ctors.add(ctx.module)
        elif name == "SearchFrame":
            self._frame_users.add(ctx.module)

    def finish_run(self, report) -> None:
        if (_FRAME_MODULE in self._contract_ctors
                or _FRAME_MODULE not in self._linted_modules):
            self._contract_ctors |= self._frame_users
        for engine, reg_module, display, line, func_name in self._registrations:
            target_module = self._imports.get(reg_module, {}).get(
                func_name, reg_module
            )
            kwonly = self._functions.get((target_module, func_name))
            if kwonly is None:
                if target_module in self._linted_modules:
                    report(
                        Finding(
                            path=display,
                            line=line,
                            rule=self.id,
                            message=(
                                f"engine '{engine}' resolves to "
                                f"'{func_name}', which is not a top-level "
                                f"function of {'.'.join(target_module)}"
                            ),
                        )
                    )
                continue  # defining module outside the lint set
            missing = [p for p in _REQUIRED_KWONLY if p not in kwonly]
            if missing:
                report(
                    Finding(
                        path=display,
                        line=line,
                        rule=self.id,
                        message=(
                            f"engine '{engine}' ({func_name}) must accept "
                            f"keyword-only {'/'.join(_REQUIRED_KWONLY)}; "
                            f"missing: {', '.join(missing)}"
                        ),
                    )
                )
            if (
                target_module in self._linted_modules
                and target_module not in self._contract_ctors
            ):
                report(
                    Finding(
                        path=display,
                        line=line,
                        rule=self.id,
                        message=(
                            f"engine '{engine}': module "
                            f"{'.'.join(target_module)} never constructs "
                            f"SearchResult with lower_bound=/interrupted= — "
                            f"budget-stopped runs must return a certified "
                            f"bracket (the PR 6 anytime contract)"
                        ),
                    )
                )
