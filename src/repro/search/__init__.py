"""State-space search schedulers: the paper's primary contribution.

* :mod:`repro.search.costs` — the admissible cost function ``f = g + h``
  of §3.1 (Theorem 1) plus tighter/looser alternatives for ablation.
* :mod:`repro.search.pruning` — the four §3.2 pruning techniques as
  independently-toggleable rules with hit counters.
* :mod:`repro.search.astar` — the serial A* scheduling algorithm, and
  the one best-first loop it shares with weighted A* and Aε* (each
  engine supplies only its OPEN order).
* :mod:`repro.search.weighted` — weighted A* (``g + (1+ε)·h``), the
  other bounded-suboptimality engine.
* :mod:`repro.search.focal` — the approximate Aε* (§3.4, Theorem 2).
* :mod:`repro.search.bnb` — depth-first branch-and-bound on the same
  state space (memory-light alternative).
* :mod:`repro.search.idastar` — iterative-deepening A*: memory linear
  in the depth, at the price of re-expansions.
* :mod:`repro.search.enumerate` — exhaustive enumeration for tiny
  instances (ground truth in tests).

:data:`ENGINES` / :func:`get_engine` form the engine registry: every
first-class search backend by name.  Engines living in *higher* layers
register themselves downward via :func:`register_engine` — the
multiprocess HDA* engine in :mod:`repro.parallel.hda` does so at import
(and ``repro/__init__`` imports it eagerly, so the registry is complete
whenever any ``repro.*`` module is).  This package never imports
upward; the ``layering`` lint rule enforces that.  The service layer's
portfolio dispatches through the registry; the CLI keeps its own
argparse choices (engine flags differ per command) but every engine it
offers is registered here.
"""

from repro.search.astar import astar_schedule
from repro.search.bnb import bnb_schedule
from repro.search.idastar import idastar_schedule
from repro.search.weighted import weighted_astar_schedule
from repro.search.costs import (
    COST_FUNCTIONS,
    CombinedCost,
    CostFunction,
    ImprovedCost,
    LoadBoundCost,
    PaperCost,
    ZeroCost,
    make_cost_function,
)
from repro.search.enumerate import enumerate_optimal
from repro.search.focal import focal_schedule
from repro.search.pruning import PruningConfig, PruningStats
from repro.search.result import SearchResult, SearchStats


#: Engine registry: name -> zero-argument loader returning the engine's
#: schedule function.  Every engine takes ``(graph, system, ...)`` and
#: the anytime keywords ``budget=``/``incumbent=``/``probe=``, but
#: signatures differ beyond that (``wastar``/``focal`` require a
#: positional ``epsilon``, ``hda`` adds ``workers=``) — consult each
#: function before generic dispatch;
#: :func:`repro.service.portfolio._run_engine` shows the bindings.
#: Higher layers extend this via :func:`register_engine`.
_ENGINE_LOADERS = {
    "astar": lambda: astar_schedule,
    "bnb": lambda: bnb_schedule,
    "idastar": lambda: idastar_schedule,
    "wastar": lambda: weighted_astar_schedule,
    "focal": lambda: focal_schedule,
    "enumerate": lambda: enumerate_optimal,
}


def register_engine(name: str, loader) -> None:
    """Register (or replace) an engine under ``name``.

    ``loader`` is a zero-argument callable returning the schedule
    function.  This is the hook engines in higher layers use to appear
    in :data:`ENGINES` without this package importing upward —
    :mod:`repro.parallel.hda` registers ``"hda"`` when it is imported
    (which ``repro/__init__`` does eagerly).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"engine name must be a non-empty string, got {name!r}")
    if not callable(loader):
        raise TypeError(f"engine loader for {name!r} must be callable")
    _ENGINE_LOADERS[name] = loader


def unregister_engine(name: str) -> None:
    """Remove a registered engine (test cleanup for custom engines)."""
    _ENGINE_LOADERS.pop(name, None)


def get_engine(name: str):
    """Resolve an engine name from :data:`ENGINES` to its function.

    Raises
    ------
    ValueError
        For unknown names (the message lists the registry).
    """
    try:
        loader = _ENGINE_LOADERS[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered: "
            f"{', '.join(_ENGINE_LOADERS)}"
        ) from None
    return loader()


def __getattr__(name: str):
    # PEP 562: ENGINES reflects late registrations (e.g. "hda", which
    # repro.parallel.hda adds when it is imported).
    if name == "ENGINES":
        return tuple(_ENGINE_LOADERS)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ENGINES",
    "get_engine",
    "register_engine",
    "unregister_engine",
    "astar_schedule",
    "focal_schedule",
    "bnb_schedule",
    "idastar_schedule",
    "weighted_astar_schedule",
    "enumerate_optimal",
    "CostFunction",
    "PaperCost",
    "ImprovedCost",
    "ZeroCost",
    "LoadBoundCost",
    "CombinedCost",
    "COST_FUNCTIONS",
    "make_cost_function",
    "PruningConfig",
    "PruningStats",
    "SearchResult",
    "SearchStats",
]
