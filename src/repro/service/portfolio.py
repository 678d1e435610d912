"""Deadline-driven portfolio solving and static engine selection.

The paper's central observation is that no single search technique wins
everywhere: exact A* is unbeatable when OPEN fits in memory, depth-first
B&B trades expansions for O(depth) memory on communication-heavy
instances, and the ε-approximate variants buy orders of magnitude on
graphs too large to prove optimal.  This module packages that
observation two ways:

* :func:`select_engine` — the static heuristic: pick one engine from the
  instance's size, CCR, and edge density (the features the paper's §4
  discussion identifies as deciding the winner), for the single-engine
  fast path;
* :func:`portfolio_schedule` — the anytime ladder: race a linear-time
  list-schedule incumbent, then weighted A* as a fast improver, then an
  exact engine *seeded with the incumbent bound*, sharing the best
  makespan across stages and stopping at the deadline.  The result can
  never be worse than the list-schedule baseline (the incumbent only
  improves), and carries a provenance record of which stage won.

Stage budgeting: the improver stage gets ``_IMPROVER_SHARE`` of the
remaining deadline, the exact stage the rest.  With no deadline the
ladder still terminates: every stage is bounded by ``max_expansions``.

Pruning: the A*, weighted-A* and HDA* stages search with the
commutation reduction on (:class:`~repro.search.pruning.PruningConfig`
keeps it off for the engines' own defaults); B&B runs without it.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace

from repro.graph.analysis import graph_ccr
from repro.graph.taskgraph import TaskGraph
from repro.heuristics.listsched import fast_upper_bound_schedule
from repro.obs.probe import SearchProbe
from repro.obs.trace import Tracer, null_tracer
from repro.schedule.preprocess import ChainPlan, PreprocessResult, preprocess_instance
from repro.schedule.schedule import Schedule
from repro.search import get_engine
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult, SearchStats, certify
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget

__all__ = [
    "StageReport",
    "PortfolioResult",
    "select_engine",
    "select_cost",
    "solve_auto",
    "portfolio_schedule",
]

#: Fraction of the remaining deadline granted to the weighted-A* improver.
_IMPROVER_SHARE = 0.25
#: Below this size exact A* is effectively instant; skip the improver.
_SMALL_V = 14
#: CCR at or above which B&B's O(depth) memory beats A*'s OPEN list.
_HIGH_CCR = 5.0
#: Edge density above which the state space is narrow enough for A*.
_DENSE = 0.35
#: Above this node count the exact stage goes to the multiprocess HDA*
#: engine when the caller granted ``workers > 1`` — below it the serial
#: engine finishes before worker processes would even spawn.
_HDA_MIN_V = 14
#: Expansion cap for the chain-contraction warm-start probe: the
#: contracted instance is strictly smaller, so a short exact burst on it
#: usually yields a tight incumbent for pennies.
_CONTRACT_PROBE_EXPANSIONS = 4_000


@dataclass(frozen=True)
class StageReport:
    """Provenance of one portfolio stage."""

    stage: str  # "list" | "contract" | "improve" | "exact[-retry|-serial]"
    algorithm: str
    makespan: float
    improved: bool  # did this stage tighten the incumbent?
    optimal: bool
    seconds: float
    expanded: int = 0

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class PortfolioResult:
    """Best schedule across the stage ladder plus its provenance."""

    schedule: Schedule
    optimal: bool
    bound: float
    stats: SearchStats
    algorithm: str  # algorithm label of the winning stage
    winner: str  # stage name of the winning stage
    stages: tuple[StageReport, ...]
    #: Tightest proven floor on the optimal makespan across stages
    #: (equals the makespan when ``optimal``); turns a budget-stopped
    #: ladder into a certified-approximate answer.
    lower_bound: float = 0.0
    #: Why the last exact attempt stopped early (``None`` when it
    #: finished on its own) — budget reason or worker-failure cause.
    interrupted: str | None = None
    #: Convergence samples across the whole ladder (expansion axis
    #: accumulates over stages); ``()`` unless a probe was requested.
    timeline: tuple = ()

    @property
    def length(self) -> float:
        """Makespan of the returned schedule."""
        return self.schedule.length

    @property
    def certificate(self) -> str:
        """Optimality certificate: ``proven``, ``epsilon`` or ``budget``
        (delegates to :attr:`SearchResult.certificate` — one definition)."""
        return self.as_search_result().certificate

    def as_search_result(self) -> SearchResult:
        """Flatten into the engines' common result type."""
        return SearchResult(
            schedule=self.schedule,
            optimal=self.optimal,
            bound=self.bound,
            stats=self.stats,
            algorithm=f"portfolio({self.algorithm})",
            lower_bound=self.lower_bound,
            interrupted=self.interrupted,
            timeline=self.timeline,
        )


def select_engine(graph: TaskGraph, system: ProcessorSystem) -> str:
    """Pick one engine from static instance features.

    The rules condense the paper's §4 observations: small instances are
    A* territory outright; high CCR inflates communication terms until
    A*'s OPEN list (not its expansion count) is the binding resource, so
    depth-first B&B wins; large sparse graphs have state spaces nobody
    proves optimal interactively, so weighted A* buys the near-optimal
    answer.  Dense precedence constraints shrink the ready set and keep
    A* viable beyond the small-v cutoff.
    """
    v = graph.num_nodes
    if v <= _SMALL_V:
        return "astar"
    if graph_ccr(graph) >= _HIGH_CCR:
        return "bnb"
    density = graph.num_edges / max(1, v * (v - 1) // 2)
    if density >= _DENSE:
        return "astar"
    return "wastar"


def select_cost(graph: TaskGraph, system: ProcessorSystem) -> str:
    """Pick the guiding cost function from static instance features.

    The composite bound (``max(paper, load)``,
    :class:`~repro.search.costs.CombinedCost`) dominates the paper bound
    state-for-state and is the default wherever processors are scarce
    enough for machine capacity to bind — the regime every measured
    expansion reduction comes from (see ``benchmarks/bench_bounds.py``).
    With a PE per task (the §4.1 setup) the capacity term degenerates to
    the mean weight and never beats the critical-path term, so the O(P
    log P) it would add to every evaluation is pure overhead — the
    paper's own cheap bound wins there, which is precisely its Table-1
    argument.

    Engines accept the sentinel ``"auto"`` (or ``None``) for ``cost``
    nowhere; resolution happens here, at the portfolio boundary.
    """
    if system.num_pes >= graph.num_nodes:
        return "paper"
    return "combined"


@dataclass(frozen=True)
class _SetUp:
    """What both entry points search: ``graph`` is the caller's instance
    or its reduction, ``cost`` a resolved registry name."""

    graph: TaskGraph
    cost: str
    pruning: PruningConfig
    pre: PreprocessResult | None
    tracer: Tracer
    probe: SearchProbe | None

    def restore(self, schedule: Schedule | None,
                stats: SearchStats) -> Schedule | None:
        """Map an answer back to the caller's node space and count the
        reductions in ``stats``; the certificate carries over."""
        if self.pre is None:
            return schedule
        stats.pruning.merge(self.pre.stats)
        return None if schedule is None else self.pre.restore(schedule)


def _set_up(
    graph: TaskGraph, system: ProcessorSystem, *, cost: str | None,
    preprocess: bool, tracer: Tracer | None, probe_every: int | None,
) -> _SetUp:
    """Preprocess (when asked), choose the search's pruning, resolve
    the ``None``/``"auto"`` cost sentinel on the searched instance, and
    pick the tracer and probe.

    Every stage searches the commutation-reduced space (plus symmetry
    normalization when the preprocessing found the system eligible);
    :func:`_run_engine` drops commutation again for B&B."""
    pre = preprocess_instance(graph, system) if preprocess else None
    if pre is not None:
        graph = pre.graph
    if cost is None or cost == "auto":
        cost = select_cost(graph, system)
    return _SetUp(
        graph=graph,
        cost=cost,
        pruning=PruningConfig(
            commutation=True,
            root_symmetry=pre is not None and pre.root_symmetry,
        ),
        pre=pre,
        tracer=tracer if tracer is not None else null_tracer,
        probe=SearchProbe(probe_every) if probe_every else None,
    )


def _run_engine(
    name: str,
    graph: TaskGraph,
    system: ProcessorSystem,
    *,
    budget: Budget,
    epsilon: float,
    cost: str,
    incumbent: Schedule | None = None,
    workers: int = 1,
    probe: SearchProbe | None = None,
    tracer: Tracer | None = None,
    pruning: PruningConfig | None = None,
) -> SearchResult:
    """Dispatch one engine through the registry (the portfolio's
    inner call); per-engine extras are bound here."""
    engine = get_engine(name)  # raises ValueError on unknown names
    if name == "bnb" and pruning is not None:
        # Depth-first B&B answers a budget stop with what its first
        # dives found, and commutation reroutes those dives: on a cold
        # stream of v14-18 instances it made 11 budget-stopped B&B
        # answers worse (561 -> 666 at worst).  The best-first stages
        # keep the reduced space; B&B searches the paper's.
        pruning = replace(pruning, commutation=False)
    common = {"cost": cost, "budget": budget, "pruning": pruning,
              "incumbent": incumbent, "probe": probe}
    if name in ("astar", "bnb"):
        return engine(graph, system, **common)
    if name == "wastar":
        return engine(graph, system, epsilon, **common)
    if name == "hda":
        return engine(graph, system, workers=workers, tracer=tracer, **common)
    raise ValueError(f"engine {name!r} is not portfolio-dispatchable")


def solve_auto(
    graph: TaskGraph,
    system: ProcessorSystem,
    *,
    deadline: float | None = None,
    epsilon: float = 0.25,
    cost: str | None = None,
    max_expansions: int | None = 500_000,
    workers: int = 1,
    max_memory_mb: float | None = None,
    tracer: Tracer | None = None,
    probe_every: int | None = None,
    preprocess: bool = False,
) -> SearchResult:
    """Single-engine fast path: :func:`select_engine` then one search.

    ``cost=None`` (or ``"auto"``) resolves via :func:`select_cost` —
    the composite ``combined`` bound wherever capacity can bind.
    ``workers > 1`` upgrades an exact selection to the multiprocess
    HDA* engine on instances large enough to amortize process spawn.
    ``max_memory_mb`` arms the RSS ceiling: the engine stops there and
    returns its incumbent plus lower bound instead of growing unbounded.
    ``tracer``/``probe_every`` enable the :mod:`repro.obs` telemetry:
    a span around the engine run and a convergence timeline on the
    result.  The search runs with the commutation reduction on (off
    for a B&B selection).  ``preprocess=True`` runs the makespan-preserving
    reductions of :mod:`repro.schedule.preprocess` first, searches the
    reduced instance (with symmetry normalization when eligible), and
    restores the answer to the caller's node space — makespan,
    optimality and lower bound carry over unchanged because every
    applied reduction is equivalence-proven.  The set-up and the
    restore are the ladder's own (:func:`portfolio_schedule`).
    """
    s = _set_up(graph, system, cost=cost, preprocess=preprocess,
                tracer=tracer, probe_every=probe_every)
    engine = select_engine(s.graph, system)
    # Only an A* selection upgrades: a "bnb" selection is the
    # high-CCR *memory* decision, and HDA* holds full OPEN/CLOSED
    # lists in every worker — exactly what that decision avoids.
    if workers > 1 and engine == "astar" and s.graph.num_nodes > _HDA_MIN_V:
        engine = "hda"
    budget = Budget(max_expanded=max_expansions, max_seconds=deadline,
                    max_memory_mb=max_memory_mb)
    with s.tracer.span("portfolio.auto", attrs={"engine": engine, "cost": s.cost}):
        res = _run_engine(
            engine, s.graph, system, budget=budget, epsilon=epsilon,
            cost=s.cost, workers=workers, probe=s.probe, tracer=s.tracer,
            pruning=s.pruning,
        )
        _emit_timeline(s.tracer, res.timeline, label=engine)
    res.schedule = s.restore(res.schedule, res.stats)
    return res


def portfolio_schedule(
    graph: TaskGraph,
    system: ProcessorSystem,
    *,
    deadline: float | None = None,
    epsilon: float = 0.25,
    cost: str | None = None,
    max_expansions: int | None = 500_000,
    workers: int = 1,
    max_memory_mb: float | None = None,
    tracer: Tracer | None = None,
    probe_every: int | None = None,
    preprocess: bool = False,
) -> PortfolioResult:
    """Race the stage ladder against a wall-clock deadline.

    Parameters
    ----------
    graph, system:
        The problem instance.
    deadline:
        Total wall-clock seconds for all stages; ``None`` bounds each
        stage by ``max_expansions`` only.  Every stage's engine receives
        the *remaining* budget (``deadline - elapsed``), never the
        original allotment, so an overrunning early stage eats its own
        slack instead of the caller's deadline.
    epsilon:
        Sub-optimality factor for the weighted-A* improver stage.
    cost:
        Guiding cost function for the improver and exact stages;
        ``None``/``"auto"`` (the default) resolves via
        :func:`select_cost`, making the composite ``combined`` bound the
        exact-stage default wherever machine capacity can bind.
    max_expansions:
        Per-ladder expansion cap (the improver gets a quarter of it).
    workers:
        Worker processes for the exact stage; ``> 1`` hands instances
        with ``v > _HDA_MIN_V`` to the multiprocess HDA* engine (the
        stage keeps its deadline share and incumbent seeding) — except
        when the selector chose B&B for its O(depth) memory on
        high-CCR instances, which stays serial.  ``max_expansions``
        remains the memory backstop for the upgraded stage.
    max_memory_mb:
        Process-RSS ceiling forwarded to every stage's budget; a stage
        that hits it degrades to its incumbent + lower bound instead of
        growing without bound (HDA* divides its tracked-state share
        across workers and samples RSS per worker process).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`: every stage runs
        under a ``portfolio.<stage>`` span and the convergence timeline
        is emitted as a ``search.timeline`` event.
    probe_every:
        Sampling interval (expansions) for the convergence probe; one
        probe spans the whole ladder (the expansion axis accumulates
        across stages) and the series lands on ``result.timeline``.
        ``None`` (the default) disables sampling entirely.
    preprocess:
        Run the :mod:`repro.schedule.preprocess` reductions first and
        race the ladder on the reduced instance.  Adds a ``contract``
        warm-start stage when the instance has contractible chains
        (the contracted instance's answer unfolds into an incumbent —
        an upper bound only, never a proof), switches on symmetry
        normalization when the system is eligible, and restores the
        final schedule to the caller's node space.  Every applied
        reduction is makespan-preserving, so ``optimal``/``bound``/
        ``lower_bound`` carry over unchanged; results cached by the
        service layer stay valid across ``preprocess`` on/off.

    Fault tolerance: when the HDA* exact stage loses a worker (crash or
    stall) the ladder retries it **once** with the remaining deadline,
    then falls back to the serial engine — so a transient process death
    degrades the certificate at worst, never the answer.

    Guarantees: the returned makespan is never worse than the linear-time
    list schedule.  The engines' rule (:func:`~repro.search.result.certify`)
    decides the certificate at the exit: ``optimal`` iff the largest
    floor a searched stage proved meets the makespan (which also skips
    the stages left); else ``bound`` is the tightest ratio a stage
    proved (a completed improver's ``1 + epsilon`` survives an exact
    stage that times out).
    """
    t0 = time.perf_counter()
    s = _set_up(graph, system, cost=cost, preprocess=preprocess,
                tracer=tracer, probe_every=probe_every)
    graph = s.graph

    def remaining() -> float | None:
        if deadline is None:
            return None
        return deadline - (time.perf_counter() - t0)

    total = SearchStats()
    stages: list[StageReport] = []
    # The largest floor and smallest ratio the searched stages proved;
    # both hold for the incumbent, never longer than a stage's answer.
    lower, bound = 0.0, math.inf
    interrupted: str | None = None
    started = time.perf_counter()
    # The linear-time incumbent (the §3.2 U-bound heuristic).
    with s.tracer.span("portfolio.list"):
        best = fast_upper_bound_schedule(graph, system)
    winner, winner_algo = "list", "list(b-level)"
    stages.append(StageReport(
        stage="list", algorithm=winner_algo, makespan=best.length,
        improved=True, optimal=False, seconds=time.perf_counter() - started,
    ))

    def run(stage: str, engine: str, budget: Budget, *,
            attrs: dict[str, object], incumbent: Schedule | None = None,
            plan: ChainPlan | None = None) -> SearchResult:
        """The stage step: run one searched stage under its
        ``portfolio.<stage>`` span with the shared probe, and fold its
        answer in — a better schedule becomes the incumbent, a better or
        proven one names the winner, its floor and ratio join the
        ladder's, the stats and report are kept.

        With a chain ``plan`` the stage searches the contracted
        companion instance: no probe and no result event (its
        expansions are not the ladder's), and its answer unfolds into an
        incumbent only.  A proof there proves nothing here: contraction
        can exclude every optimal schedule (see the pinned
        counterexamples).
        """
        nonlocal best, winner, winner_algo, lower, bound
        started = time.perf_counter()
        probe = s.probe if plan is None else None
        with s.tracer.span(f"portfolio.{stage}", attrs=attrs):
            res = _run_engine(
                engine, graph if plan is None else plan.graph, system,
                budget=budget, epsilon=epsilon, cost=s.cost,
                incumbent=incumbent, workers=workers, probe=probe,
                tracer=s.tracer, pruning=s.pruning,
            )
            if plan is None:
                s.tracer.event("portfolio.stage.result", attrs={
                    "stage": stage, "algorithm": res.algorithm,
                    "makespan": res.length,
                    "expanded": res.stats.states_expanded,
                    "optimal": res.optimal, "interrupted": res.interrupted,
                })
        if probe is not None:
            probe.rebase(res.stats.states_expanded)
        found = res.schedule
        if found is not None and plan is not None:
            found = plan.unfold(found, graph)
        improved = found is not None and found.length < best.length
        proved = res.optimal and plan is None
        if improved:
            best = found
        if improved or proved:
            winner = stage.split("-")[0]
            winner_algo = res.algorithm if plan is None else f"contract({res.algorithm})"
        if plan is None:
            lower = max(lower, res.lower_bound)
            bound = min(bound, res.bound)
        total.merge(res.stats)
        stages.append(StageReport(
            stage=stage, algorithm=res.algorithm, makespan=res.length,
            improved=improved, optimal=proved,
            seconds=time.perf_counter() - started,
            expanded=res.stats.states_expanded,
        ))
        return res

    # -- chain-contraction warm-start probe --------------------------------
    # A short exact burst on the chain-contracted companion instance.
    plan = s.pre.chain_plan if s.pre is not None else None
    left = remaining()
    if plan is not None and (left is None or left > 0):
        run("contract", "astar", Budget(
            max_expanded=(
                _CONTRACT_PROBE_EXPANSIONS if max_expansions is None
                else min(_CONTRACT_PROBE_EXPANSIONS, max_expansions // 8)
            ),
            max_seconds=None if left is None else left * _IMPROVER_SHARE,
        ), attrs={"v": plan.graph.num_nodes, "cost": s.cost}, plan=plan)

    exact_engine = select_engine(graph, system)
    # A "bnb" selection is the deliberate high-CCR memory decision —
    # never overridden: HDA* is A*-family and holds full OPEN/CLOSED
    # lists in every worker.  The wastar fallback below is a size
    # decision, not a memory one, so workers may still upgrade it.
    memory_bound = exact_engine == "bnb"
    if exact_engine == "wastar":
        # The selector expects exact search to struggle here; still run
        # B&B last (memory-safe) so a generous deadline can prove bounds.
        exact_engine = "bnb"
    if workers > 1 and not memory_bound and graph.num_nodes > _HDA_MIN_V:
        # Large exact searches go multiprocess: HDA* keeps per-worker
        # dedup exact and reads the stage incumbent as its shared bound.
        exact_engine = "hda"

    # -- weighted-A* improver ----------------------------------------------
    left = remaining()
    if graph.num_nodes > _SMALL_V and (left is None or left > 0):
        run("improve", "wastar", Budget(
            max_expanded=None if max_expansions is None else max_expansions // 4,
            max_seconds=None if left is None else left * _IMPROVER_SHARE,
        ), attrs={"epsilon": epsilon, "cost": s.cost})

    # -- exact engine seeded with the shared incumbent ---------------------
    # Worker-failure recovery: an HDA* attempt that lost a worker is
    # retried once with whatever deadline is left, then handed to the
    # serial engine — three attempts at most, each seeded with the
    # current incumbent.
    attempts = [("exact", exact_engine)]
    if exact_engine == "hda":
        attempts += [("exact-retry", "hda"), ("exact-serial", "astar")]
    for stage_name, engine_name in attempts:
        left = remaining()
        # A floor that already meets the incumbent leaves nothing to do.
        if certify(best.length, lower, bound).optimal or (
            left is not None and left <= 0
        ):
            break
        res = run(stage_name, engine_name, Budget(
            max_expanded=max_expansions, max_seconds=left,
            max_memory_mb=max_memory_mb,
        ), attrs={"engine": engine_name, "cost": s.cost},
            incumbent=best)
        interrupted = res.interrupted
        if res.interrupted not in ("worker-failure", "worker-stall"):
            break  # finished, proved, or a plain budget stop — no retry

    total.wall_seconds = time.perf_counter() - t0
    verdict = certify(best.length, lower, bound, interrupted)
    timeline = s.probe.timeline() if s.probe is not None else ()
    _emit_timeline(s.tracer, timeline, label=(
        "improve" if verdict.optimal and winner == "improve" else "portfolio"))
    best = s.restore(best, total)
    return PortfolioResult(
        schedule=best, optimal=verdict.optimal, bound=verdict.bound,
        stats=total, algorithm=winner_algo, winner=winner,
        stages=tuple(stages), lower_bound=verdict.lower_bound,
        interrupted=verdict.interrupted, timeline=timeline,
    )


#: Longest sample list shipped inside one ``search.timeline`` event —
#: longer series are evenly downsampled (the endpoints always survive).
_TIMELINE_EVENT_CAP = 400


def _emit_timeline(tracer: Tracer, timeline: tuple, *, label: str) -> None:
    """Emit a convergence timeline as one ``search.timeline`` event."""
    if not timeline or not tracer.enabled:
        return
    samples = list(timeline)
    if len(samples) > _TIMELINE_EVENT_CAP:
        step = (len(samples) - 1) / (_TIMELINE_EVENT_CAP - 1)
        samples = [samples[round(i * step)] for i in range(_TIMELINE_EVENT_CAP)]
    tracer.event("search.timeline", attrs={
        "label": label,
        "samples": [s.as_dict() for s in samples],
    })
