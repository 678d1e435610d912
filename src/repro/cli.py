"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``example``
    Run the paper's worked example (Figure 1-4): prints the levels
    table, the search statistics and the optimal Gantt chart.
``table1`` / ``figure6`` / ``figure7``
    Regenerate the corresponding paper artefact on the §4.1 workload.
``ablation`` / ``heuristics``
    The extension experiments (per-rule pruning ablation, heuristic
    deviation from optimal).
``schedule``
    Schedule a task-graph JSON file on a chosen system.
``generate``
    Emit a §4.1 random task graph as JSON.
``solve``
    Serve one instance through the service layer: fingerprint, result
    cache, and the deadline-driven portfolio (or the statically-selected
    single engine).
``batch``
    Serve many instances (a directory, a JSON-lines stream, or the §4.1
    suite) with fingerprint dedupe, caching, and multi-process dispatch.
``serve``
    Run the solver daemon: an asyncio HTTP front-end over the same
    service stack, with a persistent worker pool, bounded admission
    queue, in-flight dedupe, and graceful SIGTERM drain.
``route``
    Run the fleet front-end: consistent-hash routing across N shard
    daemons with health probing, per-shard circuit breakers, failover,
    and drain/rejoin — optionally spawning the shards itself.
``trace``
    Report on a JSONL trace file written via ``--obs-trace``: per-span
    durations, portfolio stage attribution, convergence timelines, and
    daemon event counts (``--check`` validates schema + span nesting).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.service.batch import SolveOptions

__all__ = ["main", "build_parser"]

#: Registered cost-function names (mirrors repro.search.costs.
#: COST_FUNCTIONS; kept literal so the parser builds without importing
#: the package) plus the service-layer "auto" sentinel.
_COST_NAMES = ["paper", "improved", "zero", "load", "combined"]
#: PruningConfig presets for the ``schedule`` command.
_PRUNING_PRESETS = ["all", "extended", "fixed-order", "none"]
#: ``--topology`` name -> ProcessorSystem factory classmethod name.
_TOPOLOGIES = {
    "clique": "fully_connected",
    "ring": "ring",
    "chain": "chain",
    "star": "star",
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal DAG scheduling via A* search (ICPP'98 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("example", help="run the paper's worked example")

    for name in ("table1", "figure6", "figure7", "ablation", "heuristics"):
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--sizes", type=int, nargs="*", default=None,
                       help="graph sizes (default: 10..20 step 2)")
        p.add_argument("--ccrs", type=float, nargs="*", default=None,
                       help="CCR values (default: 0.1 1.0 10.0)")
        p.add_argument("--full", action="store_true",
                       help="the paper's full 10..32 sweep (slow)")
        p.add_argument("--max-expansions", type=int, default=200_000)
        p.add_argument("--max-seconds", type=float, default=60.0)

    p = sub.add_parser("schedule", help="schedule a task-graph JSON/STG file")
    p.add_argument("graph", help="path to a graph file (.json or .stg)")
    p.add_argument("--pes", type=int, default=4, help="number of processors")
    p.add_argument("--topology", default="clique", choices=_TOPOLOGIES)
    p.add_argument("--algorithm", default="astar",
                   choices=["astar", "bnb", "idastar", "focal", "wastar",
                            "hda", "list", "chen-yu"])
    p.add_argument("--epsilon", type=float, default=None,
                   help="ε for --algorithm focal/wastar/hda "
                        "(default: 0.2 for focal/wastar, 0 = exact for hda)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes for --algorithm hda")
    p.add_argument("--cost", default="paper", choices=_COST_NAMES,
                   help="guiding cost function (default: the paper's §3.1 "
                        "bound; 'combined' adds the load-balance bound)")
    p.add_argument("--pruning", default="all", choices=_PRUNING_PRESETS,
                   help="pruning preset: the paper's §3.2 rules ('all'), "
                        "plus the commutation ('extended') or "
                        "fixed-task-order ('fixed-order') extension, or "
                        "'none'")
    p.add_argument("--max-expansions", type=int, default=500_000)
    p.add_argument("--trace", action="store_true",
                   help="print the search tree (astar only)")

    p = sub.add_parser("generate", help="emit a §4.1 random graph as JSON")
    p.add_argument("--nodes", type=int, default=14)
    p.add_argument("--ccr", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="solve one instance via the service layer")
    p.add_argument("graph", help="path to a graph file (.json or .stg)")
    p.add_argument("--pes", type=int, default=4, help="number of processors")
    p.add_argument("--topology", default="clique", choices=_TOPOLOGIES)
    _add_solver_args(p, hda_flag="--workers", max_expansions=500_000,
                     require_proven=False)
    p.add_argument("--cache", default=None,
                   help="result-cache SQLite file (omit for no persistence)")
    _add_obs_args(p)

    p = sub.add_parser("batch", help="solve many instances via the service layer")
    p.add_argument("input", nargs="?", default=None,
                   help="directory of graph JSON files or a JSON-lines "
                        "request stream (default: the §4.1 suite)")
    p.add_argument("--pes", type=int, default=None,
                   help="PE count for bare graph files (default: v)")
    p.add_argument("--workers", type=int, default=1,
                   help="OS processes for the solve fan-out (composes "
                        "with --solver-workers; the two compete for "
                        "cores, so prefer one axis of parallelism)")
    _add_solver_args(p, hda_flag="--solver-workers")
    p.add_argument("--cache", default=None,
                   help="result-cache SQLite file (omit for no persistence)")
    p.add_argument("--out", default=None,
                   help="write per-instance results as JSON lines")
    _add_obs_args(p)

    p = sub.add_parser("serve", help="run the solver HTTP daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listen port (0 picks a free one)")
    p.add_argument("--solver-workers", type=int, default=1,
                   help="persistent worker processes solving requests")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="max unique jobs pending before 429")
    p.add_argument("--cache", default=None,
                   help="result-cache SQLite file (omit for in-memory)")
    # The per-request defaults: a request body overrides each by the
    # SolveOptions field of the same name (also the per-job HDA* width,
    # which has no flag here: --solver-workers sizes the request pool).
    _add_solver_args(p, hda_flag=None)
    p.add_argument("--shard-id", default=None, metavar="NAME",
                   help="fleet identity: labels /metrics, the deep "
                        "healthz payload, and the readiness line "
                        "(set by 'repro route --spawn')")
    p.add_argument("--cache-capacity", type=int, default=None,
                   help="in-memory result-cache entries kept hot "
                        "(default 512)")
    _add_obs_args(p)

    p = sub.add_parser(
        "route",
        help="run the fleet router over N 'repro serve' shards")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listen port (0 picks a free one)")
    p.add_argument("--shard", action="append", default=[],
                   metavar="HOST:PORT[=NAME]",
                   help="join an already-running shard (repeatable)")
    p.add_argument("--spawn", type=int, default=0, metavar="N",
                   help="spawn N local shard daemons and route over them")
    p.add_argument("--replicas", type=int, default=64,
                   help="virtual nodes per shard on the hash ring")
    p.add_argument("--probe-interval", type=float, default=0.5,
                   help="seconds between background health probes")
    p.add_argument("--shallow-probes", action="store_true",
                   help="probe /healthz instead of /healthz?deep=1")
    p.add_argument("--failure-threshold", type=int, default=3,
                   help="consecutive failures before a shard's "
                        "circuit breaker opens")
    p.add_argument("--reset-timeout", type=float, default=1.0,
                   help="initial breaker open period (doubles per "
                        "re-trip, capped at --max-reset-timeout)")
    p.add_argument("--max-reset-timeout", type=float, default=30.0)
    p.add_argument("--forward-timeout", type=float, default=300.0,
                   help="budget for one forwarded solve request")
    # Passthrough configuration for --spawn shards.
    p.add_argument("--solver-workers", type=int, default=1)
    p.add_argument("--queue-limit", type=int, default=64)
    p.add_argument("--cache", default=None,
                   help="shard result-cache spec; use shared:PATH so "
                        "failover replays hit warm results fleet-wide")
    p.add_argument("--cache-capacity", type=int, default=None)
    p.add_argument("--deadline", type=float, default=None)
    p.add_argument("--max-expansions", type=int, default=200_000)

    p = sub.add_parser("trace", help="report on a JSONL trace file")
    p.add_argument("file", help="trace file written via --obs-trace")
    p.add_argument("--check", action="store_true",
                   help="validate only (schema + span nesting); "
                        "exit 1 on problems")

    p = sub.add_parser(
        "lint",
        help="run the repro.analysis invariant checker (CI gate)")
    p.add_argument("paths", nargs="*", default=["src", "tests"],
                   help="files or directories to lint (default: src tests)")
    p.add_argument("--rules", default=None, metavar="ID[,ID...]",
                   help="comma-separated rule ids to run (default: all; "
                        "see --list-rules)")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   dest="fmt", help="report format on stdout")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="baseline file; matching findings pass, entries "
                        "matching nothing are reported as stale")
    p.add_argument("--check-baseline", action="store_true",
                   help="exit 1 when the baseline has stale entries "
                        "(keeps the committed baseline minimal)")
    p.add_argument("--write-baseline", default=None, metavar="FILE",
                   help="write current findings as a fresh baseline "
                        "and exit 0")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the JSON report to FILE (any --format)")
    p.add_argument("--list-rules", action="store_true",
                   help="list registered rules and exit")
    return parser


def _add_solver_args(
    p: argparse.ArgumentParser,
    *,
    hda_flag: str | None,
    max_expansions: int = 200_000,
    require_proven: bool = True,
) -> None:
    """The solver options shared by solve/batch/serve: one flag per
    :class:`~repro.service.batch.SolveOptions` field, read back by
    :func:`_solve_options`.  ``hda_flag`` names the per-solve HDA*
    worker flag (``None``: no flag, width 1); ``require_proven=False``
    leaves out ``--require-proven``."""
    p.add_argument("--mode", default="portfolio", choices=["portfolio", "auto"],
                   help="stage ladder or single selected engine")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-solve wall-clock budget in seconds")
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="ε for the weighted-A* improver stage")
    p.add_argument("--cost", default="auto", choices=["auto", *_COST_NAMES],
                   help="guiding cost function ('auto' picks the composite "
                        "'combined' bound wherever capacity can bind)")
    p.add_argument("--max-expansions", type=int, default=max_expansions)
    p.add_argument("--max-memory-mb", type=float, default=None,
                   help="per-solve process-RSS ceiling: the search returns "
                        "its incumbent + lower bound instead of growing "
                        "past it")
    p.add_argument("--preprocess", action="store_true",
                   help="run the makespan-preserving graph reductions "
                        "(transitive-edge removal, symmetry "
                        "normalization, chain warm-start) before search")
    if require_proven:
        p.add_argument("--require-proven", action="store_true",
                       help="treat unproven cache entries as stale")
    else:
        p.set_defaults(require_proven=False)
    if hda_flag is not None:
        p.add_argument(hda_flag, dest="hda_workers", type=int, default=1,
                       help="HDA* worker processes per solve for the exact "
                            "search stage (> 1 runs the multiprocess engine)")
    else:
        p.set_defaults(hda_workers=1)


def _solve_options(args: argparse.Namespace) -> SolveOptions:
    """The :class:`~repro.service.batch.SolveOptions` of the
    :func:`_add_solver_args` flags; raises ``ValueError`` when one is
    out of range."""
    from repro.service.batch import SolveOptions

    return SolveOptions(
        deadline=args.deadline,
        epsilon=args.epsilon,
        cost=args.cost,
        max_expansions=args.max_expansions,
        mode=args.mode,
        solver_workers=args.hda_workers,
        max_memory_mb=args.max_memory_mb,
        preprocess=args.preprocess,
        require_proven=args.require_proven,
    )


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """The telemetry options shared by solve/batch/serve."""
    p.add_argument("--obs-trace", default=None, metavar="FILE",
                   help="append structured trace events (JSONL) to FILE; "
                        "read it back with 'repro trace FILE'")
    p.add_argument("--probe-every", type=int, default=None, metavar="N",
                   help="sample search convergence every N expansions "
                        "(timelines land in the trace; defaults to 4096 "
                        "when --obs-trace is set)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "example":
        return _cmd_example()
    if args.command in ("table1", "figure6", "figure7", "ablation", "heuristics"):
        return _cmd_experiment(args)
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "generate":
        return _cmd_generate(args)
    service = {"solve": _cmd_solve, "batch": _cmd_batch, "serve": _cmd_serve}
    if args.command in service:
        # One options record per command, checked before anything
        # solves or binds.
        try:
            options = _solve_options(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return service[args.command](args, options)
    if args.command == "route":
        return _cmd_route(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _obs_from_args(args: argparse.Namespace):
    """``(tracer, probe_every)`` from the shared telemetry options."""
    from repro.obs.probe import DEFAULT_PROBE_INTERVAL
    from repro.obs.trace import Tracer

    tracer = Tracer(args.obs_trace) if args.obs_trace else None
    probe_every = args.probe_every
    if probe_every is None and tracer is not None:
        probe_every = DEFAULT_PROBE_INTERVAL
    return tracer, probe_every


def _cmd_example() -> int:
    from repro.graph.analysis import compute_levels
    from repro.graph.examples import paper_example_dag, paper_example_system
    from repro.schedule.gantt import render_gantt
    from repro.search.astar import astar_schedule
    from repro.search.diagnostics import SearchTrace
    from repro.util.tables import render_table

    graph = paper_example_dag()
    system = paper_example_system()
    levels = compute_levels(graph)
    rows = [
        [graph.label(n), levels.static_level[n], levels.b_level[n], levels.t_level[n]]
        for n in range(graph.num_nodes)
    ]
    print(render_table(["node", "sl", "b-level", "t-level"], rows,
                       title="Figure 2 — levels", float_fmt="{:g}"))
    trace = SearchTrace()
    result = astar_schedule(graph, system, trace=trace)
    print(f"\nsearch: {result.stats.states_generated} states generated, "
          f"{result.stats.states_expanded} expanded")
    print("\nSearch tree (Figure 3):")
    print(trace.render())
    print("\nOptimal schedule (Figure 4):")
    print(render_gantt(result.schedule))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.ablation import run_ablation
    from repro.experiments.figure6 import run_figure6
    from repro.experiments.figure7 import run_figure7
    from repro.experiments.heuristics import run_heuristic_comparison
    from repro.experiments.runner import ExperimentConfig
    from repro.experiments.table1 import run_table1
    from repro.workloads.suite import DEFAULT_SIZES, PAPER_CCRS, paper_suite

    sizes = tuple(args.sizes) if args.sizes else DEFAULT_SIZES
    ccrs = tuple(args.ccrs) if args.ccrs else PAPER_CCRS
    suite = paper_suite(ccrs=ccrs, sizes=sizes, full=args.full)
    config = ExperimentConfig(
        max_expansions=args.max_expansions, max_seconds=args.max_seconds
    )
    if args.command == "table1":
        res = run_table1(suite, config)
        print(res.render())
        print()
        print(res.render_work())
    elif args.command == "figure6":
        print(run_figure6(suite, config).render())
    elif args.command == "figure7":
        print(run_figure7(suite, config).render())
    elif args.command == "ablation":
        print(run_ablation(suite, config).render())
    else:
        print(run_heuristic_comparison(suite, config).render())
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.heuristics.listsched import list_schedule
    from repro.schedule.gantt import render_gantt, render_timeline
    from repro.search.astar import astar_schedule
    from repro.search.bnb import bnb_schedule
    from repro.search.diagnostics import SearchTrace
    from repro.search.focal import focal_schedule
    from repro.search.idastar import idastar_schedule
    from repro.search.pruning import PruningConfig
    from repro.search.weighted import weighted_astar_schedule
    from repro.util.timing import Budget

    graph = _load_graph_arg(args.graph)
    system = _system_arg(args)
    budget = Budget(max_expanded=args.max_expansions)
    if args.algorithm in ("list", "chen-yu") and (
        args.cost != "paper" or args.pruning != "all"
    ):
        # list is a heuristic and chen-yu carries its own bound (the
        # path-matching underestimate IS the baseline) and none of the
        # §3.2 rules: silently ignoring the flags would corrupt any
        # cross-algorithm comparison the user is running.
        print(f"error: --cost/--pruning do not apply to "
              f"--algorithm {args.algorithm}", file=sys.stderr)
        return 2
    if args.algorithm == "list":
        sched = list_schedule(graph, system)
        print(render_timeline(sched))
        print(render_gantt(sched))
        return 0
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = 0.0 if args.algorithm == "hda" else 0.2
    pruning = {
        "all": PruningConfig.all,
        "extended": PruningConfig.extended,
        "fixed-order": PruningConfig.with_fixed_order,
        "none": PruningConfig.none,
    }[args.pruning]()
    cost = args.cost
    trace = SearchTrace() if args.trace and args.algorithm == "astar" else None
    if args.algorithm == "astar":
        result = astar_schedule(graph, system, budget=budget, trace=trace,
                                cost=cost, pruning=pruning)
    elif args.algorithm == "bnb":
        result = bnb_schedule(graph, system, budget=budget, cost=cost,
                              pruning=pruning)
    elif args.algorithm == "idastar":
        result = idastar_schedule(graph, system, budget=budget, cost=cost,
                                  pruning=pruning)
    elif args.algorithm == "wastar":
        result = weighted_astar_schedule(graph, system, epsilon,
                                         budget=budget, cost=cost,
                                         pruning=pruning)
    elif args.algorithm == "hda":
        from repro.parallel.hda import hda_astar_schedule

        result = hda_astar_schedule(
            graph, system, workers=args.workers, epsilon=epsilon,
            budget=budget, cost=cost, pruning=pruning,
        )
    elif args.algorithm == "chen-yu":
        from repro.baselines.chen_yu import chen_yu_schedule

        result = chen_yu_schedule(graph, system, budget=budget)
    else:
        result = focal_schedule(graph, system, epsilon, budget=budget,
                                cost=cost, pruning=pruning)
    if trace is not None:
        print(trace.render())
    print(f"algorithm: {result.algorithm}   optimal: {result.optimal}   "
          f"length: {result.length:g}")
    print(f"states: {result.stats.states_generated} generated / "
          f"{result.stats.states_expanded} expanded in "
          f"{result.stats.wall_seconds:.3f}s")
    if result.schedule is not None:
        print(render_gantt(result.schedule))
    return 0


def _load_graph_arg(path: str):
    """The graph file at ``path``; a malformed graph (a repeated edge,
    a cycle, a bad weight) prints ``error: <path>: <message>`` and exits 2."""
    from repro.errors import GraphError
    from repro.graph.io import load_graph_json
    from repro.graph.stg import load_stg

    try:
        return load_stg(path) if path.endswith(".stg") else load_graph_json(path)
    except GraphError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _system_arg(args: argparse.Namespace):
    """The ``--topology`` machine with ``--pes`` processors."""
    from repro.system.processors import ProcessorSystem

    return getattr(ProcessorSystem, _TOPOLOGIES[args.topology])(args.pes)


class _interruptible:
    """Route SIGTERM through KeyboardInterrupt for the duration of a
    ``with`` block, so ``kill <pid>`` and Ctrl-C take the same clean
    partial-results path in ``solve``/``batch`` (the run_batch contract)
    instead of dying mid-write with no report."""

    def __enter__(self) -> "_interruptible":
        import signal

        def _to_interrupt(signum, frame):
            raise KeyboardInterrupt

        try:
            self._prev = signal.signal(signal.SIGTERM, _to_interrupt)
        except ValueError:  # non-main thread (embedded use)
            self._prev = None
        return self

    def __exit__(self, *exc: object) -> None:
        import signal

        if self._prev is not None:
            signal.signal(signal.SIGTERM, self._prev)


def _cmd_solve(args: argparse.Namespace, options: SolveOptions) -> int:
    from repro.schedule.gantt import render_gantt
    from repro.service.batch import BatchItem, run_batch
    from repro.service.cache import ResultCache

    graph = _load_graph_arg(args.graph)
    system = _system_arg(args)
    cache = ResultCache(args.cache) if args.cache else None
    tracer, probe_every = _obs_from_args(args)
    try:
        with _interruptible():
            report = run_batch(
                [BatchItem(name=graph.name, graph=graph, system=system)],
                cache=cache,
                options=options,
                tracer=tracer,
                probe_every=probe_every,
            )
    except KeyboardInterrupt:
        print("repro solve: interrupted before a result was available",
              file=sys.stderr)
        return 130
    finally:
        if cache is not None:
            cache.close()
        if tracer is not None:
            tracer.close()
    if report.interrupted and not report.outcomes:
        print("repro solve: interrupted before a result was available",
              file=sys.stderr)
        return 130
    out = report.outcomes[0]
    via = "cache" if out.cached else (out.winner or out.algorithm)
    print(f"fingerprint: {out.fingerprint}")
    print(f"algorithm: {out.algorithm}   certificate: {out.certificate}   "
          f"length: {out.makespan:g}   via: {via}")
    print(f"solved in {out.seconds:.3f}s "
          f"({report.wall_seconds:.3f}s end-to-end)")
    print(render_gantt(out.schedule))
    if args.obs_trace:
        print(f"trace written to {args.obs_trace} "
              f"(read it with: repro trace {args.obs_trace})")
    return 130 if report.interrupted else 0


def _cmd_batch(args: argparse.Namespace, options: SolveOptions) -> int:
    import json as _json

    from repro.service.batch import items_from_suite, load_items, run_batch
    from repro.service.cache import ResultCache

    if args.input is None:
        items = items_from_suite()
    else:
        items = load_items(args.input, pes=args.pes)
    cache = ResultCache(args.cache) if args.cache else None
    tracer, probe_every = _obs_from_args(args)
    try:
        with _interruptible():
            report = run_batch(
                items,
                cache=cache,
                workers=args.workers,
                options=options,
                tracer=tracer,
                probe_every=probe_every,
            )
    except KeyboardInterrupt:
        print("repro batch: interrupted before any result was available",
              file=sys.stderr)
        return 130
    finally:
        if cache is not None:
            cache.close()
        if tracer is not None:
            tracer.close()
    print(report.render())
    if args.out:
        with open(args.out, "w") as fh:
            for outcome in report.outcomes:
                fh.write(_json.dumps(outcome.as_dict()) + "\n")
        print(f"wrote {len(report.outcomes)} results to {args.out}")
    if report.interrupted:
        print("repro batch: interrupted — partial results above",
              file=sys.stderr)
        return 130
    return 0


def _cmd_serve(args: argparse.Namespace, options: SolveOptions) -> int:
    import threading

    from repro.service.server import SolverServer

    server = SolverServer(
        args.host,
        args.port,
        solver_workers=args.solver_workers,
        queue_limit=args.queue_limit,
        cache=args.cache,
        options=options,
        obs_trace=args.obs_trace,
        probe_every=args.probe_every,
        shard_id=args.shard_id,
        cache_capacity=args.cache_capacity,
    )
    # Readiness (with the bound port — --port 0 picks a free one) is
    # announced from the event loop, after the listener exists, so a
    # supervisor can wait for this line before routing traffic.  The
    # optional "shard=NAME" token is what 'repro route --spawn' and
    # the fleet harness scrape to learn the advertised address.
    shard_token = f" shard={args.shard_id}" if args.shard_id else ""
    ready_thread = threading.Thread(
        target=lambda: (
            server.ready.wait(),
            print(f"repro serve: listening on http://{server.host}:{server.port}"
                  f"{shard_token} "
                  f"(workers={args.solver_workers}, queue={args.queue_limit})",
                  flush=True),
        ),
        daemon=True,
    )
    ready_thread.start()
    report = server.run()
    jobs = report["jobs"]
    print(f"repro serve: drained — {jobs['accepted']} accepted, "
          f"{jobs['completed']} completed, {jobs['failed']} failed, "
          f"{jobs['solved']} solved, {jobs['cache_hits']} cache hits, "
          f"{jobs['dedup_fanout']} deduped, {jobs['rejected']} rejected",
          flush=True)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    import threading

    from repro.service.fleet import spawn_fleet
    from repro.service.router import Shard, ShardRouter

    if not args.shard and args.spawn <= 0:
        print("repro route: need --shard and/or --spawn", file=sys.stderr)
        return 2
    spawned = []
    if args.spawn > 0:
        print(f"repro route: spawning {args.spawn} shard(s)...", flush=True)
        spawned = spawn_fleet(
            args.spawn,
            solver_workers=args.solver_workers,
            queue_limit=args.queue_limit,
            cache=args.cache,
            cache_capacity=args.cache_capacity,
            deadline=args.deadline,
            max_expansions=args.max_expansions,
        )
        for shard in spawned:
            print(f"repro route: shard {shard.name} on http://{shard.address}",
                  flush=True)
    try:
        shards: list[Shard | str] = [
            Shard(s.name, s.host, s.port) for s in spawned
        ]
        shards += list(args.shard)
        router = ShardRouter(
            shards,
            args.host,
            args.port,
            replicas=args.replicas,
            probe_interval=args.probe_interval,
            deep_probes=not args.shallow_probes,
            forward_timeout=args.forward_timeout,
            failure_threshold=args.failure_threshold,
            reset_timeout=args.reset_timeout,
            max_reset_timeout=args.max_reset_timeout,
        )
        ready_thread = threading.Thread(
            target=lambda: (
                router.ready.wait(),
                print(f"repro route: listening on "
                      f"http://{router.host}:{router.port} "
                      f"(shards={len(router.shards)})",
                      flush=True),
            ),
            daemon=True,
        )
        ready_thread.start()
        report = router.run()
        routing = report["routing"]
        print(f"repro route: drained — {routing['requests']} requests, "
              f"{routing['routed']} routed, {routing['failovers']} failovers, "
              f"{routing['no_shard']} unroutable", flush=True)
    finally:
        for shard in spawned:
            shard.terminate()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.report import check_trace, load_trace, render_report

    try:
        lines = Path(args.file).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        print(f"repro trace: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    if args.check:
        return check_trace(lines, sys.stdout)
    try:
        records = load_trace(lines)
    except ValueError as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 1
    try:
        render_report(records, sys.stdout)
    except BrokenPipeError:
        # Truncated by a pager (`repro trace f | head`): not an error.
        sys.stderr.close()
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
    from repro.graph.io import graph_to_dict

    spec = PaperGraphSpec(num_nodes=args.nodes, ccr=args.ccr, seed=args.seed)
    print(json.dumps(graph_to_dict(paper_random_graph(spec)), indent=2))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        available_rules,
        lint_paths,
        write_baseline,
    )

    if args.list_rules:
        for rule_id, severity, description in available_rules():
            print(f"{rule_id:<22} {severity:<8} {description}")
        return 0

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        report = lint_paths(
            args.paths,
            rules=rules,
            baseline=args.baseline,
            root=Path.cwd(),
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        count = write_baseline(args.write_baseline, report.findings)
        print(f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} "
              f"to {args.write_baseline}")
        return 0

    if args.out:
        Path(args.out).write_text(
            json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
    if args.fmt == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())

    if report.findings:
        return 1
    if args.check_baseline and report.stale_baseline:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
