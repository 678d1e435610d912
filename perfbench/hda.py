"""hda-2w: in-process HDA* with two worker processes on one same-work row.

The row is ``paper_suite()`` v16 / CCR 10 on its 16-PE clique: serial A*
and HDA* expand the same ~179k states there, so the wall-clock ratio is a
speed-up, not a search-order accident.  ``--seed`` does not change it.
"""

from __future__ import annotations

import multiprocessing.process
import random
import resource
import statistics
import time
from typing import Any

import inputs
import layers
from checker import Checker
from common import RunContext
from replay import search_metrics

from repro.parallel import hda as hda_mod
from repro.parallel import shared
from repro.schedule.partial import PartialSchedule
from repro.search.astar import astar_schedule
from repro.search.expansion import StateExpander
from repro.search.pruning import PruningConfig
from repro.search.result import SearchStats

WORKERS = 2
#: Set-ups (instance generation) per timed run; ``setup_s`` is their median.
SETUPS = 20

_perf = time.perf_counter


def _children_rusage() -> tuple[float, float]:
    """CPU seconds of reaped children, and the largest child's peak RSS (MB)."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def _solve(graph, system) -> tuple[Any, float]:  # type: ignore[no-untyped-def]
    t0 = _perf()
    res = hda_mod.hda_astar_schedule(graph, system, workers=WORKERS)
    return res, _perf() - t0


def _check(checker: Checker, label: str, graph, system, res) -> None:  # type: ignore[no-untyped-def]
    checker.attempt()
    result = {
        "makespan": res.length,
        "certificate": "proven" if res.optimal else "budget",
        "assignment": [[t.node, t.pe, t.start] for t in res.schedule.tasks],
        "lower_bound": res.lower_bound,
    }
    checker.check_result(label, graph, system, result)
    if not res.optimal:
        checker.fail(label, f"not proven: {res.algorithm}")
    checker.check_same(label, "HDA* vs serial A* optimum", res.length, inputs.HDA_OPTIMUM)


def _quality(results: list[Any]) -> dict[str, float]:
    return {
        "answer.proven_frac": sum(r.optimal for r in results) / len(results),
        "answer.gap_mean": sum((r.length - r.lower_bound) / r.lower_bound
                               for r in results) / len(results),
    }


def timed(ctx: RunContext, checker: Checker) -> dict[str, float]:
    setups = []
    for _ in range(SETUPS):
        t0 = _perf()
        graph, system = inputs.hda_row()
        setups.append(_perf() - t0)
    walls, results = [], []
    t_start = _perf()
    while not walls or _perf() - t_start < ctx.seconds:
        res, wall = _solve(graph, system)
        _check(checker, f"hda-solve-{len(walls)}", graph, system, res)
        walls.append(wall)
        results.append(res)
    measured = _perf() - t_start
    _, rss = _children_rusage()
    ctx.note(f"solves (s): {', '.join(f'{w:.3f}' for w in walls)}; "
             f"expanded {results[0].stats.states_expanded}")
    ctx.note("answers: " + ", ".join(f"{k} {v:.4f}" for k, v in _quality(results).items()))
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "throughput_rps": len(walls) / measured,
        "peak_rss_mb": rss,
    }


def wire_us(graph, system, states: int = 400, seed: int = 0) -> float:  # type: ignore[no-untyped-def]
    """Mean ``to_wire`` + ``from_wire`` time per state (µs) over states
    sampled along random root-to-leaf paths of the row."""
    r = random.Random(seed)
    expander = StateExpander(graph, system, PruningConfig.all(), SearchStats().pruning)
    sample = []
    while len(sample) < states:
        state = PartialSchedule.empty(graph, system)
        while not state.is_complete():
            children = list(expander.children(state))
            state = r.choice(children)
            sample.append(state)
    sample = sample[:states]
    t0 = _perf()
    for state in sample:
        PartialSchedule.from_wire(graph, system, state.to_wire())
    return (_perf() - t0) * 1e6 / len(sample)


def traced(ctx: RunContext, checker: Checker) -> dict[str, float]:
    graph, system = inputs.hda_row()
    ref, untraced = _solve(graph, system)
    _check(checker, "hda-untraced", graph, system, ref)

    t0 = _perf()
    serial = astar_schedule(graph, system)
    serial_s = _perf() - t0
    checker.attempt()
    checker.check_same("serial", "serial A* optimum", serial.length, inputs.HDA_OPTIMUM)

    # Coordinator phases: seed phase, worker spawn, search to quiescence,
    # shutdown and reduce.  Worker CPU comes from the reaped children.
    marks: dict[str, float] = {}
    with layers.Installer(layers.Recorder()) as inst:
        start = multiprocessing.process.BaseProcess.start
        quiescent = shared.WorkerBoard.quiescent

        def timed_start(proc: Any) -> None:
            t = _perf()
            marks.setdefault("first_start", t)
            start(proc)
            marks["last_start_end"] = _perf()

        def timed_quiescent(board: Any) -> bool:
            done = quiescent(board)
            if done:
                marks["quiescent"] = _perf()
            return done

        inst.replace(multiprocessing.process.BaseProcess, "start", timed_start)
        inst.replace(shared.WorkerBoard, "quiescent", timed_quiescent)
        cpu0, _ = _children_rusage()
        t0 = _perf()
        res, _ = _solve(graph, system)
        t_end = _perf()
        cpu1, _ = _children_rusage()
    _check(checker, "hda-traced", graph, system, res)
    wall = t_end - t0
    # A row the seed phase alone proves spawns no worker.
    first = marks.get("first_start", t_end)
    spawned = marks.get("last_start_end", first)
    quiet = marks.get("quiescent", spawned)
    phases = {
        "hda.seed_s": first - t0,
        "hda.spawn_s": spawned - first,
        "hda.search_s": quiet - spawned,
        "hda.shutdown_s": t_end - quiet,
    }

    rec = layers.Recorder()
    with layers.Installer(rec) as inst:
        layers.search_targets(inst)
        t0 = _perf()
        wrapped = astar_schedule(graph, system)
        serial_traced_s = _perf() - t0
    out = search_metrics(rec.snapshot(), [wrapped.stats], serial_traced_s,
                         wrapped.stats.wall_seconds)
    speedup = serial_s / untraced
    out.update(phases)
    out.update({
        "hda.expanded": float(ref.stats.states_expanded),
        "hda.extra_expanded": float(ref.stats.states_expanded - serial.stats.states_expanded),
        "hda.cpu_busy_frac": (cpu1 - cpu0) / (WORKERS * wall),
        "hda.speedup": speedup,
        "hda.efficiency": speedup / WORKERS,
        "hda.wire_us": wire_us(graph, system),
        "ledger.e2e_ms": wall * 1e3,
        "ledger.untraced_e2e_ms": untraced * 1e3,
        "ledger.overhead_ms": (wall - untraced) * 1e3,
        "ledger.residual_ms": (wall - sum(phases.values())) * 1e3,
    })
    out["ledger.closure"] = (sum(phases.values()) * 1e3 + out["ledger.residual_ms"]) / (wall * 1e3)
    out.update(_quality([ref, res]))
    ctx.note(f"serial A* {serial_s:.3f} s, HDA* {untraced:.3f} s untraced, "
             f"{wall:.3f} s with phase marks")
    return out
