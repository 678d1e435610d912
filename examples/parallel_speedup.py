#!/usr/bin/env python3
"""Parallel A* speedup sweep (a slice of the paper's Figure 6).

Runs the simulated parallel A* on 2/4/8/16 mesh-connected PPEs over a
few §4.1 random graphs and prints the speedup table, then runs the
real-cores HDA* engine on the same kind of instance.

Run:  python examples/parallel_speedup.py
"""

import time

from repro import (
    Budget,
    MachineSpec,
    astar_schedule,
    hda_astar_schedule,
    measure_speedup,
)
from repro.graph.generators.random_paper import PaperGraphSpec, paper_random_graph
from repro.system.processors import ProcessorSystem
from repro.util.tables import render_table


def main() -> None:
    budget = Budget(max_expanded=100_000, max_seconds=20.0)
    rows = []
    for v, ccr, seed in [(10, 1.0, 42), (12, 10.0, 7), (14, 1.0, 3)]:
        graph = paper_random_graph(PaperGraphSpec(num_nodes=v, ccr=ccr, seed=seed))
        system = ProcessorSystem.fully_connected(v)
        serial = astar_schedule(graph, system, budget=budget)
        row: list[object] = [f"v={v} ccr={ccr}"]
        for q in (2, 4, 8, 16):
            report, _ = measure_speedup(
                graph, system, MachineSpec(num_ppes=q, topology="mesh"),
                serial_result=serial, budget=budget,
            )
            row.append(f"{report.speedup:.2f}")
        rows.append(row)

    print(render_table(
        ["instance", "2 PPEs", "4 PPEs", "8 PPEs", "16 PPEs"],
        rows,
        title="Simulated parallel A* speedup (mesh topology, Figure-6 style)",
    ))

    # Real cores: HDA* with two worker processes on one instance.
    graph = paper_random_graph(PaperGraphSpec(num_nodes=12, ccr=1.0, seed=11))
    system = ProcessorSystem.fully_connected(12)
    t0 = time.perf_counter()
    serial = astar_schedule(graph, system, budget=budget)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = hda_astar_schedule(graph, system, workers=2)
    t_parallel = time.perf_counter() - t0
    print("\nHDA* on real cores (2 worker processes):")
    print(f"  serial A*  : length {serial.length:g} in {t_serial:.2f}s")
    print(f"  2 workers  : length {parallel.length:g} in {t_parallel:.2f}s")
    print("  (on instances this small, process startup can outweigh the")
    print("   parallelism — the same overhead the paper's Figure 6 shows")
    print("   shrinking speedups for small graphs)")
    assert abs(serial.length - parallel.length) < 1e-9


if __name__ == "__main__":
    main()
