"""Parallel A* scheduling (paper §3.3) on a simulated message-passing machine.

The paper ran on the Intel Paragon.  Per the substitution table in
DESIGN.md, we reproduce the *algorithmic* quantities that drive its
speedup results — per-PPE expansions, communication rounds, duplicated
work from local-only CLOSED lists — on a deterministic discrete-event
simulation (:mod:`repro.parallel.machine`), and run the same search on
real cores with the hash-distributed shared-incumbent HDA* engine
(:mod:`repro.parallel.hda`, registered as ``engine="hda"`` in
:mod:`repro.search`).  :mod:`repro.parallel.mp_backend` holds the
persistent worker pool the service layer dispatches on.
"""

from repro.parallel.hda import hda_astar_schedule
from repro.parallel.machine import MachineSpec, PPENetwork
from repro.parallel.metrics import SpeedupReport, measure_speedup
from repro.parallel.parallel_astar import ParallelResult, parallel_astar_schedule

__all__ = [
    "MachineSpec",
    "PPENetwork",
    "parallel_astar_schedule",
    "ParallelResult",
    "SpeedupReport",
    "measure_speedup",
    "hda_astar_schedule",
]
