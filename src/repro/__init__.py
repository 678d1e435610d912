"""repro — Optimal and near-optimal DAG scheduling via A* search.

A production-quality reproduction of:

    Ishfaq Ahmad and Yu-Kwong Kwok, "Optimal and Near-Optimal Allocation
    of Precedence-Constrained Tasks to Parallel Processors: Defying the
    High Complexity Using Effective Search Techniques", ICPP 1998.

Quickstart
----------
>>> from repro import TaskGraph, ProcessorSystem, astar_schedule
>>> g = TaskGraph([2, 3, 3, 4, 5, 2], {(0, 1): 1, (0, 2): 1, (0, 3): 2,
...                                     (1, 4): 1, (2, 4): 1, (3, 5): 4,
...                                     (4, 5): 5})
>>> result = astar_schedule(g, ProcessorSystem.ring(3))
>>> result.schedule.length
14.0

Public surface
--------------
* problem model: :class:`TaskGraph`, :class:`ProcessorSystem`,
  :class:`Schedule`;
* exact schedulers: :func:`astar_schedule` (serial A*),
  :func:`bnb_schedule` (depth-first B&B),
  :func:`parallel_astar_schedule` (simulated parallel A*),
  :func:`hda_astar_schedule` (real cores, hash-distributed
  shared-incumbent HDA*);
* approximate scheduler: :func:`focal_schedule` (Aε*, ε-admissible);
* heuristics: :func:`list_schedule`, :func:`insertion_list_schedule`,
  :func:`cpmisf_schedule`;
* baseline: :func:`chen_yu_schedule`;
* service layer: :func:`instance_fingerprint`, :class:`ResultCache`,
  :func:`portfolio_schedule`, :func:`select_engine`, :func:`run_batch`
  (see :mod:`repro.service`);
* workloads and experiment drivers under :mod:`repro.workloads` and
  :mod:`repro.experiments`.
"""

from repro.baselines.chen_yu import chen_yu_schedule
from repro.errors import (
    BudgetExceeded,
    CycleError,
    GraphError,
    ReproError,
    ScheduleError,
    SearchError,
    WorkloadError,
)
from repro.graph.analysis import compute_levels, critical_path, graph_ccr
from repro.graph.examples import paper_example_dag, paper_example_system
from repro.graph.taskgraph import TaskGraph
from repro.heuristics.cpmisf import cpmisf_schedule
from repro.heuristics.insertion import insertion_list_schedule
from repro.heuristics.listsched import list_schedule
from repro.parallel.hda import hda_astar_schedule
from repro.parallel.machine import MachineSpec
from repro.parallel.metrics import measure_speedup
from repro.parallel.parallel_astar import parallel_astar_schedule
from repro.schedule.gantt import render_gantt
from repro.schedule.schedule import Schedule
from repro.schedule.validate import validate_schedule
from repro.graph.stg import load_stg, parse_stg, save_stg
from repro.graph.transform import reverse_graph, scale_to_ccr
from repro.schedule.metrics import ScheduleMetrics, analyze_schedule
from repro.search.astar import astar_schedule
from repro.search.bnb import bnb_schedule
from repro.search.enumerate import enumerate_optimal
from repro.search.focal import focal_schedule
from repro.search.idastar import idastar_schedule
from repro.search.weighted import weighted_astar_schedule
from repro.search.pruning import PruningConfig
from repro.search.result import SearchResult
from repro.service.batch import run_batch
from repro.service.cache import ResultCache
from repro.schedule.fingerprint import instance_fingerprint
from repro.service.portfolio import portfolio_schedule, select_engine
from repro.system.processors import ProcessorSystem
from repro.util.timing import Budget

__version__ = "1.0.0"

__all__ = [
    "TaskGraph",
    "ProcessorSystem",
    "Schedule",
    "SearchResult",
    "PruningConfig",
    "Budget",
    "MachineSpec",
    "astar_schedule",
    "focal_schedule",
    "bnb_schedule",
    "idastar_schedule",
    "weighted_astar_schedule",
    "enumerate_optimal",
    "analyze_schedule",
    "ScheduleMetrics",
    "reverse_graph",
    "scale_to_ccr",
    "parse_stg",
    "load_stg",
    "save_stg",
    "parallel_astar_schedule",
    "instance_fingerprint",
    "portfolio_schedule",
    "select_engine",
    "run_batch",
    "ResultCache",
    "hda_astar_schedule",
    "chen_yu_schedule",
    "list_schedule",
    "insertion_list_schedule",
    "cpmisf_schedule",
    "measure_speedup",
    "compute_levels",
    "critical_path",
    "graph_ccr",
    "paper_example_dag",
    "paper_example_system",
    "render_gantt",
    "validate_schedule",
    "ReproError",
    "GraphError",
    "CycleError",
    "ScheduleError",
    "SearchError",
    "BudgetExceeded",
    "WorkloadError",
    "__version__",
]
