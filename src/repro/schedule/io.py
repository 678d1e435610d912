"""Schedule serialization.

The paper's introduction motivates optimal schedules partly by reuse:
"once an optimal schedule for a given problem is determined, it can be
re-used for efficient execution of the problem."  This module provides
that persistence: a JSON schema embedding the graph, the system
parameters and the assignment, validated on load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ScheduleError
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.schedule.schedule import Schedule
from repro.schedule.validate import validate_schedule
from repro.system.processors import system_from_dict, system_to_dict

__all__ = [
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule_json",
    "load_schedule_json",
]

_SCHEMA_VERSION = 1


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Serialize a schedule (with its graph and system) to a JSON-safe dict."""
    return {
        "schema": _SCHEMA_VERSION,
        "graph": graph_to_dict(schedule.graph),
        "system": system_to_dict(schedule.system),
        "assignment": [
            [t.node, t.pe, t.start] for t in schedule.tasks
        ],
        "length": schedule.length,
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Deserialize and **validate** a schedule.

    Raises
    ------
    ScheduleError
        On schema mismatch, missing fields, infeasible assignments, or a
        recorded length that disagrees with the reconstruction (guards
        against hand-edited files).
    """
    if data.get("schema") != _SCHEMA_VERSION:
        raise ScheduleError(f"unsupported schedule schema {data.get('schema')!r}")
    try:
        graph = graph_from_dict(data["graph"])
        system = system_from_dict(data["system"])
        assignment = {
            int(node): (int(pe), float(start))
            for node, pe, start in data["assignment"]
        }
        recorded_length = float(data["length"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from None
    schedule = Schedule(graph, system, assignment)
    validate_schedule(schedule)
    if abs(schedule.length - recorded_length) > 1e-6:
        raise ScheduleError(
            f"recorded length {recorded_length} disagrees with "
            f"reconstructed length {schedule.length}"
        )
    return schedule


def save_schedule_json(schedule: Schedule, path: str | Path) -> None:
    """Write a schedule to a JSON file."""
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule_json(path: str | Path) -> Schedule:
    """Read and validate a schedule from a JSON file."""
    return schedule_from_dict(json.loads(Path(path).read_text()))
