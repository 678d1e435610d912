"""The answer checker every workload runs on every answer it gets.

An answer fails when:

* its schedule is infeasible (:func:`repro.schedule.validate.schedule_violations`),
  or does not cover the instance, or its length differs from the reported
  makespan;
* its makespan or lower bound is not finite;
* ``lower_bound > makespan``;
* it claims ``proven`` while the lower bound is below the makespan, or while
  the makespan differs from the value pinned for its fingerprint in
  ``pins.json``;
* it disagrees with a twin that must have the same makespan (a relabelled
  repeat, a repeat pass of a deterministic stream, HDA* against serial A*).

Every failure is counted, and any failure makes the run exit non-zero.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.graph.taskgraph import TaskGraph
from repro.schedule.schedule import Schedule
from repro.schedule.validate import schedule_violations
from repro.system.processors import ProcessorSystem

PINS_FILE = Path(__file__).resolve().parent / "pins.json"

#: Absolute tolerance for comparing makespans (they are sums of integers).
TOL = 1e-6


def load_pins(path: Path = PINS_FILE) -> dict[str, float]:
    """Fingerprint -> proven makespan, for the default and reserved seeds."""
    if not path.exists():
        return {}
    return {k: float(v) for k, v in json.loads(path.read_text()).items()}


class Checker:
    """Thread-safe failure ledger plus the checks themselves."""

    def __init__(self, pins: dict[str, float] | None = None) -> None:
        self.pins = load_pins() if pins is None else pins
        self.attempted = 0
        self.pinned = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    @property
    def failed(self) -> int:
        return len(self.failures)

    def attempt(self) -> None:
        """Count one request (or solve) sent, answered or not."""
        with self._lock:
            self.attempted += 1

    def fail(self, label: str, why: str) -> None:
        with self._lock:
            self.failures.append(f"{label}: {why}")

    def check_result(
        self, label: str, graph: TaskGraph, system: ProcessorSystem,
        result: dict[str, Any], lower_bound: float | None = None,
    ) -> bool:
        """Check one solver answer (a job snapshot's ``result`` dict).

        ``lower_bound`` overrides ``result["lower_bound"]`` (cache hits
        carry none; the workload passes the bound from the priming solve).
        """
        problem = self._problem(graph, system, result, lower_bound)
        if problem is not None:
            self.fail(label, problem)
            return False
        return True

    def _problem(
        self, graph: TaskGraph, system: ProcessorSystem,
        result: dict[str, Any], lower_bound: float | None,
    ) -> str | None:
        try:
            makespan = float(result["makespan"])
            assignment = {
                int(n): (int(pe), float(start))
                for n, pe, start in result["assignment"]
            }
            schedule = Schedule(graph, system, assignment)
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            return f"unreadable answer: {type(exc).__name__}: {exc}"
        if not math.isfinite(makespan):
            return f"non-finite makespan {makespan!r}"
        violations = schedule_violations(schedule)
        if violations:
            return f"infeasible schedule: {violations[0]}"
        if abs(schedule.length - makespan) > TOL:
            return f"makespan {makespan} but schedule length {schedule.length}"
        lb = lower_bound if lower_bound is not None else result.get("lower_bound")
        if lb is not None:
            lb = float(lb)
            if not math.isfinite(lb):
                return f"non-finite lower bound {lb!r}"
            if lb > makespan + TOL:
                return f"lower bound {lb} above makespan {makespan}"
        if result.get("certificate") == "proven":
            if lb is not None and makespan - lb > TOL:
                return f"proven with a gap: makespan {makespan}, lower bound {lb}"
            pin = self.pins.get(str(result.get("fingerprint")))
            if pin is not None:
                with self._lock:
                    self.pinned += 1
                if abs(pin - makespan) > TOL:
                    return f"proven makespan {makespan} != pinned {pin}"
        return None

    def check_same(self, label: str, what: str, a: float, b: float) -> bool:
        """Two answers that must agree (twins, repeat passes, HDA* vs A*)."""
        if not (math.isfinite(a) and math.isfinite(b)) or abs(a - b) > TOL:
            self.fail(label, f"{what}: {a} != {b}")
            return False
        return True
