"""Search results and statistics shared by every engine."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.schedule.schedule import Schedule
from repro.search.pruning import PruningStats
from repro.util import tolerance as tol

__all__ = ["SearchStats", "SearchResult", "Verdict", "certify"]


@dataclass
class SearchStats:
    """Machine-independent work counters for one search run.

    The paper's Table 1 reports seconds on the Intel Paragon; these
    counters are the reproducible equivalents — they drive the same
    comparisons without depending on 1998 hardware.
    """

    states_generated: int = 0
    states_expanded: int = 0
    cost_evaluations: int = 0
    max_open_size: int = 0
    wall_seconds: float = 0.0
    pruning: PruningStats = field(default_factory=PruningStats)

    @property
    def duplicate_rate(self) -> float:
        """Fraction of expansion candidates killed by duplicate detection.

        Derived from the counters (it used to be a field nobody set and
        ``as_dict`` dropped).  Every candidate that reaches the
        duplicate check either hits it, gets cut by the generation-time
        upper bound, or is counted as generated — so those three
        counters together are the denominator.
        """
        candidates = (
            self.states_generated
            + self.pruning.duplicate_hits
            + self.pruning.upper_bound_cuts
        )
        return self.pruning.duplicate_hits / candidates if candidates else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat dict for reports."""
        return {
            "states_generated": self.states_generated,
            "states_expanded": self.states_expanded,
            "cost_evaluations": self.cost_evaluations,
            "max_open_size": self.max_open_size,
            "duplicate_rate": self.duplicate_rate,
            "wall_seconds": self.wall_seconds,
            **self.pruning.as_dict(),
        }

    def merge(self, other: "SearchStats") -> None:
        """Fold another run's counters into this one, in place.

        The single aggregation path for *every* multi-run consumer —
        the portfolio summing its stages, the HDA* coordinator reducing
        the ``SearchStats`` each worker ships back — so new counters
        only ever need to be added here.

        Work counters add; ``max_open_size`` takes the max (frontiers
        coexist, they don't concatenate); ``wall_seconds`` is *not*
        touched — elapsed time is end-to-end, not a sum over
        possibly-concurrent runs, so the caller owns it.
        """
        self.states_generated += other.states_generated
        self.states_expanded += other.states_expanded
        self.cost_evaluations += other.cost_evaluations
        self.max_open_size = max(self.max_open_size, other.max_open_size)
        self.pruning.merge(other.pruning)


class Verdict(NamedTuple):
    """The certificate fields of a result, as :func:`certify` decides
    them (named as on :class:`SearchResult`)."""

    optimal: bool
    bound: float
    lower_bound: float
    interrupted: str | None


def certify(length: float, lower: float, bound: float,
            interrupted: str | None = None) -> Verdict:
    """The one proof rule: a floor that meets the length proves it.

    ``lower`` is a proven floor on the optimum, ``bound`` the ratio the
    caller proved otherwise (``inf``: none).  A floor that meets
    ``length`` up to drift (:func:`~repro.util.tolerance.proves_bound`
    at ε = 0) makes the result optimal: floor = length, bound 1, not
    interrupted.  Otherwise the floor is capped at the length.
    """
    if tol.proves_bound(length, 0.0, lower):
        return Verdict(True, 1.0, length, None)
    return Verdict(False, bound, min(lower, length), interrupted)


@dataclass
class SearchResult:
    """Outcome of a scheduling search.

    Attributes
    ----------
    schedule:
        The best complete schedule found (``None`` only when a budget
        expired before any goal was reached).
    optimal:
        True exactly when ``lower_bound`` meets the length
        (:func:`certify`): whatever the engine and however it stopped,
        a proven floor equal to the schedule's length proves it.
    bound:
        The proven factor on the ratio to optimal: 1.0 for optimal
        results, ``(1 + ε)`` for a bounded-suboptimal engine that ran to
        its end, ``inf`` for one its budget stopped.
    stats:
        Work counters.
    algorithm:
        Engine label for reports.
    lower_bound:
        Tightest *proven* lower bound on the optimal makespan seen
        before the engine stopped, capped at the schedule length: the
        engine-specific admissible floor (min f over the unexplored
        frontier, the current IDA* threshold, …) — what turns a
        best-effort incumbent into a *certified-approximate* answer,
        and, when it meets the length, a proof.
    interrupted:
        ``None`` for a run that finished on its own or proved its
        schedule; otherwise the budget reason that stopped it (``"expansions"``,
        ``"generations"``, ``"time"``, ``"memory"``, ``"interrupt"``,
        or a backend-specific cause such as ``"worker-failure"``).
    timeline:
        Convergence samples recorded by a
        :class:`repro.obs.probe.SearchProbe` when one was passed to the
        engine (``()`` otherwise).  Each sample is ``(wall_time,
        expansions, open_size, incumbent, lower_bound)`` and the series
        is monotone: wall time and expansions non-decreasing, incumbent
        non-increasing, lower bound non-decreasing.
    """

    schedule: Schedule | None
    optimal: bool
    bound: float
    stats: SearchStats
    algorithm: str
    lower_bound: float = 0.0
    interrupted: str | None = None
    timeline: tuple = ()

    @property
    def length(self) -> float:
        """Length of the returned schedule (inf when none was found)."""
        return self.schedule.length if self.schedule is not None else float("inf")

    @property
    def certificate(self) -> str:
        """What this result proves about its schedule.

        ``"proven"`` — the schedule is optimal; ``"epsilon"`` — within a
        proven factor (:attr:`bound`) of optimal; ``"budget"`` — best
        effort, no guarantee (the search hit its budget).  This is the
        value the service layer's result cache stores and keys staleness
        decisions on.
        """
        if self.optimal:
            return "proven"
        if math.isfinite(self.bound):
            return "epsilon"
        return "budget"
