"""Utility layer: bitsets, RNG streams, timing, stats, tables.

These are the low-level building blocks shared by the graph, search and
parallel subsystems.  They carry no scheduling semantics of their own.
Search OPEN lists use :mod:`heapq` directly.
"""

from repro.util.bitset import (
    bit_count,
    bit_indices,
    bits_from_iterable,
    first_set_bit,
    has_bit,
)
from repro.util.rng import RngStream, spawn_streams
from repro.util.stats import OnlineStats, summarize
from repro.util.tables import render_table
from repro.util.timing import Budget, Timer

__all__ = [
    "bit_count",
    "bit_indices",
    "bits_from_iterable",
    "first_set_bit",
    "has_bit",
    "RngStream",
    "spawn_streams",
    "OnlineStats",
    "summarize",
    "render_table",
    "Budget",
    "Timer",
]
