"""Shared 64-bit mixing primitives.

One home for the splitmix64 finalizer and its companion odd constants,
used by the search states' Zobrist placement keys
(:func:`repro.schedule.partial.placement_key`) and the schedule layer's
canonical fingerprints (:mod:`repro.schedule.fingerprint`).
"""

from __future__ import annotations

__all__ = ["MASK64", "PHI64", "PE64", "splitmix64"]

MASK64 = (1 << 64) - 1
PHI64 = 0x9E3779B97F4A7C15
PE64 = 0xC2B2AE3D27D4EB4F


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: full avalanche over the 64-bit lane."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x
