"""Duplicate-detection tables for the search engines.

The engines' CLOSED check used to be a Python ``set`` of exact
``(mask, pes, starts)`` tuple signatures — O(v) to build and O(v) to
hash on *every* probe.  The delta-encoded states instead carry a
64-bit incrementally-maintained Zobrist hash, and their duplicate key is
the pair ``(scheduled-set mask, zobrist)``:

* the mask component verifies the scheduled node *set* exactly, so two
  states over different node sets can never be confused whatever the
  hash does;
* the Zobrist component fingerprints the ``(node, pe, start)``
  placements, so two states over the same node set collide only with
  probability ~2^-64 per pair (see DESIGN.md for the hashing scheme).

:class:`SignatureSet` wraps the plain-set fast path and adds the
verified-on-collision fallback: in ``verify`` mode every probe is
re-checked against the exact signature, hash collisions are counted in
:attr:`collisions`, and — crucially — a collision does *not* prune the
state, so verified runs are exact whatever the hash quality.  The
equivalence property tests run the engines in this mode to prove the
fast path never diverges on the tested instances.

The table is key-agnostic: the reference tuple-based states use their
exact signature as the key and the same code path works unchanged.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable

__all__ = ["SignatureSet"]


class SignatureSet:
    """A CLOSED/visited set keyed by state duplicate keys.

    Parameters
    ----------
    verify:
        When True, keep the exact signature of every admitted state and
        re-verify each probe that hits a known key; colliding-but-
        different states are admitted (not pruned) and counted in
        :attr:`collisions`.  Costs the old O(v) per probe — meant for
        tests, diagnostics, and paranoid runs, not the hot path.
    """

    __slots__ = ("_seen", "_exact", "collisions", "verify")

    def __init__(self, verify: bool = False) -> None:
        self._seen: set[Hashable] = set()
        # key -> set of exact signatures admitted under that key.
        self._exact: dict[Hashable, set] | None = {} if verify else None
        self.collisions = 0
        self.verify = verify

    # -- core protocol -------------------------------------------------------

    def check_add(
        self, key: Hashable, exact_fn: Callable[[], Hashable] | None = None
    ) -> bool:
        """Probe-and-admit in one step.

        Returns True when ``key`` identifies an already-seen placement
        (the caller should discard the candidate); otherwise records it
        and returns False.  ``exact_fn`` lazily produces the exact
        signature and is only invoked in ``verify`` mode.
        """
        seen = self._seen
        if key not in seen:
            seen.add(key)
            if self._exact is not None and exact_fn is not None:
                self._exact[key] = {exact_fn()}
            return False
        if self._exact is not None and exact_fn is not None:
            bucket = self._exact.get(key)
            if bucket is None:
                # Key admitted without an exact signature (e.g. via
                # add()); nothing to verify against.
                return True
            sig = exact_fn()
            if sig in bucket:
                return True
            # True hash collision: different placements, same key.
            # Admit the state — correctness over speed.
            self.collisions += 1
            bucket.add(sig)
            return False
        return True

    def seen(self, key: Hashable, exact_fn: Callable[[], Hashable] | None = None) -> bool:
        """Probe without admitting.

        Like :meth:`check_add` but never records anything: returns True
        when ``key`` identifies an already-seen placement.  In ``verify``
        mode a key hit is re-checked against the exact signature and a
        mismatch counts as a collision and reports unseen.  Callers that
        combine this with a later :meth:`add` (bounded tables, imported
        states) must pass the same ``exact_fn`` to both.
        """
        if key not in self._seen:
            return False
        if self._exact is not None and exact_fn is not None:
            bucket = self._exact.get(key)
            if bucket is None:
                return True
            if exact_fn() in bucket:
                return True
            self.collisions += 1
            return False
        return True

    def add(self, key: Hashable, exact_fn: Callable[[], Hashable] | None = None) -> None:
        """Record ``key`` without probing (roots, imported states)."""
        self._seen.add(key)
        if self._exact is not None and exact_fn is not None:
            self._exact.setdefault(key, set()).add(exact_fn())

    def __contains__(self, key: Hashable) -> bool:
        return key in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def copy(self) -> "SignatureSet":
        """Independent copy (per-PPE CLOSED lists fork from the seed set)."""
        dup = SignatureSet(verify=self.verify)
        dup._seen = set(self._seen)
        if self._exact is not None:
            dup._exact = {k: set(v) for k, v in self._exact.items()}
        dup.collisions = self.collisions
        return dup

    def __repr__(self) -> str:
        mode = "verify" if self.verify else "fast"
        return f"SignatureSet({len(self._seen)} keys, {mode})"
