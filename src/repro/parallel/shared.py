"""Shared-memory coordination and transport for the HDA* backend.

Four small primitives, each wrapping raw :mod:`multiprocessing`
objects behind the exact protocol the search needs:

* :class:`SharedIncumbent` — the one number every worker's §3.2
  upper-bound pruning reads: the best complete-schedule length found
  anywhere.  Updates are compare-and-set under the value's lock; reads
  are lock-free (a stale read only makes pruning momentarily less
  aggressive, never wrong).
* :class:`WorkerBoard` — per-worker idle flags plus sent/received
  message counters, each slot written by exactly one process, used for
  distributed quiescence detection (below).
* :class:`Links` — one one-way pipe per ordered worker pair, written
  by the sending worker's own thread (no feeder thread), with a
  *credit window* per pipe so no write can block (below).
* :class:`Outbox` — per-destination batching of outgoing states so one
  pickle and one pipe write amortize over every state that fits in a
  :attr:`Links.cap`-byte message.

Quiescence detection
--------------------

The search is done when every worker is idle (empty OPEN, empty inbox)
and no message is in flight.  :meth:`WorkerBoard.quiescent` implements
the classic counter protocol: workers increment their ``sent`` slot
*before* writing a batch to a pipe, and clear their idle flag *before*
incrementing ``received`` after reading one.  The detector then reads
``idle → counters → idle → counters``; a batch in flight shows up as
``sum(sent) > sum(received)`` (sender counted first), and a batch
consumed between the two scans shows up as a cleared idle flag or a
counter change.  Only a stable double-read — all idle, sums equal,
twice — reports quiescence.  A batch the credit window holds back stays
in the sender's :class:`Outbox`, which keeps that worker non-idle
(:attr:`Outbox.pending`), so held-back work can never look quiescent.

Credit windows
--------------

Each pipe ``src → dst`` has a window: the bytes ``src`` has written
minus the bytes ``dst`` has acknowledged in a shared counter only
``dst`` writes.  ``src`` writes a message only when the window has room
for it, and the window is sized so that everything it admits fits in
the pipe's kernel buffer — so a write never blocks, and the
bounded-buffer deadlock cycle (A blocked writing to B, B blocked
writing to A) cannot form.  A message is at most :attr:`Links.cap`
(≤ 16 KiB) bytes, which :class:`multiprocessing.connection.Connection`
sends as *one* ``write``: a worker killed mid-send cannot leave half a
message for its peer to block on.
"""

from __future__ import annotations

import mmap
import pickle
import select
import time
from multiprocessing.connection import Connection, wait
from typing import Any

from repro.util.hashing import MASK64, splitmix64

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = ["SharedIncumbent", "WorkerBoard", "Links", "Outbox", "owner_of"]

#: Largest message payload: ``Connection.send_bytes`` writes header and
#: payload in one ``write`` up to this size and in two above it.
MESSAGE_BYTES = 16384
#: Kernel buffer requested per pipe (``F_SETPIPE_SZ``, Linux).
_PIPE_BYTES = 1 << 20
#: ``Connection.send_bytes`` prefixes every payload with a 4-byte length.
_HEADER_BYTES = 4
#: Pickle framing of a message's list, beyond its items (protocol 5:
#: PROTO, FRAME, EMPTY_LIST, MEMOIZE, MARK, APPENDS, STOP).
_LIST_BYTES = 16


def owner_of(key: tuple[int, int], workers: int) -> int:
    """The worker that owns the state with duplicate key ``key``.

    Pure arithmetic over the ``(mask, zobrist)`` pair, so every process
    maps equal states to the same owner — that single-owner property is
    what keeps each worker's local :class:`~repro.search.dedup.
    SignatureSet` a globally-exact CLOSED check.  The zobrist component
    is already well mixed; folding the (possibly > 64-bit) mask in and
    re-finalizing decorrelates ownership from the OPEN-order structure
    the zobrist keys inherit from placement arithmetic.
    """
    mask, zkey = key
    return splitmix64((zkey ^ (mask & MASK64)) & MASK64) % workers


class SharedIncumbent:
    """A shared, monotonically-decreasing upper bound.

    Semantics: :meth:`value` is always the length of a *real* schedule
    (the initial list-schedule bound or a complete state some worker
    found), so pruning states with ``f >= value`` never loses the
    optimum — the schedule realizing ``value`` is retained by whoever
    produced it.
    """

    def __init__(self, ctx: Any, initial: float) -> None:
        # RawValue + explicit lock: mp.Value's `.value` accessor takes
        # the lock on every *read*, and the workers read once per
        # expansion.  An aligned 8-byte read is atomic on every
        # platform CPython runs on, so reads go lock-free; only the
        # compare-and-set write serializes.
        self._val = ctx.RawValue("d", initial)
        self._lock = ctx.Lock()

    def try_improve(self, length: float) -> bool:
        """Install ``length`` if it beats the current bound (CAS)."""
        with self._lock:
            if length < self._val.value:
                self._val.value = length
                return True
            return False

    @property
    def value(self) -> float:
        """Current bound; lock-free read (stale reads are safe)."""
        return self._val.value


class WorkerBoard:
    """Idle flags + message counters for quiescence detection.

    Every slot has exactly one writer (its worker), so the arrays are
    created lock-free; cross-process visibility is provided by the
    shared ``mmap`` backing and the protocol ordering documented in the
    module docstring.
    """

    def __init__(self, ctx: Any, workers: int) -> None:
        self.workers = workers
        self._idle = ctx.Array("b", workers, lock=False)
        self._sent = ctx.Array("q", workers, lock=False)
        self._received = ctx.Array("q", workers, lock=False)
        self._expanded = ctx.Array("q", workers, lock=False)
        self._generated = ctx.Array("q", workers, lock=False)
        #: Per-worker liveness timestamps (time.monotonic — comparable
        #: across processes on one host, which is the only place
        #: multiprocessing workers live).  Single writer per slot.
        self._beat = ctx.Array("d", workers, lock=False)

    # -- worker side ---------------------------------------------------------

    def heartbeat(self, wid: int) -> None:
        """Stamp worker ``wid`` alive *and making loop progress*.

        Workers call this once per main-loop iteration — including idle
        iterations — so a worker that is alive but wedged inside one
        expansion (or an injected stall) stops beating and the
        supervisor can tell it apart from a merely idle one.
        """
        self._beat[wid] = time.monotonic()

    def stamp_all(self) -> None:
        """Initialize every heartbeat to now (parent, before spawn) so
        slow process startup is not misread as a stall."""
        now = time.monotonic()
        for i in range(self.workers):
            self._beat[i] = now

    def count_sent(self, wid: int) -> None:
        """Record one outgoing batch; call *before* the pipe write."""
        self._sent[wid] += 1

    def count_received(self, wid: int) -> None:
        """Record one consumed batch; call *after* clearing idle."""
        self._received[wid] += 1

    def set_idle(self, wid: int, idle: bool) -> None:
        self._idle[wid] = 1 if idle else 0

    def publish_progress(self, wid: int, expanded: int, generated: int) -> None:
        """Publish this worker's absolute work counts (per chunk).

        Feeds the *global* expansion/generation budgets: any worker
        compares the sums against the shared caps, so one
        hash-imbalanced worker cannot strand the rest of the budget the
        way a static per-worker split would.
        """
        self._expanded[wid] = expanded
        self._generated[wid] = generated

    def total_progress(self) -> tuple[int, int]:
        """Sums of published (expanded, generated) counts (racy
        snapshot — stale by at most one chunk per worker, which bounds
        budget overshoot)."""
        return sum(self._expanded), sum(self._generated)

    # -- detector side -------------------------------------------------------

    def stale_workers(self, timeout: float) -> list[int]:
        """Workers whose last heartbeat is older than ``timeout`` seconds.

        The supervisor's hung-worker detector: a dead process also stops
        beating, but the parent already catches that faster via
        ``Process.is_alive``; this is for the live-but-stuck case the
        quiescence protocol alone would wait on forever.
        """
        cutoff = time.monotonic() - timeout
        return [i for i in range(self.workers) if self._beat[i] < cutoff]

    def _scan(self) -> tuple[bool, int, int]:
        return (
            all(self._idle[i] for i in range(self.workers)),
            sum(self._sent),
            sum(self._received),
        )

    def quiescent(self) -> bool:
        """Stable double-read: all idle and no batch in flight, twice."""
        idle1, sent1, recv1 = self._scan()
        if not idle1 or sent1 != recv1:
            return False
        idle2, sent2, recv2 = self._scan()
        return idle2 and sent2 == sent1 and recv2 == recv1

    def counters(self) -> dict[str, int]:
        """Totals for diagnostics (racy snapshot; fine for reports)."""
        return {"sent": sum(self._sent), "received": sum(self._received)}


def _pipe_capacity(conn: Connection) -> int:
    """Bytes the pipe behind write end ``conn`` buffers before a write
    blocks: grown to ``_PIPE_BYTES`` where ``F_SETPIPE_SZ`` exists and
    the grow is allowed, else the size the kernel reports, else the
    ``PIPE_BUF`` capacity POSIX guarantees."""
    get_size = getattr(fcntl, "F_GETPIPE_SZ", None)
    if get_size is None:
        return select.PIPE_BUF
    fd = conn.fileno()
    try:
        return fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except OSError:
        # EPERM/EBUSY past the per-user pipe quota: keep the kernel's size.
        return fcntl.fcntl(fd, get_size)


class Links:
    """One one-way pipe per ordered worker pair, with credit windows.

    Created by the parent before the workers fork; worker ``src`` writes
    ``src → dst`` from its own thread and worker ``dst`` reads it.  The
    ``_acked`` slot of a pipe is written only by its reader, and the
    written-bytes tally lives in the sender's own process, so every
    counter has one writer.

    The window admits at most ``(capacity − 2·page) / 2`` bytes in
    flight.  Linux stores pipe data in page-sized slots and starts a
    write on a fresh slot when its tail does not fit the last one, so
    each message can strand less than its own length at the end of a
    slot; the reader's partly-consumed slot and the writer's open slot
    strand at most a page each.  Everything the window admits therefore
    fits the buffer, and no write blocks.
    """

    def __init__(self, ctx: Any, workers: int) -> None:
        self.workers = workers
        #: ``_writers[src][dst]`` / ``_readers[dst]`` = ``[(src, conn)]``.
        self._writers: list[list[Connection | None]] = [
            [None] * workers for _ in range(workers)
        ]
        self._readers: list[list[tuple[int, Connection]]] = [
            [] for _ in range(workers)
        ]
        capacity = None
        for src in range(workers):
            for dst in range(workers):
                if src == dst:
                    continue
                r, w = ctx.Pipe(duplex=False)
                self._writers[src][dst] = w
                self._readers[dst].append((src, r))
                size = _pipe_capacity(w)
                capacity = size if capacity is None else min(capacity, size)
        page = mmap.PAGESIZE
        #: Bytes allowed in flight per pipe (0: no message fits).
        self.window = max(0, ((capacity or 0) - 2 * page) // 2)
        #: Largest message payload, header excluded.
        self.cap = max(0, min(MESSAGE_BYTES, self.window - _HEADER_BYTES))
        self._acked = ctx.Array("q", workers * workers, lock=False)
        self._written = [[0] * workers for _ in range(workers)]

    def has_room(self, src: int, dst: int, nbytes: int) -> bool:
        """Whether a ``nbytes``-payload message fits ``src → dst``'s window."""
        in_flight = self._written[src][dst] - self._acked[src * self.workers + dst]
        return in_flight + nbytes + _HEADER_BYTES <= self.window

    def write(self, src: int, dst: int, msg: bytes) -> None:
        """Send one message; the caller checked :meth:`has_room`."""
        self._writers[src][dst].send_bytes(msg)  # type: ignore[union-attr]
        self._written[src][dst] += len(msg) + _HEADER_BYTES

    def receive(self, dst: int, timeout: float = 0.0) -> list[bytes]:
        """Every message waiting for ``dst``, acknowledged to its senders.

        Blocks up to ``timeout`` seconds for the first one.  A message
        is one ``write``, so a readable pipe holds whole messages and
        ``recv_bytes`` never waits mid-message.
        """
        readers = self._readers[dst]
        ready = wait([conn for _src, conn in readers], timeout)
        if not ready:
            return []
        out: list[bytes] = []
        for src, conn in readers:
            if conn not in ready:
                continue
            got = 0
            while True:
                msg = conn.recv_bytes()
                out.append(msg)
                got += len(msg) + _HEADER_BYTES
                if not conn.poll():
                    break
            self._acked[src * self.workers + dst] += got
        return out

    def close(self) -> None:
        """Close every pipe end this process holds."""
        for row in self._writers:
            for conn in row:
                if conn is not None:
                    conn.close()
        for readers in self._readers:
            for _src, conn in readers:
                conn.close()


class Outbox:
    """Per-destination batches of outgoing states over :class:`Links`.

    States headed to worker ``j`` accumulate in ``self.batches[j]`` and
    ship as one message once ``per_message`` of them wait (or on demand
    — before the owner may go idle, an unflushed batch would deadlock
    the quiescence protocol by hiding work from the counters).  Every
    item pickles to at most ``item_bytes``, so ``per_message`` items fit
    one :attr:`Links.cap`-byte message.

    Sends never block: a message the destination's credit window has no
    room for stays local for a later retry, and the batch keeps growing
    meanwhile (flushes then ship it in ``per_message`` slices).  The
    retry converges because every worker drains its inbound pipes at
    each loop iteration before expanding.
    """

    def __init__(
        self, wid: int, links: Links, board: WorkerBoard, item_bytes: int
    ) -> None:
        self.wid = wid
        self.links = links
        self.board = board
        #: Items per message.  0 when one item alone exceeds the cap:
        #: then nothing can be sent, and callers keep every item local.
        self.per_message = max(0, (links.cap - _LIST_BYTES) // item_bytes)
        self.batches: list[list[Any]] = [[] for _ in range(links.workers)]
        # Transfer counters, updated per message: shipped states,
        # messages and payload bytes, and seconds pickling and writing.
        self.sent_states = 0
        self.sent_messages = 0
        self.sent_bytes = 0
        self.encode_s = 0.0

    def send(self, dest: int, item: Any) -> None:
        """Buffer ``item`` for ``dest``; try to flush a full message."""
        batch = self.batches[dest]
        batch.append(item)
        if len(batch) >= self.per_message:
            self.flush_one(dest)

    def flush_one(self, dest: int) -> bool:
        """Ship ``dest``'s batch; False while its window is full."""
        batch = self.batches[dest]
        links = self.links
        per = self.per_message
        sent = 0
        while sent < len(batch):
            # Conservative: room for a full-cap message, checked before
            # pickling so a full window costs no pickle.
            if not links.has_room(self.wid, dest, links.cap):
                break
            t0 = time.perf_counter()
            part = batch[sent:sent + per]
            msg = pickle.dumps(part, pickle.HIGHEST_PROTOCOL)
            # Count before the write: a detector that sees the pipe still
            # empty must already see sent > received (module docstring).
            self.board.count_sent(self.wid)
            links.write(self.wid, dest, msg)
            sent += len(part)
            self.sent_states += len(part)
            self.sent_messages += 1
            self.sent_bytes += len(msg)
            self.encode_s += time.perf_counter() - t0
        if sent:
            del batch[:sent]
        return not batch

    def flush_all(self) -> bool:
        """Try every pending batch; True when all of them shipped."""
        done = True
        for dest in range(len(self.batches)):
            if self.batches[dest]:
                done &= self.flush_one(dest)
        return done

    @property
    def pending(self) -> bool:
        """True while any batch is waiting on a full window."""
        return any(self.batches)

    def drop_all(self) -> None:
        """Discard pending batches without sending (shutdown path)."""
        for batch in self.batches:
            batch.clear()
