"""The HDA* transport: credit-bounded pipes and the batching outbox.

Invariants of :class:`~repro.parallel.shared.Links` and
:class:`~repro.parallel.shared.Outbox`: items batch into messages of at
most ``per_message`` items and at most ``Links.cap`` bytes; a full
credit window refuses a send at once (the batch stays local, the call
never blocks) and frees up as the receiver reads; every message is
counted as sent before it is written; ``drop_all`` discards what is
pending.
"""

import pickle
import time

import pytest

from repro.parallel.mp_backend import pool_context
from repro.parallel.shared import MESSAGE_BYTES, Links, Outbox, WorkerBoard


def _pair(item_bytes=64):
    ctx = pool_context()
    board = WorkerBoard(ctx, 2)
    links = Links(ctx, 2)
    return links, board, Outbox(0, links, board, item_bytes)


def _received(links, dst=1):
    return [pickle.loads(msg) for msg in links.receive(dst)]


class TestLinks:
    def test_window_fits_the_pipe_and_one_write_messages(self):
        links, _board, _out = _pair()
        try:
            assert 0 < links.cap <= MESSAGE_BYTES
            assert links.cap + 4 <= links.window
        finally:
            links.close()

    def test_receive_with_nothing_sent_is_empty(self):
        links, _board, _out = _pair()
        try:
            t0 = time.monotonic()
            assert links.receive(1, timeout=0.05) == []
            assert time.monotonic() - t0 < 2.0
        finally:
            links.close()


class TestOutbox:
    def test_batches_up_to_per_message_items(self):
        links, board, out = _pair(item_bytes=64)
        try:
            per = out.per_message
            assert per == (links.cap - 16) // 64
            for i in range(per - 1):
                out.send(1, i)
            assert out.pending  # below a full message: buffered
            assert links.receive(1) == []
            assert board.counters()["sent"] == 0
            out.send(1, per - 1)  # message full: shipped
            assert not out.pending
            assert _received(links) == [list(range(per))]
            assert board.counters()["sent"] == 1
            out.send(1, "tail")
            assert out.flush_all()  # partial batches ship on demand
            assert _received(links) == [["tail"]]
            assert (out.sent_states, out.sent_messages) == (per + 1, 2)
        finally:
            links.close()

    @pytest.mark.timeout(60)
    def test_full_window_refuses_at_once_and_never_blocks(self):
        links, board, out = _pair(item_bytes=1024)
        try:
            t0 = time.monotonic()
            # Far more than the window holds, with the receiver asleep.
            total = 4 * links.window // 1000
            for k in range(total):
                # Distinct objects: pickle would memoize a repeated one.
                out.send(1, k.to_bytes(4, "little") * 250)
            assert not out.flush_all()
            assert out.pending
            assert time.monotonic() - t0 < 5.0
            shipped = out.sent_states
            assert 0 < shipped < total
            # Held back, not counted: the sent counter matches the writes.
            assert board.counters()["sent"] == out.sent_messages
            # Reading acknowledges bytes and reopens the window.
            got = sum(len(batch) for batch in _received(links))
            assert got == shipped
            while out.pending:
                out.flush_all()
                got += sum(len(batch) for batch in _received(links))
            assert got == total == out.sent_states
        finally:
            links.close()

    def test_no_message_exceeds_the_cap(self):
        links, _board, out = _pair(item_bytes=600)
        try:
            items = [b"y" * (17 * k % 500) for k in range(400)]
            for item in items:
                out.send(1, item)
            out.flush_all()
            got = []
            while len(got) < len(items):
                for msg in links.receive(1, timeout=1.0):
                    assert len(msg) <= links.cap
                    got.extend(pickle.loads(msg))
            assert got == items
            assert out.sent_messages > 1
        finally:
            links.close()

    def test_item_larger_than_a_message_cannot_be_sent(self):
        links, _board, _out = _pair()
        try:
            big = Outbox(0, links, WorkerBoard(pool_context(), 2), links.cap)
            assert big.per_message == 0
        finally:
            links.close()

    def test_drop_all_discards_pending(self):
        links, board, out = _pair()
        try:
            out.send(1, "e")
            out.send(0, "f")
            assert out.pending
            out.drop_all()
            assert not out.pending
            assert out.flush_all()
            assert links.receive(1) == []
            assert board.counters()["sent"] == 0
        finally:
            links.close()
