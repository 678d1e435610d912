"""Unit tests for the persistent worker pool."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from multiprocessing.connection import wait
from pathlib import Path

import pytest

from repro.parallel.mp_backend import SolverPool, _warmup
from repro.system.processors import ProcessorSystem, system_from_dict, system_to_dict
from tests.procs import HAVE_PROC, ignored_signals, wait_empty

SYSTEMS = {
    "clique": ProcessorSystem.fully_connected(3),
    "ring": ProcessorSystem.ring(4),
    "chain": ProcessorSystem.chain(3),
    "mesh": ProcessorSystem.mesh(2, 3),
    "hypercube": ProcessorSystem.hypercube(2),
    "hetero-star": ProcessorSystem.star(4, speeds=[2.0, 1.0, 1.5, 1.0]),
    "distance-scaled": ProcessorSystem(
        4, [(0, 1), (1, 2), (2, 3)], distance_scaled=True, name="scaled-chain",
    ),
}


class TestSystemArgs:
    @pytest.mark.parametrize("key", sorted(SYSTEMS))
    def test_round_trip_through_json(self, key):
        """Systems cross the process boundary (and the daemon's HTTP
        body) as JSON-safe dicts and come back equal."""
        system = SYSTEMS[key]
        back = system_from_dict(json.loads(json.dumps(system_to_dict(system))))
        assert back == system
        assert back.name == system.name
        pes = range(system.num_pes)
        assert [[back.comm_time(5.0, a, b) for b in pes] for a in pes] == [
            [system.comm_time(5.0, a, b) for b in pes] for a in pes
        ]


class TestSolverPool:
    def test_submit_and_map(self):
        with SolverPool(2) as pool:
            assert pool.workers == 2 and not pool.closed
            assert pool.submit(_warmup).result() > 0
            assert pool.map(abs, [-1, 2, -3]) == [1, 2, 3]

    def test_warm_prespawns_workers(self):
        pool = SolverPool(2)
        pool.warm()
        assert len(pool.executor._processes) == 2
        pool.close()
        assert pool.closed

    def test_closed_pool_raises(self):
        pool = SolverPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(abs, 1)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SolverPool(0)

    def test_persistent_pool_survives_multiple_rounds(self):
        """The point of the abstraction: worker processes are reused."""
        with SolverPool(1) as pool:
            pids = {pool.submit(_warmup).result() for _ in range(4)}
        assert len(pids) == 1

    def test_workers_get_default_stop_signals(self):
        """A daemon's SIGTERM handler must not leak into its workers."""
        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            with SolverPool(1) as pool:
                got = pool.submit(signal.getsignal, signal.SIGTERM).result()
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert got == signal.SIG_DFL

    def test_workers_get_the_default_interrupt_handler(self):
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            with SolverPool(1) as pool:
                got = pool.submit(signal.getsignal, signal.SIGINT).result()
        finally:
            signal.signal(signal.SIGINT, previous)
        assert got is signal.default_int_handler

    def test_workers_drop_the_inherited_wakeup_fd(self):
        """A signal delivered to a worker must not be written into the
        parent's event-loop wakeup fd."""
        reader, writer = socket.socketpair()
        writer.setblocking(False)
        previous = signal.set_wakeup_fd(writer.fileno())
        try:
            with SolverPool(1) as pool:
                inherited = pool.submit(signal.set_wakeup_fd, -1).result()
        finally:
            signal.set_wakeup_fd(previous)
            reader.close()
            writer.close()
        assert inherited == -1

    @pytest.mark.timeout(60)
    def test_workers_release_inherited_sockets(self):
        """A worker forked while a connection is open must not hold it:
        once the parent closes its end, the peer reads EOF at once."""
        ours, peer = socket.socketpair()
        try:
            with SolverPool(1) as pool:
                pool.submit(_warmup).result()  # forks with ``ours`` open
                ours.close()
                peer.settimeout(5.0)
                assert peer.recv(1) == b""
        finally:
            ours.close()
            peer.close()

    @pytest.mark.timeout(60)
    def test_sigterm_stops_a_worker_of_a_parent_that_ignores_it(self):
        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        pool = SolverPool(1)
        try:
            pid = pool.submit(_warmup).result()
            (process,) = pool.executor._processes.values()
            assert process.pid == pid
            if HAVE_PROC:
                # The worker does not inherit its parent's SIG_IGN.
                assert signal.SIGTERM not in ignored_signals(pid)
            os.kill(pid, signal.SIGTERM)
            # Wait on the sentinel instead of reaping: the executor's
            # manager thread reaps the dead worker too, and whichever
            # waitpid loses reads no status until the winner stores it.
            assert wait([process.sentinel], timeout=30)
            deadline = time.monotonic() + 30
            while process.exitcode is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert process.exitcode == -signal.SIGTERM
        finally:
            signal.signal(signal.SIGTERM, previous)
            pool.close(wait=False)

    @pytest.mark.skipif(not HAVE_PROC, reason="needs procfs")
    @pytest.mark.timeout(60)
    def test_worker_exits_when_its_parent_hard_exits(self):
        """A parent that dies without closing its pool (``os._exit``,
        SIGKILL) must not leave the worker running under init."""
        script = (
            "import os\n"
            "from repro.parallel.mp_backend import SolverPool, _warmup\n"
            "pool = SolverPool(1)\n"
            "pool.warm()\n"
            "print(pool.submit(_warmup).result(), flush=True)\n"
            "os._exit(0)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[2] / "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        # Its own session, so the parent and its worker share a group.
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env, text=True,
            stdout=subprocess.PIPE, start_new_session=True,
        )
        out, _ = proc.communicate(timeout=30)
        assert int(out) > 0  # the worker existed when its parent exited
        assert wait_empty(proc.pid) == set()
