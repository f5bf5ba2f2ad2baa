"""Tests for the miniature MPI layer (SPMD point-to-point + collectives)."""

import queue
import threading

import numpy as np
import pytest

from repro.parallel import (
    DeadlockError,
    MPIError,
    UnsoundReductionError,
    run_spmd,
)
from repro.parallel.mpi import _Channels


class TestPointToPoint:
    def test_send_recv(self):
        def program(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return "sent"
            if comm.rank == 1:
                return comm.recv(source=0, tag=11)
            return None

        res = run_spmd(program, size=2)
        assert res.returns[1] == {"a": 7, "b": 3.14}
        assert res.messages_sent == 1

    def test_tags_separate_streams(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("second", dest=1, tag=2)
                comm.send("first", dest=1, tag=1)
                return None
            a = comm.recv(source=0, tag=1)
            b = comm.recv(source=0, tag=2)
            return (a, b)

        res = run_spmd(program, size=2)
        assert res.returns[1] == ("first", "second")

    def test_sendrecv_exchange(self):
        def program(comm):
            other = 1 - comm.rank
            return comm.sendrecv(comm.rank, dest=other, source=other)

        res = run_spmd(program, size=2)
        assert res.returns == [1, 0]

    def test_deadlock_detected_not_hung(self):
        def program(comm):
            # Everyone receives, nobody sends.
            return comm.recv(source=(comm.rank + 1) % comm.size)

        with pytest.raises(DeadlockError):
            run_spmd(program, size=2, timeout=0.3)

    def test_send_to_self_rejected(self):
        def program(comm):
            comm.send(1, dest=comm.rank)

        with pytest.raises(MPIError):
            run_spmd(program, size=2, timeout=0.5)

    def test_invalid_rank(self):
        def program(comm):
            comm.send(1, dest=99)

        with pytest.raises(MPIError):
            run_spmd(program, size=2, timeout=0.5)


class TestMailboxes:
    def test_concurrent_creation_yields_one_mailbox(self, monkeypatch):
        # A sender and a receiver asking for the same mailbox at the same
        # moment must share it, or the message is lost.  The patched
        # Queue holds each creator until both are inside creation (or,
        # with a lock-based mailbox, until the wait times out).
        gate = threading.Barrier(2)
        real = queue.Queue

        def gated_queue(*args, **kwargs):
            try:
                gate.wait(timeout=2.0)
            except threading.BrokenBarrierError:
                pass
            return real(*args, **kwargs)

        monkeypatch.setattr(queue, "Queue", gated_queue)
        channels = _Channels(size=2, timeout=1.0)
        got = [None, None]

        def ask(slot):
            got[slot] = channels.box(0, 1, 7)

        threads = [threading.Thread(target=ask, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got[0] is got[1] is channels.boxes[(0, 1, 7)]


class TestCollectives:
    def test_bcast(self):
        def program(comm):
            return comm.bcast({"k": [1, 2]} if comm.rank == 0 else None)

        res = run_spmd(program, size=4)
        assert all(r == {"k": [1, 2]} for r in res.returns)

    def test_scatter_gather_roundtrip(self):
        def program(comm):
            piece = comm.scatter(
                [(i + 1) ** 2 for i in range(comm.size)]
                if comm.rank == 0 else None
            )
            assert piece == (comm.rank + 1) ** 2
            return comm.gather(piece)

        res = run_spmd(program, size=4)
        assert res.returns[0] == [1, 4, 9, 16]
        assert res.returns[1] is None

    def test_scatter_validates_length(self):
        def program(comm):
            comm.scatter([1] if comm.rank == 0 else None)

        with pytest.raises(MPIError):
            run_spmd(program, size=3, timeout=0.5)

    def test_allgather(self):
        def program(comm):
            return comm.allgather(comm.rank * 2)

        res = run_spmd(program, size=3)
        assert all(r == [0, 2, 4] for r in res.returns)

    def test_reduce_and_allreduce(self):
        def program(comm):
            partial = comm.reduce(comm.rank + 1, op="+")
            total = comm.allreduce(comm.rank + 1, op="+")
            return (partial, total)

        res = run_spmd(program, size=4)
        assert res.returns[0] == (10, 10)
        assert res.returns[1] == (None, 10)

    def test_barrier_synchronizes(self):
        import time

        stamps = {}

        def program(comm):
            if comm.rank == 0:
                time.sleep(0.05)
            comm.barrier()
            stamps[comm.rank] = time.monotonic()
            return None

        run_spmd(program, size=3)
        assert max(stamps.values()) - min(stamps.values()) < 0.05

    def test_nontrivial_computation_pi(self):
        def program(comm):
            n = comm.bcast(20_000 if comm.rank == 0 else None)
            h = 1.0 / n
            s = sum(4.0 / (1.0 + (h * (i + 0.5)) ** 2)
                    for i in range(comm.rank, n, comm.size))
            return comm.allreduce(s * h, op="+")

        res = run_spmd(program, size=4)
        assert res.returns[0] == pytest.approx(np.pi, abs=1e-6)
        assert len(set(res.returns)) == 1  # identical everywhere


class TestReductionGuard:
    def test_unsound_op_rejected(self):
        def program(comm):
            return comm.allreduce(comm.rank, op="sat+")

        with pytest.raises(UnsoundReductionError):
            run_spmd(program, size=2, timeout=0.5)

    def test_unsafe_escape(self):
        def program(comm):
            return comm.allreduce(comm.rank, op="weird", unsafe=True)

        res = run_spmd(program, size=3)
        assert res.returns[0] == 3  # fallback '+' combine

    def test_string_concat_via_declared_monoid(self):
        def program(comm):
            return comm.allreduce(str(comm.rank), op="concat")

        res = run_spmd(program, size=3)
        assert res.returns[0] == "012"


class TestErrors:
    def test_rank_exception_propagates(self):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()

        with pytest.raises((ValueError, DeadlockError)):
            run_spmd(program, size=2, timeout=0.5)

    def test_size_validation(self):
        with pytest.raises(MPIError):
            run_spmd(lambda comm: None, size=0)
