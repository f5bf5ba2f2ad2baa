"""A miniature MPI: SPMD execution with mpi4py-style point-to-point and
collective operations.

The data-parallel library of Section 4 sits at a high level of abstraction;
below it, "programming directly with low-level concurrency and
communication mechanisms, such as threads, processes, locks, semaphores,
and messages" is the baseline the paper contrasts against.  This module
provides that baseline *faithfully*, with the mpi4py API shape the HPC
guides teach::

    def program(comm):
        rank, size = comm.rank, comm.size
        if rank == 0:
            comm.send({"a": 7}, dest=1)
        elif rank == 1:
            data = comm.recv(source=0)
        total = comm.allreduce(rank, op="+")

    results = run_spmd(program, size=4)

Each rank runs on its own thread with blocking channel semantics; the
collective algorithms are the classic ones (binomial-ish fan via rank 0 for
clarity), and ``allreduce``/``reduce`` consult the algebra registry exactly
like :meth:`ParallelArray.reduce` — a non-associative ``op`` is rejected
because ranks may combine in any bracketing.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..concepts.algebra import AlgebraRegistry, Semigroup, algebra as default_algebra
from .parray import UnsoundReductionError

ANY_SOURCE = -1


class MPIError(RuntimeError):
    pass


class DeadlockError(MPIError):
    """A blocking operation waited past the timeout — the classic
    send/recv ordering bug, reported instead of hanging the tests."""


@dataclass
class _Channels:
    """Per-(source, dest, tag) mailboxes, created on first use by
    whichever of the sender and the receiver gets there first."""

    size: int
    timeout: float
    boxes: dict = field(default_factory=dict)

    def box(self, source: int, dest: int, tag: int) -> "queue.Queue[Any]":
        key = (source, dest, tag)
        box = self.boxes.get(key)
        if box is None:
            # setdefault is atomic: when two ranks create a mailbox at
            # once, both get the one stored first, so no message lands in
            # a queue nobody reads.
            box = self.boxes.setdefault(key, queue.Queue())
        return box


class Comm:
    """The communicator handed to each rank."""

    def __init__(self, rank: int, size: int, channels: _Channels,
                 barrier: threading.Barrier,
                 registry: AlgebraRegistry) -> None:
        self.rank = rank
        self.size = size
        self._ch = channels
        self._barrier = barrier
        self._registry = registry
        self.stats_sent = 0

    # -- point to point ------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise MPIError(f"send to invalid rank {dest}")
        if dest == self.rank:
            raise MPIError("send to self would deadlock a blocking pair")
        self.stats_sent += 1
        self._ch.box(self.rank, dest, tag).put(obj)

    def recv(self, source: int, tag: int = 0) -> Any:
        try:
            return self._ch.box(source, self.rank, tag).get(
                timeout=self._ch.timeout
            )
        except queue.Empty:
            raise DeadlockError(
                f"rank {self.rank} timed out waiting for a message from "
                f"rank {source} (tag {tag})"
            ) from None

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    # -- collectives -----------------------------------------------------------

    def barrier(self) -> None:
        try:
            self._barrier.wait(timeout=self._ch.timeout)
        except threading.BrokenBarrierError:
            raise DeadlockError(
                f"rank {self.rank}: barrier broken (some rank never arrived)"
            ) from None

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(obj, r, tag=-2)
            return obj
        return self.recv(root, tag=-2)

    def scatter(self, seq: Optional[list], root: int = 0) -> Any:
        if self.rank == root:
            if seq is None or len(seq) != self.size:
                raise MPIError(
                    f"scatter needs a {self.size}-element sequence at root"
                )
            for r in range(self.size):
                if r != root:
                    self.send(seq[r], r, tag=-3)
            return seq[root]
        return self.recv(root, tag=-3)

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        if self.rank == root:
            out = []
            for r in range(self.size):
                out.append(obj if r == root else self.recv(r, tag=-4))
            return out
        self.send(obj, root, tag=-4)
        return None

    def allgather(self, obj: Any) -> list:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, obj: Any, op: str = "+", root: int = 0,
               unsafe: bool = False) -> Any:
        """Reduce with the Semigroup guard: ranks may be combined in any
        bracketing, so associativity is a correctness requirement, exactly
        as for :meth:`ParallelArray.reduce`."""
        structure = self._registry.lookup(type(obj), op)
        if structure is None and not unsafe:
            raise UnsoundReductionError(type(obj), op)
        if structure is not None and not unsafe and \
                not structure.concept.refines_concept(Semigroup):
            raise UnsoundReductionError(type(obj), op)
        values = self.gather(obj, root=root)
        if self.rank != root:
            return None
        acc = values[0]
        combine = structure.apply if structure is not None else (
            lambda a, b: a + b
        )
        for v in values[1:]:
            acc = combine(acc, v)
        return acc

    def allreduce(self, obj: Any, op: str = "+", unsafe: bool = False) -> Any:
        out = self.reduce(obj, op=op, root=0, unsafe=unsafe)
        return self.bcast(out, root=0)


@dataclass
class SpmdResult:
    """Per-rank return values plus aggregate stats."""

    returns: list
    messages_sent: int


def run_spmd(
    fn: Callable[[Comm], Any],
    size: int = 4,
    timeout: float = 10.0,
    registry: Optional[AlgebraRegistry] = None,
) -> SpmdResult:
    """Run ``fn(comm)`` on ``size`` rank-threads; returns every rank's
    return value.  Any rank's exception is re-raised (after joining the
    others), so deadlocks and guard violations surface as test failures,
    not hangs."""
    if size <= 0:
        raise MPIError("size must be positive")
    channels = _Channels(size, timeout)
    barrier = threading.Barrier(size)
    reg = registry if registry is not None else default_algebra
    comms = [Comm(r, size, channels, barrier, reg) for r in range(size)]
    returns: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []

    def runner(rank: int) -> None:
        try:
            returns[rank] = fn(comms[rank])
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            errors.append((rank, exc))
            barrier.abort()

    threads = [threading.Thread(target=runner, args=(r,), daemon=True)
               for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout + 1.0)
        if t.is_alive():
            raise DeadlockError("a rank failed to terminate")
    if errors:
        rank, exc = sorted(errors, key=lambda e: e[0])[0]
        raise exc
    return SpmdResult(returns, sum(c.stats_sent for c in comms))
