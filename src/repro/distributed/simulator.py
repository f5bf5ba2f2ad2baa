"""The discrete-event simulator driving process executions.

A single priority queue of delivery events; the timing model assigns
delays, the failure plan filters crashes/drops/corruption, and every event
updates :class:`~repro.distributed.metrics.RunMetrics`.  Under synchronous
timing, integer time boundaries are rounds and ``on_round`` hooks fire.
"""

from __future__ import annotations

import copy
import heapq
import math
from typing import Any, Callable, Optional, Sequence, Type

from ..trace import core as _trace
from .core import Context, Message, Process
from .failures import FailurePlan
from .metrics import RunMetrics
from .network import Topology
from .timing import Synchronous, TimingModel


class SimulationError(RuntimeError):
    """Raised on misconfiguration and (by default) on limit breaches;
    for breaches, ``metrics`` carries the partial run with
    ``truncated=True`` so post-mortems see how far the run got."""

    def __init__(self, message: str,
                 metrics: Optional[RunMetrics] = None) -> None:
        super().__init__(message)
        self.metrics = metrics


class Simulator:
    """Runs a set of processes over a topology under a timing model and
    failure plan.

    Hitting ``max_time``/``max_messages`` never looks like quiescence:
    the breach is detected in the run loop (not inside a process callback,
    where user ``try``/``except`` could swallow it), ``metrics.truncated``
    is set with the reason, and then either :class:`SimulationError` is
    raised (``on_limit="raise"``, the default) or the partial metrics are
    returned (``on_limit="truncate"``).
    """

    def __init__(
        self,
        topology: Topology,
        processes: Sequence[Process],
        timing: Optional[TimingModel] = None,
        failures: Optional[FailurePlan] = None,
        max_time: float = 1e6,
        max_messages: int = 5_000_000,
        on_limit: str = "raise",
        tracer: Optional[_trace.Tracer] = None,
    ) -> None:
        if on_limit not in ("raise", "truncate"):
            raise SimulationError(
                f"on_limit must be 'raise' or 'truncate', got {on_limit!r}"
            )
        if len(processes) != topology.n:
            raise SimulationError(
                f"{topology.n} processes expected, got {len(processes)}"
            )
        self.topology = topology
        self.processes = list(processes)
        self.timing = timing if timing is not None else Synchronous()
        self.failures = failures if failures is not None else FailurePlan()
        self.max_time = max_time
        self.max_messages = max_messages
        self.on_limit = on_limit
        self.tracer = tracer
        # Effective tracer: refreshed from the global at run() entry so
        # REPRO_TRACE=1 covers simulations constructed before enable().
        self._tracer: Optional[_trace.Tracer] = tracer
        self.metrics = RunMetrics(n=topology.n)
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Message]] = []
        self._seq = 0
        self._halted: set[int] = set()
        self._round_no = 0
        self._pending_spawns: list[tuple[float, Process, list[int]]] = []
        #: First limit breached (set by _send, consumed by the run loop).
        self._breach: Optional[str] = None
        #: rank -> construction-time state snapshot, taken before on_start
        #: for every churned rank (recovery = restore + on_recover).
        self._churn_snapshots: dict[int, dict] = {}
        #: rank -> the one Context every event of that rank is handed
        #: during a run (emptied when run() returns).
        self._contexts: dict[int, Context] = {}

    # -- internal API used by Context ----------------------------------------

    def _send(self, msg: Message) -> None:
        if self.failures.crashed(msg.src, self.now):
            return
        self.metrics.messages_sent += 1
        self.metrics.per_process_sent[msg.src] += 1
        if self.metrics.messages_sent > self.max_messages:
            # Record the breach and let the run loop act on it: raising
            # here, inside the sending process's callback, would let a
            # broad ``except`` in user code eat the budget check.
            if self._breach is None:
                self._breach = (
                    f"message budget exceeded "
                    f"(max_messages={self.max_messages}; "
                    f"runaway algorithm?)"
                )
            return
        # Deterministic blocks (dead link, active partition) are checked
        # before the seeded loss draw, so plans without the new fields
        # consume RNG samples exactly as before.
        if self.failures.link_dead(msg.src, msg.dst):
            self.metrics.messages_dropped += 1
            tr = self._tracer
            if tr is not None:
                tr.event("sim.drop", cat="sim", src=msg.src, dst=msg.dst,
                         tag=msg.tag, t=self.now)
            return
        if self.failures.partitioned(msg.src, msg.dst, self.now):
            self.metrics.messages_dropped += 1
            self.metrics.partition_drops += 1
            tr = self._tracer
            if tr is not None:
                tr.event("sim.drop", cat="sim", src=msg.src, dst=msg.dst,
                         tag=msg.tag, t=self.now, reason="partition")
            return
        if self.failures.drops(msg.src, msg.dst):
            self.metrics.messages_dropped += 1
            tr = self._tracer
            if tr is not None:
                tr.event("sim.drop", cat="sim", src=msg.src, dst=msg.dst,
                         tag=msg.tag, t=self.now)
            return
        msg = self.failures.corrupt(msg)
        delay = self.timing.delay(msg, self.now)
        heapq.heappush(self._queue, (self.now + delay, self._seq, msg))
        self._seq += 1

    def _set_timer(self, rank: int, delay: float, tag: str,
                   payload: Any) -> None:
        if delay <= 0:
            delay = 1e-9
        msg = Message(rank, rank, tag, payload)
        heapq.heappush(self._queue, (self.now + delay, self._seq, msg))
        self._seq += 1

    def schedule_spawn(self, at: float, process: Process,
                       links: list[int]) -> None:
        """Dynamically add ``process`` to the system at time ``at``, wired
        to ``links`` (requires a topology with ``add_node`` — taxonomy
        dimension 7, dynamic process management).  The new process's
        ``on_start`` runs at join time."""
        if not hasattr(self.topology, "add_node"):
            raise SimulationError(
                f"topology {type(self.topology).__name__} does not support "
                f"dynamic joins"
            )
        self._pending_spawns.append((at, process, list(links)))
        self._pending_spawns.sort(key=lambda t: t[0])
        # A sentinel event keeps the queue non-empty until the spawn fires.
        heapq.heappush(self._queue, (at, self._seq, Message(-1, -1, "__spawn__")))
        self._seq += 1

    def _run_due_spawns(self, now: float) -> None:
        while self._pending_spawns and self._pending_spawns[0][0] <= now:
            _, proc, links = self._pending_spawns.pop(0)
            rank = self.topology.add_node(links)
            proc.rank = rank
            if len(self.processes) != rank:
                raise SimulationError("spawn rank out of sync")
            self.processes.append(proc)
            self.metrics.n = self.topology.n
            proc.on_start(self._context(rank))

    # -- execution -------------------------------------------------------------

    def _context(self, rank: int) -> Context:
        # A Context holds only (simulator, rank), so one per rank can
        # serve every event of the run.
        ctx = self._contexts.get(rank)
        if ctx is None:
            ctx = self._contexts[rank] = Context(self, rank)
        return ctx

    def _deliver(self, msg: Message) -> None:
        if self.failures.crashed(msg.dst, self.now) or msg.dst in self._halted:
            return
        self.metrics.messages_delivered += 1
        tr = self._tracer
        if tr is not None:
            tr.event("sim.deliver", cat="sim", src=msg.src, dst=msg.dst,
                     tag=msg.tag, t=self.now)
        self.processes[msg.dst].on_message(self._context(msg.dst), msg)

    def _fire_round_hooks(self) -> None:
        self._round_no += 1
        self.metrics.rounds = self._round_no
        tr = self._tracer
        if tr is not None:
            tr.event("sim.round", cat="sim", round=self._round_no,
                     t=self.now)
        for p in self.processes:
            if not self.failures.crashed(p.rank, self.now) and \
                    p.rank not in self._halted:
                p.on_round(self._context(p.rank), self._round_no)

    def _truncate(self, reason: str) -> RunMetrics:
        """Mark the run as cut off by a limit and either raise or return
        the partial metrics, per ``on_limit``."""
        self.metrics.truncated = True
        self.metrics.truncation_reason = reason
        self.metrics.finish_time = self.now
        tr = self._tracer
        if tr is not None:
            tr.event("sim.truncated", cat="sim", reason=reason, t=self.now)
        if self.on_limit == "raise":
            raise SimulationError(reason, metrics=self.metrics)
        return self.metrics

    def run(self) -> RunMetrics:
        self._tracer = (
            self.tracer if self.tracer is not None else _trace.ACTIVE
        )
        tr = self._tracer
        try:
            if tr is None:
                return self._run()
            with tr.span("sim.run", cat="sim", n=self.topology.n,
                         timing=type(self.timing).__name__) as sp:
                metrics = self._run()
                sp.set("messages", metrics.messages_sent)
                sp.set("rounds", metrics.rounds)
                sp.set("truncated", metrics.truncated)
            return metrics
        finally:
            # Each Context points back at this simulator: dropping them
            # here leaves no cycle for the garbage collector to find.
            self._contexts.clear()

    def _recover(self, rank: int) -> None:
        """Revive a churned process: state rolls back to the construction
        snapshot (state loss), then ``on_recover`` replays its boot."""
        snapshot = self._churn_snapshots.get(rank)
        if snapshot is not None:
            proc = self.processes[rank]
            proc.__dict__.clear()
            proc.__dict__.update(copy.deepcopy(snapshot))
        self._halted.discard(rank)
        self.metrics.recoveries += 1
        tr = self._tracer
        if tr is not None:
            tr.event("sim.recover", cat="sim", rank=rank, t=self.now)
        self.processes[rank].on_recover(self._context(rank))

    def _schedule_churn(self) -> None:
        """Snapshot churned processes and queue their recovery events."""
        for rank in self.failures.churn:
            if not 0 <= rank < len(self.processes):
                raise SimulationError(
                    f"churn plan names rank {rank}, but only "
                    f"{len(self.processes)} processes exist"
                )
            self._churn_snapshots[rank] = copy.deepcopy(
                self.processes[rank].__dict__)
        for up, rank in self.failures.recoveries():
            heapq.heappush(
                self._queue, (up, self._seq, Message(-1, rank, "__recover__")))
            self._seq += 1

    def _run(self) -> RunMetrics:
        self._schedule_churn()
        # Start every live process.
        for p in self.processes:
            if not self.failures.crashed(p.rank, 0.0):
                p.on_start(self._context(p.rank))
        synchronous = isinstance(self.timing, Synchronous)
        last_round_boundary = 0
        while self._queue:
            if self._breach is not None:
                return self._truncate(self._breach)
            t, _, msg = heapq.heappop(self._queue)
            if t > self.max_time:
                return self._truncate(f"exceeded max_time={self.max_time}")
            if synchronous:
                boundary = math.floor(t)
                while last_round_boundary < boundary:
                    last_round_boundary += 1
                    self.now = float(last_round_boundary)
                    self._fire_round_hooks()
            self.now = t
            if msg.tag == "__spawn__" and msg.dst == -1:
                self._run_due_spawns(t)
                continue
            if msg.tag == "__recover__" and msg.src == -1:
                self._recover(msg.dst)
                continue
            self._deliver(msg)
        if self._breach is not None:
            return self._truncate(self._breach)
        self.metrics.finish_time = self.now
        if synchronous:
            self.metrics.rounds = max(self.metrics.rounds,
                                      int(math.ceil(self.now)))
        return self.metrics


def run_algorithm(
    process_cls: Type[Process],
    topology: Topology,
    timing: Optional[TimingModel] = None,
    failures: Optional[FailurePlan] = None,
    ids: Optional[Sequence[int]] = None,
    **params: Any,
) -> RunMetrics:
    """Convenience: instantiate ``process_cls`` on every node and run.

    ``ids`` optionally assigns distinct process identifiers (for
    id-based leader election worst/best-case constructions); default is
    the rank itself.
    """
    procs = []
    for rank in range(topology.n):
        pid = ids[rank] if ids is not None else rank
        procs.append(process_cls(rank, pid=pid, **params))
    sim = Simulator(topology, procs, timing, failures)
    return sim.run()
