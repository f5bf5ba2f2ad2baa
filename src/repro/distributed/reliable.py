"""Reliable transport over the lossy simulator network.

The failure taxonomy injects loss (:class:`FailurePlan.loss_probability`,
per-link ``link_loss``) but until now nothing *recovered*: every
algorithm in :mod:`repro.distributed.algorithms` silently breaks under
``loss_probability > 0``.  This module adds the classic remedy as a
composable layer:

- :class:`ReliableChannel` — per-process sequence numbers, cumulative
  acks, retransmission on a :class:`~repro.resilience.RetryPolicy`
  schedule (virtual-time timers, never wall clock), duplicate
  suppression at the receiver, and an optional heartbeat-based
  *eventually-perfect* failure detector (suspect on silence, trust again
  and lengthen the timeout on evidence of life).
- :class:`ReliableProcess` — wraps any unmodified
  :class:`~repro.distributed.core.Process` so its sends/receives go
  through a channel; the wrapped algorithm sees exactly-once delivery.
- :class:`ResilientFloodSet` — FloodSet re-synchronized for a lossy
  network: an α-synchronizer (advance a round only after hearing every
  peer's round-``k`` broadcast) replaces the fixed round timers, which
  is what makes its f+1-round argument sound under retransmission
  delays.

Per-channel counters fold into :class:`RunMetrics`
(``retransmissions``, ``duplicates_suppressed``, ``acks_sent``,
``retries_gave_up``, ``fd_suspicions``) and tracing emits
``resilience.retry`` / ``resilience.give_up`` / ``fd.suspect`` events.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..resilience import ExponentialBackoff, RetryPolicy
from ..trace import core as _trace
from .algorithms.echo import Echo
from .algorithms.floodset import FloodSet
from .core import Context, Message, Process, new_message
from .failures import FailurePlan
from .metrics import RunMetrics
from .network import Complete, Topology
from .simulator import Simulator
from .timing import Synchronous, TimingModel

#: Wire tags of the transport (never seen by wrapped algorithms).
DATA = "__rel_data__"
ACK = "__rel_ack__"
RETRY = "__rel_retry__"        # self-timer: retransmission check
HB = "__rel_hb__"              # heartbeat payload
HB_TICK = "__rel_hb_tick__"    # self-timer: heartbeat round


def default_policy() -> RetryPolicy:
    """Retransmission schedule tuned to the simulator's timing models:
    the first retry waits ~2.5 virtual seconds (beyond one synchronous
    round trip), then backs off exponentially.  25 attempts make loss of
    a message at p=0.5 a ~3e-8 event — 'eventual delivery' in practice."""
    return RetryPolicy(
        max_attempts=25,
        backoff=ExponentialBackoff(base=2.5, multiplier=1.3, cap=20.0,
                                   jitter=0.4, seed=0),
    )


class ReliableChannel:
    """Stop-and-retransmit reliability for one process's traffic.

    The channel owns sequence numbering, the unacked-send table, and the
    receiver-side duplicate filter.  It is driven entirely by the
    simulator's virtual-time timers: ``send`` arms a :data:`RETRY` timer
    whose handler retransmits (and re-arms, per the policy's backoff)
    until the ack arrives or the retry budget is exhausted.
    """

    def __init__(
        self,
        rank: int,
        policy: Optional[RetryPolicy] = None,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: float = 10.0,
        max_beats: int = 64,
    ) -> None:
        self.rank = rank
        self.policy = policy or default_policy()
        #: Every send arms a retry timer with the schedule's first delay.
        self._first_delay = self.policy.backoff.delay(0)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_beats = max_beats
        self._next_seq = 0
        #: (dst, seq) -> [attempt, tag, payload, spent_delay]
        self._pending: dict[tuple[int, int], list] = {}
        #: src -> delivered sequence numbers (duplicate filter).
        self._delivered: dict[int, set[int]] = {}
        self._last_heard: dict[int, float] = {}
        self._beats = 0
        self.suspected: set[int] = set()
        self.gave_up: list[tuple[int, int]] = []

    # -- sending ---------------------------------------------------------------

    def send(self, ctx: Context, dst: int, tag: str, payload: Any) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self._pending[(dst, seq)] = [0, tag, payload, 0.0]
        ctx.send(dst, DATA, (seq, tag, payload))
        ctx.set_timer(self._first_delay, RETRY, (dst, seq))

    def outstanding(self) -> int:
        """Sends not yet acknowledged (the ack barrier synchronizers use)."""
        return len(self._pending)

    # -- event routing ---------------------------------------------------------

    def handle_timer(self, ctx: Context, msg: Message) -> None:
        if msg.tag == RETRY:
            self._handle_retry(ctx, msg.payload)
        elif msg.tag == HB_TICK:
            self._handle_heartbeat_tick(ctx)

    def _handle_retry(self, ctx: Context, key: tuple[int, int]) -> None:
        entry = self._pending.get(tuple(key))
        if entry is None:
            return                         # acked in the meantime
        dst, seq = key
        attempt, tag, payload, spent = entry
        attempt += 1
        delay = self.policy.backoff.delay(min(
            attempt, self.policy.max_attempts - 1))
        if not self.policy.allows(attempt, spent + delay):
            self._pending.pop(tuple(key), None)
            self.gave_up.append((dst, seq))
            ctx.metrics.retries_gave_up += 1
            tr = _trace.ACTIVE
            if tr is not None:
                tr.event("resilience.give_up", cat="resilience",
                         src=self.rank, dst=dst, seq=seq,
                         attempts=attempt, t=ctx.now)
            return
        entry[0] = attempt
        entry[3] = spent + delay
        ctx.metrics.retransmissions += 1
        if ctx._sim.failures.partitioned(self.rank, dst, ctx.now):
            # A retransmission burned on traffic the active partition is
            # going to drop — the cost of healing visible as a counter.
            ctx.metrics.partition_retx += 1
        tr = _trace.ACTIVE
        if tr is not None:
            tr.event("resilience.retry", cat="resilience", src=self.rank,
                     dst=dst, seq=seq, attempt=attempt, delay=delay,
                     t=ctx.now)
        ctx.send(dst, DATA, (seq, tag, payload))
        ctx.set_timer(delay, RETRY, (dst, seq))

    # -- receiving -------------------------------------------------------------

    def handle_message(self, ctx: Context, msg: Message) -> Optional[Message]:
        """Process one raw delivery.  Returns the decapsulated message to
        hand to the wrapped algorithm, or None when the transport consumed
        it (ack, duplicate, heartbeat)."""
        src, tag = msg.src, msg.tag
        if tag == DATA:
            seq, tag, payload = msg.payload
            ctx.send(src, ACK, seq)
            metrics = ctx.metrics
            metrics.acks_sent += 1
            self._note_alive(src, ctx.now)
            seen = self._delivered.get(src)
            if seen is None:
                seen = self._delivered[src] = set()
            if seq in seen:
                metrics.duplicates_suppressed += 1
                return None
            seen.add(seq)
            return new_message((src, msg.dst, tag, payload))
        if tag == ACK:
            self._pending.pop((src, msg.payload), None)
            self._note_alive(src, ctx.now)
            return None
        if tag == HB:
            self._note_alive(src, ctx.now)
            return None
        return msg                         # not transport traffic

    # -- failure detection -----------------------------------------------------

    def start(self, ctx: Context) -> None:
        if self.heartbeat_interval is not None:
            for nbr in ctx.neighbors():
                self._last_heard.setdefault(nbr, ctx.now)
            ctx.set_timer(self.heartbeat_interval, HB_TICK, None)

    def _note_alive(self, rank: int, now: float) -> None:
        self._last_heard[rank] = now
        if rank in self.suspected:
            # Eventually perfect: a false suspicion is withdrawn and the
            # timeout stretched so the same mistake is not repeated.
            self.suspected.discard(rank)
            self.heartbeat_timeout *= 1.5

    def _handle_heartbeat_tick(self, ctx: Context) -> None:
        self._beats += 1
        for nbr in ctx.neighbors():
            ctx.send(nbr, HB, None)
            last = self._last_heard.setdefault(nbr, ctx.now)
            if nbr not in self.suspected and \
                    ctx.now - last > self.heartbeat_timeout:
                self.suspected.add(nbr)
                ctx.metrics.fd_suspicions += 1
                tr = _trace.ACTIVE
                if tr is not None:
                    tr.event("fd.suspect", cat="resilience", by=self.rank,
                             suspect=nbr, silent_for=ctx.now - last,
                             t=ctx.now)
        # A bounded beat count lets loss-only simulations quiesce; real
        # deployments would beat forever.
        if self._beats < self.max_beats:
            ctx.set_timer(self.heartbeat_interval, HB_TICK, None)


class ReliableContext(Context):
    """The wrapped algorithm's view: ``send`` goes through the channel;
    everything else (timers, topology, accounting, decide/halt) passes
    straight through to the underlying simulator context."""

    def __init__(self, raw: Context, channel: ReliableChannel) -> None:
        super().__init__(raw._sim, raw.rank)
        # The channel's frames go out through a plain context of the same
        # (simulator, rank), not through ``raw`` itself: ``raw`` caches
        # this wrapper, and raw -> wrapper -> raw would be a cycle.
        self._raw = Context(raw._sim, raw.rank)
        self.channel = channel

    def send(self, dst: int, tag: str, payload: Any = None) -> None:
        self.channel.send(self._raw, dst, tag, payload)


class ReliableProcess(Process):
    """Wrap an unmodified process so its traffic is exactly-once.

    The wrapper intercepts transport frames and timers; the inner
    algorithm receives decapsulated messages through a
    :class:`ReliableContext` and cannot tell it is running over a lossy
    network (apart from delivery timing).
    """

    def __init__(self, inner: Process,
                 policy: Optional[RetryPolicy] = None,
                 heartbeat_interval: Optional[float] = None,
                 heartbeat_timeout: float = 10.0,
                 **params: Any) -> None:
        super().__init__(inner.rank, **params)
        self.inner = inner
        self.channel = ReliableChannel(
            inner.rank, policy=policy,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
        )

    def _ctx(self, raw: Context) -> ReliableContext:
        # One wrapper per rank and run, cached on the simulator's per-run
        # context (on this process it would close a process -> context ->
        # simulator cycle).  Churn recovery restores a fresh channel, so
        # a cached wrapper counts only while it holds the current one.
        ctx = raw._wrapper
        if ctx is None or ctx.channel is not self.channel:
            ctx = raw._wrapper = ReliableContext(raw, self.channel)
        return ctx

    def on_start(self, ctx: Context) -> None:
        self.channel.start(ctx)
        self.inner.on_start(self._ctx(ctx))

    def on_message(self, ctx: Context, msg: Message) -> None:
        tag = msg.tag
        if msg.src == msg.dst:
            if tag == RETRY:
                # Most retry timers fire after their ack arrived: one
                # lookup settles them.
                if msg.payload in self.channel._pending:
                    self.channel.handle_timer(ctx, msg)
                return
            if tag == HB_TICK:
                self.channel.handle_timer(ctx, msg)
                return
            if tag not in (DATA, ACK, HB):
                # The inner algorithm's own timer: pass through undecorated.
                self.inner.on_message(self._ctx(ctx), msg)
                return
        inner_msg = self.channel.handle_message(ctx, msg)
        if inner_msg is not None:
            self.inner.on_message(self._ctx(ctx), inner_msg)

    def on_round(self, ctx: Context, round_no: int) -> None:
        self.inner.on_round(self._ctx(ctx), round_no)

    def __repr__(self) -> str:
        return f"<Reliable {self.inner!r}>"


def wrap_reliable(
    processes: Sequence[Process],
    policy: Optional[RetryPolicy] = None,
    heartbeat_interval: Optional[float] = None,
    heartbeat_timeout: float = 10.0,
) -> list[ReliableProcess]:
    """Wrap every process in the sequence for exactly-once delivery."""
    return [
        ReliableProcess(p, policy=policy,
                        heartbeat_interval=heartbeat_interval,
                        heartbeat_timeout=heartbeat_timeout)
        for p in processes
    ]


class ResilientFloodSet(FloodSet):
    """FloodSet driven by an α-synchronizer instead of round timers.

    Under loss + retransmission the synchronous-delivery assumption
    behind the fixed 1.0-time round ticks is gone; what survives is
    FloodSet's monotone state (the ``known`` set only grows).  Advancing
    round ``k`` only after receiving every peer's round-``k`` broadcast
    restores the per-round all-to-all exchange, so after f+1 rounds the
    crash-free argument applies verbatim — reliable delivery makes each
    'round' loss-free, just slower.
    """

    def __init__(self, rank: int, initial: Any = None, f: int = 1,
                 **params: Any) -> None:
        super().__init__(rank, initial=initial, f=f, **params)
        self.round = 1
        self._received: dict[int, int] = {}

    def on_start(self, ctx: Context) -> None:
        ctx.broadcast_neighbors(
            "values", (self.round, tuple(sorted(self.known))))

    def _peers(self, ctx: Context) -> int:
        return len(ctx.neighbors())

    def on_message(self, ctx: Context, msg: Message) -> None:
        if msg.tag != "values" or self.decided:
            return
        k, values = msg.payload
        before = len(self.known)
        self.known.update(values)
        ctx.charge(max(1, len(self.known) - before))
        self._received[k] = self._received.get(k, 0) + 1
        while not self.decided and \
                self._received.get(self.round, 0) >= self._peers(ctx):
            self.round += 1
            if self.round <= self.f + 1:
                ctx.broadcast_neighbors(
                    "values", (self.round, tuple(sorted(self.known))))
            else:
                self.decided = True
                ctx.charge(len(self.known))
                self.decision = min(self.known)
                ctx.decide(self.decision)


# ---------------------------------------------------------------------------
# Convenience runners (the acceptance experiments)
# ---------------------------------------------------------------------------


def run_echo_reliable(
    topology: Topology,
    initiator: int = 0,
    values: Optional[list] = None,
    timing: Optional[TimingModel] = None,
    failures: Optional[FailurePlan] = None,
    policy: Optional[RetryPolicy] = None,
) -> RunMetrics:
    """Echo with every process wrapped in a :class:`ReliableChannel` —
    completes with the correct aggregate even under heavy loss."""
    procs: list[Process] = []
    for r in range(topology.n):
        val = values[r] if values is not None else 1
        procs.append(Echo(r, initiator=initiator, local_value=val))
    sim = Simulator(topology, wrap_reliable(procs, policy=policy),
                    timing, failures)
    return sim.run()


def run_floodset_reliable(
    n: int,
    f: int = 1,
    values: Optional[list] = None,
    failures: Optional[FailurePlan] = None,
    policy: Optional[RetryPolicy] = None,
) -> RunMetrics:
    """Synchronizer-driven FloodSet over reliable channels on a complete
    topology — consensus on the minimum survives message loss."""
    procs: list[Process] = []
    for r in range(n):
        v = values[r] if values is not None else r
        procs.append(ResilientFloodSet(r, initial=v, f=f))
    sim = Simulator(Complete(n), wrap_reliable(procs, policy=policy),
                    timing=Synchronous(), failures=failures)
    return sim.run()
