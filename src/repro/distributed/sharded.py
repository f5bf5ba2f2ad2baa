"""A sharded event loop: multiprocessing over virtual-time partitions
with a deterministic merge.

Why this is possible at all: under the simulator's timing models every
send and timer has a strictly positive delay, so two events bearing the
*same* timestamp can never be cause and effect — they are concurrent by
construction, and the set of events at time ``t`` is closed by the time
the loop reaches ``t``.  Handlers only touch their own process's state.
A batch of same-time events can therefore execute on worker processes in
parallel, as long as everything a handler *does to the shared world* —
sends, timers, halts, metric updates — is replayed centrally in the
exact order the serial loop would have produced it.

Mechanics:

- ranks are split into contiguous shards, each owned by a forked worker
  that holds the live :class:`~repro.distributed.core.Process` objects
  (fork gives every worker the constructed state for free);
- the parent pops the maximal same-timestamp batch, filters
  deterministically undeliverable events (crash windows, already-halted
  ranks), and dispatches the rest to the owning workers *in batch
  order*;
- each worker runs its handlers sequentially (preserving per-rank
  order, which is the only order that matters for state) against a
  recording context: a shim that looks like the simulator but turns
  ``send``/``set_timer``/``halt``/metric writes into an ordered effect
  list instead of performing them;
- the parent replays every event's effects in the original
  ``(time, seq)`` position through the real ``_send``/``_set_timer`` —
  so sequence numbers, the failure plan's RNG stream, drop decisions,
  and every metric land **bit-identically** to the serial loop
  (``RunMetrics.as_comparable()`` is the oracle, and the test suite
  holds the two loops to it).

Round hooks (synchronous timing) dispatch the same way, replayed in
rank order before the same-time deliveries, exactly as the serial loop
fires them.  Churn recovery events travel to the owning worker, which
restores its own construction-time snapshot.

The sharded path assumes what the repository's algorithms honour:
handlers halt only themselves, and read ``ctx.metrics`` only to write
(counters are write-only from inside handlers).  Runs that need
anything else — dynamic spawns, non-synchronous timing, platforms
without ``fork`` — fall back to the serial loop transparently
(``used_shards`` reports the decision).
"""

from __future__ import annotations

import copy
import heapq
import math
import multiprocessing
import traceback
from collections import Counter
from typing import Any, Optional, Sequence

from .core import Context, Message, Process
from .failures import FailurePlan
from .metrics import RunMetrics
from .network import Topology
from .simulator import SimulationError, Simulator
from .timing import Synchronous, TimingModel

# ---------------------------------------------------------------------------
# Worker-side recording machinery
# ---------------------------------------------------------------------------


class _RecList(list):
    """List that records appends as replayable effects."""

    def __init__(self, owner: "_WorkerSim", name: str) -> None:
        super().__init__()
        self._owner = owner
        self._name = name

    def append(self, value: Any) -> None:
        self._owner._effects.append(("mlist", self._name, value))
        super().append(value)


class _RecDict(dict):
    def __init__(self, owner: "_WorkerSim", name: str) -> None:
        super().__init__()
        self._owner = owner
        self._name = name

    def __setitem__(self, key: Any, value: Any) -> None:
        self._owner._effects.append(("mdict", self._name, key, value))
        super().__setitem__(key, value)


class _RecCounter(Counter):
    def __init__(self, owner: "_WorkerSim", name: str) -> None:
        super().__init__()
        self._owner = owner
        self._name = name

    def __setitem__(self, key: Any, value: Any) -> None:
        delta = value - self.get(key, 0)
        if delta:
            self._owner._effects.append(("mcount", self._name, key, delta))
        super().__setitem__(key, value)


class _RecSet(set):
    """Halt tracker: self-halts are recorded AND applied locally so a
    later same-batch delivery to the halted rank is skipped exactly as
    the serial loop would skip it."""

    def __init__(self, owner: "_WorkerSim") -> None:
        super().__init__()
        self._owner = owner

    def add(self, rank: int) -> None:
        self._owner._effects.append(("halt", rank))
        super().add(rank)


class _MetricsRecorder:
    """Quacks like :class:`RunMetrics` inside a worker.

    Integer-counter writes become ``minc`` deltas; the mutable fields
    handlers touch (``decisions`` via ``ctx.decide``,
    ``local_computation`` via ``ctx.charge``, and the replicated-log
    history lists) are wrapped with recording containers.  Reads return
    the worker-local running value, which is correct for every
    read-modify-write a handler performs on its own counters.
    """

    def __init__(self, owner: "_WorkerSim", n: int) -> None:
        base = RunMetrics(n=n)
        base.decisions = _RecDict(owner, "decisions")
        base.local_computation = _RecCounter(owner, "local_computation")
        base.per_process_sent = _RecCounter(owner, "per_process_sent")
        base.leadership_events = _RecList(owner, "leadership_events")
        base.commit_history = _RecList(owner, "commit_history")
        self.__dict__["_owner"] = owner
        self.__dict__["_base"] = base

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_base"], name)

    def __setattr__(self, name: str, value: Any) -> None:
        base = self.__dict__["_base"]
        old = getattr(base, name)
        if isinstance(old, bool) or not isinstance(old, (int, float)):
            raise TypeError(
                f"handlers may not assign RunMetrics.{name} under the "
                f"sharded loop (only counter increments are replayable)"
            )
        delta = value - old
        if delta:
            self.__dict__["_owner"]._effects.append(("minc", name, delta))
        setattr(base, name, value)


class _WorkerSim:
    """The simulator stand-in handlers see inside a worker: same duck
    type as :class:`Simulator` for everything :class:`Context` (and the
    reliable transport) touches, but every world-changing call appends
    to an ordered effect list instead of executing."""

    def __init__(self, base: Simulator) -> None:
        self.topology = base.topology
        self.failures = base.failures
        self.now = 0.0
        self._effects: list[tuple] = []
        self._halted: _RecSet = _RecSet(self)
        self.metrics = _MetricsRecorder(self, base.topology.n)
        self._base = base

    def _send(self, msg: Message) -> None:
        self._effects.append(("send", msg.src, msg.dst, msg.tag, msg.payload))

    def _set_timer(self, rank: int, delay: float, tag: str,
                   payload: Any) -> None:
        self._effects.append(("timer", rank, delay, tag, payload))

    def begin(self, now: float) -> None:
        self.now = now
        self._effects = []

    def take(self) -> list[tuple]:
        out = self._effects
        self._effects = []
        return out

    def __getattr__(self, name: str) -> Any:
        # Algorithm-specific extras hung on the real simulator (e.g. the
        # token ring's request total) resolve through the forked copy.
        return getattr(self.__dict__["_base"], name)


def _worker_loop(conn: Any, base: Simulator, ranks: list[int]) -> None:
    """One shard: owns ``ranks``'s process objects (inherited via fork),
    executes dispatched handlers sequentially, ships effects back."""
    shim = _WorkerSim(base)
    procs: dict[int, Process] = {r: base.processes[r] for r in ranks}
    snapshots: dict[int, dict] = {}
    try:
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "stop":
                break
            try:
                if op == "snapshot":
                    for r in cmd[1]:
                        snapshots[r] = copy.deepcopy(procs[r].__dict__)
                    conn.send(("ok", None))
                elif op == "start":
                    _, now, start_ranks = cmd
                    out = []
                    for r in start_ranks:
                        shim.begin(now)
                        procs[r].on_start(Context(shim, r))
                        out.append((r, shim.take()))
                    conn.send(("ok", out))
                elif op == "round":
                    _, now, round_no, round_ranks = cmd
                    out = []
                    for r in round_ranks:
                        if r in shim._halted:
                            out.append((r, []))
                            continue
                        shim.begin(now)
                        procs[r].on_round(Context(shim, r), round_no)
                        out.append((r, shim.take()))
                    conn.send(("ok", out))
                elif op == "batch":
                    # Messages travel as bare (src, dst, tag, payload)
                    # tuples; the worker rebuilds each ``Message``.
                    _, now, items = cmd
                    out = []
                    for pos, kind, payload in items:
                        shim.begin(now)
                        if kind == "recover":
                            rank = payload
                            snap = snapshots.get(rank)
                            if snap is not None:
                                proc = procs[rank]
                                proc.__dict__.clear()
                                proc.__dict__.update(copy.deepcopy(snap))
                            shim._halted.discard(rank)
                            procs[rank].on_recover(Context(shim, rank))
                            out.append((pos, "delivered", shim.take()))
                        else:
                            src, dst, tag, mp = payload
                            if dst in shim._halted:
                                out.append((pos, "skipped", []))
                                continue
                            procs[dst].on_message(
                                Context(shim, dst),
                                Message(src, dst, tag, mp))
                            out.append((pos, "delivered", shim.take()))
                    conn.send(("ok", out))
                else:  # pragma: no cover - protocol error
                    conn.send(("error", f"unknown op {op!r}"))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Parent-side simulator
# ---------------------------------------------------------------------------


class ShardedSimulator(Simulator):
    """Drop-in :class:`Simulator` that executes same-timestamp event
    batches across forked workers, bit-identical to the serial loop.

    ``shards`` asks for that many workers; runs that cannot shard
    (non-synchronous timing, pending dynamic spawns, fewer than
    ``min_processes`` processes without ``force``, no ``fork`` support)
    silently use the inherited serial loop.  After ``run()``,
    ``used_shards`` tells which path executed (0 = serial).
    """

    def __init__(
        self,
        topology: Topology,
        processes: Sequence[Process],
        timing: Optional[TimingModel] = None,
        failures: Optional[FailurePlan] = None,
        shards: int = 2,
        min_processes: int = 64,
        force: bool = False,
        **kwargs: Any,
    ) -> None:
        super().__init__(topology, processes, timing, failures, **kwargs)
        if shards < 1:
            raise SimulationError(f"shards must be >= 1, got {shards}")
        self.requested_shards = shards
        self.min_processes = min_processes
        self.force = force
        self.used_shards = 0
        self._conns: list[Any] = []
        self._workers: list[Any] = []
        self._shard_size = 0

    # -- shard bookkeeping -----------------------------------------------------

    def _should_shard(self) -> bool:
        return (
            self.requested_shards >= 2
            and len(self.processes) >= 2
            and isinstance(self.timing, Synchronous)
            and not self._pending_spawns
            and (self.force or len(self.processes) >= self.min_processes)
            and "fork" in multiprocessing.get_all_start_methods()
        )

    def _worker_of(self, rank: int) -> int:
        return rank // self._shard_size

    def _spawn_workers(self) -> None:
        n = len(self.processes)
        shards = min(self.requested_shards, n)
        self._shard_size = -(-n // shards)  # ceil
        shards = -(-n // self._shard_size)  # ranks may not fill the last
        ctx = multiprocessing.get_context("fork")
        for w in range(shards):
            ranks = list(range(w * self._shard_size,
                               min((w + 1) * self._shard_size, n)))
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop, args=(child_conn, self, ranks),
                daemon=True)
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._workers.append(proc)
        self.used_shards = shards

    def _shutdown_workers(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._workers:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        self._conns = []
        self._workers = []

    def _ask(self, worker: int, cmd: tuple) -> Any:
        self._conns[worker].send(cmd)
        status, payload = self._conns[worker].recv()
        if status == "error":
            raise SimulationError(f"sharded worker {worker} failed:\n"
                                  f"{payload}", metrics=self.metrics)
        return payload

    def _ask_all(self, per_worker: dict[int, tuple]) -> dict[int, Any]:
        """Send one command per worker, then collect — the requests run
        concurrently across shards."""
        for w, cmd in per_worker.items():
            self._conns[w].send(cmd)
        out = {}
        for w in per_worker:
            status, payload = self._conns[w].recv()
            if status == "error":
                raise SimulationError(
                    f"sharded worker {w} failed:\n{payload}",
                    metrics=self.metrics)
            out[w] = payload
        return out

    # -- effect replay ---------------------------------------------------------

    def _replay(self, effects: list[tuple]) -> None:
        """Apply one handler's recorded effects through the real
        simulator — the single point where the parallel execution is
        serialized back into the serial loop's exact order."""
        for eff in effects:
            kind = eff[0]
            if kind == "send":
                self._send(Message(eff[1], eff[2], eff[3], eff[4]))
            elif kind == "timer":
                self._set_timer(eff[1], eff[2], eff[3], eff[4])
            elif kind == "halt":
                self._halted.add(eff[1])
            elif kind == "minc":
                setattr(self.metrics, eff[1],
                        getattr(self.metrics, eff[1]) + eff[2])
            elif kind == "mlist":
                getattr(self.metrics, eff[1]).append(eff[2])
            elif kind == "mdict":
                getattr(self.metrics, eff[1])[eff[2]] = eff[3]
            elif kind == "mcount":
                getattr(self.metrics, eff[1])[eff[2]] += eff[3]
            else:  # pragma: no cover - protocol error
                raise SimulationError(f"unknown effect {kind!r}")

    def _replay_rank_ordered(self, results: dict[int, Any]) -> None:
        """Replay per-rank effect lists in global rank order (the order
        the serial loop runs ``on_start``/``on_round``).  Contiguous
        shards make worker order == rank order."""
        for w in sorted(results):
            for _rank, effects in results[w]:
                self._replay(effects)

    # -- sharded run loop ------------------------------------------------------

    def _start_processes_sharded(self) -> None:
        per_worker: dict[int, tuple] = {}
        for w in range(self.used_shards):
            ranks = [
                r for r in range(w * self._shard_size,
                                 min((w + 1) * self._shard_size,
                                     len(self.processes)))
                if not self.failures.crashed(r, 0.0)
            ]
            if ranks:
                per_worker[w] = ("start", 0.0, ranks)
        self._replay_rank_ordered(self._ask_all(per_worker))

    def _schedule_churn_sharded(self) -> None:
        """Serial ``_schedule_churn``, with the state snapshots taken by
        the owning workers (the parent's process copies never run)."""
        per_worker: dict[int, list[int]] = {}
        for rank in self.failures.churn:
            if not 0 <= rank < len(self.processes):
                raise SimulationError(
                    f"churn plan names rank {rank}, but only "
                    f"{len(self.processes)} processes exist"
                )
            per_worker.setdefault(self._worker_of(rank), []).append(rank)
        self._ask_all({w: ("snapshot", ranks)
                       for w, ranks in per_worker.items()})
        for up, rank in self.failures.recoveries():
            heapq.heappush(
                self._queue, (up, self._seq, Message(-1, rank, "__recover__")))
            self._seq += 1

    def _fire_round_hooks_sharded(self) -> None:
        self._round_no += 1
        self.metrics.rounds = self._round_no
        tr = self._tracer
        if tr is not None:
            tr.event("sim.round", cat="sim", round=self._round_no,
                     t=self.now)
        per_worker: dict[int, tuple] = {}
        for w in range(self.used_shards):
            ranks = [
                r for r in range(w * self._shard_size,
                                 min((w + 1) * self._shard_size,
                                     len(self.processes)))
                if not self.failures.crashed(r, self.now)
                and r not in self._halted
            ]
            if ranks:
                per_worker[w] = ("round", self.now, self._round_no, ranks)
        self._replay_rank_ordered(self._ask_all(per_worker))

    def _process_batch(self, batch: list[tuple[float, int, Message]]) -> None:
        t = batch[0][0]
        self.now = t
        plan: list[tuple[str, Message]] = []
        per_worker: dict[int, list[tuple]] = {}
        for pos, (_t, _s, msg) in enumerate(batch):
            if msg.tag == "__recover__" and msg.src == -1:
                plan.append(("recover", msg))
                per_worker.setdefault(self._worker_of(msg.dst), []).append(
                    (pos, "recover", msg.dst))
            elif self.failures.crashed(msg.dst, t) or msg.dst in self._halted:
                plan.append(("skip", msg))
            else:
                plan.append(("dispatch", msg))
                per_worker.setdefault(self._worker_of(msg.dst), []).append(
                    (pos, "msg", (msg.src, msg.dst, msg.tag, msg.payload)))
        results: dict[int, tuple[str, list]] = {}
        answers = self._ask_all({
            w: ("batch", t, items) for w, items in per_worker.items()
        })
        for payload in answers.values():
            for pos, status, effects in payload:
                results[pos] = (status, effects)
        tr = self._tracer
        for pos, (kind, msg) in enumerate(plan):
            if kind == "skip":
                continue
            status, effects = results[pos]
            if kind == "recover":
                self._halted.discard(msg.dst)
                self.metrics.recoveries += 1
                if tr is not None:
                    tr.event("sim.recover", cat="sim", rank=msg.dst, t=t)
                self._replay(effects)
            else:
                if status == "skipped":
                    # The rank halted earlier in this batch; the serial
                    # loop's delivery-time check skips it the same way.
                    continue
                self.metrics.messages_delivered += 1
                if tr is not None:
                    tr.event("sim.deliver", cat="sim", src=msg.src,
                             dst=msg.dst, tag=msg.tag, t=t)
                self._replay(effects)
            if self._breach is not None:
                # The serial loop truncates before the next pop; events
                # after the breaching one stay undelivered/uncounted.
                break

    def _run(self) -> RunMetrics:
        if not self._should_shard():
            self.used_shards = 0
            return super()._run()
        self._spawn_workers()
        try:
            return self._run_sharded()
        finally:
            self._shutdown_workers()

    def _run_sharded(self) -> RunMetrics:
        self._schedule_churn_sharded()
        self._start_processes_sharded()
        last_round_boundary = 0
        while self._queue:
            if self._breach is not None:
                return self._truncate(self._breach)
            head = heapq.heappop(self._queue)
            t = head[0]
            if t > self.max_time:
                return self._truncate(f"exceeded max_time={self.max_time}")
            boundary = math.floor(t)
            while last_round_boundary < boundary:
                last_round_boundary += 1
                self.now = float(last_round_boundary)
                self._fire_round_hooks_sharded()
            batch = [head]
            # Same-time events already queued are causally closed (all
            # delays are > 0) and batch together.  If a round hook just
            # enqueued an *earlier* event, keep the batch a singleton —
            # the serial loop, having already popped ``head``, delivers
            # it before draining back down to the earlier time.
            if not (self._queue and self._queue[0][0] < t):
                while self._queue and self._queue[0][0] == t:
                    batch.append(heapq.heappop(self._queue))
            self._process_batch(batch)
        if self._breach is not None:
            return self._truncate(self._breach)
        self.metrics.finish_time = self.now
        self.metrics.rounds = max(self.metrics.rounds,
                                  int(math.ceil(self.now)))
        return self.metrics
