"""Leader election + replicated log (Raft-style) — the taxonomy's
ambitious corner: consensus that *survives* partitions, healing, and
node churn.

The algorithm is classic Raft restricted to what the simulator models:

- **terms** with at most one leader each (election safety follows from
  majority voting: each process votes once per term);
- **heartbeat-driven election** — followers arm randomized (seeded,
  deterministic) election timeouts and stand for election when the
  leader falls silent; when running over a
  :class:`~repro.distributed.reliable.ReliableChannel` the transport's
  eventually-perfect failure detector feeds in as extra evidence
  (a suspected leader triggers an immediate candidacy);
- **pre-vote** (Raft S9.6) — a would-be candidate first sounds out a
  quorum without touching its own term, and peers refuse the
  endorsement while they hear a live leader (leader stickiness); a
  partitioned replica therefore cannot inflate its term in isolation
  and depose a healthy leader when the partition heals;
- **quorum commit** — the leader replicates entries via AppendEntries
  piggybacked on heartbeats and commits an entry of its own term once a
  majority acks it; committed entries therefore survive any minority of
  crashes/churn, and the up-to-date-log voting rule preserves them
  across leader changes (leader completeness);
- **churn tolerance** — a recovered process comes back with *empty*
  state (the simulator's state-loss model); the consistency check in
  AppendEntries makes the leader roll ``next_index`` back and replay the
  log (counted in ``RunMetrics.recovery_replays``).

Every run is self-terminating: heartbeats and election attempts are
bounded, and a process stops rearming timers once it has applied the
run's ``expected`` command count — so the simulator quiesces instead of
beating forever.

Safety laws (no two leaders per term; committed entries never lost
across partition/heal/churn; applied prefixes pairwise consistent) are
written down as semantic axioms of the ``ReplicatedLogSafety`` concept
in :mod:`repro.resilience.concepts` and checked over seeded runs through
the standard model machinery; :class:`ReplicatedLogRecord` is the value
those axioms quantify over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ..core import Context, Message, Process
from ..failures import FailurePlan
from ..metrics import RunMetrics
from ..network import Complete
from ..simulator import Simulator
from ..timing import Synchronous, TimingModel

PREVOTE_REQ = "prevote-req"
PREVOTE = "prevote"
VOTE_REQ = "vote-req"
VOTE = "vote"
APPEND = "append"
APPEND_OK = "append-ok"
PROPOSE = "propose"
ELECT = "election-timer"
HEARTBEAT = "heartbeat-timer"

NOOP = "__noop__"


def _is_noop(cmd: Any) -> bool:
    return isinstance(cmd, tuple) and len(cmd) > 0 and cmd[0] == NOOP


class ReplicatedLog(Process):
    """One replica of a Raft-style replicated log on a complete topology.

    ``proposals`` are the commands this replica wants committed; they are
    forwarded to whoever currently leads and resubmitted on every leader
    change until applied (the leader deduplicates by command identity).
    """

    def __init__(
        self,
        rank: int,
        n: int,
        proposals: Sequence[Any] = (),
        seed: int = 0,
        election_timeout: tuple[float, float] = (8.0, 16.0),
        heartbeat_every: float = 2.0,
        max_beats: int = 80,
        max_elections: int = 25,
        expected: Optional[int] = None,
        **params: Any,
    ) -> None:
        super().__init__(rank, **params)
        self.n = n
        self.majority = n // 2 + 1
        self.proposals = [("cmd", rank, i, v) for i, v in enumerate(proposals)]
        self.election_timeout = election_timeout
        self.heartbeat_every = heartbeat_every
        self.max_beats = max_beats
        self.max_elections = max_elections
        self.expected = expected
        self._rng = random.Random(1_000_003 * (seed + 1) + rank)
        # Replica state — ALL of it is lost on churn (the simulator's
        # state-loss model); safety rests on quorum intersection, not on
        # per-node durability.
        self.term = 0
        self.voted_for: Optional[int] = None
        self.role = "follower"
        self.leader: Optional[int] = None
        self.log: list[tuple[int, Any]] = []   # (term, command)
        self.commit_index = 0                   # committed entry count
        self.applied: list[Any] = []            # committed non-noop commands
        self.votes: set[int] = set()
        self.prevotes: set[int] = set()
        self.next_index: dict[int, int] = {}
        self.match_index: dict[int, int] = {}
        self._beats = 0
        self._elections = 0
        self._quiet_beats = 0
        self._last_leader_contact = 0.0

    # -- helpers ---------------------------------------------------------------

    def _peers(self) -> list[int]:
        return [p for p in range(self.n) if p != self.rank]

    def _election_delay(self) -> float:
        lo, hi = self.election_timeout
        return lo + self._rng.random() * (hi - lo)

    def _last_log_term(self) -> int:
        return self.log[-1][0] if self.log else 0

    def _done(self) -> bool:
        return self.expected is not None and len(self.applied) >= self.expected

    def _adopt_term(self, term: int, ctx: Context) -> None:
        if term > self.term:
            self.term = term
            self.voted_for = None
            self.role = "follower"
            ctx.metrics.term_changes += 1

    def _apply_to(self, ctx: Context, new_commit: int) -> None:
        """Advance commit_index and apply — the only place entries become
        visible, and the history the safety axioms audit."""
        if new_commit <= self.commit_index:
            return
        ctx.charge(new_commit - self.commit_index)
        for idx in range(self.commit_index, new_commit):
            _term, cmd = self.log[idx]
            if not _is_noop(cmd):
                self.applied.append(cmd)
        self.commit_index = new_commit
        ctx.metrics.commit_history.append(
            (ctx.now, self.rank, tuple(self.applied)))
        ctx.decide(tuple(self.applied))

    def _submit_own(self, ctx: Context) -> None:
        """(Re)submit every not-yet-applied own proposal to the leader."""
        pending = [c for c in self.proposals if c not in self.applied]
        if not pending:
            return
        if self.role == "leader":
            self._leader_append(ctx, pending)
        elif self.leader is not None:
            ctx.send(self.leader, PROPOSE, tuple(pending))

    def _leader_append(self, ctx: Context, cmds: Sequence[Any]) -> None:
        known = {cmd for _t, cmd in self.log}
        for cmd in cmds:
            if cmd not in known:
                self.log.append((self.term, cmd))
                known.add(cmd)

    # -- lifecycle -------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        if self.n == 1:
            self._become_leader(ctx)
            return
        ctx.set_timer(self._election_delay(), ELECT, None)

    def on_message(self, ctx: Context, msg: Message) -> None:
        handler = _HANDLERS.get(msg.tag)
        if handler is not None:
            handler(self, ctx, msg)

    # -- election --------------------------------------------------------------

    def _leader_suspected(self, ctx: Context) -> bool:
        channel = getattr(ctx, "channel", None)
        return (
            channel is not None
            and self.leader is not None
            and self.leader in channel.suspected
        )

    def _on_election_timer(self, ctx: Context, msg: Message) -> None:
        if self.role == "leader" or self._done():
            return
        lo, _hi = self.election_timeout
        heard_recently = (ctx.now - self._last_leader_contact) < lo
        if heard_recently and not self._leader_suspected(ctx):
            ctx.set_timer(self._election_delay(), ELECT, None)
            return
        if self._elections >= self.max_elections:
            return
        self._elections += 1
        # Pre-vote (Raft S9.6): sound out a quorum WITHOUT bumping our
        # own term.  A replica isolated by a partition would otherwise
        # inflate its term unboundedly and depose a healthy leader the
        # moment the partition heals.
        self.prevotes = {self.rank}
        for p in self._peers():
            ctx.send(p, PREVOTE_REQ,
                     (self.term + 1, len(self.log), self._last_log_term()))
        ctx.set_timer(self._election_delay(), ELECT, None)

    def _on_prevote_request(self, ctx: Context, msg: Message) -> None:
        proposed, cand_len, cand_last_term = msg.payload
        lo, _hi = self.election_timeout
        up_to_date = (cand_last_term, cand_len) >= \
            (self._last_log_term(), len(self.log))
        # Leader stickiness: while we hear a live, unsuspected leader we
        # refuse to endorse elections (changes no local state either way).
        content_with_leader = (
            self.leader is not None
            and self.leader != msg.src
            and (ctx.now - self._last_leader_contact) < lo
            and not self._leader_suspected(ctx)
        )
        grant = proposed > self.term and up_to_date \
            and not content_with_leader
        ctx.send(msg.src, PREVOTE, (proposed, grant))

    def _on_prevote(self, ctx: Context, msg: Message) -> None:
        proposed, granted = msg.payload
        if (
            self.role == "leader"
            or proposed != self.term + 1
            or not granted
        ):
            return
        self.prevotes.add(msg.src)
        if len(self.prevotes) < self.majority:
            return
        # A quorum endorses the election: now bump the term for real.
        self.prevotes = set()
        self.term += 1
        ctx.metrics.term_changes += 1
        ctx.metrics.elections_started += 1
        self.role = "candidate"
        self.voted_for = self.rank
        self.votes = {self.rank}
        self.leader = None
        for p in self._peers():
            ctx.send(p, VOTE_REQ,
                     (self.term, len(self.log), self._last_log_term()))

    def _on_vote_request(self, ctx: Context, msg: Message) -> None:
        term, cand_len, cand_last_term = msg.payload
        self._adopt_term(term, ctx)
        up_to_date = (cand_last_term, cand_len) >= \
            (self._last_log_term(), len(self.log))
        grant = (
            term == self.term
            and self.voted_for in (None, msg.src)
            and up_to_date
        )
        if grant:
            self.voted_for = msg.src
            # Granting a vote is evidence an election is in progress:
            # suppress our own candidacy for one timeout (vote-split
            # avoidance, the standard Raft rule).
            self._last_leader_contact = ctx.now
        ctx.send(msg.src, VOTE, (self.term, grant))

    def _on_vote(self, ctx: Context, msg: Message) -> None:
        term, granted = msg.payload
        self._adopt_term(term, ctx)
        if self.role != "candidate" or term != self.term or not granted:
            return
        self.votes.add(msg.src)
        if len(self.votes) >= self.majority:
            self._become_leader(ctx)

    def _become_leader(self, ctx: Context) -> None:
        self.role = "leader"
        self.leader = self.rank
        self.votes = set()
        self.next_index = {p: len(self.log) for p in self._peers()}
        self.match_index = {p: 0 for p in self._peers()}
        self._quiet_beats = 0
        ctx.metrics.leadership_events.append((self.term, self.rank))
        # A fresh no-op lets this term's quorum commit everything before
        # it (a leader may only count replicas for entries of its own
        # term — the Raft commit rule).
        self.log.append((self.term, (NOOP, self.term, self.rank)))
        self._leader_append(
            ctx, [c for c in self.proposals if c not in self.applied])
        if self.n == 1:
            self._apply_to(ctx, len(self.log))
            return
        self._broadcast_appends(ctx)
        ctx.set_timer(self.heartbeat_every, HEARTBEAT, None)

    # -- replication -----------------------------------------------------------

    def _broadcast_appends(self, ctx: Context) -> None:
        for p in self._peers():
            ni = self.next_index.get(p, len(self.log))
            prev_term = self.log[ni - 1][0] if ni > 0 else 0
            entries = tuple(self.log[ni:])
            ctx.send(p, APPEND,
                     (self.term, ni, prev_term, entries, self.commit_index))

    def _on_heartbeat_timer(self, ctx: Context, msg: Message) -> None:
        if self.role != "leader":
            return
        self._beats += 1
        if self._beats > self.max_beats:
            return
        if self._done() and self.commit_index == len(self.log) and all(
            self.match_index.get(p, 0) >= len(self.log)
            for p in self._peers()
        ):
            # Everyone is fully replicated and caught up on the commit
            # index; a couple of farewell beats propagate it, then the
            # leader goes quiet so the run can quiesce.
            self._quiet_beats += 1
            if self._quiet_beats > 2:
                return
        self._broadcast_appends(ctx)
        ctx.set_timer(self.heartbeat_every, HEARTBEAT, None)

    def _on_append(self, ctx: Context, msg: Message) -> None:
        term, prev_len, prev_term, entries, leader_commit = msg.payload
        self._adopt_term(term, ctx)
        if term < self.term:
            ctx.send(msg.src, APPEND_OK,
                     (self.term, False, len(self.log)))
            return
        if self.role == "candidate":
            self.role = "follower"
        new_leader = self.leader != msg.src
        self.leader = msg.src
        self._last_leader_contact = ctx.now
        if prev_len > len(self.log) or (
            prev_len > 0 and self.log[prev_len - 1][0] != prev_term
        ):
            # Log inconsistency (typically: we lost state to churn, or a
            # stale leader's entries were uncommitted) — reject and let
            # the leader walk next_index back.
            ctx.send(msg.src, APPEND_OK,
                     (self.term, False, min(len(self.log), prev_len)))
        else:
            for offset, entry in enumerate(entries):
                idx = prev_len + offset
                if idx < len(self.log):
                    if self.log[idx] != entry:
                        del self.log[idx:]
                        self.log.append(entry)
                else:
                    self.log.append(entry)
            self._apply_to(ctx, min(leader_commit, len(self.log)))
            ctx.send(msg.src, APPEND_OK,
                     (self.term, True, prev_len + len(entries)))
        if new_leader:
            self._submit_own(ctx)

    def _on_append_ok(self, ctx: Context, msg: Message) -> None:
        term, ok, match = msg.payload
        self._adopt_term(term, ctx)
        if self.role != "leader" or term != self.term:
            return
        if not ok:
            # The follower's log diverged (state loss, stale suffix):
            # roll back and replay from the reported length.
            old = self.next_index.get(msg.src, len(self.log))
            self.next_index[msg.src] = max(0, min(old - 1, match))
            if self.next_index[msg.src] < old:
                ctx.metrics.recovery_replays += 1
            return
        self.next_index[msg.src] = max(
            self.next_index.get(msg.src, 0), match)
        # Quorum commit: the highest index on a majority, if of the
        # current term.  The leader's own length counts and is the largest
        # (its log only grows in its term), so with majority > 1 (acks
        # come from peers) an ack that raises no match changes nothing,
        # and if a majority holds ``match`` the candidate is ``match`` or
        # an older, already settled one that decides the same.
        if match <= self.match_index.get(msg.src, 0):
            return
        self.match_index[msg.src] = match
        matches = self.match_index.values()       # one per peer
        if sum(m >= match for m in matches) + 1 >= self.majority:
            candidate = match
        else:
            candidate = sorted(matches, reverse=True)[self.majority - 2]
        if candidate > self.commit_index and \
                self.log[candidate - 1][0] == self.term:
            newly = candidate - self.commit_index
            self._apply_to(ctx, candidate)
            ctx.metrics.log_commits += newly

    def _on_propose(self, ctx: Context, msg: Message) -> None:
        if self.role == "leader":
            self._leader_append(ctx, list(msg.payload))
        elif self.leader is not None and self.leader != self.rank:
            ctx.send(self.leader, PROPOSE, msg.payload)

    def __repr__(self) -> str:
        return (f"<ReplicatedLog rank={self.rank} term={self.term} "
                f"role={self.role} log={len(self.log)}>")


#: tag -> handler, built once: ``on_message`` runs for every delivery.
_HANDLERS = {
    ELECT: ReplicatedLog._on_election_timer,
    HEARTBEAT: ReplicatedLog._on_heartbeat_timer,
    PREVOTE_REQ: ReplicatedLog._on_prevote_request,
    PREVOTE: ReplicatedLog._on_prevote,
    VOTE_REQ: ReplicatedLog._on_vote_request,
    VOTE: ReplicatedLog._on_vote,
    APPEND: ReplicatedLog._on_append,
    APPEND_OK: ReplicatedLog._on_append_ok,
    PROPOSE: ReplicatedLog._on_propose,
}


# ---------------------------------------------------------------------------
# Runner + safety record
# ---------------------------------------------------------------------------


def run_replicated_log(
    n: int,
    proposals: Optional[Mapping[int, Sequence[Any]]] = None,
    failures: Optional[FailurePlan] = None,
    timing: Optional[TimingModel] = None,
    seed: int = 0,
    heartbeat_interval: Optional[float] = None,
    reliable: bool = True,
    shards: Optional[int] = None,
    max_time: float = 1e6,
    on_limit: str = "raise",
    **params: Any,
) -> RunMetrics:
    """Run the replicated log on a complete topology.

    ``proposals`` maps rank -> commands that replica wants committed
    (default: rank 0 proposes ``["a", "b", "c"]``).  With ``reliable``
    (the default) every replica runs over a
    :class:`~repro.distributed.reliable.ReliableChannel`;
    ``heartbeat_interval`` additionally switches on the transport's
    failure detector, which feeds leader suspicion into elections.
    ``shards`` > 1 runs under the sharded event loop
    (:class:`~repro.distributed.sharded.ShardedSimulator`), bit-identical
    to the serial loop on the same seed.
    """
    from ..reliable import wrap_reliable

    if proposals is None:
        proposals = {0: ["a", "b", "c"]}
    expected = sum(len(v) for v in proposals.values())
    procs: list[Process] = [
        ReplicatedLog(
            r, n=n, proposals=proposals.get(r, ()), seed=seed,
            expected=expected, **params,
        )
        for r in range(n)
    ]
    if reliable:
        procs = wrap_reliable(procs, heartbeat_interval=heartbeat_interval)
    timing = timing if timing is not None else Synchronous()
    if shards is not None and shards > 1:
        from ..sharded import ShardedSimulator

        sim: Simulator = ShardedSimulator(
            Complete(n), procs, timing, failures, shards=shards,
            max_time=max_time, on_limit=on_limit)
    else:
        sim = Simulator(Complete(n), procs, timing, failures,
                        max_time=max_time, on_limit=on_limit)
    metrics = sim.run()
    metrics.expected_commands = tuple(  # type: ignore[attr-defined]
        ("cmd", r, i, v)
        for r in sorted(proposals)
        for i, v in enumerate(proposals[r])
    )
    return metrics


@dataclass(frozen=True)
class ReplicatedLogRecord:
    """What one run exposes to the safety axioms: every leadership
    assumption, every applied-prefix observation, the final applied
    prefix per replica, and the proposed command set."""

    n: int
    leadership: tuple  # ((term, rank), ...)
    history: tuple     # ((time, rank, applied-prefix-tuple), ...)
    finals: tuple      # ((rank, applied-prefix-tuple), ...)
    expected: tuple    # every proposed command

    def quorum(self) -> int:
        return self.n // 2 + 1

    def leaders_by_term(self) -> dict:
        out: dict[int, set[int]] = {}
        for term, rank in self.leadership:
            out.setdefault(term, set()).add(rank)
        return out

    def applied_prefixes(self) -> list[tuple]:
        """Every applied prefix ever observed, historical and final."""
        return [p for _t, _r, p in self.history] + \
            [p for _r, p in self.finals]

    def final_prefixes(self) -> list[tuple]:
        return [p for _r, p in self.finals]

    def expected_commands(self) -> tuple:
        return self.expected


def record_run(metrics: RunMetrics, n: int) -> ReplicatedLogRecord:
    """Distill a run's metrics into the record the axioms quantify over."""
    return ReplicatedLogRecord(
        n=n,
        leadership=tuple(metrics.leadership_events),
        history=tuple(metrics.commit_history),
        finals=tuple(sorted(
            (rank, tuple(prefix))
            for rank, prefix in metrics.decisions.items()
        )),
        expected=tuple(getattr(metrics, "expected_commands", ())),
    )
