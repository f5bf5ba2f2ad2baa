"""Failure injection — taxonomy dimension 3.

"Tolerance to component failures.  Some algorithms do not tolerate any
failures while some can tolerate particular kinds of failures.  Further
refining this concept leads to Byzantine and non-Byzantine failures of
nodes and links."

A :class:`FailurePlan` is a schedulable fault DSL the simulator consults:

- **crashes** — permanent crash-stop times per rank;
- **churn** — crash-*recovery* intervals per rank (the process is down for
  ``[down, up)`` and comes back with **state loss**: the simulator restores
  its construction-time state and replays ``on_recover``);
- **partitions** — timed :class:`PartitionEvent`\\ s splitting the ranks
  into groups; cross-group traffic is dropped *deterministically* (no RNG
  sample is consumed, so adding a partition never perturbs the loss
  stream of an existing seed).  A ``heal`` is the event with no groups;
- **byzantine** payload corruption, **dead links**, scalar and per-link
  **loss** — as before, bit-identical for plans that use no new fields.

Plans *validate* (:meth:`FailurePlan.validate`) and *compose*
(:meth:`FailurePlan.compose`), so a loss plan, a partition schedule, and
a churn schedule written separately combine into one run's fault model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from .core import Message


class FailurePlanError(ValueError):
    """An ill-formed failure plan (overlapping churn intervals,
    non-disjoint partition groups, unordered events, ...)."""


@dataclass(frozen=True)
class PartitionEvent:
    """At time ``at`` the network splits into ``groups`` (a heal when
    ``groups`` is None): each group is a frozenset of ranks, ranks listed
    in no group form one implicit remainder group."""

    at: float
    groups: Optional[tuple[frozenset, ...]] = None

    @property
    def is_heal(self) -> bool:
        return self.groups is None


def _normalize_groups(
    groups: Optional[Iterable[Iterable[int]]],
) -> Optional[tuple[frozenset, ...]]:
    if groups is None:
        return None
    out = tuple(frozenset(g) for g in groups)
    seen: set[int] = set()
    for g in out:
        if not g:
            raise FailurePlanError("empty partition group")
        if seen & g:
            raise FailurePlanError(
                f"partition groups are not disjoint: rank(s) "
                f"{sorted(seen & g)} appear twice"
            )
        seen |= g
    return out


@dataclass
class FailurePlan:
    """Declarative failure schedule applied by the simulator."""

    #: rank -> crash time (no sends/receives at or after that time).
    crashes: dict[int, float] = field(default_factory=dict)
    #: rank -> payload corruption function applied to every outgoing message.
    byzantine: dict[int, Callable[[Any], Any]] = field(default_factory=dict)
    #: undirected links that silently drop every message.
    dead_links: set[tuple[int, int]] = field(default_factory=set)
    #: probability that any given message is lost (lossy network).
    loss_probability: float = 0.0
    #: per-link loss probabilities, keyed like ``dead_links`` (undirected,
    #: ``(min, max)`` normalized); a link's entry overrides the scalar
    #: ``loss_probability`` for traffic on that link only.
    link_loss: dict[tuple[int, int], float] = field(default_factory=dict)
    #: timed partition/heal schedule, consulted deterministically.
    partitions: list[PartitionEvent] = field(default_factory=list)
    #: rank -> sorted, non-overlapping ``(down, up)`` downtime intervals;
    #: at ``up`` the process recovers with state loss.
    churn: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self.link_loss = {
            (min(u, v), max(u, v)): p for (u, v), p in self.link_loss.items()
        }
        self.partitions = [
            e if isinstance(e, PartitionEvent)
            else PartitionEvent(e[0], _normalize_groups(e[1]))
            for e in self.partitions
        ]
        self.validate()

    # -- validation / composition ---------------------------------------------

    def validate(self) -> "FailurePlan":
        """Raise :class:`FailurePlanError` on an ill-formed schedule;
        returns self so construction pipelines can chain."""
        for e in self.partitions:
            _normalize_groups(e.groups)  # disjointness / non-emptiness
        at = None
        for e in sorted(self.partitions, key=lambda e: e.at):
            if at is not None and e.at == at:
                raise FailurePlanError(
                    f"two partition events at the same time {e.at}"
                )
            at = e.at
        self.partitions.sort(key=lambda e: e.at)
        for rank, intervals in self.churn.items():
            intervals.sort()
            prev_up = None
            for down, up in intervals:
                if not down < up:
                    raise FailurePlanError(
                        f"churn interval for rank {rank} must have "
                        f"down < up, got [{down}, {up})"
                    )
                if prev_up is not None and down < prev_up:
                    raise FailurePlanError(
                        f"overlapping churn intervals for rank {rank}"
                    )
                prev_up = up
            t = self.crashes.get(rank)
            if t is not None and intervals and intervals[-1][1] > t:
                raise FailurePlanError(
                    f"rank {rank} recovers at {intervals[-1][1]} after its "
                    f"permanent crash at {t}"
                )
        for p in list(self.link_loss.values()) + [self.loss_probability]:
            if not 0.0 <= p <= 1.0:
                raise FailurePlanError(f"loss probability {p} outside [0, 1]")
        return self

    def compose(self, other: "FailurePlan") -> "FailurePlan":
        """Merge two plans into a new one (the RNG seed is taken from
        ``self``).  Crashes take the earlier time, loss takes the max
        (scalar and per-link), dead links and churn union, partition
        schedules concatenate; a byzantine rank in both plans is an error.
        """
        overlap = set(self.byzantine) & set(other.byzantine)
        if overlap:
            raise FailurePlanError(
                f"both plans corrupt rank(s) {sorted(overlap)}; compose "
                f"cannot pick one"
            )
        crashes = dict(self.crashes)
        for r, t in other.crashes.items():
            crashes[r] = min(t, crashes[r]) if r in crashes else t
        link_loss = dict(self.link_loss)
        for k, p in other.link_loss.items():
            link_loss[k] = max(p, link_loss.get(k, 0.0))
        churn: dict[int, list[tuple[float, float]]] = {
            r: list(iv) for r, iv in self.churn.items()
        }
        for r, iv in other.churn.items():
            churn.setdefault(r, []).extend(iv)
        return FailurePlan(
            crashes=crashes,
            byzantine={**self.byzantine, **other.byzantine},
            dead_links=self.dead_links | other.dead_links,
            loss_probability=max(self.loss_probability,
                                 other.loss_probability),
            link_loss=link_loss,
            partitions=list(self.partitions) + list(other.partitions),
            churn=churn,
            seed=self.seed,
        )

    # -- queries used by the simulator ---------------------------------------

    def crashed(self, rank: int, now: float) -> bool:
        """Is ``rank`` down at ``now``?  True from a permanent crash time
        onward and inside every churn ``[down, up)`` interval."""
        t = self.crashes.get(rank)
        if t is not None and now >= t:
            return True
        for down, up in self.churn.get(rank, ()):
            if down <= now < up:
                return True
        return False

    def recoveries(self) -> list[tuple[float, int]]:
        """Every ``(up_time, rank)`` at which a churned process comes back
        (sorted) — the simulator schedules a recovery event for each."""
        out = [
            (up, rank)
            for rank, intervals in self.churn.items()
            for _down, up in intervals
        ]
        out.sort()
        return out

    def partition_groups(
        self, now: float
    ) -> Optional[tuple[frozenset, ...]]:
        """The partition in force at ``now`` (None when fully connected)."""
        active: Optional[tuple[frozenset, ...]] = None
        for e in self.partitions:
            if e.at > now:
                break
            active = e.groups
        return active

    def partitioned(self, u: int, v: int, now: float) -> bool:
        """Does the active partition separate ``u`` and ``v``?  Purely
        deterministic — consumes no RNG sample."""
        if not self.partitions or u == v:
            return False
        groups = self.partition_groups(now)
        if groups is None:
            return False
        gu = gv = None
        for i, g in enumerate(groups):
            if u in g:
                gu = i
            if v in g:
                gv = i
        # Unlisted ranks share the implicit remainder group (None == None).
        return gu != gv

    def link_dead(self, u: int, v: int) -> bool:
        dead = self.dead_links
        if not dead:
            return False
        return ((u, v) if u < v else (v, u)) in dead

    def blocked(self, u: int, v: int, now: float) -> bool:
        """Deterministically unreachable right now: dead link or active
        partition between the endpoints."""
        return self.link_dead(u, v) or self.partitioned(u, v, now)

    def drops(self, src: Optional[int] = None,
              dst: Optional[int] = None) -> bool:
        """Decide (by seeded RNG) whether this message is lost.

        The per-link table is consulted only when it is non-empty and the
        endpoints are known, so plans without ``link_loss`` consume RNG
        samples exactly as before — same seed, same dropped indices.  A
        caller that holds a per-link plan but cannot name the link would
        silently fall back to the scalar rate and desynchronize the RNG
        stream from endpoint-aware callers; that is an error, not a
        default.
        """
        p = self.loss_probability
        if self.link_loss:
            if src is None or dst is None:
                raise FailurePlanError(
                    "plan has per-link loss but the caller did not "
                    "identify the link (src/dst required)"
                )
            p = self.link_loss.get(
                (min(src, dst), max(src, dst)), p
            )
        return p > 0 and self._rng.random() < p

    def corrupt(self, msg: Message) -> Message:
        fn = self.byzantine.get(msg.src)
        if fn is None:
            return msg
        return Message(msg.src, msg.dst, msg.tag, fn(msg.payload))

    @property
    def is_failure_free(self) -> bool:
        return (
            not self.crashes
            and not self.byzantine
            and not self.dead_links
            and not self.link_loss
            and not self.partitions
            and not self.churn
            and self.loss_probability == 0
        )


def crash(rank: int, at: float = 0.0, plan: Optional[FailurePlan] = None) -> FailurePlan:
    """Convenience: a plan crashing one process."""
    plan = plan or FailurePlan()
    plan.crashes[rank] = at
    return plan


def churn(rank: int, down_at: float, up_at: float,
          plan: Optional[FailurePlan] = None) -> FailurePlan:
    """Convenience: ``rank`` crashes at ``down_at`` and recovers (with
    state loss) at ``up_at``."""
    plan = plan or FailurePlan()
    plan.churn.setdefault(rank, []).append((down_at, up_at))
    return plan.validate()


def partition(at: float, groups: Sequence[Iterable[int]],
              plan: Optional[FailurePlan] = None) -> FailurePlan:
    """Convenience: split the network into ``groups`` at time ``at``."""
    plan = plan or FailurePlan()
    plan.partitions.append(PartitionEvent(at, _normalize_groups(groups)))
    return plan.validate()


def heal(at: float, plan: Optional[FailurePlan] = None) -> FailurePlan:
    """Convenience: dissolve any partition at time ``at``."""
    plan = plan or FailurePlan()
    plan.partitions.append(PartitionEvent(at, None))
    return plan.validate()


def byzantine_lying_id(rank: int, fake_id: int,
                       plan: Optional[FailurePlan] = None) -> FailurePlan:
    """A Byzantine process that replaces any integer payload with a fake id
    — the classic attack on id-based leader election."""
    plan = plan or FailurePlan()
    plan.byzantine[rank] = lambda p: fake_id if isinstance(p, int) else p
    return plan
