"""The abstract domain STLlint analyzes over.

"Central to the design of STLlint is the notion of abstraction via concept
and data-type specifications" — the interpreter never sees real containers,
only these summaries:

- :class:`AbstractContainer`: identity, a mutation epoch, and a set of
  flow-sensitive *properties* (``"sorted"`` is the one Section 3.1/3.2 uses).
- :class:`AbstractIterator`: which container it refers to, a symbolic
  *position* (begin / end / interior / unknown), a three-valued *validity*
  (valid / maybe-singular / singular), and a ``may_be_end`` flag for the
  range-violation check (dereferencing the result of ``find`` without
  comparing it to ``end()``).
- :class:`AbstractBool` / :class:`AbstractValue`: three-valued booleans and
  opaque element values.

Joins implement the may-analysis: anything bad on *some* path survives the
join, so a branch that invalidates an iterator taints the merged state —
exactly how Fig. 4's bug becomes visible on the loop's second iteration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Optional

from ..facts.properties import meet as _meet

_ids = itertools.count(1)


class Validity(Enum):
    VALID = "valid"
    MAYBE_SINGULAR = "maybe-singular"
    SINGULAR = "singular"

    def join(self, other: "Validity") -> "Validity":
        if self is other:
            return self
        if Validity.SINGULAR in (self, other) and Validity.VALID in (self, other):
            return Validity.MAYBE_SINGULAR
        if Validity.MAYBE_SINGULAR in (self, other):
            return Validity.MAYBE_SINGULAR
        return Validity.SINGULAR


class Position(Enum):
    BEGIN = "begin"
    END = "end"
    INTERIOR = "interior"
    UNKNOWN = "unknown"

    def join(self, other: "Position") -> "Position":
        return self if self is other else Position.UNKNOWN


class AbstractBool(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def negate(self) -> "AbstractBool":
        if self is AbstractBool.TRUE:
            return AbstractBool.FALSE
        if self is AbstractBool.FALSE:
            return AbstractBool.TRUE
        return AbstractBool.UNKNOWN


@dataclass
class AbstractContainer:
    """Summary of one container value."""

    kind: str                       # 'vector' | 'list' | 'deque'
    name: str = ""
    cid: int = field(default_factory=lambda: next(_ids))
    epoch: int = 0                  # bumped on every mutation
    properties: set[str] = field(default_factory=set)
    maybe_empty: bool = True

    def mutate(self) -> None:
        self.epoch += 1

    def copy(self) -> "AbstractContainer":
        out = AbstractContainer(self.kind, self.name, self.cid, self.epoch,
                                set(self.properties), self.maybe_empty)
        return out

    def join(self, other: "AbstractContainer") -> "AbstractContainer":
        assert self.cid == other.cid
        out = self.copy()
        out.epoch = max(self.epoch, other.epoch)
        # Must-hold at the join point: the facts-lattice meet, which
        # closes both sides under implication first (strictly-sorted on
        # one path meets sorted on the other at sorted, not at nothing).
        out.properties = set(_meet(self.properties, other.properties))
        out.maybe_empty = self.maybe_empty or other.maybe_empty
        return out

    def __repr__(self) -> str:
        props = f" {sorted(self.properties)}" if self.properties else ""
        return f"<{self.kind} #{self.cid} '{self.name}' e{self.epoch}{props}>"


@dataclass
class AbstractIterator:
    """Summary of one iterator value."""

    container: AbstractContainer
    position: Position = Position.UNKNOWN
    validity: Validity = Validity.VALID
    epoch: int = 0                  # container epoch when this was valid
    may_be_end: bool = False        # e.g. the result of find()
    origin_line: int = 0

    def copy(self) -> "AbstractIterator":
        return AbstractIterator(self.container, self.position, self.validity,
                                self.epoch, self.may_be_end, self.origin_line)

    def join(self, other: "AbstractIterator") -> "AbstractIterator":
        out = self.copy()
        out.position = self.position.join(other.position)
        out.validity = self.validity.join(other.validity)
        out.epoch = min(self.epoch, other.epoch)
        out.may_be_end = self.may_be_end or other.may_be_end
        if other.container.cid != self.container.cid:
            # Joining iterators of different containers: nothing is known.
            out.position = Position.UNKNOWN
            out.validity = out.validity.join(other.validity)
        return out

    def invalidate(self, definitely: bool = True) -> None:
        self.validity = (
            Validity.SINGULAR if definitely else
            self.validity.join(Validity.SINGULAR)
        )

    def __repr__(self) -> str:
        end = " may-be-end" if self.may_be_end else ""
        return (f"<iter #{self.container.cid} {self.position.value} "
                f"{self.validity.value}{end}>")


@dataclass
class AbstractValue:
    """An opaque element/scalar value."""

    note: str = ""

    def copy(self) -> "AbstractValue":
        return AbstractValue(self.note)

    def join(self, other: "AbstractValue") -> "AbstractValue":
        return AbstractValue(self.note if self.note == other.note else "")

    def __repr__(self) -> str:
        return f"<value {self.note}>" if self.note else "<value>"


@dataclass(frozen=True)
class EpochSnapshot:
    """Container epochs captured at one program point (a ``try`` entry).

    The CFG engine stores one of these in the environment under a hidden
    name so exception-edge havoc can compare "epoch now" against "epoch
    when the protected region began" even after joins.  Joining snapshots
    takes the pointwise *minimum* epoch: the lower pre-epoch makes more
    containers look mutated, which havocs more iterators — conservative
    for a may-analysis.
    """

    epochs: frozenset[tuple[int, int]]  # (cid, epoch) pairs

    @staticmethod
    def of(env_values: Any) -> "EpochSnapshot":
        return EpochSnapshot(frozenset(
            (v.cid, v.epoch) for v in env_values
            if isinstance(v, AbstractContainer)
        ))

    def epoch_of(self, cid: int, default: int) -> int:
        for c, e in self.epochs:
            if c == cid:
                return e
        return default

    def copy(self) -> "EpochSnapshot":
        return self

    def join(self, other: "EpochSnapshot") -> "EpochSnapshot":
        merged: dict[int, int] = dict(self.epochs)
        for cid, epoch in other.epochs:
            merged[cid] = min(merged.get(cid, epoch), epoch)
        return EpochSnapshot(frozenset(merged.items()))


def join_values(a: Any, b: Any) -> Any:
    """Join two abstract values of possibly different kinds."""
    if a is b:
        return a
    if isinstance(a, AbstractIterator) and isinstance(b, AbstractIterator):
        return a.join(b)
    if isinstance(a, AbstractContainer) and isinstance(b, AbstractContainer) \
            and a.cid == b.cid:
        return a.join(b)
    if isinstance(a, AbstractBool) and isinstance(b, AbstractBool):
        return a if a is b else AbstractBool.UNKNOWN
    if isinstance(a, AbstractValue) and isinstance(b, AbstractValue):
        return a.join(b)
    if isinstance(a, EpochSnapshot) and isinstance(b, EpochSnapshot):
        return a.join(b)
    return AbstractValue()
