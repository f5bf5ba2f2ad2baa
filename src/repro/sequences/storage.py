"""The storage seam: pluggable element stores behind the sequence façades.

The paper's claim is that *one* generic algorithm, constrained only by
concepts, should run at the speed of the best implementation for each
concrete representation.  That only becomes testable when the same
container interface can sit on genuinely different representations, so
this module splits every sequence container into two layers:

- a :class:`Storage` — the representation.  It owns the elements and
  answers a small index-addressed protocol (``length/get/set/insert/
  erase/slice``) plus lifecycle hooks (``flush/close``) and a *fact
  persistence* hook (``sync_facts/load_facts``) that durable backends
  override.  Each storage class publishes a :class:`StorageCapabilities`
  record — contiguity, persistence, random-access cost, io-cost-per-op —
  which is what backend-aware algorithm selection keys on.
- a façade (``Vector``/``Deque``/``DList`` and the classes in
  :mod:`repro.sequences.backends`) — the interface.  It models the
  container/iterator concepts and routes **every** mutation through one
  choke point (:meth:`SequenceFacade._commit_mutation`) that bumps the
  mutation epoch, kills the iterators the container kind's entry of
  :data:`repro.facts.properties.INVALIDATION` names, and pushes the
  mutation kind through the facts lattice's ``invalidate`` tables.

In-memory storages for the three classic containers live here;
``array``/mmap and sqlite representations live in
:mod:`repro.sequences.backends`.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, ClassVar, Iterable, Iterator, Optional

from ..concepts.complexity import BigO, constant, linear
from ..facts.properties import (
    ALL,
    ALL_BUT_END,
    AT_OR_AFTER,
    INVALIDATION,
    NODE,
    OPERATION_KINDS,
    REALLOC,
)
from ..facts.properties import closure as _closure
from ..facts.properties import holds as _holds
from ..facts.properties import invalidate as _invalidate


class StorageError(RuntimeError):
    """A backend could not be opened or operated on (corrupt file, closed
    connection, unstorable value).  Backends raise this instead of leaking
    their native exceptions so callers get one clean failure mode — the
    exit-code contract in ``sqlite_store.main`` depends on it."""


@dataclass(frozen=True)
class StorageCapabilities:
    """What a representation can do and what touching it costs.

    Attributes:
        name: short backend identity; doubles as the STLlint container
            kind for annotation-driven analysis (``def f(s: "sqlite")``).
        contiguous: elements occupy one machine-addressable block
            (enables bulk/slice transfers priced as one operation).
        persistent: elements and recorded facts survive ``close()`` and
            a later reopen from the same location.
        random_access: asymptotic cost of ``get(i)`` in the
            representation.
        io_cost_per_op: relative price of one round trip to the backing
            store, in units of one in-memory element operation.  Zero
            for RAM-resident stores; the optimizer's io/cpu weighting
            uses this as the ``io_ops`` weight.
    """

    name: str
    contiguous: bool = False
    persistent: bool = False
    random_access: BigO = field(default_factory=constant)
    io_cost_per_op: float = 0.0

    def capability_names(self) -> frozenset[str]:
        """The capability tags algorithm concepts may require."""
        tags = set()
        if self.contiguous:
            tags.add("contiguous")
        if self.persistent:
            tags.add("persistent")
        return frozenset(tags)


class Storage(ABC):
    """Index-addressed element store.  Implementations may keep elements
    in a Python list, a machine array, an mmap'd file, or a database —
    the façade neither knows nor cares, it only sees this protocol."""

    capabilities: ClassVar[StorageCapabilities]

    # -- required core ------------------------------------------------------------

    @abstractmethod
    def length(self) -> int:
        """Number of stored elements."""

    @abstractmethod
    def get(self, index: int) -> Any:
        """Element at ``index`` (callers bounds-check)."""

    @abstractmethod
    def set(self, index: int, value: Any) -> None:
        """Replace the element at ``index``."""

    @abstractmethod
    def insert(self, index: int, value: Any) -> None:
        """Insert ``value`` before ``index`` (``index == length()`` appends)."""

    @abstractmethod
    def erase(self, index: int) -> None:
        """Remove the element at ``index``."""

    # -- derived operations (override when the representation has a faster way) --

    def append(self, value: Any) -> None:
        self.insert(self.length(), value)

    def extend(self, values: Iterable[Any]) -> None:
        """``append`` each of ``values``; a raising one stops the rest."""
        for value in values:
            self.append(value)

    def slice(self, start: int, stop: int) -> list[Any]:
        """Bulk read ``[start, stop)``; contiguous and remote backends
        override this to answer in one operation / round trip."""
        return [self.get(i) for i in range(start, stop)]

    def clear(self) -> None:
        for i in range(self.length() - 1, -1, -1):
            self.erase(i)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.slice(0, self.length()))

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        """Make prior writes durable; no-op for RAM-resident stores."""

    def close(self) -> None:
        """Release backend resources; the store is unusable afterwards
        for persistent backends, a no-op otherwise."""

    # -- fact persistence ---------------------------------------------------------

    def sync_facts(self, facts: frozenset[str]) -> None:
        """Record the façade's current runtime fact set with the data.
        Durable backends persist it; in-memory stores ignore it."""

    def load_facts(self) -> frozenset[str]:
        """Facts stored with pre-existing data, already revalidated where
        the backend can check them cheaply (empty for fresh stores)."""
        return frozenset()


class ListStorage(Storage):
    """The default RAM representation: a Python ``list``."""

    capabilities = StorageCapabilities(
        name="vector", contiguous=False, persistent=False,
        random_access=constant(), io_cost_per_op=0.0,
    )

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._items: list[Any] = list(items)

    def length(self) -> int:
        return len(self._items)

    def get(self, index: int) -> Any:
        return self._items[index]

    def set(self, index: int, value: Any) -> None:
        self._items[index] = value

    def insert(self, index: int, value: Any) -> None:
        self._items.insert(index, value)

    def erase(self, index: int) -> None:
        del self._items[index]

    def append(self, value: Any) -> None:
        self._items.append(value)

    def extend(self, values: Iterable[Any]) -> None:
        self._items.extend(values)

    def slice(self, start: int, stop: int) -> list[Any]:
        return self._items[start:stop]

    def clear(self) -> None:
        self._items.clear()


class DequeStorage(Storage):
    """RAM representation over :class:`collections.deque` — O(1) at both
    ends, which is what makes the Deque façade's push_front honest."""

    capabilities = StorageCapabilities(
        name="deque", contiguous=False, persistent=False,
        random_access=constant(), io_cost_per_op=0.0,
    )

    def __init__(self, items: Iterable[Any] = ()) -> None:
        from collections import deque
        self._items: Any = deque(items)

    def length(self) -> int:
        return len(self._items)

    def get(self, index: int) -> Any:
        return self._items[index]

    def set(self, index: int, value: Any) -> None:
        self._items[index] = value

    def insert(self, index: int, value: Any) -> None:
        if index == 0:
            self._items.appendleft(value)
        elif index >= len(self._items):
            self._items.append(value)
        else:
            self._items.insert(index, value)

    def erase(self, index: int) -> None:
        if index == 0:
            self._items.popleft()
        elif index == len(self._items) - 1:
            self._items.pop()
        else:
            del self._items[index]

    def append(self, value: Any) -> None:
        self._items.append(value)

    def extend(self, values: Iterable[Any]) -> None:
        self._items.extend(values)

    def slice(self, start: int, stop: int) -> list[Any]:
        return list(islice(self._items, start, stop))

    def clear(self) -> None:
        self._items.clear()


class _LinkNode:
    __slots__ = ("value", "prev", "next")

    def __init__(self, value: Any = None) -> None:
        self.value = value
        self.prev: "_LinkNode" = self
        self.next: "_LinkNode" = self


class LinkedStorage(Storage):
    """Node-based RAM representation for the DList façade.  Implements
    the index protocol by walking (linear random access — which is what
    the capability record advertises), and exposes the node-level
    operations the list's node iterators and O(1) splice need."""

    capabilities = StorageCapabilities(
        name="list", contiguous=False, persistent=False,
        random_access=linear(), io_cost_per_op=0.0,
    )

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self.sentinel = _LinkNode()
        self._size = 0
        self.extend(items)

    # -- node-level protocol (DList uses these directly) -------------------------

    def link_before(self, node: _LinkNode, new: _LinkNode) -> None:
        new.prev = node.prev
        new.next = node
        node.prev.next = new
        node.prev = new
        self._size += 1

    def unlink(self, node: _LinkNode) -> None:
        node.prev.next = node.next
        node.next.prev = node.prev
        self._size -= 1

    def node_at(self, index: int, end: bool = False) -> _LinkNode:
        if not 0 <= index < self._size + end:
            raise IndexError(f"list store position {index} out of range")
        node = self.sentinel.next
        for _ in range(index):
            node = node.next
        return node

    def splice_before(self, at: _LinkNode, other: "LinkedStorage") -> None:
        """Move every node of ``other`` before node ``at`` in O(1)."""
        first, last = other.sentinel.next, other.sentinel.prev
        self._size += other._size
        other.clear()
        first.prev = at.prev
        at.prev.next = first
        last.next = at
        at.prev = last

    # -- index protocol -----------------------------------------------------------

    def length(self) -> int:
        return self._size

    def get(self, index: int) -> Any:
        return self.node_at(index).value

    def set(self, index: int, value: Any) -> None:
        self.node_at(index).value = value

    def insert(self, index: int, value: Any) -> None:
        self.link_before(self.node_at(index, True), _LinkNode(value))

    def erase(self, index: int) -> None:
        self.unlink(self.node_at(index))

    def append(self, value: Any) -> None:
        self.link_before(self.sentinel, _LinkNode(value))

    def slice(self, start: int, stop: int) -> list[Any]:
        out, node = [], self.node_at(start, True)
        for _ in range(stop - start):
            out.append(node.value)
            node = node.next
        return out

    def clear(self) -> None:
        self.sentinel.next = self.sentinel
        self.sentinel.prev = self.sentinel
        self._size = 0


# ---------------------------------------------------------------------------
# Live iterators
# ---------------------------------------------------------------------------


class IteratorRegistry:
    """Weak registry of a container's live iterators, which kills the
    ones in an :data:`~repro.facts.properties.INVALIDATION` entry's
    scopes when the container mutates."""

    def __init__(self) -> None:
        self._iterators: weakref.WeakSet = weakref.WeakSet()
        #: The registered iterators' weak references; a test costs no call.
        self.refs: set = self._iterators.data

    def register(self, it: Any) -> None:
        self._iterators.add(it)

    def discard(self, it: Any) -> None:
        self._iterators.discard(it)

    def live(self) -> list[Any]:
        # Iterating a WeakSet costs microseconds even when it is empty.
        if not self.refs:
            return []
        return [it for it in self._iterators if it.is_valid()]

    def invalidate(self, scope: str, at: Any) -> int:
        """Make singular the live iterators in ``scope`` around ``at``,
        the mutated index or node; returns how many died."""
        if scope == ALL:
            doomed = self.live()
        elif scope == AT_OR_AFTER:
            doomed = [it for it in self.live() if it._index >= at]
        elif scope == NODE:
            doomed = [it for it in self.live() if it._node is at]
        elif scope == ALL_BUT_END:
            doomed = [it for it in self.live() if it._node is not at]
        else:
            raise ValueError(f"unknown invalidation scope {scope!r}")
        for it in doomed:
            it._invalidate()
        return len(doomed)


def resolve_scopes(kind: str) -> dict[str, tuple[Optional[str], ...]]:
    """``kind``'s :data:`~repro.facts.properties.INVALIDATION` entry as
    one façade class applies it: per operation that kills any iterator,
    the scope that dies without a reallocation and the one that dies
    with it (None: no iterator).  Beside
    :data:`~repro.facts.properties.REALLOC` an entry names at most one
    scope."""
    resolved = {}
    for op, scopes in INVALIDATION[kind].items():
        if scopes:
            plain = next((s for s in scopes if s != REALLOC), None)
            resolved[op] = (plain, ALL if REALLOC in scopes else plain)
    return resolved


# ---------------------------------------------------------------------------
# Runtime fact validators
# ---------------------------------------------------------------------------

#: Checks run by ``assert_fact`` before accepting a fact, keyed by
#: property name.  Backends with a cheaper native check (sqlite's
#: adjacent-pair SQL scan) validate on their own side instead.
def _is_sorted(container: Any) -> bool:
    seq = container.to_list()
    return all(a <= b for a, b in zip(seq, seq[1:]))


FACT_VALIDATORS: dict[str, Callable[[Any], bool]] = {
    "sorted": _is_sorted,
}


class SequenceFacade:
    """Shared behaviour of every sequence façade: the mutation choke
    point, the mutation epoch, iterator invalidation, and the runtime
    fact set mirroring the facts lattice.

    Subclasses perform their storage operation, then call
    :meth:`_commit_mutation` with the operation — there is exactly one
    way for container state to change, so facts can never silently
    survive a mutation that should have destroyed them, and no iterator
    outlives one that kills it.
    """

    #: Storage class used when no explicit store is supplied.
    storage_factory: ClassVar[type] = ListStorage
    #: The class's container kind, resolved by :func:`resolve_scopes`.
    scopes: ClassVar[dict[str, tuple[Optional[str], ...]]]

    def _init_facade(self, items: Iterable[Any],
                     storage: Optional[Storage]) -> None:
        """Hold ``items`` in ``storage`` (by default a new one), at epoch 0."""
        if storage is None:
            storage = self.storage_factory(items)
        else:
            storage.extend(items)
        self._store = storage
        #: Monotone counter bumped by every mutation, whatever its kind.
        self.epoch: int = 0
        self._facts: frozenset[str] = storage.load_facts()
        self._iterators = IteratorRegistry()
        #: Iterators made singular so far; the tests and benches read it.
        self.invalidation_events: int = 0

    def _register_iterator(self, it: Any) -> None:
        self._iterators.register(it)

    # -- storage access ------------------------------------------------------------

    def storage(self) -> Storage:
        return self._store

    def size(self) -> int:
        return self._store.length()

    def empty(self) -> bool:
        return self._store.length() == 0

    def __len__(self) -> int:
        return self._store.length()

    @property
    def backend_capabilities(self) -> StorageCapabilities:
        return self._store.capabilities

    def flush(self) -> None:
        self._store.flush()

    def close(self) -> None:
        self._store.close()

    # -- index plumbing used by IndexIterator --------------------------------------

    def _end_index(self) -> int:
        return self._store.length()

    def _get(self, index: int) -> Any:
        return self._store.get(index)

    def _set(self, index: int, value: Any) -> None:
        self._store.set(index, value)
        self._commit_mutation("write")

    # -- range mutations: one store call, one commit -------------------------------

    def _grow(self) -> bool:
        """Did the store outgrow a capacity?  (A façade without one: no.)"""
        return False

    def _append_range(self, values: Iterable[Any]) -> None:
        """``push_back`` each of ``values`` through one ``Storage.extend``
        and one commit of the values the store accepted."""
        n = self._store.length()
        try:
            self._store.extend(values)
        finally:
            added = self._store.length() - n
            if added:
                self._commit_mutation("push_back", n, self._grow(), added)

    def _write_back(self, writes: Iterable[tuple[int, Any]]) -> None:
        """``Storage.set`` each ``(index, value)`` of ``writes``, then
        commit the writes the store accepted as one."""
        done = 0
        try:
            for index, value in writes:
                self._store.set(index, value)
                done += 1
        finally:
            if done:
                self._commit_mutation("write", count=done)

    # -- the choke point -----------------------------------------------------------

    def _commit_mutation(self, op: str, at: Any = None,
                         realloc: bool = False, count: int = 1) -> None:
        """Every mutation funnels through here, after the store changed:
        bump the epoch, kill the iterators the class's invalidation entry
        for ``op`` names (``at``: the mutated index or node; ``realloc``:
        the operation reallocated), and run ``op``'s mutation kind through
        the facts lattice so runtime facts die exactly when the abstract
        tables say they must.  ``op`` is a container operation or, for a
        mutation that kills no iterator, a bare mutation kind
        (``"write"``).  ``count`` commits that many ``op`` s from ``at`` on:
        the scope kills once, the kind runs until the facts stop changing."""
        self.epoch += count
        resolved = self.scopes.get(op)
        if resolved is not None and self._iterators.refs:
            scope = resolved[realloc]
            if scope is not None:
                self.invalidation_events += self._iterators.invalidate(
                    scope, at)
        if self._facts:
            kind, survived = OPERATION_KINDS.get(op, op), self._facts
            for _ in range(count):
                facts, survived = survived, _invalidate(survived, kind)
                if survived == facts:
                    break
            if survived != self._facts:
                self._facts = survived
                self._store.sync_facts(survived)

    # -- runtime facts -------------------------------------------------------------

    @property
    def facts(self) -> frozenset[str]:
        """Properties currently known to hold (implication-closed)."""
        return self._facts

    def assert_fact(self, prop: str, *, check: bool = True) -> None:
        """Record that ``prop`` holds.  With ``check`` (the default) the
        registered validator must agree; algorithms that establish the
        property by construction pass ``check=False``."""
        name = str(prop)
        if check:
            validator = FACT_VALIDATORS.get(name)
            if validator is not None and not validator(self):
                raise ValueError(
                    f"assert_fact({name!r}): the container's contents do "
                    f"not satisfy the property"
                )
        facts = _closure(self._facts | {name})
        if facts != self._facts:
            self._facts = facts
            self._store.sync_facts(facts)

    def has_fact(self, prop: str) -> bool:
        """Does ``prop`` follow from the recorded facts under closure?"""
        return _holds(str(prop), self._facts)

    def drop_facts(self) -> None:
        """Forget all runtime facts (and any persisted copy)."""
        if self._facts:
            self._facts = frozenset()
            self._store.sync_facts(self._facts)
