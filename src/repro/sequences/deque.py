"""A ``std::deque``-like double-ended queue.

Every mutation but an element write invalidates every iterator: the
``"deque"`` entry of :data:`repro.facts.properties.INVALIDATION`, the
table STLlint checks against too.  (At the ends C++ keeps references
valid, but references are not a distinct notion in Python.)

Like :class:`~repro.sequences.vector.Vector`, the class is a façade over a
pluggable :class:`~repro.sequences.storage.Storage` (a ``collections.deque``
by default) with every mutation routed through the shared choke point.
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterable, Optional

from .iterators import IndexIterator
from .storage import DequeStorage, SequenceFacade, Storage, resolve_scopes


class DequeIterator(IndexIterator):
    """Random-access iterator over a :class:`Deque`."""

    value_type: type = object


class Deque(SequenceFacade):
    """Double-ended queue; models Random Access Container plus Front and
    Back Insertion Sequence."""

    value_type: type = object
    iterator: type = DequeIterator
    storage_factory: ClassVar[type] = DequeStorage
    scopes = resolve_scopes("deque")

    def __init__(self, items: Iterable[Any] = (),
                 storage: Optional[Storage] = None) -> None:
        self._init_facade(items, storage)

    # -- Container interface --------------------------------------------------------

    def begin(self) -> DequeIterator:
        return self.iterator(self, 0)

    def end(self) -> DequeIterator:
        return self.iterator(self, self._store.length())

    def at(self, index: int) -> Any:
        if not 0 <= index < self._store.length():
            raise IndexError(f"deque index {index} out of range")
        return self._store.get(index)

    def set_at(self, index: int, value: Any) -> None:
        if not 0 <= index < self._store.length():
            raise IndexError(f"deque index {index} out of range")
        self._store.set(index, value)
        self._commit_mutation("write")

    def __getitem__(self, index: int) -> Any:
        return self.at(index)

    def __setitem__(self, index: int, value: Any) -> None:
        self.set_at(index, value)

    # -- mutations ----------------------------------------------------------------------

    def push_back(self, value: Any) -> None:
        self._store.append(value)
        self._commit_mutation("push_back")

    def push_front(self, value: Any) -> None:
        self._store.insert(0, value)
        self._commit_mutation("push_front")

    def pop_back(self) -> Any:
        if self._store.length() == 0:
            raise IndexError("pop_back on empty deque")
        last = self._store.length() - 1
        value = self._store.get(last)
        self._store.erase(last)
        self._commit_mutation("pop_back", last)
        return value

    def pop_front(self) -> Any:
        if self._store.length() == 0:
            raise IndexError("pop_front on empty deque")
        value = self._store.get(0)
        self._store.erase(0)
        self._commit_mutation("pop_front", 0)
        return value

    def insert(self, pos: DequeIterator, value: Any) -> DequeIterator:
        pos._require_valid()
        index = pos.index
        self._store.insert(index, value)
        self._commit_mutation("insert", index)
        return self.iterator(self, index)

    def erase(self, pos: DequeIterator) -> DequeIterator:
        pos._require_valid()
        index = pos.index
        if index >= self._store.length():
            raise IndexError("erase of past-the-end iterator")
        self._store.erase(index)
        self._commit_mutation("erase", index)
        return self.iterator(self, index)

    def clear(self) -> None:
        self._store.clear()
        self._commit_mutation("clear")

    # -- Python interop ---------------------------------------------------------------------

    def __iter__(self):
        return iter(self.to_list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Deque):
            return self.to_list() == other.to_list()
        return NotImplemented

    def __repr__(self) -> str:
        return f"Deque({self.to_list()!r})"

    def to_list(self) -> list[Any]:
        return self._store.slice(0, self._store.length())
