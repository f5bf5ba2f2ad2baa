"""A ``std::vector``-like container with C++ invalidation rules.

Invalidation rules (ISO C++ [vector.modifiers], which STLlint encodes as the
container's semantic specification):

- ``insert(pos, v)``: invalidates iterators at or after ``pos``; if the
  insertion exceeds capacity ("reallocation"), *all* iterators.
- ``erase(pos)``: invalidates iterators at or after ``pos`` — this is what
  breaks Fig. 4's ``extract_fails``.
- ``push_back(v)``: all iterators on reallocation, none otherwise.
- ``clear()``: everything.

Capacity doubles on growth, as real implementations do, so reallocation
events happen at realistic points.

Since the storage-backend split the class is a *façade*: elements live in
a pluggable :class:`~repro.sequences.storage.Storage` (a Python list by
default; ``array``/mmap and sqlite representations in
:mod:`repro.sequences.backends` plug in underneath without changing the
modeled concepts), and every mutation is routed through the shared
:class:`~repro.sequences.storage.SequenceFacade` choke point, which
keeps the mutation epoch and the runtime fact set honest.  The
invalidation rules above are a property of the *interface* and hold
uniformly across backends.
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterable, Optional

from .iterators import IndexIterator, IteratorRegistry
from .storage import ListStorage, SequenceFacade, Storage


class VectorIterator(IndexIterator):
    """Random-access iterator over a :class:`Vector`."""

    value_type: type = object


class Vector(SequenceFacade):
    """Contiguous sequence; models Random Access Container and Back
    Insertion Sequence (verified in the test suite via ``check_concept``)."""

    value_type: type = object
    iterator: type = VectorIterator
    storage_factory: ClassVar[type] = ListStorage

    def __init__(self, items: Iterable[Any] = (),
                 storage: Optional[Storage] = None) -> None:
        if storage is None:
            storage = self.storage_factory(items)
        else:
            for item in items:
                storage.append(item)
        self._init_facade(storage)
        self._capacity: int = max(storage.length(), 1)
        self._iterators = IteratorRegistry()
        #: Counters the invalidation tests and benches inspect.
        self.invalidation_events: int = 0
        self.reallocations: int = 0

    # -- internal plumbing used by IndexIterator -------------------------------

    def _register_iterator(self, it: VectorIterator) -> None:
        self._iterators.register(it)

    def _grow_for(self, extra: int) -> bool:
        """Ensure capacity; returns True when a reallocation happened."""
        needed = self._store.length() + extra
        if needed <= self._capacity:
            return False
        while self._capacity < needed:
            self._capacity *= 2
        self.reallocations += 1
        return True

    # -- Container interface ------------------------------------------------------

    def begin(self) -> VectorIterator:
        return self.iterator(self, 0)

    def end(self) -> VectorIterator:
        return self.iterator(self, self._store.length())

    def size(self) -> int:
        return self._store.length()

    def empty(self) -> bool:
        return self._store.length() == 0

    def capacity(self) -> int:
        return self._capacity

    # -- Random Access Container ---------------------------------------------------

    def at(self, index: int) -> Any:
        if not 0 <= index < self._store.length():
            raise IndexError(
                f"vector index {index} out of range [0, {self._store.length()})"
            )
        return self._store.get(index)

    def set_at(self, index: int, value: Any) -> None:
        if not 0 <= index < self._store.length():
            raise IndexError(
                f"vector index {index} out of range [0, {self._store.length()})"
            )
        self._store.set(index, value)
        self._commit_mutation("write")

    def __getitem__(self, index: int) -> Any:
        return self.at(index)

    def __setitem__(self, index: int, value: Any) -> None:
        self.set_at(index, value)

    # -- Sequence mutations ----------------------------------------------------------

    def push_back(self, value: Any) -> None:
        realloc = self._grow_for(1)
        self._store.append(value)
        invalidated = self._iterators.invalidate_all() if realloc else 0
        self._commit_mutation("append", invalidated=invalidated)

    def pop_back(self) -> Any:
        if self._store.length() == 0:
            raise IndexError("pop_back on empty vector")
        last = self._store.length() - 1
        invalidated = self._iterators.invalidate_if(lambda it: it.index >= last)
        value = self._store.get(last)
        self._store.erase(last)
        self._commit_mutation("pop", invalidated=invalidated)
        return value

    def insert(self, pos: VectorIterator, value: Any) -> VectorIterator:
        """Insert before ``pos``; returns an iterator to the new element."""
        pos._require_valid()
        index = pos.index
        realloc = self._grow_for(1)
        self._store.insert(index, value)
        if realloc:
            invalidated = self._iterators.invalidate_all()
        else:
            invalidated = self._iterators.invalidate_if(
                lambda it: it.index >= index
            )
        self._commit_mutation("insert", invalidated=invalidated)
        return self.iterator(self, index)

    def erase(self, pos: VectorIterator) -> VectorIterator:
        """Erase at ``pos``; invalidates ``pos`` and everything after it,
        returning an iterator to the element following the erased one (the
        correct idiom Fig. 4's buggy code fails to use)."""
        pos._require_valid()
        index = pos.index
        if index >= self._store.length():
            raise IndexError("erase of past-the-end iterator")
        self._store.erase(index)
        invalidated = self._iterators.invalidate_if(lambda it: it.index >= index)
        self._commit_mutation("erase", invalidated=invalidated)
        return self.iterator(self, index)

    def clear(self) -> None:
        self._store.clear()
        self._commit_mutation("clear",
                              invalidated=self._iterators.invalidate_all())

    # -- Python interop -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._store.length()

    def __iter__(self):
        return iter(self.to_list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Vector):
            return self.to_list() == other.to_list()
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_list()!r})"

    def to_list(self) -> list[Any]:
        return self._store.slice(0, self._store.length())
