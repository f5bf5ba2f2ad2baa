"""A ``std::vector``-like container with C++ invalidation rules.

Which iterators each mutation kills — at-or-after the position for
``insert``/``erase``/``pop_back``/``push_back``, everything on
reallocation or ``clear`` — is the ``"vector"`` entry of
:data:`repro.facts.properties.INVALIDATION`, the table STLlint checks
against too (Fig. 4's ``extract_fails`` is the erase rule at work).
Capacity doubles on growth, as real implementations do, so reallocation
events happen at realistic points.

The class is a *façade*: elements live in a pluggable
:class:`~repro.sequences.storage.Storage` (a Python list by default;
``array``/mmap and sqlite representations in
:mod:`repro.sequences.backends` plug in underneath without changing the
modeled concepts), and every mutation is routed through the shared
:class:`~repro.sequences.storage.SequenceFacade` choke point, which
keeps the mutation epoch, the live iterators and the runtime fact set
honest.  The invalidation rules are a property of the *interface* and
hold uniformly across backends.
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterable, Optional

from .iterators import IndexIterator
from .storage import ListStorage, SequenceFacade, Storage, resolve_scopes


class VectorIterator(IndexIterator):
    """Random-access iterator over a :class:`Vector`."""

    value_type: type = object


class Vector(SequenceFacade):
    """Contiguous sequence; models Random Access Container and Back
    Insertion Sequence (verified in the test suite via ``check_concept``)."""

    value_type: type = object
    iterator: type = VectorIterator
    storage_factory: ClassVar[type] = ListStorage
    scopes = resolve_scopes("vector")

    def __init__(self, items: Iterable[Any] = (),
                 storage: Optional[Storage] = None) -> None:
        self._init_facade(items, storage)
        self._capacity: int = max(self._store.length(), 1)
        #: Reallocations so far; the tests and benches read it.
        self.reallocations: int = 0

    # -- internal plumbing ------------------------------------------------------

    def _grow(self) -> bool:
        """Double the capacity until it holds what the store now holds, one
        reallocation per doubling; returns True when that reallocated."""
        grown = 0
        while self._capacity < self._store.length():
            self._capacity *= 2
            grown += 1
        self.reallocations += grown
        return grown > 0

    # -- Container interface ------------------------------------------------------

    def begin(self) -> VectorIterator:
        return self.iterator(self, 0)

    def end(self) -> VectorIterator:
        return self.iterator(self, self._store.length())

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
        self._store.append(value)
        self._commit_mutation("push_back", self._store.length() - 1,
                              self._grow())

    def pop_back(self) -> Any:
        if self._store.length() == 0:
            raise IndexError("pop_back on empty vector")
        last = self._store.length() - 1
        value = self._store.get(last)
        self._store.erase(last)
        self._commit_mutation("pop_back", last)
        return value

    def insert(self, pos: VectorIterator, value: Any) -> VectorIterator:
        """Insert before ``pos``; returns an iterator to the new element."""
        pos._require_valid()
        index = pos.index
        self._store.insert(index, value)
        self._commit_mutation("insert", index, self._grow())
        return self.iterator(self, index)

    def erase(self, pos: VectorIterator) -> VectorIterator:
        """Erase at ``pos``, returning an iterator to the element following
        the erased one (the correct idiom Fig. 4's buggy code fails to
        use)."""
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

    # -- Python interop -----------------------------------------------------------------

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
