"""A ``std::list``-like doubly linked list.

``insert`` invalidates nothing and ``erase`` only iterators to the erased
element: the ``"list"`` entry of
:data:`repro.facts.properties.INVALIDATION`, the table STLlint checks
against too.  This asymmetry with :class:`~repro.sequences.vector.Vector`
is exactly why the invalidation behaviour "varies greatly across domains"
yet "the semantic iterator concept — including requirements pertaining to
invalidation — cross-cuts various domains" (Section 3.1): one concept,
per-model rules.

The class is a façade over :class:`~repro.sequences.storage.LinkedStorage`;
the node graph lives in the store, and every mutation — including the
push paths that (correctly) invalidate no iterators — goes through the
shared choke point so runtime facts are invalidated and the mutation epoch
bumps even when no iterator dies.
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterable, Optional

from .iterators import NodeIterator
from .storage import LinkedStorage, SequenceFacade, _LinkNode, resolve_scopes


class DListIterator(NodeIterator):
    """Bidirectional iterator over a :class:`DList`."""

    value_type: type = object


class DList(SequenceFacade):
    """Doubly linked list; models Reversible Container, Front and Back
    Insertion Sequence — but *not* Random Access Container, which is what
    steers concept-overloaded ``sort`` away from quicksort for lists."""

    value_type: type = object
    iterator: type = DListIterator
    storage_factory: ClassVar[type] = LinkedStorage
    scopes = resolve_scopes("list")

    def __init__(self, items: Iterable[Any] = (),
                 storage: Optional[LinkedStorage] = None) -> None:
        self._init_facade(items, storage)

    # -- internal plumbing -------------------------------------------------------

    @property
    def _sentinel(self) -> _LinkNode:
        return self._store.sentinel

    # -- Container interface ---------------------------------------------------------

    def begin(self) -> DListIterator:
        return self.iterator(self, self._sentinel.next)

    def end(self) -> DListIterator:
        return self.iterator(self, self._sentinel)

    # -- Sequence mutations --------------------------------------------------------------

    def push_back(self, value: Any) -> None:
        self._store.link_before(self._sentinel, _LinkNode(value))
        self._commit_mutation("push_back")

    def push_front(self, value: Any) -> None:
        self._store.link_before(self._sentinel.next, _LinkNode(value))
        self._commit_mutation("push_front")

    def pop_front(self) -> Any:
        if self._store.length() == 0:
            raise IndexError("pop_front on empty list")
        node = self._sentinel.next
        self._store.unlink(node)
        self._commit_mutation("pop_front", node)
        return node.value

    def pop_back(self) -> Any:
        if self._store.length() == 0:
            raise IndexError("pop_back on empty list")
        node = self._sentinel.prev
        self._store.unlink(node)
        self._commit_mutation("pop_back", node)
        return node.value

    def insert(self, pos: DListIterator, value: Any) -> DListIterator:
        """Insert before ``pos``."""
        pos._require_valid()
        new = _LinkNode(value)
        self._store.link_before(pos.node, new)
        self._commit_mutation("insert", new)
        return self.iterator(self, new)

    def erase(self, pos: DListIterator) -> DListIterator:
        """Erase at ``pos``, returning an iterator to the following
        element."""
        pos._require_valid()
        node = pos.node
        if node is self._sentinel:
            raise IndexError("erase of past-the-end iterator")
        after = node.next
        self._store.unlink(node)
        self._commit_mutation("erase", node)
        return self.iterator(self, after)

    def splice(self, pos: DListIterator, other: "DList") -> None:
        """Move all of ``other``'s nodes before ``pos`` in O(1); no element
        iterators are invalidated (they keep pointing at the moved nodes,
        which now belong to ``self``)."""
        pos._require_valid()
        if other is self or other.empty():
            return
        # Iterators into `other`'s elements now belong to `self`'s node
        # graph; re-home the live ones so same-container range checks keep
        # working and `other`'s later mutations leave them alone.
        for it in other._iterators.live():
            if it.node is not other._sentinel:
                it._container = self
                other._iterators.discard(it)
                self._iterators.register(it)
        self._store.splice_before(pos.node, other._store)
        self._commit_mutation("insert")
        other._commit_mutation("clear", other._sentinel)

    def clear(self) -> None:
        self._store.clear()
        self._commit_mutation("clear", self._sentinel)

    # -- Python interop --------------------------------------------------------------------

    def __iter__(self):
        node = self._sentinel.next
        while node is not self._sentinel:
            yield node.value
            node = node.next

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DList):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"DList({list(self)!r})"

    def to_list(self) -> list[Any]:
        return list(self)
