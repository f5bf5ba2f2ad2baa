"""Value-semantic iterators with tracked validity.

The STL's iterator model — and the invalidation semantics STLlint checks —
requires copyable positional iterators whose validity is a *state*: "iterator
invalidation occurs when an operation alters a data structure such that
iterators referring to elements of that data structure can no longer be used
safely" (Section 3.1).  Containers in this package keep a registry of live
iterators (:class:`~repro.sequences.storage.IteratorRegistry`) and mark them
singular by the invalidation table
(:data:`repro.facts.properties.INVALIDATION`), so misuse raises immediately
instead of corrupting memory.

The iterator interface is the one the concepts in
:mod:`repro.concepts.builtins` require:

- ``deref()`` / ``set(v)``    read/write the referenced element
- ``increment()`` / ``decrement()``   step in place
- ``clone()``                 independent copy (Forward Iterator's multipass)
- ``equals(other)``           position equality
- ``advance(n)`` / ``distance(other)`` / ``less(other)``   random access

Range algorithms read through :func:`walk`, which makes the same checks
as a loop over ``equals``/``deref``/``increment`` without the calls;
where no user code can run, :func:`read_chunks` hands over the lists
storage returns, in the walk's schedule (:data:`WALK_CHUNK_FIRST`).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator as PyIterator, Optional, Sequence

from .errors import (
    IteratorRangeError,
    PastTheEndError,
    SingularIteratorError,
)
from .storage import SequenceFacade

_SINGULAR = "attempt to use a singular (invalidated) iterator"
_DEREF_PAST_END = "attempt to dereference a past-the-end iterator"
_INCREMENT_PAST_END = "attempt to increment a past-the-end iterator"


class IteratorBase:
    """Shared plumbing: validity flag, container backref, Python interop."""

    value_type: type = object

    def __init__(self, container: Any) -> None:
        self._container = container
        self._valid = True
        container._register_iterator(self)

    # -- validity ------------------------------------------------------------

    @property
    def container(self) -> Any:
        return self._container

    def is_valid(self) -> bool:
        return self._valid

    def _invalidate(self) -> None:
        self._valid = False

    def _require_valid(self) -> None:
        if not self._valid:
            raise SingularIteratorError(_SINGULAR)

    # -- Python interop --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IteratorBase):
            return NotImplemented
        return self.equals(other)

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return not eq

    def __hash__(self) -> int:
        # Iterators are mutable positions; identity hash keeps them usable
        # in the container's weak registry without touching position state.
        return id(self)

    def equals(self, other: "IteratorBase") -> bool:  # pragma: no cover
        raise NotImplementedError

    def deref(self) -> Any:  # pragma: no cover
        raise NotImplementedError

    def increment(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def clone(self) -> "IteratorBase":  # pragma: no cover
        raise NotImplementedError


class RandomAccessMixin:
    """Random-access operations implemented over an integer index."""

    _index: int

    def advance(self, n: int) -> None:
        self._require_valid()  # type: ignore[attr-defined]
        new = self._index + n
        if new < 0 or new > self._container._end_index():  # type: ignore[attr-defined]
            raise PastTheEndError(
                f"advance({n}) moves iterator outside [begin, end]"
            )
        self._index = new

    def distance(self, other: "RandomAccessMixin") -> int:
        self._require_valid()  # type: ignore[attr-defined]
        other._require_valid()  # type: ignore[attr-defined]
        if self._container is not other._container:  # type: ignore[attr-defined]
            raise IteratorRangeError("distance between different containers")
        return other._index - self._index

    def less(self, other: "RandomAccessMixin") -> bool:
        self._require_valid()  # type: ignore[attr-defined]
        other._require_valid()  # type: ignore[attr-defined]
        if self._container is not other._container:  # type: ignore[attr-defined]
            raise IteratorRangeError("comparing iterators of different containers")
        return self._index < other._index


class IndexIterator(RandomAccessMixin, IteratorBase):
    """Random-access iterator over an index-addressable container
    (:class:`~repro.sequences.vector.Vector`,
    :class:`~repro.sequences.deque.Deque`)."""

    def __init__(self, container: Any, index: int) -> None:
        self._index = index
        super().__init__(container)

    # -- core interface ---------------------------------------------------------

    def deref(self) -> Any:
        self._require_valid()
        if self._index >= self._container._end_index():
            raise PastTheEndError(_DEREF_PAST_END)
        return self._container._get(self._index)

    def set(self, value: Any) -> None:
        self._require_valid()
        if self._index >= self._container._end_index():
            raise PastTheEndError("attempt to write through a past-the-end iterator")
        self._container._set(self._index, value)

    def increment(self) -> None:
        self._require_valid()
        if self._index >= self._container._end_index():
            raise PastTheEndError(_INCREMENT_PAST_END)
        self._index += 1

    def decrement(self) -> None:
        self._require_valid()
        if self._index <= 0:
            raise PastTheEndError("attempt to decrement the begin iterator")
        self._index -= 1

    def clone(self) -> "IndexIterator":
        self._require_valid()
        return type(self)(self._container, self._index)

    def equals(self, other: IteratorBase) -> bool:
        self._require_valid()
        if not isinstance(other, IndexIterator):
            return False
        other._require_valid()
        return self._container is other._container and self._index == other._index

    @property
    def index(self) -> int:
        return self._index

    def __repr__(self) -> str:
        state = "" if self._valid else " SINGULAR"
        return f"<{type(self).__name__} @{self._index}{state}>"


class NodeIterator(IteratorBase):
    """Bidirectional iterator over a linked structure
    (:class:`~repro.sequences.dlist.DList`).  Points at a node; the
    container's sentinel node is the past-the-end position."""

    def __init__(self, container: Any, node: Any) -> None:
        self._node = node
        super().__init__(container)

    def deref(self) -> Any:
        self._require_valid()
        if self._node is self._container._sentinel:
            raise PastTheEndError(_DEREF_PAST_END)
        return self._node.value

    def set(self, value: Any) -> None:
        self._require_valid()
        if self._node is self._container._sentinel:
            raise PastTheEndError("attempt to write through a past-the-end iterator")
        self._node.value = value
        self._container._commit_mutation("write")

    def increment(self) -> None:
        self._require_valid()
        if self._node is self._container._sentinel:
            raise PastTheEndError(_INCREMENT_PAST_END)
        self._node = self._node.next

    def decrement(self) -> None:
        self._require_valid()
        if self._node is self._container._sentinel.next:
            raise PastTheEndError("attempt to decrement the begin iterator")
        self._node = self._node.prev

    def clone(self) -> "NodeIterator":
        self._require_valid()
        return type(self)(self._container, self._node)

    def equals(self, other: IteratorBase) -> bool:
        self._require_valid()
        if not isinstance(other, NodeIterator):
            return False
        other._require_valid()
        return self._node is other._node

    @property
    def node(self) -> Any:
        return self._node

    def __repr__(self) -> str:
        state = "" if self._valid else " SINGULAR"
        at = "end" if self._valid and self._node is self._container._sentinel else "node"
        return f"<{type(self).__name__} @{at}{state}>"


def require_same_container(first: IteratorBase, last: IteratorBase) -> None:
    if first.container is not last.container:
        raise IteratorRangeError(
            "[first, last) spans two different containers"
        )


def python_range(first: IteratorBase, last: IteratorBase) -> PyIterator[Any]:
    """Adapt an iterator range to a Python generator (read-only)."""
    require_same_container(first, last)
    yield from walk(first.clone(), last)


# ---------------------------------------------------------------------------
# walk and read_chunks: the one checked traversal and the one bulk read
# ---------------------------------------------------------------------------

#: Reads of a façade's store take ``WALK_CHUNK_FIRST`` values with one
#: ``Storage.slice``, then double the chunk up to ``WALK_CHUNK_CAP``.
#: A walk that stops early, or whose callback mutates the container (each
#: mutation restarts the schedule), reads little past where it stops; a
#: full scan of n values costs about n / WALK_CHUNK_CAP reads.
WALK_CHUNK_FIRST = 16
WALK_CHUNK_CAP = 1024

_INDEX_OPS = (IndexIterator.equals, IndexIterator.deref,
              IndexIterator.increment, IteratorBase._require_valid)
_NODE_OPS = (NodeIterator.equals, NodeIterator.deref,
             NodeIterator.increment, IteratorBase._require_valid)


def _plain(it: Any, family: type, ops: tuple) -> bool:
    """Is ``it`` a ``family`` iterator whose traversal operations are the
    family's own (not overridden by a subclass or patched)?"""
    cls = type(it)
    return (issubclass(cls, family) and cls.equals is ops[0]
            and cls.deref is ops[1] and cls.increment is ops[2]
            and cls._require_valid is ops[3])


def _read_facade(store: Any, i: int, stop: int,
                 whole: bool = False) -> PyIterator[list]:
    size = stop - i if whole else WALK_CHUNK_FIRST
    while i < stop:
        hi = min(i + size, stop)
        yield store.slice(i, hi)
        i = hi
        if size < WALK_CHUNK_CAP:
            size *= 2


def facade_range(first: Any, last: Any) -> Optional[tuple[Any, int, int]]:
    """``(store, i, stop)`` if ``[first, last)`` is positions ``[i, stop)``
    of ``store``, ``i <= stop <= length``, between valid plain
    :class:`IndexIterator` s of one façade; else None."""
    if _plain(first, IndexIterator, _INDEX_OPS) \
            and _plain(last, IndexIterator, _INDEX_OPS):
        c = first._container
        if (isinstance(c, SequenceFacade) and c is last._container
                and first._valid and last._valid
                and first._index <= last._index <= c._store.length()):
            return c._store, first._index, last._index
    return None


def read_chunks(first: IteratorBase, last: IteratorBase,
                whole: bool = False) -> Optional[PyIterator[list]]:
    """The values of ``[first, last)`` in lists read from storage, or None
    unless both are valid plain built-in iterators of one container.  A
    façade range (:func:`facade_range`) is read as consumed, in the walk's
    schedule (one list if ``whole``); a node range only ``whole``, by one
    pass that must meet ``last`` before the sentinel."""
    span = facade_range(first, last)
    if span is not None:
        return _read_facade(*span, whole)
    if (whole and _plain(first, NodeIterator, _NODE_OPS)
            and _plain(last, NodeIterator, _NODE_OPS)
            and first._container is last._container
            and first._valid and last._valid):
        node, stop = first._node, last._node
        sentinel, values = first._container._sentinel, []
        while node is not stop:
            if node is sentinel:
                return None
            values.append(node.value)
            node = node.next
        return iter((values,))
    return None


def ahead(first: IteratorBase, k: int) -> IteratorBase:
    """``first.clone()`` moved ``k`` steps inside a range it read."""
    if isinstance(first, IndexIterator):
        return type(first)(first._container, first._index + k)
    node = first._node
    for _ in range(k):
        node = node.next
    return type(first)(first._container, node)


def walk(first: IteratorBase, last: IteratorBase,
         resume: tuple = ()) -> PyIterator[Any]:
    """Yield the values of ``[first, last)``, moving ``first`` as it goes:
    while the consumer holds a value, ``first`` points at it, and after
    the last one it equals ``last``.

    The walk makes the checks the loop ``while not first.equals(last):
    yield first.deref(); first.increment()`` makes, at the same steps,
    and raises the same exceptions.  That loop is what it runs for
    iterators other than the two built-in families, so archetypes and
    user models see exactly the operations they always saw.  For the
    built-in families the checks are attribute tests:

    - an :class:`IndexIterator` over a :class:`SequenceFacade` reads
      values in chunks through ``Storage.slice`` (see
      :data:`WALK_CHUNK_FIRST`), and reads again whenever the façade's
      ``epoch`` has moved, so a callback's writes are seen at the next
      step.  This relies on the façade being its store's sole owner:
      every change to the store goes through the façade.  ``resume``
      is a :func:`read_chunks` list at ``first`` and the rest of its read.
    - a :class:`NodeIterator` follows ``node.next``.
    """
    if _plain(first, IndexIterator, _INDEX_OPS) \
            and _plain(last, IndexIterator, _INDEX_OPS):
        c = first._container
        if isinstance(c, SequenceFacade):
            return _walk_facade(first, last, c, *resume)
    elif _plain(first, NodeIterator, _NODE_OPS) \
            and _plain(last, NodeIterator, _NODE_OPS):
        return _walk_nodes(first, last)
    return _walk_generic(first, last)


def _walk_generic(first: IteratorBase, last: IteratorBase) -> PyIterator[Any]:
    while not first.equals(last):
        yield first.deref()
        first.increment()


def _walk_facade(first: IndexIterator, last: IndexIterator,
                 c: SequenceFacade, chunk: Sequence[Any] = (),
                 reads: PyIterator[list] = iter(())) -> PyIterator[Any]:
    store = c._store
    epoch, n = c.epoch, store.length()
    lo = first._index
    hi = lo + len(chunk)                # chunk holds positions [lo, hi)
    while True:
        # first.equals(last)
        if not (first._valid and last._valid):
            raise SingularIteratorError(_SINGULAR)
        i = first._index
        if i == last._index and c is last._container:
            return
        # first.deref()
        if i >= n:
            raise PastTheEndError(_DEREF_PAST_END)
        if not lo <= i < hi:
            # Go on with the read, or start one at i, up to last or n.
            chunk = next(reads, None) if i == hi else None
            if chunk is None:
                stop = last._index if i < last._index <= n else n
                reads = _read_facade(store, i, stop)
                chunk = next(reads)
            lo, hi = i, i + len(chunk)
        yield chunk[i - lo]
        # first.increment(); the consumer may have mutated the container
        if not first._valid:
            raise SingularIteratorError(_SINGULAR)
        if c.epoch != epoch:
            epoch, n = c.epoch, store.length()
            lo = hi = -1
        if i >= n:
            raise PastTheEndError(_INCREMENT_PAST_END)
        first._index = i + 1


def _walk_nodes(first: NodeIterator, last: NodeIterator) -> PyIterator[Any]:
    c = first._container
    sentinel = c._sentinel
    while True:
        # first.equals(last)
        if not (first._valid and last._valid):
            raise SingularIteratorError(_SINGULAR)
        node = first._node
        if node is last._node:
            return
        # first.deref(); splice can move first to another list
        if first._container is not c:
            c = first._container
            sentinel = c._sentinel
        if node is sentinel:
            raise PastTheEndError(_DEREF_PAST_END)
        yield node.value
        # first.increment()
        if not first._valid:
            raise SingularIteratorError(_SINGULAR)
        if first._container is not c:
            c = first._container
            sentinel = c._sentinel
        node = first._node
        if node is sentinel:
            raise PastTheEndError(_INCREMENT_PAST_END)
        first._node = node.next
