"""Lightweight container views.

:class:`ListView` adapts a plain Python list to the Container concept family
so other substrates (graph out-edge ranges, taxonomy listings) can hand out
iterator ranges without copying into a full :class:`Vector`.  Views are
immutable: they model Random Access Container but not Sequence.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence as PySequence

from .iterators import IndexIterator


class ListViewIterator(IndexIterator):
    """Random-access iterator over a :class:`ListView`."""

    value_type: type = object


class ListView:
    """A read-only Random Access Container over an existing Python
    sequence.  Mutating the underlying sequence is the caller's affair; the
    view never invalidates an iterator, so it keeps no registry of them."""

    value_type: type = object
    iterator: type = ListViewIterator

    def __init__(self, data: PySequence[Any]) -> None:
        self._data = data

    def _register_iterator(self, it: ListViewIterator) -> None:
        pass

    def _end_index(self) -> int:
        return len(self._data)

    def _get(self, index: int) -> Any:
        return self._data[index]

    def _set(self, index: int, value: Any) -> None:
        raise TypeError("ListView is read-only")

    def begin(self) -> ListViewIterator:
        return self.iterator(self, 0)

    def end(self) -> ListViewIterator:
        return self.iterator(self, len(self._data))

    def size(self) -> int:
        return len(self._data)

    def empty(self) -> bool:
        return len(self._data) == 0

    def at(self, index: int) -> Any:
        if not 0 <= index < len(self._data):
            raise IndexError(f"view index {index} out of range")
        return self._data[index]

    def __getitem__(self, index: int) -> Any:
        return self.at(index)

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def __repr__(self) -> str:
        return f"ListView({list(self._data)!r})"


_VIEW_CACHE: dict[type, type] = {}


def view_of(value_type: type) -> type:
    """A ListView subclass whose ``value_type`` associated type is bound —
    what graph classes use to give their out-edge ranges an exact iterator
    value type (Fig. 2's ``out_edge_iterator::value_type == edge_type``)."""
    cached = _VIEW_CACHE.get(value_type)
    if cached is not None:
        return cached
    it_cls = type(
        f"ListViewIterator_{value_type.__name__}",
        (ListViewIterator,),
        {"value_type": value_type},
    )
    cls = type(
        f"ListView_{value_type.__name__}",
        (ListView,),
        {"value_type": value_type, "iterator": it_cls},
    )
    _VIEW_CACHE[value_type] = cls
    return cls
