"""A sorted associative container: AVL-tree set/map (the ``std::set`` /
``std::map`` analogue).

Completes the STL substrate's container story: node-based like
:class:`~repro.sequences.dlist.DList` (erase invalidates only the erased
position — ISO C++ [associative.reqmts]), but additionally *sorted by
construction*, so it is declared a nominal model of the SortedRange concept
and the binary-search family applies to its iterator ranges for free.

Iterators traverse in key order via parent pointers (Bidirectional
Iterator); all mutating operations keep the AVL balance invariant, giving
the O(log n) complexity guarantees the Sorted Associative Container concept
states.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from ..concepts import (
    Assoc,
    AssociatedType,
    ComplexityGuarantee,
    Concept,
    Exact,
    Param,
    method,
)
from ..concepts.builtins import ReversibleContainer, SortedRange
from ..concepts.complexity import linear, logarithmic
from ..facts.properties import ALL, NODE
from .function_objects import Less
from .iterators import IteratorBase
from .storage import IteratorRegistry

C = Param("C")

SortedAssociativeContainer = Concept(
    "Sorted Associative Container",
    params=("C",),
    refines=[ReversibleContainer],
    requirements=[
        method("c.insert_key(k)", "insert_key", [C, Assoc(C, "value_type")]),
        method("c.find_key(k)", "find_key", [C]),
        method("c.erase_key(k)", "erase_key", [C], Exact(int)),
        ComplexityGuarantee("insert_key", logarithmic()),
        ComplexityGuarantee("find_key", logarithmic()),
        ComplexityGuarantee("erase_key", logarithmic()),
        ComplexityGuarantee("iteration", linear()),
    ],
    doc="Keys kept in comparator order with logarithmic mutation — the "
        "std::set/std::map family.",
)


class _Node:
    __slots__ = ("key", "value", "left", "right", "parent", "height")

    def __init__(self, key: Any, value: Any = None,
                 parent: Optional["_Node"] = None) -> None:
        self.key = key
        self.value = value
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.parent = parent
        self.height = 1


def _h(n: Optional[_Node]) -> int:
    return n.height if n is not None else 0


class TreeIterator(IteratorBase):
    """In-order bidirectional iterator over a :class:`TreeMap`.  ``None``
    node = past-the-end."""

    value_type: type = object

    def __init__(self, container: "TreeMap", node: Optional[_Node]) -> None:
        self._node = node
        super().__init__(container)

    def deref(self) -> Any:
        self._require_valid()
        if self._node is None:
            from .errors import PastTheEndError

            raise PastTheEndError("attempt to dereference a past-the-end iterator")
        return self._node.key

    def value(self) -> Any:
        self._require_valid()
        if self._node is None:
            from .errors import PastTheEndError

            raise PastTheEndError("attempt to read through a past-the-end iterator")
        return self._node.value

    def set_value(self, v: Any) -> None:
        self._require_valid()
        if self._node is None:
            from .errors import PastTheEndError

            raise PastTheEndError("attempt to write through a past-the-end iterator")
        self._node.value = v

    def increment(self) -> None:
        self._require_valid()
        if self._node is None:
            from .errors import PastTheEndError

            raise PastTheEndError("attempt to increment a past-the-end iterator")
        self._node = self._container._successor(self._node)

    def decrement(self) -> None:
        self._require_valid()
        if self._node is None:
            node = self._container._max_node()
        else:
            node = self._container._predecessor(self._node)
        if node is None:
            from .errors import PastTheEndError

            raise PastTheEndError("attempt to decrement the begin iterator")
        self._node = node

    def clone(self) -> "TreeIterator":
        self._require_valid()
        return type(self)(self._container, self._node)

    def equals(self, other: IteratorBase) -> bool:
        self._require_valid()
        if not isinstance(other, TreeIterator):
            return False
        other._require_valid()
        return self._container is other._container and self._node is other._node

    def __repr__(self) -> str:
        state = "" if self._valid else " SINGULAR"
        at = "end" if self._node is None else repr(self._node.key)
        return f"<TreeIterator @{at}{state}>"


class TreeMap:
    """AVL-balanced key→value map with in-order iteration.

    With ``value=None`` throughout, it doubles as a sorted set (``insert_key``
    / ``find_key`` / ``erase_key``).  Duplicate keys are rejected (unique
    associative container semantics).
    """

    value_type: type = object
    iterator: type = TreeIterator

    def __init__(self, items: Iterable = (),
                 less: Callable[[Any, Any], bool] = Less()) -> None:
        self._root: Optional[_Node] = None
        self._size = 0
        self._less = less
        self._iterators = IteratorRegistry()
        self.invalidation_events = 0
        for item in items:
            if isinstance(item, tuple) and len(item) == 2:
                self.insert_item(item[0], item[1])
            else:
                self.insert_key(item)

    # -- iterator plumbing ---------------------------------------------------

    def _register_iterator(self, it: TreeIterator) -> None:
        self._iterators.register(it)

    def _min_node(self) -> Optional[_Node]:
        n = self._root
        while n is not None and n.left is not None:
            n = n.left
        return n

    def _max_node(self) -> Optional[_Node]:
        n = self._root
        while n is not None and n.right is not None:
            n = n.right
        return n

    def _successor(self, n: _Node) -> Optional[_Node]:
        if n.right is not None:
            n = n.right
            while n.left is not None:
                n = n.left
            return n
        while n.parent is not None and n.parent.right is n:
            n = n.parent
        return n.parent

    def _predecessor(self, n: _Node) -> Optional[_Node]:
        if n.left is not None:
            n = n.left
            while n.right is not None:
                n = n.right
            return n
        while n.parent is not None and n.parent.left is n:
            n = n.parent
        return n.parent

    # -- AVL internals ------------------------------------------------------------

    def _update(self, n: _Node) -> None:
        n.height = 1 + max(_h(n.left), _h(n.right))

    def _balance_factor(self, n: _Node) -> int:
        return _h(n.left) - _h(n.right)

    def _replace_child(self, parent: Optional[_Node], old: _Node,
                       new: Optional[_Node]) -> None:
        if parent is None:
            self._root = new
        elif parent.left is old:
            parent.left = new
        else:
            parent.right = new
        if new is not None:
            new.parent = parent

    def _rotate_left(self, n: _Node) -> _Node:
        r = n.right
        assert r is not None
        self._replace_child(n.parent, n, r)
        n.right = r.left
        if r.left is not None:
            r.left.parent = n
        r.left = n
        n.parent = r
        self._update(n)
        self._update(r)
        return r

    def _rotate_right(self, n: _Node) -> _Node:
        l = n.left
        assert l is not None
        self._replace_child(n.parent, n, l)
        n.left = l.right
        if l.right is not None:
            l.right.parent = n
        l.right = n
        n.parent = l
        self._update(n)
        self._update(l)
        return l

    def _rebalance_up(self, n: Optional[_Node]) -> None:
        while n is not None:
            self._update(n)
            bf = self._balance_factor(n)
            if bf > 1:
                if self._balance_factor(n.left) < 0:
                    self._rotate_left(n.left)
                n = self._rotate_right(n)
            elif bf < -1:
                if self._balance_factor(n.right) > 0:
                    self._rotate_right(n.right)
                n = self._rotate_left(n)
            n = n.parent

    # -- Container interface ------------------------------------------------------

    def begin(self) -> TreeIterator:
        return self.iterator(self, self._min_node())

    def end(self) -> TreeIterator:
        return self.iterator(self, None)

    def size(self) -> int:
        return self._size

    def empty(self) -> bool:
        return self._size == 0

    # -- associative operations ------------------------------------------------------

    def _locate(self, key: Any) -> tuple[Optional[_Node], Optional[_Node]]:
        """(node-with-key or None, would-be parent)."""
        parent = None
        n = self._root
        while n is not None:
            if self._less(key, n.key):
                parent, n = n, n.left
            elif self._less(n.key, key):
                parent, n = n, n.right
            else:
                return n, n.parent
        return None, parent

    def insert_item(self, key: Any, value: Any) -> bool:
        """Insert key->value; False (and no change) when the key exists.
        Invalidates no iterators (node-based)."""
        node, parent = self._locate(key)
        if node is not None:
            return False
        new = _Node(key, value, parent)
        if parent is None:
            self._root = new
        elif self._less(key, parent.key):
            parent.left = new
        else:
            parent.right = new
        self._size += 1
        self._rebalance_up(parent)
        return True

    def insert_key(self, key: Any) -> bool:
        return self.insert_item(key, None)

    def find_key(self, key: Any) -> TreeIterator:
        """Iterator to the key, or end()."""
        node, _ = self._locate(key)
        return self.iterator(self, node)

    def get(self, key: Any, default: Any = None) -> Any:
        node, _ = self._locate(key)
        return node.value if node is not None else default

    def contains(self, key: Any) -> bool:
        node, _ = self._locate(key)
        return node is not None

    def __contains__(self, key: Any) -> bool:
        return self.contains(key)

    def erase_key(self, key: Any) -> int:
        """Remove the key; returns 1 if removed, 0 if absent.  Invalidates
        only iterators at the erased node."""
        node, _ = self._locate(key)
        if node is None:
            return 0
        self._erase_node(node)
        return 1

    def erase(self, pos: TreeIterator) -> TreeIterator:
        """Erase at the iterator; returns an iterator to the successor."""
        pos._require_valid()
        node = pos._node
        if node is None:
            raise IndexError("erase of past-the-end iterator")
        # Two-child erase swaps payload with the in-order successor and
        # unlinks *that* node — afterwards the successor's key lives in
        # ``node`` itself, which is exactly the position to return.
        two_children = node.left is not None and node.right is not None
        nxt = self._successor(node)
        self._erase_node(node)
        return self.iterator(self, node if two_children else nxt)

    def _erase_node(self, node: _Node) -> None:
        # Two children: swap payload with the in-order successor and delete
        # that node instead (classic BST erase).  Iterators at the successor
        # would silently re-target, so both nodes' iterators are invalidated.
        doomed = node
        if node.left is not None and node.right is not None:
            succ = self._successor(node)
            assert succ is not None
            node.key, succ.key = succ.key, node.key
            node.value, succ.value = succ.value, node.value
            doomed = succ
            self.invalidation_events += self._iterators.invalidate(NODE, node)
        child = doomed.left if doomed.left is not None else doomed.right
        parent = doomed.parent
        self._replace_child(parent, doomed, child)
        self.invalidation_events += self._iterators.invalidate(NODE, doomed)
        self._size -= 1
        self._rebalance_up(parent)

    def lower_bound_key(self, key: Any) -> TreeIterator:
        """First position whose key is not less than ``key`` — O(log n) by
        tree descent (vs the generic lower_bound's O(log n) comparisons but
        O(n) steps on bidirectional iterators)."""
        best: Optional[_Node] = None
        n = self._root
        while n is not None:
            if self._less(n.key, key):
                n = n.right
            else:
                best = n
                n = n.left
        return self.iterator(self, best)

    def clear(self) -> None:
        self.invalidation_events += self._iterators.invalidate(ALL, None)
        self._root = None
        self._size = 0

    # -- Python interop --------------------------------------------------------------

    def keys(self) -> list:
        return list(self)

    def items(self) -> list:
        out = []
        n = self._min_node()
        while n is not None:
            out.append((n.key, n.value))
            n = self._successor(n)
        return out

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        n = self._min_node()
        while n is not None:
            yield n.key
            n = self._successor(n)

    def __repr__(self) -> str:
        return f"TreeMap({self.items()!r})"

    # -- invariant checking (used by the property tests) ------------------------------

    def _check_invariants(self) -> None:
        def walk(n: Optional[_Node]) -> int:
            if n is None:
                return 0
            assert n.height == 1 + max(_h(n.left), _h(n.right)), "stale height"
            assert abs(self._balance_factor(n)) <= 1, "AVL balance violated"
            if n.left is not None:
                assert n.left.parent is n, "broken parent link"
                assert self._less(n.left.key, n.key), "BST order violated"
            if n.right is not None:
                assert n.right.parent is n, "broken parent link"
                assert self._less(n.key, n.right.key), "BST order violated"
            return 1 + walk(n.left) + walk(n.right)

        assert walk(self._root) == self._size, "size out of sync"
