"""Generic sequence algorithms over iterator ranges, with concept-based
overloading.

This is the STL layer of the reproduction: each algorithm states its concept
requirements (the documentation the paper wants made first-class), several
are concept-*overloaded* (Section 2.1's ``sort`` example, plus
``advance``/``distance`` — the textbook tag-dispatching cases), and the
sorted-sequence algorithms carry the pre/postconditions STLlint's entry/exit
handlers check (Section 3.1).

All range algorithms take value-semantic iterators ``[first, last)`` from
:mod:`repro.sequences.iterators`; container-level overloads take the
container itself.

Dispatch for ``advance``/``distance``/``sort`` runs through the
:mod:`repro.runtime` decision tables: specificity is compiled once per
registry generation and the steady-state cost of picking an overload is a
single dict hit (see ``benchmarks/bench_dispatch_cache.py`` for the
numbers, and ``REPRO_DISPATCH_STATS=1`` for per-overload call counts).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..concepts import GenericFunction
from ..concepts.builtins import (
    BackInsertionSequence,
    BidirectionalIterator,
    Container,
    ContiguousContainer,
    ForwardIterator,
    InputIterator,
    PersistentContainer,
    RandomAccessContainer,
    RandomAccessIterator,
    Sequence,
)
from .errors import EmptyRangeError, IteratorRangeError
from .function_objects import Less
from .iterators import IteratorBase, require_same_container

_default_less = Less()


# ---------------------------------------------------------------------------
# Iterator utilities (concept-overloaded: the classic tag-dispatch pair)
# ---------------------------------------------------------------------------

advance = GenericFunction("advance")


@advance.overload(requires=[(InputIterator, 0)])
def _advance_linear(it: IteratorBase, n: int) -> None:
    """O(n) stepping — all an Input Iterator permits."""
    if n < 0:
        raise IteratorRangeError("cannot advance an input iterator backwards")
    for _ in range(n):
        it.increment()


@advance.overload(requires=[(BidirectionalIterator, 0)])
def _advance_bidirectional(it: IteratorBase, n: int) -> None:
    """O(|n|) stepping, either direction."""
    if n >= 0:
        for _ in range(n):
            it.increment()
    else:
        for _ in range(-n):
            it.decrement()


@advance.overload(requires=[(RandomAccessIterator, 0)])
def _advance_random(it: Any, n: int) -> None:
    """O(1) jump — the payoff of the Random Access Iterator refinement."""
    it.advance(n)


distance = GenericFunction("distance")


@distance.overload(requires=[(InputIterator, 0), (InputIterator, 1)])
def _distance_linear(first: IteratorBase, last: IteratorBase) -> int:
    require_same_container(first, last)
    it = first.clone()
    n = 0
    while not it.equals(last):
        it.increment()
        n += 1
    return n


@distance.overload(requires=[(RandomAccessIterator, 0), (RandomAccessIterator, 1)])
def _distance_random(first: Any, last: Any) -> int:
    return first.distance(last)


# ---------------------------------------------------------------------------
# Non-mutating algorithms
# ---------------------------------------------------------------------------


def for_each(first: IteratorBase, last: IteratorBase, fn: Callable[[Any], Any]) -> None:
    """Requires: Input Iterator."""
    require_same_container(first, last)
    it = first.clone()
    while not it.equals(last):
        fn(it.deref())
        it.increment()


def find(first: IteratorBase, last: IteratorBase, value: Any) -> IteratorBase:
    """Linear search.  Requires: Input Iterator.  O(n).

    This is the algorithm STLlint flags when the incoming range is known to
    be sorted ("Consider replacing this algorithm with one specialized for
    sorted sequences (e.g., lower_bound)", Section 3.2).
    """
    require_same_container(first, last)
    it = first.clone()
    while not it.equals(last):
        if it.deref() == value:
            return it
        it.increment()
    return it


def find_if(
    first: IteratorBase, last: IteratorBase, pred: Callable[[Any], bool]
) -> IteratorBase:
    """Requires: Input Iterator."""
    require_same_container(first, last)
    it = first.clone()
    while not it.equals(last):
        if pred(it.deref()):
            return it
        it.increment()
    return it


def count(first: IteratorBase, last: IteratorBase, value: Any) -> int:
    """Requires: Input Iterator."""
    require_same_container(first, last)
    n = 0
    it = first.clone()
    while not it.equals(last):
        if it.deref() == value:
            n += 1
        it.increment()
    return n


def count_if(first: IteratorBase, last: IteratorBase, pred: Callable[[Any], bool]) -> int:
    require_same_container(first, last)
    n = 0
    it = first.clone()
    while not it.equals(last):
        if pred(it.deref()):
            n += 1
        it.increment()
    return n


def equal(first1: IteratorBase, last1: IteratorBase, first2: IteratorBase) -> bool:
    """Requires: Input Iterator × 2."""
    it1 = first1.clone()
    it2 = first2.clone()
    while not it1.equals(last1):
        if it1.deref() != it2.deref():
            return False
        it1.increment()
        it2.increment()
    return True


def max_element(
    first: IteratorBase,
    last: IteratorBase,
    less: Callable[[Any, Any], bool] = _default_less,
) -> IteratorBase:
    """Iterator to the maximum element.

    Requires: **Forward Iterator** — the algorithm keeps an iterator to the
    best element seen while continuing to traverse, i.e. it "depends on the
    multipass property of Forward Iterators" (Section 3.1).  Running it on an
    Input Iterator archetype is STLlint's demonstration case; see
    :mod:`repro.stllint.archetype_check`.

    Semantic requirement: ``less`` must satisfy the Strict Weak Order axioms
    of Fig. 6.
    """
    require_same_container(first, last)
    if first.equals(last):
        return last.clone()
    best = first.clone()
    it = first.clone()
    it.increment()
    while not it.equals(last):
        if less(best.deref(), it.deref()):
            best = it.clone()
        it.increment()
    return best


def min_element(
    first: IteratorBase,
    last: IteratorBase,
    less: Callable[[Any, Any], bool] = _default_less,
) -> IteratorBase:
    """Requires: Forward Iterator (multipass), Strict Weak Order."""
    require_same_container(first, last)
    if first.equals(last):
        return last.clone()
    best = first.clone()
    it = first.clone()
    it.increment()
    while not it.equals(last):
        if less(it.deref(), best.deref()):
            best = it.clone()
        it.increment()
    return best


def accumulate(
    first: IteratorBase,
    last: IteratorBase,
    init: Any,
    op: Callable[[Any, Any], Any] = lambda a, b: a + b,
) -> Any:
    """Left fold.  Requires: Input Iterator."""
    require_same_container(first, last)
    acc = init
    it = first.clone()
    while not it.equals(last):
        acc = op(acc, it.deref())
        it.increment()
    return acc


def is_sorted(
    first: IteratorBase,
    last: IteratorBase,
    less: Callable[[Any, Any], bool] = _default_less,
) -> bool:
    """Requires: Forward Iterator.  The *sortedness* property this tests is
    what STLlint's exit handler attaches after ``sort`` (Section 3.1)."""
    require_same_container(first, last)
    if first.equals(last):
        return True
    prev = first.clone()
    it = first.clone()
    it.increment()
    while not it.equals(last):
        if less(it.deref(), prev.deref()):
            return False
        prev = it.clone()
        it.increment()
    return True


# ---------------------------------------------------------------------------
# Sorted-range algorithms (binary search family)
# ---------------------------------------------------------------------------


def lower_bound(
    first: IteratorBase,
    last: IteratorBase,
    value: Any,
    less: Callable[[Any, Any], bool] = _default_less,
) -> IteratorBase:
    """First position where ``value`` could be inserted keeping order.

    Requires: Forward Iterator.  **Precondition: [first, last) is sorted
    under ``less``** — the entry-handler check of Section 3.1.  O(log n)
    comparisons; O(log n) steps with Random Access Iterators, O(n) steps
    otherwise (comparisons stay logarithmic — the STL's actual guarantee).
    """
    require_same_container(first, last)
    n = distance(first, last)
    it = first.clone()
    while n > 0:
        step = n // 2
        mid = it.clone()
        advance(mid, step)
        if less(mid.deref(), value):
            mid.increment()
            it = mid
            n -= step + 1
        else:
            n = step
    return it


def upper_bound(
    first: IteratorBase,
    last: IteratorBase,
    value: Any,
    less: Callable[[Any, Any], bool] = _default_less,
) -> IteratorBase:
    """First position strictly after every element equivalent to ``value``.
    Same requirements/preconditions as :func:`lower_bound`."""
    require_same_container(first, last)
    n = distance(first, last)
    it = first.clone()
    while n > 0:
        step = n // 2
        mid = it.clone()
        advance(mid, step)
        if not less(value, mid.deref()):
            mid.increment()
            it = mid
            n -= step + 1
        else:
            n = step
    return it


def binary_search(
    first: IteratorBase,
    last: IteratorBase,
    value: Any,
    less: Callable[[Any, Any], bool] = _default_less,
) -> bool:
    """Requires: Forward Iterator; sorted precondition; Strict Weak Order
    (Fig. 6 names ``binary_search`` among the algorithms whose correctness
    rests on those axioms)."""
    it = lower_bound(first, last, value, less)
    return (not it.equals(last)) and (not less(value, it.deref()))


# ---------------------------------------------------------------------------
# Backend-aware search (the storage-split payoff)
# ---------------------------------------------------------------------------


def indexed_find(container: Any, value: Any = None,
                 _range_value: Any = None) -> IteratorBase:
    """First position of ``value`` via the backend's value index — one
    O(log n) round trip instead of an n-round-trip scan.

    Requires: Persistent Container whose store supports ``index_lookup``.
    **Precondition: the container carries the ``sorted`` fact** (the same
    entry condition as :func:`lower_bound`; the taxonomy entry for
    "indexed lookup" declares it, which is what licenses the optimizer's
    ``find`` → ``indexed_find`` rewrite on sorted persistent sequences).

    Accepts both spellings a rewritten call site can have: the container
    form ``indexed_find(c, value)`` and, because the optimizer replaces
    only the callee name of ``find(first, last, value)``, the iterator
    range form ``indexed_find(first, last, value)`` — the range bounds
    narrow the lookup to ``[first, last)``.
    """
    if isinstance(container, IteratorBase):
        first, last, sought = container, value, _range_value
        require_same_container(first, last)
        seq = first.container
        index = seq.index_lookup(sought, lo=first._index, hi=last._index)
        return last.clone() if index is None else _at_index(seq, index)
    index = container.index_lookup(value)
    return container.end() if index is None else _at_index(container, index)


def _at_index(container: Any, index: int) -> IteratorBase:
    it = container.begin()
    advance(it, index)
    return it


find_in = GenericFunction("find_in")


@find_in.overload(requires=[(Container, 0)],
                  name="find_in<Container> (linear scan)")
def _find_in_scan(container: Any, value: Any) -> IteratorBase:
    """Whole-container find: the generic linear scan."""
    return find(container.begin(), container.end(), value)


@find_in.overload(requires=[(PersistentContainer, 0)],
                  name="find_in<PersistentContainer> (fact-routed)")
def _find_in_persistent(container: Any, value: Any) -> IteratorBase:
    """On a persistent backend every element access is a round trip, so
    routing matters: with the ``sorted`` fact recorded the backend's
    indexed lookup answers in one trip; without it we must still scan."""
    if container.has_fact("sorted"):
        return indexed_find(container, value)
    return find(container.begin(), container.end(), value)


copy_into = GenericFunction("copy_into")


@copy_into.overload(requires=[(Container, 0), (BackInsertionSequence, 1)],
                    name="copy_into<Container> (element-wise)")
def _copy_into_elementwise(src: Any, dst: Any) -> Any:
    """Append all of ``src`` onto ``dst``, one element at a time."""
    it = src.begin()
    last = src.end()
    while not it.equals(last):
        dst.push_back(it.deref())
        it.increment()
    return dst


@copy_into.overload(
    requires=[(ContiguousContainer, 0), (BackInsertionSequence, 1)],
    name="copy_into<ContiguousContainer> (bulk slice)",
)
def _copy_into_bulk(src: Any, dst: Any) -> Any:
    """Contiguous sources hand over their block as one bulk slice —
    no per-element iterator traffic on the read side."""
    for value in src.storage().slice(0, src.size()):
        dst.push_back(value)
    return dst


# ---------------------------------------------------------------------------
# Mutating algorithms
# ---------------------------------------------------------------------------


def copy(first: IteratorBase, last: IteratorBase, out: IteratorBase) -> IteratorBase:
    """Requires: Input Iterator source, writable destination with enough
    room."""
    it = first.clone()
    o = out.clone()
    while not it.equals(last):
        o.set(it.deref())
        it.increment()
        o.increment()
    return o


def fill(first: IteratorBase, last: IteratorBase, value: Any) -> None:
    require_same_container(first, last)
    it = first.clone()
    while not it.equals(last):
        it.set(value)
        it.increment()


def reverse(first: IteratorBase, last: IteratorBase) -> None:
    """Requires: Bidirectional Iterator."""
    require_same_container(first, last)
    if first.equals(last):
        return
    left = first.clone()
    right = last.clone()
    while True:
        if left.equals(right):
            return
        right.decrement()
        if left.equals(right):
            return
        a, b = left.deref(), right.deref()
        left.set(b)
        right.set(a)
        left.increment()


def remove_if(
    container: Any, pred: Callable[[Any], bool]
) -> int:
    """Erase every element satisfying ``pred`` using the correct
    erase-returns-next idiom — the *fixed* version of Fig. 4's routine.
    Requires: Sequence.  Returns the number erased."""
    erased = 0
    it = container.begin()
    while not it.equals(container.end()):
        if pred(it.deref()):
            it = container.erase(it)
            erased += 1
        else:
            it.increment()
    return erased


# ---------------------------------------------------------------------------
# sort: the paper's concept-based overloading example
# ---------------------------------------------------------------------------

sort = GenericFunction("sort")


def _note_sorted(container: Any, less: Callable[[Any, Any], bool]) -> None:
    """Record the runtime ``sorted`` fact a sort establishes by
    construction — only under the default order (the fact means
    nondecreasing under ``<=``, not under an arbitrary comparator), and
    only on façades that track facts."""
    if less is _default_less and hasattr(container, "assert_fact"):
        container.assert_fact("sorted", check=False)


def _quicksort(buf: list, lo: int, hi: int, less: Callable) -> None:
    """Median-of-three quicksort with insertion sort below a cutoff, in
    place on the list ``buf``.

    Under a comparator that is not a strict weak order, indexing keeps a
    bounds-checked ``at``'s behaviour: running off the right end raises
    ``IndexError`` as ``list`` does, and so does ``j`` reaching -1, which
    would otherwise wrap around to ``buf[-1]``.  A partition that leaves
    its range unchanged raises ``ValueError`` instead of looping."""
    while hi - lo > 16:
        mid = (lo + hi) // 2
        a, b, m = buf[lo], buf[hi - 1], buf[mid]
        # median of three
        if less(m, a):
            a, m = m, a
        if less(b, m):
            m, b = b, m
            if less(m, a):
                a, m = m, a
        pivot = m
        i, j = lo, hi - 1
        while i <= j:
            while less(buf[i], pivot):
                i += 1
            while less(pivot, buf[j]):
                j -= 1
                if j < 0:
                    raise IndexError("quicksort ran off the left end: the "
                                     "comparator is not a strict weak order")
            if i <= j:
                buf[i], buf[j] = buf[j], buf[i]
                i += 1
                j -= 1
        if i == lo or j == hi - 1:
            # Nothing was swapped and one side is the whole range again:
            # the next pass would repeat this one forever.
            raise ValueError("quicksort partition made no progress: the "
                             "comparator is not a strict weak order")
        # Recurse into the smaller side, loop on the larger (O(log n) stack).
        if j - lo < hi - i:
            _quicksort(buf, lo, j + 1, less)
            lo = i
        else:
            _quicksort(buf, i, hi, less)
            hi = j + 1
    # insertion sort for the small tail
    for i in range(lo + 1, hi):
        v = buf[i]
        j = i - 1
        while j >= lo and less(v, buf[j]):
            buf[j + 1] = buf[j]
            j -= 1
        buf[j + 1] = v


@sort.overload(requires=[(Sequence, 0)], name="sort<Sequence> (merge sort)")
def _sort_linear(container: Any, less: Callable[[Any, Any], bool] = _default_less) -> Any:
    """Default for linearly-accessed sequences ("if they can only be
    accessed linearly (as with a linked list) we might select a default
    algorithm"): bottom-up merge sort through the Sequence interface.
    O(n log n) comparisons, but every element move is a linked-list
    operation."""
    items = list(container)
    if len(items) <= 1:
        return container
    runs = [[x] for x in items]
    while len(runs) > 1:
        merged_runs = []
        for i in range(0, len(runs) - 1, 2):
            a, b = runs[i], runs[i + 1]
            out: list[Any] = []
            ia = ib = 0
            while ia < len(a) and ib < len(b):
                if less(b[ib], a[ia]):
                    out.append(b[ib]); ib += 1
                else:
                    out.append(a[ia]); ia += 1
            out.extend(a[ia:])
            out.extend(b[ib:])
            merged_runs.append(out)
        if len(runs) % 2:
            merged_runs.append(runs[-1])
        runs = merged_runs
    # Rewrite the sequence in place through its own interface.
    result = runs[0]
    it = container.begin()
    for v in result:
        it.set(v)
        it.increment()
    _note_sorted(container, less)
    return container


@sort.overload(
    requires=[(RandomAccessContainer, 0)],
    name="sort<RandomAccessContainer> (quicksort)",
)
def _sort_indexed(container: Any, less: Callable[[Any, Any], bool] = _default_less) -> Any:
    """"If they can be accessed efficiently via indexing (as with an array)
    we can apply the more-efficient quicksort algorithm" (Section 2.1).

    The n elements are read once through ``at`` and quicksorted in a
    list; ``set_at`` then writes back only the positions whose element
    changed (by identity: elements that compare equal may still differ).
    The comparator sees exactly the calls an element-swapping quicksort
    through ``at``/``set_at`` would make, but a sort costs n reads and at
    most n writes, and an already-sorted container is not written at all
    (its epoch does not move).

    A comparator that raises, and a broken comparator's ``IndexError`` or
    ``ValueError`` (see :func:`_quicksort`), leave the container
    untouched: contents, epoch and facts are as before the call."""
    at = container.at
    before = [at(k) for k in range(container.size())]
    buf = before.copy()
    _quicksort(buf, 0, len(buf), less)
    set_at = container.set_at
    for k, value in enumerate(buf):
        if value is not before[k]:
            set_at(k, value)
    _note_sorted(container, less)
    return container


# A container that is both a Sequence and random-access (Vector, Deque)
# matches both overloads above, which are unordered by refinement; this
# doubly-constrained registration is the unique most-specific candidate and
# resolves to quicksort — the behaviour the paper's example wants.
sort.overload(
    requires=[(RandomAccessContainer, 0), (Sequence, 0)],
    name="sort<RandomAccessContainer & Sequence> (quicksort)",
)(_sort_indexed)


@sort.overload(
    requires=[(PersistentContainer, 0), (RandomAccessContainer, 0),
              (Sequence, 0)],
    name="sort<PersistentContainer> (backend order-by)",
)
def _sort_backend(container: Any,
                  less: Callable[[Any, Any], bool] = _default_less) -> Any:
    """On a persistent backend, the generic quicksort pays a round trip
    per element read and per element written back; pushing the whole
    reorder to the backend (one ORDER BY renumbering) costs O(1) trips.
    Only the default order can be delegated — a custom comparator falls
    back to the generic quicksort through the container interface."""
    if less is not _default_less:
        return _sort_indexed(container, less)
    container.backend_sort()
    return container


def backend_sort(container: Any,
                 less: Callable[[Any, Any], bool] = _default_less) -> Any:
    """Monomorphic spelling of the persistent-backend ``sort`` overload —
    the optimizer's rewrite target for ``sort`` on persistent container
    kinds.  Its STLlint spec aliases ``sort``'s, so the SORTED fact it
    establishes (and everything downstream that relies on it) survives
    the rewrite."""
    return _sort_backend(container, less)


# Monomorphized spellings of ``sort``, one per container representation —
# the targets OPT-MONO rewrites a proven-monomorphic call site to, and
# callable directly by anyone who knows the container type statically.
# Each is a direct-call trampoline (repro.runtime.specialize): resolution
# is paid once, not per call, and a model mutation flips the binding back
# to full dispatch, so they stay exactly as correct as ``sort`` itself.
# Their semantic specs alias ``sort``'s (see
# repro.stllint.specs.MONO_ALGORITHM_SPELLINGS), so STLlint's facts —
# SORTED established on exit — are unchanged by the rewrite.
from .deque import Deque as _Deque        # noqa: E402  (after sort's overloads)
from .dlist import DList as _DList        # noqa: E402
from .vector import Vector as _Vector     # noqa: E402

sort__vector = sort.specialize(_Vector)
sort__list = sort.specialize(_DList)
sort__deque = sort.specialize(_Deque)


def stable_sort(container: Any, less: Callable[[Any, Any], bool] = _default_less) -> Any:
    """Stable merge sort for any Sequence (refines the ``sort`` algorithm
    concept in the taxonomy with a stability postcondition)."""
    return _sort_linear(container, less)


def insertion_sort_range(first: IteratorBase, last: IteratorBase,
                         less: Callable[[Any, Any], bool] = _default_less) -> None:
    """In-place insertion sort using only Bidirectional Iterator
    operations and O(1) extra space.

    This is what "accessed linearly" *really* limits you to when you also
    cannot allocate (the merge sort used by ``sort<Sequence>`` buys its
    O(n log n) with O(n) scratch space): O(n^2) element moves.  The
    overload bench uses it as the honest baseline for Section 2.1's claim
    that indexed access enables "the more-efficient quicksort algorithm".
    """
    require_same_container(first, last)
    if first.equals(last):
        return
    sorted_end = first.clone()
    sorted_end.increment()
    while not sorted_end.equals(last):
        value = sorted_end.deref()
        pos = sorted_end.clone()
        while not pos.equals(first):
            prev = pos.clone()
            prev.decrement()
            if less(value, prev.deref()):
                pos.set(prev.deref())
                pos = prev
            else:
                break
        pos.set(value)
        sorted_end.increment()
