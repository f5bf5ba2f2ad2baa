"""One iterator-invalidation suite, three storage backends, and the
invalidation table applied to every container it names.

The storage split's core promise is that invalidation semantics are a
property of the *container interface*, not of the representation behind
it: a ``Vector`` over a Python list, a ``ContiguousVector`` over one
``array`` block, and a ``SqliteSequence`` over a database must invalidate
exactly the same iterators on exactly the same mutations.  The suites
are parametrized over all three backends and written once; the table
test runs every entry of ``repro.facts.properties.INVALIDATION`` on the
container its kind names.
"""

import pytest

from repro.facts.properties import (
    ALL,
    ALL_BUT_END,
    AT_OR_AFTER,
    INVALIDATION,
    NODE,
    REALLOC,
)
from repro.sequences import Deque, DList, Vector
from repro.sequences.backends import ContiguousVector, SqliteSequence
from repro.sequences.errors import SingularIteratorError
from repro.sequences.storage import StorageError

#: (backend name, zero-arg-or-items factory) for every Vector-family
#: backend.  All use int elements so the contiguous typecode fits.
BACKENDS = [
    ("vector", Vector),
    ("contig", ContiguousVector),
    ("sqlite", lambda items=(): SqliteSequence(items)),
]

parametrize_backends = pytest.mark.parametrize(
    "factory", [f for _, f in BACKENDS], ids=[n for n, _ in BACKENDS],
)


# ---------------------------------------------------------------------------
# Invalidation rules (identical across representations)
# ---------------------------------------------------------------------------


@parametrize_backends
class TestInvalidationRules:
    def test_erase_invalidates_at_and_after(self, factory):
        v = factory([1, 2, 3, 4])
        before = v.begin()                   # index 0: stays valid
        at = v.begin(); at.advance(2)        # index 2: invalidated
        after = v.begin(); after.advance(3)  # index 3: invalidated
        target = v.begin(); target.advance(2)
        v.erase(target)
        assert before.is_valid()
        assert not at.is_valid()
        assert not after.is_valid()
        assert v.to_list() == [1, 2, 4]

    def test_insert_invalidates_at_and_after(self, factory):
        v = factory([1, 2, 3, 4])
        v._capacity = 100  # suppress reallocation for this test
        before = v.begin()
        after = v.begin(); after.advance(2)
        pos = v.begin(); pos.advance(2)
        v.insert(pos, 99)
        assert before.is_valid()
        assert not after.is_valid()
        assert v.to_list() == [1, 2, 99, 3, 4]

    def test_reallocation_invalidates_everything(self, factory):
        v = factory([1])
        assert v.capacity() == 1
        it = v.begin()
        v.push_back(2)   # exceeds capacity -> reallocation
        assert v.reallocations == 1
        assert not it.is_valid()

    def test_push_back_without_reallocation_keeps_iterators(self, factory):
        v = factory([1])
        v._capacity = 10
        it = v.begin()
        v.push_back(2)
        assert it.is_valid()

    def test_pop_back_invalidates_last_only(self, factory):
        v = factory([1, 2, 3])
        first = v.begin()
        last = v.begin(); last.advance(2)
        v.pop_back()
        assert first.is_valid()
        assert not last.is_valid()

    def test_clear_invalidates_everything(self, factory):
        v = factory([1, 2, 3])
        its = [v.begin() for _ in range(3)]
        v.clear()
        assert all(not it.is_valid() for it in its)
        assert v.empty()

    def test_invalidation_events_counted(self, factory):
        v = factory([1, 2, 3, 4])
        _live = [v.begin(), v.begin()]
        for it in _live:
            it.advance(3)
        v.erase(v.begin())   # erase at 0 invalidates everything at/after 0
        assert v.invalidation_events >= 2


# ---------------------------------------------------------------------------
# Epoch discipline: every mutation ticks the clock
# ---------------------------------------------------------------------------


@parametrize_backends
class TestEpochDiscipline:
    def test_every_mutation_bumps_epoch(self, factory):
        v = factory([1, 2, 3])
        v._capacity = 100
        mutations = [
            lambda: v.push_back(4),
            lambda: v.pop_back(),
            lambda: v.insert(v.begin(), 0),
            lambda: v.erase(v.begin()),
            lambda: v.set_at(0, 9),
            lambda: v.clear(),
        ]
        for mutate in mutations:
            before = v.epoch
            mutate()
            assert v.epoch == before + 1

    def test_reads_do_not_bump_epoch(self, factory):
        v = factory([1, 2, 3])
        before = v.epoch
        v.at(1)
        v.to_list()
        list(iter(v.begin().clone() for _ in range(2)))
        assert v.epoch == before


# ---------------------------------------------------------------------------
# Facts flow through the same choke point as invalidation
# ---------------------------------------------------------------------------


@parametrize_backends
class TestFactsThroughStorageSeam:
    def test_push_back_destroys_sorted(self, factory):
        v = factory([1, 2, 3])
        v.assert_fact("sorted")
        assert v.has_fact("sorted")
        v.push_back(0)   # append can break order
        assert not v.has_fact("sorted")

    def test_element_write_destroys_sorted(self, factory):
        v = factory([1, 2, 3])
        v.assert_fact("sorted")
        v.set_at(0, 99)  # overwrite can break order
        assert not v.has_fact("sorted")

    def test_erase_preserves_sorted(self, factory):
        v = factory([1, 2, 3])
        v.assert_fact("sorted")
        v.erase(v.begin())  # removing an element keeps relative order
        assert v.has_fact("sorted")

    def test_assert_fact_checks_by_default(self, factory):
        v = factory([3, 1, 2])
        with pytest.raises(ValueError):
            v.assert_fact("sorted")


@pytest.mark.parametrize("write", [
    lambda s: s.push_back(True),
    lambda s: s.insert(s.begin(), True),
], ids=["push_back", "insert"])
def test_refused_write_does_not_grow(write):
    # The store refuses a bool; the capacity must not grow for a write
    # that never happened.
    s = SqliteSequence([1])
    with pytest.raises(StorageError):
        write(s)
    assert (s.to_list(), s.epoch) == ([1], 0)
    assert (s.capacity(), s.reallocations) == (1, 0)


# ---------------------------------------------------------------------------
# The invalidation table, applied
# ---------------------------------------------------------------------------

#: The container each kind of the table names.
CONTAINERS = {
    "vector": Vector,
    "contig": ContiguousVector,
    "sqlite": SqliteSequence,
    "deque": Deque,
    "list": DList,
}

N = 5

#: The position each operation acts on in an N-element container.
TARGET = {"insert": 2, "erase": 2, "pop_back": N - 1, "pop_front": 0,
          "push_back": N}


def _dies(scopes, position, target, realloc):
    """Does the iterator held at ``position`` die by ``scopes``?"""
    return (ALL in scopes or realloc and REALLOC in scopes
            or AT_OR_AFTER in scopes and position >= target
            or NODE in scopes and position == target
            or ALL_BUT_END in scopes and position != N)


TABLE_CASES = [
    pytest.param(kind, op, realloc,
                 id=f"{kind}-{op}" + ("-realloc" if realloc else ""))
    for kind, ops in INVALIDATION.items()
    for op, scopes in ops.items()
    for realloc in ((False, True) if REALLOC in scopes else (False,))
]


@pytest.mark.parametrize("kind, op, realloc", TABLE_CASES)
def test_table_entry_kills_exactly_its_scope(kind, op, realloc):
    c = CONTAINERS[kind](range(1, N + 1))
    if not realloc:
        c.push_back(0)   # a vector now has spare capacity
        c.pop_back()
    target = TARGET.get(op, 2)
    held = {}
    for position in sorted({0, target, min(target + 1, N), N}):
        it = c.begin()
        for _ in range(position):
            it.increment()
        held[position] = it
    events = c.invalidation_events
    reallocations = getattr(c, "reallocations", 0)

    args = {"insert": (held[target], 99), "erase": (held[target],),
            "push_back": (99,), "push_front": (99,)}.get(op, ())
    getattr(c, op)(*args)

    scopes = INVALIDATION[kind][op]
    died = {p for p, it in held.items() if not it.is_valid()}
    assert died == {p for p in held if _dies(scopes, p, target, realloc)}
    assert c.invalidation_events - events == len(died)
    assert getattr(c, "reallocations", 0) - reallocations == int(realloc)


@pytest.mark.parametrize("kind", ["vector", "contig", "sqlite"])
def test_push_back_kills_end_without_reallocating(kind):
    # ISO C++ invalidates the past-the-end iterator on every push_back;
    # here the first push_back leaves spare capacity for the second.
    v = CONTAINERS[kind]([1, 2])
    v.push_back(3)
    e, b = v.end(), v.begin()
    reallocations = v.reallocations
    v.push_back(4)
    assert v.reallocations == reallocations
    assert not e.is_valid() and b.is_valid()
    with pytest.raises(SingularIteratorError):
        e.deref()


def test_spliced_iterators_survive_their_old_list():
    # After a splice the moved elements' iterators belong to the target
    # list: mutating the list they came from must not kill them.
    a, b = DList([1, 2]), DList([3, 4])
    moved = b.begin()
    a.splice(a.end(), b)
    b.push_back(9)
    b.clear()
    assert moved.is_valid() and moved.deref() == 3
    assert moved.container is a and a.to_list() == [1, 2, 3, 4]
