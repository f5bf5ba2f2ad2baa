"""Unit + property tests for the STL-like containers and their invalidation
semantics (the substrate STLlint's specifications describe)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts import check_concept
from repro.concepts.builtins import (
    BackInsertionSequence,
    BidirectionalIterator,
    ForwardContainer,
    FrontInsertionSequence,
    RandomAccessContainer,
    RandomAccessIterator,
    ReversibleContainer,
    Sequence,
)
from repro.sequences import (
    Deque,
    DList,
    PastTheEndError,
    SingularIteratorError,
    Vector,
    python_range,
    typed,
)


# ---------------------------------------------------------------------------
# Concept conformance of the substrate
# ---------------------------------------------------------------------------


class TestConceptConformance:
    @pytest.mark.parametrize("cls,concepts", [
        (Vector, [RandomAccessContainer, Sequence, BackInsertionSequence]),
        (Deque, [RandomAccessContainer, Sequence, FrontInsertionSequence,
                 BackInsertionSequence]),
        (DList, [ReversibleContainer, Sequence, FrontInsertionSequence,
                 BackInsertionSequence]),
    ])
    def test_container_models(self, cls, concepts):
        for concept in concepts:
            assert check_concept(concept, cls).ok, concept.name

    def test_dlist_is_not_random_access(self):
        report = check_concept(RandomAccessContainer, DList)
        assert not report.ok

    def test_iterator_models(self):
        assert check_concept(RandomAccessIterator, Vector.iterator).ok
        assert check_concept(BidirectionalIterator, DList.iterator).ok

    def test_typed_container_value_type(self):
        IntVector = typed(Vector, int)
        assert IntVector.value_type is int
        assert IntVector.iterator.value_type is int
        assert check_concept(RandomAccessContainer, IntVector).ok
        assert typed(Vector, int) is IntVector  # cached


# ---------------------------------------------------------------------------
# Vector semantics
# ---------------------------------------------------------------------------


class TestVector:
    def test_roundtrip(self):
        v = Vector([1, 2, 3])
        assert v.to_list() == [1, 2, 3]
        assert v.size() == 3
        assert not v.empty()

    def test_indexing(self):
        v = Vector([10, 20, 30])
        assert v.at(1) == 20
        v[1] = 99
        assert v[1] == 99
        with pytest.raises(IndexError):
            v.at(3)

    def test_iteration_range(self):
        v = Vector("abc")
        assert list(python_range(v.begin(), v.end())) == ["a", "b", "c"]

    def test_erase_returns_next(self):
        v = Vector([1, 2, 3])
        it = v.begin()
        it.increment()
        nxt = v.erase(it)
        assert nxt.deref() == 3
        assert v.to_list() == [1, 3]

    def test_erase_invalidates_at_and_after(self):
        v = Vector([1, 2, 3, 4])
        before = v.begin()                   # index 0: stays valid
        at = v.begin(); at.advance(2)        # index 2: invalidated
        after = v.begin(); after.advance(3)  # index 3: invalidated
        target = v.begin(); target.advance(2)
        v.erase(target)
        assert before.is_valid()
        assert not at.is_valid()
        assert not after.is_valid()

    def test_insert_invalidates_at_and_after(self):
        v = Vector([1, 2, 3, 4])
        v._capacity = 100  # suppress reallocation for this test
        before = v.begin()
        after = v.begin(); after.advance(2)
        pos = v.begin(); pos.advance(2)
        v.insert(pos, 99)
        assert before.is_valid()
        assert not after.is_valid()
        assert v.to_list() == [1, 2, 99, 3, 4]

    def test_reallocation_invalidates_everything(self):
        v = Vector([1])
        assert v.capacity() == 1
        it = v.begin()
        v.push_back(2)   # exceeds capacity -> reallocation
        assert v.reallocations == 1
        assert not it.is_valid()

    def test_push_back_without_reallocation_keeps_iterators(self):
        v = Vector([1])
        v._capacity = 10
        it = v.begin()
        v.push_back(2)
        assert it.is_valid()

    def test_singular_use_raises(self):
        v = Vector([1, 2, 3])
        it = v.begin()
        v.erase(v.begin())
        with pytest.raises(SingularIteratorError):
            it.deref()
        with pytest.raises(SingularIteratorError):
            it.increment()
        with pytest.raises(SingularIteratorError):
            it.clone()

    def test_past_the_end_dereference(self):
        v = Vector([1])
        with pytest.raises(PastTheEndError):
            v.end().deref()

    def test_decrement_begin(self):
        v = Vector([1])
        with pytest.raises(PastTheEndError):
            v.begin().decrement()

    def test_clear(self):
        v = Vector([1, 2])
        it = v.begin()
        v.clear()
        assert v.empty()
        assert not it.is_valid()

    def test_pop_back(self):
        v = Vector([1, 2, 3])
        last = v.begin(); last.advance(2)
        first = v.begin()
        assert v.pop_back() == 3
        assert not last.is_valid()
        assert first.is_valid()

    @given(st.lists(st.integers()))
    def test_roundtrip_property(self, xs):
        assert Vector(xs).to_list() == xs

    @given(st.lists(st.integers(), min_size=1), st.data())
    def test_erase_matches_list_semantics(self, xs, data):
        i = data.draw(st.integers(min_value=0, max_value=len(xs) - 1))
        v = Vector(xs)
        it = v.begin()
        it.advance(i)
        v.erase(it)
        expected = xs[:i] + xs[i + 1:]
        assert v.to_list() == expected


# ---------------------------------------------------------------------------
# DList semantics
# ---------------------------------------------------------------------------


class TestDList:
    def test_roundtrip(self):
        l = DList([1, 2, 3])
        assert l.to_list() == [1, 2, 3]
        assert l.size() == 3

    def test_push_front_back(self):
        l = DList()
        l.push_back(2)
        l.push_front(1)
        l.push_back(3)
        assert l.to_list() == [1, 2, 3]

    def test_pop_front_back(self):
        l = DList([1, 2, 3])
        assert l.pop_front() == 1
        assert l.pop_back() == 3
        assert l.to_list() == [2]

    @pytest.mark.parametrize("end", ["front", "back"])
    def test_pop_counts_the_invalidated_iterator(self, end):
        # Like erase and Vector.pop_back, a pop that invalidates a live
        # iterator to the popped node counts it.
        l = DList([1, 2, 3])
        doomed = l.begin()
        if end == "back":
            doomed = l.end(); doomed.decrement()
        survivor = l.begin(); survivor.increment()
        getattr(l, f"pop_{end}")()
        assert not doomed.is_valid()
        assert survivor.is_valid()
        assert l.invalidation_events == 1

    def test_insert_invalidates_nothing(self):
        l = DList([1, 2, 3])
        its = [l.begin() for _ in range(3)]
        pos = l.begin()
        pos.increment()
        l.insert(pos, 99)
        assert all(it.is_valid() for it in its)
        assert l.to_list() == [1, 99, 2, 3]

    def test_erase_invalidates_only_target(self):
        l = DList([1, 2, 3])
        first = l.begin()
        second = l.begin(); second.increment()
        third = l.begin(); third.increment(); third.increment()
        doomed = l.begin(); doomed.increment()
        after = l.erase(doomed)
        assert first.is_valid()
        assert not second.is_valid()   # pointed at the erased node
        assert third.is_valid()
        assert after.deref() == 3
        assert l.to_list() == [1, 3]

    def test_bidirectional_traversal(self):
        l = DList([1, 2, 3])
        it = l.end()
        out = []
        while not it.equals(l.begin()):
            it.decrement()
            out.append(it.deref())
        assert out == [3, 2, 1]

    def test_decrement_begin_raises(self):
        l = DList([1])
        with pytest.raises(PastTheEndError):
            l.begin().decrement()

    def test_splice_moves_in_constant_nodes(self):
        a = DList([1, 2])
        b = DList([8, 9])
        kept = b.begin()           # iterator into b survives the splice
        a.splice(a.end(), b)
        assert a.to_list() == [1, 2, 8, 9]
        assert b.to_list() == []
        assert kept.is_valid()
        assert kept.deref() == 8
        assert kept.container is a

    @given(st.lists(st.integers()))
    def test_roundtrip_property(self, xs):
        assert DList(xs).to_list() == xs

    @given(st.lists(st.integers(), min_size=1), st.data())
    def test_erase_matches_list_semantics(self, xs, data):
        i = data.draw(st.integers(min_value=0, max_value=len(xs) - 1))
        l = DList(xs)
        it = l.begin()
        for _ in range(i):
            it.increment()
        l.erase(it)
        assert l.to_list() == xs[:i] + xs[i + 1:]


# ---------------------------------------------------------------------------
# Deque semantics
# ---------------------------------------------------------------------------


class TestDeque:
    def test_double_ended(self):
        d = Deque([2])
        d.push_front(1)
        d.push_back(3)
        assert d.to_list() == [1, 2, 3]
        assert d.pop_front() == 1
        assert d.pop_back() == 3

    def test_any_mutation_invalidates_all(self):
        d = Deque([1, 2, 3])
        it = d.begin()
        d.push_back(4)
        assert not it.is_valid()
        it2 = d.begin()
        d.push_front(0)
        assert not it2.is_valid()

    def test_random_access(self):
        d = Deque([1, 2, 3])
        it = d.begin()
        it.advance(2)
        assert it.deref() == 3
        assert d.at(1) == 2

    def test_erase(self):
        d = Deque([1, 2, 3])
        pos = d.begin(); pos.advance(1)
        nxt = d.erase(pos)
        assert nxt.deref() == 3
        assert d.to_list() == [1, 3]

    @given(st.lists(st.integers()))
    def test_roundtrip_property(self, xs):
        assert Deque(xs).to_list() == xs
