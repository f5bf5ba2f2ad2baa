"""The random-access ``sort`` against the element-swapping quicksort it
replaced, plus its write-back, exception-safety and sqlite guarantees.

``_sort_indexed`` reads the elements once, quicksorts a list and writes
back only the positions whose element changed.  The differential oracle
below is the previous body, which ran the same quicksort in place through
``at``/``set_at``: over seeded inputs (every random-access backend, sizes
around the insertion-sort cutoff, duplicate-heavy values, well-behaved and
broken comparators) both must leave the same contents and facts and make
the same comparator calls in the same order, or raise the same exception.
"""

import random
import sqlite3
from typing import Any, Callable

import pytest

from repro.sequences import Deque, Vector
from repro.sequences.algorithms import (
    _default_less,
    _note_sorted,
    sort,
    sort__deque,
    sort__vector,
)
from repro.sequences.backends import ContiguousVector, SqliteSequence
from repro.sequences.function_objects import (
    Greater,
    IntransitiveOrder,
    Less,
    LessByKey,
    NotAStrictWeakOrder,
)


# ---------------------------------------------------------------------------
# The oracle: the previous in-place body, verbatim
# ---------------------------------------------------------------------------


def _quicksort_indices(c: Any, lo: int, hi: int, less: Callable) -> None:
    """Median-of-three quicksort with insertion sort below a cutoff,
    operating through ``at``/``set_at`` (Random Access Container)."""
    while hi - lo > 16:
        mid = (lo + hi) // 2
        a, b, m = c.at(lo), c.at(hi - 1), c.at(mid)
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
            while less(c.at(i), pivot):
                i += 1
            while less(pivot, c.at(j)):
                j -= 1
            if i <= j:
                vi, vj = c.at(i), c.at(j)
                c.set_at(i, vj)
                c.set_at(j, vi)
                i += 1
                j -= 1
        # Recurse into the smaller side, loop on the larger (O(log n) stack).
        if j - lo < hi - i:
            _quicksort_indices(c, lo, j + 1, less)
            lo = i
        else:
            _quicksort_indices(c, i, hi, less)
            hi = j + 1
    # insertion sort for the small tail
    for i in range(lo + 1, hi):
        v = c.at(i)
        j = i - 1
        while j >= lo and less(v, c.at(j)):
            c.set_at(j + 1, c.at(j))
            j -= 1
        c.set_at(j + 1, v)


class _Looping(Exception):
    """The oracle began a partition pass it had already begun, with no
    write in between: it is deterministic, so it would loop forever."""


class _LoopWatch:
    """Forwards ``size``/``at``/``set_at`` to a container and raises
    :class:`_Looping` when the oracle repeats a pass.

    A pass begins with the only three back-to-back reads the oracle makes,
    ``at(lo), at(hi - 1), at(mid)``, with no comparator call or write in
    between; ``calls`` is the comparator-call log, whose growth marks a
    comparator call."""

    def __init__(self, container: Any, calls: list) -> None:
        self.container = container
        self.calls = calls
        self.mark = len(calls)
        self.streak: list[int] = []
        self.passes: set[tuple[int, int]] = set()

    def size(self) -> int:
        return self.container.size()

    def at(self, index: int) -> Any:
        if len(self.calls) != self.mark:
            self.mark = len(self.calls)
            self.streak = []
        self.streak.append(index)
        if len(self.streak) == 3:
            lo, last, _ = self.streak
            if (lo, last) in self.passes:
                raise _Looping
            self.passes.add((lo, last))
        return self.container.at(index)

    def set_at(self, index: int, value: Any) -> None:
        self.streak = []
        self.passes.clear()
        self.container.set_at(index, value)


def _oracle_sort(container: Any, less: Callable, calls: list) -> None:
    _quicksort_indices(_LoopWatch(container, calls), 0, container.size(), less)
    _note_sorted(container, less)


# ---------------------------------------------------------------------------
# Seeded cases
# ---------------------------------------------------------------------------

CONTAINERS = {
    "Vector": Vector,
    "Deque": Deque,
    "ContiguousVector": ContiguousVector,
    "SqliteSequence": SqliteSequence,
}

#: Comparator classes; each case records calls by wrapping the class's
#: ``__call__``, so the default ``Less`` instance keeps its identity (and
#: with it the ``sorted`` fact a default-order sort establishes).
COMPARATORS = {
    "Less": Less,
    "Greater": Greater,
    "LessByKey": LessByKey,
    "NotAStrictWeakOrder": NotAStrictWeakOrder,
    "IntransitiveOrder": IntransitiveOrder,
}

SIZES = (0, 1, 2, 16, 17, 18, 100, 400)


def _comparator(container: str, name: str) -> Callable:
    if name == "Less":
        # The default order on sqlite would take the backend ORDER BY;
        # a fresh Less() is a custom comparator and takes the quicksort.
        return Less() if container == "SqliteSequence" else _default_less
    if name == "LessByKey":
        return LessByKey(lambda x: x % 5)
    return COMPARATORS[name]()


def _inputs(n: int) -> list[list[int]]:
    """Two duplicate-heavy inputs per size: a few distinct values, and
    about n/4 of them."""
    rng = random.Random(1000 + n)
    return [[rng.randrange(3) for _ in range(n)],
            [rng.randrange(max(1, n // 4)) for _ in range(n)]]


#: Far above the ~10**4 calls of the largest case here; a sort that loops
#: fails instead of exhausting memory.
_RUNAWAY = 10**6


def _recorded_run(monkeypatch, sorter, make, xs, comparator):
    """Build a fresh container, sort it, and return (container, calls,
    exception type or None)."""
    calls: list[tuple[Any, Any]] = []
    cls = type(comparator)
    original = cls.__call__

    def recording(self, a, b):
        if len(calls) == _RUNAWAY:
            raise RuntimeError("runaway sort")
        calls.append((a, b))
        return original(self, a, b)

    c = make(xs)
    with monkeypatch.context() as m:
        m.setattr(cls, "__call__", recording)
        try:
            if sorter is _oracle_sort:
                _oracle_sort(c, comparator, calls)
            else:
                sorter(c, comparator)
        except Exception as exc:            # noqa: BLE001 - compared below
            return c, calls, type(exc)
    return c, calls, None


def _assert_same_as_oracle(xs, new, old, where):
    """Compare one (container, calls, exception) run against the
    oracle's."""
    (new, new_calls, new_exc), (old, old_calls, old_exc) = new, old
    assert new_calls == old_calls, where
    # Where the in-place body loops forever (a partition that makes no
    # progress) the buffered one raises ValueError at the same point.
    assert new_exc is (ValueError if old_exc is _Looping else old_exc), where
    if old_exc is None:
        assert new.to_list() == old.to_list(), where
        assert new.facts == old.facts, where
        assert new.epoch <= min(len(xs), old.epoch), where
    else:
        # New guarantee: a raising sort leaves the input untouched.
        assert new.to_list() == xs, where
        assert new.epoch == 0 and new.facts == frozenset(), where


@pytest.mark.parametrize("container", sorted(CONTAINERS))
@pytest.mark.parametrize("name", sorted(COMPARATORS))
def test_same_calls_contents_and_facts_as_in_place_quicksort(
        monkeypatch, container, name):
    make = CONTAINERS[container]
    for n in SIZES:
        for xs in _inputs(n):
            less = _comparator(container, name)
            _assert_same_as_oracle(
                xs,
                _recorded_run(monkeypatch, sort, make, xs, less),
                _recorded_run(monkeypatch, _oracle_sort, make, xs, less),
                f"{container} {name} n={n} xs={xs[:8]}...")


@pytest.mark.parametrize("seed,raised", [(1, IndexError), (0, _Looping)])
def test_broken_comparator_on_1000_elements_fails_like_oracle(
        monkeypatch, seed, raised):
    xs = random.Random(seed).choices(range(10), k=1000)
    old = _recorded_run(
        monkeypatch, _oracle_sort, Vector, xs, NotAStrictWeakOrder())
    assert old[2] is raised
    _assert_same_as_oracle(
        xs,
        _recorded_run(monkeypatch, sort, Vector, xs, NotAStrictWeakOrder()),
        old, f"seed={seed}")


def test_left_overrun_raises_instead_of_wrapping():
    # A comparator that always says "pivot < x" walks j off the left end:
    # at(-1) raised there, and buf[-1] must not silently wrap around.
    v = Vector(list(range(40)))
    with pytest.raises(IndexError):
        sort(v, lambda a, b: True)
    assert v.to_list() == list(range(40))


@pytest.mark.parametrize("trampoline,make", [(sort__vector, Vector),
                                             (sort__deque, Deque)])
def test_trampolines_match_the_oracle(monkeypatch, trampoline, make):
    xs = random.Random(3).choices(range(50), k=300)
    _assert_same_as_oracle(
        xs,
        _recorded_run(monkeypatch, trampoline, make, xs, _default_less),
        _recorded_run(monkeypatch, _oracle_sort, make, xs, _default_less),
        trampoline.__name__)


# ---------------------------------------------------------------------------
# Write-back and exception safety
# ---------------------------------------------------------------------------


def _count_set_at(monkeypatch, c) -> list[int]:
    writes: list[int] = []
    original = type(c).set_at

    def counting(self, index, value):
        writes.append(index)
        return original(self, index, value)

    monkeypatch.setattr(type(c), "set_at", counting)
    return writes


@pytest.mark.parametrize("make", [Vector, Deque, ContiguousVector])
def test_sorted_input_is_not_written(monkeypatch, make):
    c = make(sorted([1, 1, 2, 3, 3, 3, 5, 8] * 5))
    writes = _count_set_at(monkeypatch, c)
    sort(c)
    assert writes == []
    assert c.epoch == 0
    assert c.has_fact("sorted")


def test_sorted_sqlite_custom_comparator_issues_no_update():
    s = SqliteSequence(sorted(random.Random(5).choices(range(20), k=60)))
    statements: list[str] = []
    s.storage()._conn.set_trace_callback(statements.append)
    sort(s, Less())
    assert statements, "the sort read through the connection"
    assert not [q for q in statements
                if q.lstrip().upper().startswith("UPDATE")]
    assert s.epoch == 0


@pytest.mark.parametrize("make", [Vector, Deque, ContiguousVector,
                                  SqliteSequence])
def test_epoch_moves_at_most_n_times(make):
    xs = random.Random(11).choices(range(30), k=200)
    c = make(xs)
    sort(c, Greater())
    assert c.to_list() == sorted(xs, reverse=True)
    assert 0 < c.epoch <= len(xs)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("make", [Vector, Deque, ContiguousVector,
                                  SqliteSequence])
def test_raising_comparator_leaves_container_unchanged(make):
    xs = random.Random(13).choices(range(30), k=120)
    c = make(xs)
    c.assert_fact("sorted", check=False)    # a fact the sort must not touch
    facts = c.facts
    seen = 0

    def exploding(a, b):
        nonlocal seen
        seen += 1
        if seen == 500:
            raise _Boom
        return a < b

    with pytest.raises(_Boom):
        sort(c, exploding)
    assert c.to_list() == xs
    assert c.epoch == 0
    assert c.facts == facts


# ---------------------------------------------------------------------------
# sqlite's backend ORDER BY renumbering
# ---------------------------------------------------------------------------


def test_renumbering_searches_the_order_table_by_primary_key():
    s = SqliteSequence(random.Random(17).choices(range(40), k=200))
    statements: list[str] = []
    conn = s.storage()._conn
    conn.set_trace_callback(statements.append)
    sort(s)
    conn.set_trace_callback(None)
    create = next(q for q in statements
                  if q.startswith("CREATE TEMP TABLE _order"))
    update = next(q for q in statements
                  if q.startswith("UPDATE") and "_order" in q)
    conn.execute(create)
    plan = " | ".join(row[-1] for row in
                      conn.execute("EXPLAIN QUERY PLAN " + update))
    conn.execute("DROP TABLE _order")
    assert "USING INTEGER PRIMARY KEY" in plan, plan
    assert "SCAN _order" not in plan, plan


def test_backend_sort_keeps_ties_in_position_order():
    # sqlite compares an int and a float by value, so 1 and 1.0 tie;
    # their relative order must be the one they had before the sort.
    xs = [2, 1.0, 3, 1, 2.0, 1.0, 1, 0]
    s = SqliteSequence(xs)
    sort(s)
    out = s.to_list()
    assert out == sorted(xs)                # Python's sort is stable too
    assert [type(v) for v in out] == [type(v) for v in sorted(xs)]


def test_backend_sort_survives_reopen_with_revalidated_fact(tmp_path):
    path = str(tmp_path / "seq.db")
    xs = random.Random(23).choices(range(25), k=300)
    s = SqliteSequence(xs, path=path)
    sort(s)
    s.close()
    t = SqliteSequence(path=path)
    assert t.to_list() == sorted(xs)
    assert t.has_fact("sorted")             # revalidated on reopen
    t.close()
    # The renumbering leaves the primary key dense: 0 .. n-1.
    conn = sqlite3.connect(path)
    rows = conn.execute("SELECT pos FROM seq ORDER BY pos").fetchall()
    conn.close()
    assert [p for (p,) in rows] == list(range(len(xs)))
