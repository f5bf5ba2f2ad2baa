"""``walk`` against the iterator-call loop it replaced: a differential
oracle over every backend and every algorithm that reads through it.

Each case runs one algorithm twice on fresh containers with the same
generated contents.  The reference run hands the algorithm thin wrapper
iterators (:class:`Plain`), which ``walk`` does not recognise, so it runs
the plain ``equals``/``deref``/``increment`` loop; the other run hands it
the containers' own iterators, which take the chunked façade branch or
the node branch.  A callback (the predicate, the comparator, the fold
operator, a probe value's ``__eq__``, the output sink) mutates the
walked container part-way through: it writes an element, appends (with
and without a vector reallocation), inserts, erases, or raises.  Both
runs must return the same result and position, raise the same exception
with the same message, and leave the same contents, ``epoch`` and
``invalidation_events``.
"""

import random
from typing import Any, Callable

import pytest

from repro.sequences import Deque, DList, Vector
from repro.sequences.algorithms import (
    _copy_into_elementwise,
    accumulate,
    copy,
    count,
    count_if,
    equal,
    find,
    find_if,
    for_each,
    max_element,
    min_element,
)
from repro.sequences.backends import ContiguousVector, SqliteSequence
from repro.sequences.errors import PastTheEndError
from repro.sequences.iterators import (
    WALK_CHUNK_CAP,
    WALK_CHUNK_FIRST,
    IndexIterator,
    NodeIterator,
    walk,
)
from repro.sequences.storage import DequeStorage
from repro.stllint import check_traversal_requirement

BACKENDS = {
    "Vector": Vector,
    "Deque": Deque,
    "DList": DList,
    "ContiguousVector": ContiguousVector,
    "SqliteSequence": SqliteSequence,
}


# ---------------------------------------------------------------------------
# The reference: wrappers that force the generic loop
# ---------------------------------------------------------------------------


class Plain:
    """Forwards the iterator interface to a container's own iterator;
    ``walk`` treats it as a user model and runs the plain loop."""

    def __init__(self, it: Any) -> None:
        self.it = it

    @property
    def container(self) -> Any:
        return self.it.container

    def clone(self) -> "Plain":
        return Plain(self.it.clone())

    def equals(self, other: "Plain") -> bool:
        return self.it.equals(other.it)

    def deref(self) -> Any:
        return self.it.deref()

    def increment(self) -> None:
        self.it.increment()


class PlainContainer:
    """A container whose ``begin``/``end`` hand out :class:`Plain`."""

    def __init__(self, c: Any) -> None:
        self.c = c

    def begin(self) -> Plain:
        return Plain(self.c.begin())

    def end(self) -> Plain:
        return Plain(self.c.end())


# ---------------------------------------------------------------------------
# Callbacks that mutate the walked container
# ---------------------------------------------------------------------------


class Boom(Exception):
    pass


def _iter_at(c: Any, j: int) -> Any:
    it = c.begin()
    for _ in range(j):
        it.increment()
    return it


class Mutator:
    """Called once per element the algorithm looks at; logs what it saw
    and, on calls ``at`` to ``at + times - 1``, applies ``kind`` to the
    walked container.  Positions and values come from a seeded stream,
    so both runs of a case make the same mutations.  With ``aim`` the
    positions written, inserted at or erased are those positions in
    turn (the walked range's bounds), not random ones."""

    def __init__(self, kind: str, c: Any, at: int, seed: int,
                 aim: tuple = (), times: int = 2) -> None:
        self.kind, self.c, self.at, self.times = kind, c, at, times
        self.aim = list(aim)
        self.rng = random.Random(seed)
        self.calls = 0
        self.seen: list = []

    def _position(self, n: int) -> int:
        if self.aim:
            return min(self.aim.pop(0), n - 1)
        return self.rng.randrange(n)

    def __call__(self, *values: Any) -> None:
        self.seen.append(values)
        k = self.calls
        self.calls += 1
        if not self.at <= k < self.at + self.times:
            return
        c, rng, n = self.c, self.rng, self.c.size()
        if self.kind == "write" and n:
            _iter_at(c, self._position(n)).set(rng.randrange(8))
        elif self.kind in ("push_back", "push_back_spare"):
            c.push_back(rng.randrange(8))
        elif self.kind == "insert":
            c.insert(_iter_at(c, self._position(n + 1)), rng.randrange(8))
        elif self.kind == "erase" and n:
            c.erase(_iter_at(c, self._position(n)))
        elif self.kind == "raise":
            raise Boom(f"callback raised at call {k}")


CALLBACKS = ("noop", "write", "push_back", "push_back_spare", "insert",
             "erase", "raise")


class Probe:
    """A sought value whose comparisons run the callback."""

    def __init__(self, value: Any, cb: Mutator) -> None:
        self.value, self.cb = value, cb

    def __eq__(self, other: Any) -> bool:
        self.cb(other)
        return other == self.value

    def __ne__(self, other: Any) -> bool:
        self.cb(other)
        return other != self.value

    __hash__ = None


class Sink:
    """Output iterator (``set``/``increment``) and back-insertion
    sequence (``push_back``) that logs values and runs the callback."""

    def __init__(self, cb: Mutator) -> None:
        self.cb = cb
        self.out: list = []

    def clone(self) -> "Sink":
        return self

    def set(self, value: Any) -> None:
        self.cb(value)
        self.out.append(value)

    push_back = set

    def increment(self) -> None:
        pass


# ---------------------------------------------------------------------------
# The algorithms, as (container, first, last, callback) -> result
# ---------------------------------------------------------------------------


def _second_range(cb: Mutator, values: list) -> Any:
    """Probes equal to ``values``, then a few extra for appended ones."""
    return Vector([Probe(v, cb) for v in values + [0] * 4]).begin()


ALGORITHMS: dict[str, Callable] = {
    "for_each": lambda c, f, l, cb, t: for_each(f, l, cb),
    "find": lambda c, f, l, cb, t: find(f, l, Probe(t, cb)),
    "find_if": lambda c, f, l, cb, t: find_if(
        f, l, lambda v: cb(v) or v == t),
    "count": lambda c, f, l, cb, t: count(f, l, Probe(t, cb)),
    "count_if": lambda c, f, l, cb, t: count_if(
        f, l, lambda v: cb(v) or v < t),
    "accumulate": lambda c, f, l, cb, t: accumulate(
        f, l, 0, lambda a, v: cb(v) or a + v),
    "equal": lambda c, f, l, cb, t: equal(f, l, _second_range(cb, t)),
    "max_element": lambda c, f, l, cb, t: max_element(
        f, l, lambda a, b: cb(a, b) or a < b),
    "min_element": lambda c, f, l, cb, t: min_element(
        f, l, lambda a, b: cb(a, b) or a < b),
    "copy": lambda c, f, l, cb, t: copy(f, l, Sink(cb)).out,
    "copy_into": lambda c, f, l, cb, t: _copy_into_elementwise(
        c, Sink(cb)).out,
}


def _describe(result: Any) -> Any:
    """A returned position, comparable across the two runs' containers."""
    if isinstance(result, Plain):
        result = result.it
    if isinstance(result, IndexIterator):
        return ("index", result.index, result.is_valid())
    if isinstance(result, NodeIterator):
        node, sentinel = result.node, result.container._sentinel
        at, k = sentinel.next, 0
        while at is not node and at is not sentinel:
            at, k = at.next, k + 1
        where = "end" if node is sentinel else (
            k if at is node else "detached")
        return ("node", where, result.is_valid())
    return result


def _run(backend: str, algorithm: str, items: list, kind: str, at: int,
         aimed: bool, span: tuple, plain: bool) -> dict:
    c = BACKENDS[backend](items)
    if kind == "push_back_spare":
        # Leave room so the callback's push_back does not reallocate.
        c.push_back(0)
        c.pop_back()
    cb = Mutator(kind, c, at, seed=len(items) * 31 + at,
                 aim=(span[1], span[0]) if aimed else ())
    first, last = _iter_at(c, span[0]), _iter_at(c, span[1])
    if plain:
        first, last = Plain(first), Plain(last)
        walked = PlainContainer(c)
    else:
        walked = c
    if algorithm == "equal":
        target = items[span[0]:]
    else:
        target = items[len(items) // 2] if items else 3
    try:
        outcome = ("ok", _describe(
            ALGORITHMS[algorithm](walked, first, last, cb, target)))
    except Exception as exc:                # noqa: BLE001 - compared below
        outcome = ("raised", type(exc), str(exc))
    record = {
        "outcome": outcome,
        "seen": cb.seen,
        "contents": c.to_list(),
        "epoch": c.epoch,
        "invalidation_events": c.invalidation_events,
    }
    c.close()
    return record


def _cases(seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for n in (0, 1, 17, 40):
        items = [rng.randrange(8) for _ in range(n)]
        spans = [(0, n)] + ([(n // 4, 3 * n // 4)] if n > 2 else [])
        for span in spans:
            for kind in CALLBACKS:
                for at in ((0,) if kind == "noop" else (0, 3, 18)):
                    cases.append((items, kind, at, False, span))
                    if kind in ("write", "insert", "erase"):
                        cases.append((items, kind, at, True, span))
    return cases


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_walk_matches_the_iterator_call_loop(backend, algorithm):
    for case in _cases(seed=len(backend) + len(algorithm)):
        fast = _run(backend, algorithm, *case, plain=False)
        ref = _run(backend, algorithm, *case, plain=True)
        assert fast == ref, (backend, algorithm, case)


# ---------------------------------------------------------------------------
# Branch selection and the chunk schedule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend,branch", [
    ("Vector", "_walk_facade"), ("Deque", "_walk_facade"),
    ("ContiguousVector", "_walk_facade"), ("SqliteSequence", "_walk_facade"),
    ("DList", "_walk_nodes"),
])
def test_builtin_iterators_take_their_family_branch(backend, branch):
    c = BACKENDS[backend]([1, 2, 3])
    assert walk(c.begin(), c.end()).__name__ == branch
    assert walk(Plain(c.begin()), Plain(c.end())).__name__ == "_walk_generic"
    c.close()


def test_patched_iterator_operations_take_the_generic_branch(monkeypatch):
    c = Vector([1, 2, 3])
    calls = []
    original = IndexIterator.deref

    def counting(self):
        calls.append(self.index)
        return original(self)

    monkeypatch.setattr(IndexIterator, "deref", counting)
    assert walk(c.begin(), c.end()).__name__ == "_walk_generic"
    assert accumulate(c.begin(), c.end(), 0) == 6
    assert calls == [0, 1, 2]


def _schedule_trips(upto: int) -> int:
    """Bulk reads a walk from position 0 makes to reach ``upto``."""
    trips, covered, size = 0, 0, WALK_CHUNK_FIRST
    while covered <= upto:
        covered += size
        trips += 1
        size = min(size * 2, WALK_CHUNK_CAP)
    return trips


@pytest.mark.parametrize("probe", [0, 15, 16, 47, 48, 999, 2500])
def test_sqlite_scan_reads_in_doubling_chunks(probe):
    s = SqliteSequence(range(3000))
    store = s.storage()
    before = store.roundtrips
    it = find(s.begin(), s.end(), probe)
    assert store.roundtrips - before == _schedule_trips(probe)
    assert it.index == probe
    s.close()


def test_a_write_restarts_the_schedule_and_is_seen():
    s = SqliteSequence(range(100))
    seen = []

    def write_ahead(v):
        seen.append(v)
        if v == 20:
            s.set_at(21, -1)

    for_each(s.begin(), s.end(), write_ahead)
    assert seen[:23] == list(range(21)) + [-1, 22]
    s.close()


# ---------------------------------------------------------------------------
# DequeStorage.slice
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 5, 9])
def test_deque_slice_matches_list_slicing(n):
    d = DequeStorage(range(100, 100 + n))
    for start in range(n + 3):
        for stop in range(start, n + 3):
            assert d.slice(start, stop) == list(d)[start:stop], (start, stop)


# ---------------------------------------------------------------------------
# Semantic archetypes still see every operation
# ---------------------------------------------------------------------------

#: ``check_traversal_requirement`` before the algorithms read through
#: ``walk``; the archetypes' iterators take its generic branch, so the
#: answers must not move.
ARCHETYPE_ANSWERS = {
    "for_each": ("input iterator", lambda f, l: for_each(
        f, l, lambda v: None)),
    "find": ("input iterator", lambda f, l: find(f, l, 4)),
    "find_if": ("input iterator", lambda f, l: find_if(f, l, bool)),
    "count": ("input iterator", lambda f, l: count(f, l, 1)),
    "count_if": ("input iterator", lambda f, l: count_if(f, l, bool)),
    "accumulate": ("input iterator", lambda f, l: accumulate(f, l, 0)),
    "equal": ("input iterator", lambda f, l: equal(
        f, l, Vector([3, 1, 4, 1, 5, 9, 2, 6]).begin())),
    "max_element": ("forward iterator", max_element),
    "min_element": ("forward iterator", min_element),
    "copy": ("input iterator", lambda f, l: copy(
        f, l, Vector([0] * 8).begin())),
}


@pytest.mark.parametrize("name", sorted(ARCHETYPE_ANSWERS))
def test_archetype_answers_are_unchanged(name):
    want, algorithm = ARCHETYPE_ANSWERS[name]
    assert check_traversal_requirement(algorithm) == want


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_range_that_never_meets_last_fails_alike(backend):
    # copy does not require [first, last) to share a container: walking
    # one container towards another's end runs off the end.
    def run(plain: bool) -> tuple:
        c, other = BACKENDS[backend]([1, 2, 3]), BACKENDS[backend]([4])
        first, last = c.begin(), other.end()
        if plain:
            first, last = Plain(first), Plain(last)
        sink = Sink(Mutator("noop", c, 0, seed=0))
        with pytest.raises(Exception) as info:
            copy(first, last, sink)
        return type(info.value), str(info.value), sink.out

    assert run(plain=False) == run(plain=True)
    assert run(plain=False)[:2] == (
        PastTheEndError, "attempt to dereference a past-the-end iterator")
