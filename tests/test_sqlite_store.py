"""``SqliteStorage`` keeps every row at its position and moves values.

A differential oracle drives seeded streams of insert, erase, set,
push_back and sort through a :class:`SqliteSequence` and a plain list and
compares them exactly: by type and sign of zero, not just ``==``, since
sqlite's ``=`` makes ``1`` and ``1.0``, and ``0.0`` and ``-0.0``, one
value.  A second oracle checks the reads sqlite answers in its engine
(``find_in`` and ``indexed_find`` through the value index, ``accumulate``
as one ``SUM``) against the same calls on a :class:`Vector` of the same
values.  Around them: the number of statements per write, and per engine
read, does not grow with n; a value sqlite cannot bind is refused before
any write; the file layout is the one every earlier version wrote and
read; and an SQLite older than the statements need is refused by name.
"""

import math
import random
import sqlite3
from fractions import Fraction

import pytest

from repro.sequences import Vector
from repro.sequences.algorithms import (accumulate, find, find_in,
                                        indexed_find, sort)
from repro.sequences.backends import SqliteSequence, SqliteStorage
from repro.sequences.iterators import IndexIterator
from repro.sequences.storage import StorageError

#: Values sqlite tells apart only by storage class or by sign: 1 / 1.0,
#: 0.0 / -0.0, 'a' / b'a', and None.  True is refused: sqlite has no
#: boolean and would hand it back as the integer 1.
MIXED = (1, 1.0, True, 0, 0.0, -0.0, -1.0, 2, 2.5, "a", "b", b"a", b"",
         None)

#: sqlite's order of storage classes: NULL, numbers, text, blobs.
_CLASS_RANK = {type(None): 0, int: 1, float: 1, str: 2, bytes: 3}


def exact(xs):
    """Values by type and ``repr``: ``1 != 1.0`` and ``0.0 != -0.0``."""
    return [(type(v).__name__, repr(v)) for v in xs]


def sql_sorted(xs):
    """``ORDER BY value, pos``: by storage class, then value, ties kept
    in position order (``sorted`` is stable)."""
    return sorted(xs, key=lambda v: (_CLASS_RANK[type(v)],
                                     0 if v is None else v))


def positions(s):
    conn = s.storage()._conn
    return [p for (p,) in conn.execute("SELECT pos FROM seq ORDER BY pos")]


def run_stream(seed, path, steps=150, reopen_every=7):
    rng = random.Random(seed)
    raw = [rng.choice(MIXED) for _ in range(rng.randrange(12))]
    raw = [v for v in raw if not isinstance(v, bool)]
    s = SqliteSequence(raw, path=path)
    model = list(raw)
    ops = ("insert", "insert", "erase", "erase", "set", "push_back", "sort")
    for step in range(steps):
        op = rng.choice(ops)
        if op in ("erase", "set") and not model:
            op = "push_back"
        v = rng.choice(MIXED)
        if op in ("insert", "set", "push_back") and isinstance(v, bool):
            # Refused before any write: the model stays as it is.
            i = rng.randrange(len(model) + (op != "set"))
            with pytest.raises(StorageError):
                if op == "insert":
                    s.insert(s.iterator(s, i), v)
                elif op == "set":
                    s.set_at(i, v)
                else:
                    s.push_back(v)
        elif op == "insert":
            i = rng.randrange(len(model) + 1)
            s.insert(s.iterator(s, i), v)
            model.insert(i, v)
        elif op == "erase":
            i = rng.randrange(len(model))
            s.erase(s.iterator(s, i))
            del model[i]
        elif op == "set":
            i = rng.randrange(len(model))
            s.set_at(i, v)
            model[i] = v
        elif op == "push_back":
            s.push_back(v)
            model.append(v)
        else:
            sort(s)
            model = sql_sorted(model)
            assert s.has_fact("sorted")
        where = f"seed {seed} step {step} {op}"
        assert exact(s.to_list()) == exact(model), where
        assert positions(s) == list(range(len(model))), where
        if path != ":memory:" and step % reopen_every == reopen_every - 1:
            facts = s.facts
            s.close()
            s = SqliteSequence(path=path)
            assert s.facts == facts, where
            assert exact(s.to_list()) == exact(model), where
    s.close()


@pytest.mark.parametrize("seed", range(6))
def test_oracle_in_memory(seed):
    run_stream(seed, ":memory:")


@pytest.mark.parametrize("seed", range(4))
def test_oracle_on_file_with_reopens(seed, tmp_path):
    run_stream(seed, str(tmp_path / "seq.db"))


def test_a_bool_is_refused_but_may_be_sought():
    with pytest.raises(StorageError):
        SqliteSequence([1, True])
    s = SqliteSequence([2, 1, 0])
    sort(s)
    # The optimizer turns find on a sorted sqlite sequence into
    # indexed_find, so both must find 1 for True, as Python's == does.
    assert indexed_find(s, True).deref() == 1
    assert find(s.begin(), s.end(), True).deref() == 1


def test_sort_keeps_signed_zeros_and_storage_classes():
    # Sorting must not skip a row whose stored value is merely equal:
    # 0.0 = -0.0 and 1 = 1.0 in SQL, but they are different values.
    for xs in ([0.0, -0.0, -1.0], [-0.0, 0.0, -1.0], [1.0, 1, 0],
               [1, 1.0, 0], ["a", b"a", None, 2, 1.0, 1]):
        s = SqliteSequence(xs)
        sort(s)
        assert exact(s.to_list()) == exact(sql_sorted(xs)), xs


def test_resorting_sorted_reals_changes_rows_only_at_zero():
    # Equal nonzero doubles are identical, so their rows are skipped; a
    # real zero is rewritten (SQL cannot tell 0.0 from -0.0) unchanged.
    store = SqliteStorage([-2.5, -2.5, 1.0, 1.0, 3.25, 3.25])
    assert not store.backend_sort()
    zeros = [-1.0, -0.0, 0.0, -0.0, 2.0]
    store = SqliteStorage(zeros)
    before = store._conn.total_changes
    assert store.backend_sort()
    assert store._conn.total_changes - before == 3
    assert exact(store.slice(0, 5)) == exact(zeros)


# ---------------------------------------------------------------------------
# Reads answered in the engine: the value index and SUM, against a Vector
# ---------------------------------------------------------------------------

#: Stored values: ints up to the 64-bit edges, floats with signed zeros,
#: infinities, NaN (stored as NULL) and doubles at 2**53 and 2**63, text
#: (some of it looking like numbers, which sqlite's ``SUM`` reads as
#: such), blobs and None.
STORED = (0, 1, 2, -3, 2 ** 53, 2 ** 63 - 1, -2 ** 63, 0.0, -0.0, 1.0, 2.5,
          2.0 ** 53, float(2 ** 63), math.inf, -math.inf, math.nan, "a",
          "", "\u00e9", "5", "-3", "007", "1e3", b"a", b"", None)
#: Sought values: the stored ones, and those SQL's ``=`` cannot answer
#: for as ``==`` does, or that sqlite cannot bind.
SOUGHT = STORED + (True, False, 2 ** 63, -2 ** 63 - 1, 2 ** 53 + 1,
                   Fraction(2), Fraction(1, 2), "\udc80", 7, "zz", b"zz")


def _outcome(call):
    try:
        result = call()
    except Exception as exc:            # noqa: BLE001 - compared below
        return ("raised", type(exc), str(exc))
    if isinstance(result, IndexIterator):
        return ("at", result.index, result.is_valid())
    return ("value", type(result).__name__, repr(result))


def _reads(c, first, last, value):
    """The engine reads on ``c`` over positions ``[first, last)``."""
    def at(k):
        return c.iterator(c, k)

    yield "find_in", lambda: find_in(c, value)
    yield "indexed_find", lambda: indexed_find(c, value)
    yield "indexed_find range", lambda: indexed_find(at(first), at(last),
                                                     value)
    for init in (0, 5, 0.0, True):
        yield f"accumulate {init!r}", lambda init=init: accumulate(
            at(first), at(last), init)


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_engine_reads_answer_as_a_vector_does(seed, ordered):
    rng = random.Random(seed)
    for n in (0, 1, 5, 30):
        s = SqliteSequence(rng.choice(STORED) for _ in range(n))
        if ordered:
            sort(s)
        v = Vector(s.to_list())
        for value in rng.sample(SOUGHT, 12):
            first = rng.randrange(n + 1)
            last = rng.randrange(first, n + 1)
            for (name, fast), (_, ref) in zip(_reads(s, first, last, value),
                                              _reads(v, first, last, value)):
                epochs = s.epoch, v.epoch
                case = (seed, ordered, s.to_list(), value, first, last, name)
                assert _outcome(fast) == _outcome(ref), case
                assert (s.epoch, v.epoch) == epochs, case
                assert exact(s.to_list()) == exact(v.to_list()), case
        s.close()


def test_a_sum_past_64_bits_runs_the_loop():
    # sqlite's SUM stops with "integer overflow"; the loop reads the
    # range in one more round trip and sums it exactly.
    xs = [2 ** 63 - 1] * 5 + [-2 ** 63] * 2 + [7]
    s = SqliteSequence(xs)
    before = s.storage().roundtrips
    assert accumulate(s.begin(), s.end(), 2 ** 70) == 2 ** 70 + sum(xs)
    assert s.storage().roundtrips - before == 2
    s.close()


@pytest.mark.parametrize("stored", [["5", 1], [1, "-3"], ["007"], ["1e3"]])
def test_a_sum_over_numeric_text_raises_as_a_vector_does(stored):
    # sqlite's SUM adds a TEXT '5' in as 5; Python's + refuses a str.
    s = SqliteSequence(stored)
    before = s.storage().roundtrips
    for c in (s, Vector(stored)):
        with pytest.raises(TypeError):
            accumulate(c.begin(), c.end(), 0)
    # One trip finds a row that is not an INTEGER, one more the loop's.
    assert s.storage().roundtrips - before == 2
    s.close()


@pytest.mark.parametrize("stored,value,expected", [
    ([1, 2, 3], Fraction(2), 1),
    ([float(2 ** 63)], 2 ** 63, 0),
    (["a", "b"], "\udc80", 2),
])
def test_indexed_find_answers_as_the_scan_where_sqlite_cannot_bind(
        stored, value, expected):
    s = SqliteSequence(stored)
    sort(s)
    assert indexed_find(s, value).index == expected
    assert find(s.begin(), s.end(), value).index == expected
    s.close()


@pytest.mark.parametrize("value", [None, 0.0])
def test_find_in_on_a_sorted_sequence_finds_none_and_zero(value):
    # None is sought with IS NULL; -0.0 and 0 equal 0.0.
    s = SqliteSequence([1, None, -0.0, None, 0])
    sort(s)
    assert find_in(s, value).index == s.to_list().index(value)
    s.close()


@pytest.mark.parametrize("n", [16, 1000])
def test_engine_reads_take_one_round_trip(n):
    xs = random.Random(n).choices(range(50), k=n)
    s = SqliteSequence(xs)
    assert not s.has_fact("sorted")
    store = s.storage()
    for call, expected in (
            (lambda: find_in(s, xs[n // 2]).index, xs.index(xs[n // 2])),
            (lambda: find_in(s, 99).index, n),
            (lambda: accumulate(s.begin(), s.end(), 0), sum(xs))):
        before = store.roundtrips
        assert call() == expected
        assert store.roundtrips - before == 1
    s.close()


@pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1, "\udc80"])
def test_a_value_sqlite_cannot_bind_is_refused_before_any_write(value):
    s = SqliteSequence([1, "a"])
    for write in (lambda: s.push_back(value),
                  lambda: s.insert(s.begin(), value),
                  lambda: s.set_at(0, value)):
        with pytest.raises(StorageError):
            write()
        assert s.to_list() == [1, "a"] and s.epoch == 0
    s.close()


def test_extend_stores_the_storable_prefix_in_one_round_trip():
    store = SqliteStorage()
    before = store.roundtrips
    store.extend(range(1000))
    assert store.roundtrips - before == 1
    assert store.length() == 1000 and store.slice(998, 1000) == [998, 999]
    with pytest.raises(StorageError):
        store.extend([5, 6, 2 ** 64, 7])
    assert store.length() == 1002 and store.slice(999, 1002) == [999, 5, 6]
    store.close()


def test_extend_streams_its_input():
    # Value k is asked for after k rows went in: no list of the input
    # is built first, and an error from the input keeps what went in.
    store = SqliteStorage()
    seen = []

    def values():
        for k in range(5):
            seen.append(store.length())
            yield k
        raise ValueError("input failed")

    with pytest.raises(ValueError, match="input failed"):
        store.extend(values())
    assert seen == [0, 1, 2, 3, 4]
    assert store.length() == 5 and store.slice(0, 5) == [0, 1, 2, 3, 4]
    before = store.roundtrips
    store.extend(iter(()))
    assert store.roundtrips == before
    store.close()


# ---------------------------------------------------------------------------
# A move commits with the writes around it, never on its own
# ---------------------------------------------------------------------------

#: The three writes that move values, on a store of n elements.
WRITES = {
    "erase": lambda store, n: store.erase(n // 2),
    "insert": lambda store, n: store.insert(n // 2, -1),
    "backend_sort": lambda store, n: store.backend_sort(),
}


def committed_rows(path):
    """The rows another connection reads: what a crash would leave."""
    conn = sqlite3.connect(path)
    rows = conn.execute("SELECT pos, value FROM seq ORDER BY pos").fetchall()
    conn.close()
    return rows


@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_move_after_a_commit_stays_uncommitted(write, tmp_path):
    path = str(tmp_path / "seq.db")
    store = SqliteStorage([3, 1, 4, 1, 5, 9, 2, 6], path=path)
    store.flush()
    assert not store._conn.in_transaction
    before = committed_rows(path)
    WRITES[write](store, 8)
    assert store._conn.in_transaction
    assert committed_rows(path) == before
    after = [v for (v,) in store._conn.execute(
        "SELECT value FROM seq ORDER BY pos")]
    store.close()
    assert [v for _, v in committed_rows(path)] == after != [
        v for _, v in before]


def test_an_erase_after_sort_is_all_or_nothing_on_file(tmp_path):
    # sort commits its fact; a following erase's shift and its delete
    # must still land together, or a crash between them would leave n
    # rows with one value lost and the last one doubled.
    path = str(tmp_path / "seq.db")
    s = SqliteSequence([5, 3, 8, 1, 9, 2], path=path)
    sort(s)
    before = committed_rows(path)
    assert [v for _, v in before] == [1, 2, 3, 5, 8, 9]
    s.erase(s.iterator(s, 1))
    assert s.storage()._conn.in_transaction
    assert committed_rows(path) == before
    s.close()
    assert committed_rows(path) == [(0, 1), (1, 3), (2, 5), (3, 8), (4, 9)]


# ---------------------------------------------------------------------------
# Shape: each write is a fixed number of statements, whatever n is
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("write", sorted(WRITES))
def test_statements_per_write_do_not_grow_with_n(write):
    trips = []
    for n in (16, 1000):
        store = SqliteStorage(random.Random(n).choices(range(50), k=n))
        before = store.roundtrips
        WRITES[write](store, n)
        trips.append(store.roundtrips - before)
        store.close()
    assert trips[0] == trips[1] <= 2, trips


# ---------------------------------------------------------------------------
# The file layout is unchanged
# ---------------------------------------------------------------------------


def _schema(conn):
    return conn.execute(
        "SELECT type, name, tbl_name, sql FROM sqlite_master ORDER BY name"
    ).fetchall()


def test_layout_is_read_and_written_as_before(tmp_path):
    # The layout as every earlier version wrote it, through raw sqlite3.
    path = str(tmp_path / "seq.db")
    xs = [0, 1, 1.0, 2, 2.5, 3, "a", b"a"]
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE seq (pos INTEGER PRIMARY KEY, value)")
    conn.execute("CREATE INDEX seq_value ON seq(value)")
    conn.execute("CREATE TABLE facts (name TEXT PRIMARY KEY)")
    conn.executemany("INSERT INTO seq (pos, value) VALUES (?, ?)",
                     enumerate(xs))
    conn.execute("INSERT INTO facts (name) VALUES ('sorted')")
    conn.commit()
    schema = _schema(conn)
    conn.close()

    s = SqliteSequence(path=path)
    assert exact(s.to_list()) == exact(xs)
    assert s.has_fact("sorted")
    s.insert(s.iterator(s, 2), -0.0)
    s.erase(s.iterator(s, 5))
    s.push_back(None)
    sort(s)
    model = sql_sorted([0, 1, -0.0, 1.0, 2, 3, "a", b"a", None])
    facts = s.facts
    s.close()

    # What this version leaves is what an earlier one reads back.
    conn = sqlite3.connect(path)
    assert _schema(conn) == schema
    rows = conn.execute("SELECT pos, value FROM seq ORDER BY pos").fetchall()
    assert [p for p, _ in rows] == list(range(len(model)))
    assert exact([v for _, v in rows]) == exact(model)
    stored_facts = {n for (n,) in conn.execute("SELECT name FROM facts")}
    conn.close()
    assert "sorted" in stored_facts and stored_facts == set(facts)


# ---------------------------------------------------------------------------
# The SQLite floor
# ---------------------------------------------------------------------------


def test_an_sqlite_below_the_floor_is_refused_by_name(monkeypatch):
    monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 31, 1))
    monkeypatch.setattr(sqlite3, "sqlite_version", "3.31.1")
    with pytest.raises(StorageError, match=r"SQLite >= 3\.35 .*3\.31\.1"):
        SqliteSequence([1, 2, 3])
