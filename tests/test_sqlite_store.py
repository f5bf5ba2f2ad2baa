"""``SqliteStorage`` keeps its keys consecutive and moves values.

A differential oracle drives seeded streams of insert, erase, set,
push_back and sort through a :class:`SqliteSequence` and a plain list and
compares them exactly: by type and sign of zero, not just ``==``, since
sqlite's ``=`` makes ``1`` and ``1.0``, and ``0.0`` and ``-0.0``, one
value.  A second oracle checks the reads sqlite answers in its engine
(``find_in`` and ``indexed_find`` through the value index, ``accumulate``
as one ``SUM``) against the same calls on a :class:`Vector` of the same
values.  A third kills a writer process at a seeded statement and checks
that the reopened file holds the last flush, facts included.  Around
them: the number of statements per write, and per engine read, does not
grow with n; insert and erase change only the rows on the shorter side;
a value sqlite cannot bind is refused before any write; the file layout
is the one every earlier version wrote and read; and an SQLite older
than the statements need is refused by name.
"""

import itertools
import json
import math
import os
import random
import signal
import sqlite3
import traceback
from fractions import Fraction

import pytest

from repro.sequences import Vector
from repro.sequences.algorithms import (accumulate, find, find_in,
                                        indexed_find, sort)
from repro.sequences.backends import SqliteSequence, SqliteStorage
from repro.sequences.backends import sqlite_store
from repro.sequences.iterators import IndexIterator
from repro.sequences.storage import FACT_VALIDATORS, StorageError

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


def consecutive(keys):
    return keys == list(range(keys[0], keys[0] + len(keys))) if keys else True


def committed_rows(path):
    """The rows another connection reads: what a crash would leave."""
    conn = sqlite3.connect(path)
    rows = conn.execute("SELECT pos, value FROM seq ORDER BY pos").fetchall()
    conn.close()
    return rows


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
        assert consecutive(positions(s)), where
        if path != ":memory:" and step % reopen_every == reopen_every - 1:
            facts = s.facts
            s.close()
            rows = committed_rows(path)
            assert [p for p, _ in rows] == list(range(len(model))), where
            assert exact([v for _, v in rows]) == exact(model), where
            s = SqliteSequence(path=path)
            assert positions(s) == list(range(len(model))), where
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
    # A sequence with no descent is not written, so zeros of either sign
    # (SQL cannot tell 0.0 from -0.0) keep their rows too.
    store = SqliteStorage([-2.5, -2.5, 1.0, 1.0, 3.25, 3.25])
    assert not store.backend_sort()
    zeros = [-1.0, -0.0, 0.0, -0.0, 2.0]
    store = SqliteStorage(zeros)
    before = store._conn.total_changes
    assert not store.backend_sort()
    assert store._conn.total_changes - before == 0
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
    # After a flush, an erase's shift and its delete must land together,
    # or a crash between them would leave n rows with one value lost and
    # the last one doubled.
    path = str(tmp_path / "seq.db")
    s = SqliteSequence([5, 3, 8, 1, 9, 2], path=path)
    sort(s)
    s.flush()
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


def _cost(store, write):
    """Round trips and rows changed by ``write()``."""
    trips, changes = store.roundtrips, store._conn.total_changes
    write()
    return store.roundtrips - trips, store._conn.total_changes - changes


@pytest.mark.parametrize("i", [0, 10, 500, 989, 999])
def test_erase_and_insert_change_only_the_shorter_side(i):
    # erase(i) from n rows, then its inverse insert(i) back to n rows:
    # each moves the values on the shorter side of i, and writes one
    # more row (the key it drops, or the value it puts).
    n = 1000
    store = SqliteStorage(range(n))
    bound = min(i, n - 1 - i) + 1
    assert _cost(store, lambda: store.erase(i))[1] <= bound
    assert _cost(store, lambda: store.insert(i, -1))[1] <= bound
    assert store.slice(0, n) == list(range(i)) + [-1] + list(range(i + 1, n))
    store.close()


def test_a_sort_takes_two_trips_and_a_sorted_one_writes_nothing():
    s = SqliteSequence(random.Random(3).choices(range(50), k=1000))
    store = s.storage()
    assert _cost(store, lambda: sort(s))[0] == 2
    assert _cost(store, store.backend_sort) == (1, 0)
    # The fact sort recorded costs the next write no trip of its own.
    assert _cost(store, lambda: s.push_back(7))[0] == 1
    sort(s)
    assert _cost(store, lambda: s.set_at(0, 99))[0] == 1
    assert not s.has_fact("sorted")
    s.close()


def test_keys_near_the_ceiling_are_renumbered_before_a_sort(monkeypatch):
    # Each sort moves the keys up by n; past the largest rowid sqlite
    # would pick them at random, so they start again from 0 first.
    monkeypatch.setattr(sqlite_store, "KEY_CEILING", 100)
    rng = random.Random(5)
    xs = rng.choices(range(30), k=30)
    s = SqliteSequence(xs)
    for _ in range(8):
        s.set_at(rng.randrange(30), rng.randrange(30))
        sort(s)
        keys = positions(s)
        assert keys[-1] < 100 and consecutive(keys), keys
        assert s.to_list() == sorted(s.to_list())
    s.close()


# ---------------------------------------------------------------------------
# A crash keeps the last flush: kill a writer, reopen its file
# ---------------------------------------------------------------------------

#: Writer processes killed, one at a time, each at its own statement.
KILLS = 30
#: The exit status of a writer killed at its statement.
KILLED = 86


def _write_script(seed, path, flushed):
    """A seeded stream of writes on the file store at ``path``.  After
    each flush it calls ``flushed(model, facts)`` with a plain-list model
    of the contents and the façade's facts."""
    rng = random.Random(seed)
    s = SqliteSequence(path=path)
    model = s.to_list()
    for _ in range(40):
        op = rng.choice(("insert", "insert", "erase", "erase", "set",
                         "push_back", "sort", "flush"))
        if op in ("erase", "set") and not model:
            op = "push_back"
        i, v = rng.randrange(len(model) + 1), rng.randrange(20)
        if op == "insert":
            s.insert(s.iterator(s, i), v)
            model.insert(i, v)
        elif op in ("erase", "set"):
            i = min(i, len(model) - 1)
            if op == "erase":
                s.erase(s.iterator(s, i))
                del model[i]
            else:
                s.set_at(i, v)
                model[i] = v
        elif op == "push_back":
            s.push_back(v)
            model.append(v)
        elif op == "sort":
            sort(s)
            model.sort()
        else:
            s.flush()
            flushed(model, s.facts)
    s.close()
    flushed(model, s.facts)


def _killed_writer(seed, path, kill_at):
    """Run the script in a forked child that calls ``os._exit`` just before
    its ``kill_at``-th statement.  The exit status and the states the child
    reported flushed, in order."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            # A child stuck on a lock some thread held at the fork dies
            # here, and the parent sees its status instead of waiting.
            signal.alarm(30)
            os.close(read_end)
            report = os.fdopen(write_end, "w")
            statements, execute = itertools.count(1), SqliteStorage._execute

            def dying(self, *args, **kwargs):
                if next(statements) == kill_at:
                    os._exit(KILLED)
                return execute(self, *args, **kwargs)

            SqliteStorage._execute = dying
            _write_script(seed, path, lambda model, facts: (
                report.write(json.dumps([model, sorted(facts)]) + "\n"),
                report.flush()))
            status = 0
        except BaseException:    # noqa: BLE001 - reported by exit status
            traceback.print_exc()
        os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as report:
        states = [json.loads(line) for line in report]
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), states


def _statements(seed, path):
    """How many statements the script makes, run here to the end."""
    store_execute, count = SqliteStorage._execute, itertools.count()

    def counting(self, *args, **kwargs):
        next(count)
        return store_execute(self, *args, **kwargs)

    SqliteStorage._execute = counting
    try:
        _write_script(seed, path, lambda model, facts: None)
    finally:
        SqliteStorage._execute = store_execute
    return next(count)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_killed_writer_leaves_its_last_flush(tmp_path):
    for seed in range(KILLS):
        rng = random.Random(seed)
        initial = rng.choices(range(20), k=rng.randrange(25))
        paths = [str(tmp_path / f"{seed}-{k}.db") for k in (0, 1)]
        for path in paths:
            SqliteSequence(initial, path=path).close()
        kill_at = rng.randrange(1, _statements(seed, paths[1]) + 1)
        status, states = _killed_writer(seed, paths[0], kill_at)
        case = (seed, kill_at, states[-1:])
        assert status == KILLED, case
        model, facts = states[-1] if states else (initial, [])
        conn = sqlite3.connect(paths[0])
        assert conn.execute("PRAGMA quick_check").fetchone() == ("ok",), case
        rows = conn.execute("SELECT pos, value FROM seq ORDER BY pos").fetchall()
        stored = sorted(n for (n,) in conn.execute("SELECT name FROM facts"))
        conn.close()
        assert rows == list(enumerate(model)), case
        assert stored == facts, case
        s = SqliteSequence(path=paths[0])
        assert sorted(s.facts) == stored, case
        for name in stored:
            assert FACT_VALIDATORS.get(name, lambda c: True)(s), case
        s.close()


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
