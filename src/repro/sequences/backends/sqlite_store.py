"""A sqlite-backed persistent sequence backend.

The representation behind the Persistent Container concept: elements live
in a sqlite table keyed by position, with a value index that gives
the backend an O(log n), single-round-trip lookup path — the concrete
payoff the io/cpu cost split in the taxonomy routes ``find`` to when the
sequence is sorted, and that ``find_in`` takes in any order.  A sum of
integers is one round trip too (:meth:`SqliteStorage.sum_integers`).

One commit rule covers elements and *facts*: they commit together, at
``flush()`` or ``close()`` only, so a crash keeps the last flush.  The
commit writes the façade's fact set (``sorted`` et al.) to a side table
and renumbers the keys to ``0..n-1``, the layout every earlier version
read.  On reopen, cheaply checkable facts are **revalidated** first — a
stale ``sorted`` fact on a file someone else mutated is dropped.

A corrupt or unreadable file degrades to :class:`~repro.sequences.
storage.StorageError`, and the module's tiny CLI turns that into the
repo-wide exit-code contract (0 clean / 2 usage / 3 cannot open) instead
of a traceback::

    python -m repro.sequences.backends.sqlite_store data.db
"""

from __future__ import annotations

import itertools
import sqlite3
import sys
from typing import Any, ClassVar, Iterable, Iterator, Optional

from ...concepts import models as _models
from ...concepts.builtins import (
    BackInsertionSequence,
    PersistentContainer,
    RandomAccessContainer,
    Sequence,
)
from ...concepts.complexity import logarithmic
from ..storage import Storage, StorageCapabilities, StorageError
from ..vector import Vector, VectorIterator

#: Value types sqlite can store natively; anything else is rejected up
#: front so the failure mode is a StorageError, not a late adapter error.
#: ``bool`` is refused too, though an ``int``: sqlite would read True as 1.
_STORABLE = (type(None), int, float, str, bytes)
#: Sought values whose ``value = ?`` in SQL is Python's ``==`` against
#: every value the store can hold, if sqlite can bind them (:func:`_binds`):
#: sqlite compares an INTEGER with a REAL exactly, a bool binds as the int
#: it equals, NaN binds as NULL (which ``=`` never matches, as NaN equals
#: nothing), and a number, a TEXT and a BLOB never equal one another.
_PROBED = (int, float, bool, str, bytes)
#: Upserts need SQLite 3.24 and ``AS MATERIALIZED`` 3.35.
SQLITE_FLOOR = (3, 35)
#: A sort appends n keys past the last; renumber before they pass this.
#: Past the largest rowid, sqlite picks new ones at random.
KEY_CEILING = 2 ** 62
#: A row sorts before its predecessor (``ORDER BY`` puts NULL first).
_DESCENT = ("EXISTS (SELECT 1 FROM seq a JOIN seq b ON b.pos = a.pos + 1 WHERE"
            " b.value < a.value OR b.value IS NULL AND a.value IS NOT NULL)")


def _binds(value: Any) -> bool:
    """Does sqlite bind ``value`` without an error?  Not an ``int`` outside
    64 bits, nor a ``str`` that does not encode to UTF-8."""
    if isinstance(value, int):
        return -2 ** 63 <= value < 2 ** 63
    if isinstance(value, str):
        try:
            value.encode()
        except UnicodeEncodeError:
            return False
    return True


class SqliteStorage(Storage):
    """Elements in a sqlite table ``seq(pos INTEGER PRIMARY KEY, value)``,
    plus a ``facts(name TEXT PRIMARY KEY)`` side table.  Position ``i`` is
    key ``base + i``: insert and erase shift the values on the shorter
    side of ``i``, a sort appends the sorted rows under fresh keys, and a
    commit renumbers the keys to ``0..n-1``.  Every operation is one or a
    few SQL round trips, counted in :attr:`roundtrips` so the backend
    tests and bench can verify that the indexed path really does O(1)
    trips where a scan does n."""

    capabilities = StorageCapabilities(
        name="sqlite", contiguous=False, persistent=True,
        random_access=logarithmic(), io_cost_per_op=8.0,
    )

    def __init__(self, items: Iterable[Any] = (), *,
                 path: str = ":memory:") -> None:
        self._path = path
        self._closed = False
        #: SQL round trips performed, for io-cost assertions.
        self.roundtrips = 0
        if sqlite3.sqlite_version_info < SQLITE_FLOOR:
            raise StorageError("sqlite store needs SQLite >= %d.%d (upsert, "
                               "MATERIALIZED), found %s" % (
                                   *SQLITE_FLOOR, sqlite3.sqlite_version))
        #: The key of position 0; the façade's facts; the facts table's.
        self._base, self._facts = 0, frozenset()
        self._stored_facts = self._facts
        try:
            self._conn = sqlite3.connect(path)
            # quick_check walks the file's btrees, so a truncated or
            # scribbled-on database fails here, at open, with one clean
            # error instead of arbitrarily later.
            status = self._conn.execute("PRAGMA quick_check").fetchone()
            if status is None or status[0] != "ok":
                raise StorageError(
                    f"sqlite store {path!r} failed integrity check: "
                    f"{status[0] if status else 'no result'}"
                )
            self._conn.execute("CREATE TABLE IF NOT EXISTS seq "
                               "(pos INTEGER PRIMARY KEY, value)")
            self._conn.execute("CREATE INDEX IF NOT EXISTS seq_value "
                               "ON seq(value)")
            self._conn.execute("CREATE TABLE IF NOT EXISTS facts "
                               "(name TEXT PRIMARY KEY)")
            self._len = self._conn.execute(
                "SELECT COUNT(*) FROM seq").fetchone()[0]
        except sqlite3.Error as exc:
            raise StorageError(
                f"cannot open sqlite store {path!r}: {exc}"
            ) from exc
        self.extend(items)

    # -- plumbing -----------------------------------------------------------------

    def _execute(self, sql: str, params: Any = (),
                 many: bool = False) -> sqlite3.Cursor:
        """One round trip: ``sql`` with ``params``, or with each of them
        (``executemany``) if ``many``."""
        if self._closed:
            raise StorageError(f"sqlite store {self._path!r} is closed")
        self.roundtrips += 1
        try:
            if many:
                return self._conn.executemany(sql, params)
            return self._conn.execute(sql, params)
        except sqlite3.Error as exc:
            raise StorageError(
                f"sqlite store {self._path!r}: {exc}"
            ) from exc

    @staticmethod
    def _check_storable(value: Any) -> Any:
        if isinstance(value, bool) or not isinstance(value, _STORABLE):
            raise StorageError(
                f"value of type {type(value).__name__} is not storable "
                f"in a sqlite-backed sequence (use int/float/str/bytes)"
            )
        if not _binds(value):
            raise StorageError(
                f"{type(value).__name__} {value!r:.60} is not storable in a "
                f"sqlite-backed sequence (outside 64-bit INTEGER or UTF-8)")
        return value

    # -- index protocol -----------------------------------------------------------

    def length(self) -> int:
        return self._len

    def _key(self, index: int) -> int:
        """The key of position ``index``, or IndexError before any write."""
        if not 0 <= index < self._len:
            raise IndexError(f"sqlite store position {index} out of range")
        return self._base + index

    def get(self, index: int) -> Any:
        return self._execute("SELECT value FROM seq WHERE pos = ?",
                             (self._key(index),)).fetchone()[0]

    def set(self, index: int, value: Any) -> None:
        self._execute("UPDATE seq SET value = ? WHERE pos = ?",
                      (self._check_storable(value), self._key(index)))

    def _shift(self, first: int, last: int, step: int, *put: Any) -> None:
        """Move the values of keys ``[first, last)`` by ``step`` keys, and
        give key ``put[0]`` the value ``put[1]`` if given, in one upsert
        that reads every value before its first write."""
        if first >= last and not put:
            return
        if not self._closed and not self._conn.in_transaction:
            self._conn.execute("BEGIN")     # sqlite3 begins none for WITH
        self._execute("WITH t (p, v) AS MATERIALIZED (SELECT pos + ?, value "
                      "FROM seq WHERE pos >= ? AND pos < ?"
                      + " UNION ALL VALUES (?, ?)" * bool(put)
                      + ") INSERT INTO seq (pos, value) SELECT p, v FROM t "
                      "WHERE true ON CONFLICT (pos) DO UPDATE SET value = "
                      "excluded.value", (step, first, last, *put))

    def insert(self, index: int, value: Any) -> None:
        # The shorter side moves out by one key: min(i, n - i) + 1 rows.
        key = self._base + min(index, self._len)
        value = self._check_storable(value)
        if index < self._len - index:
            self._shift(self._base, key, -1, key - 1, value)
            self._base -= 1
        else:
            self._shift(key, self._base + self._len, 1, key, value)
        self._len += 1

    def erase(self, index: int) -> None:
        # The shorter side moves in over i, its end goes: min(i, n-1-i) + 1.
        key, last = self._key(index), self._base + self._len - 1
        if index < self._len - 1 - index:
            self._shift(self._base, key, 1)
            key, self._base = self._base, self._base + 1
        else:
            self._shift(key + 1, last + 1, -1)
            key = last
        self._execute("DELETE FROM seq WHERE pos = ?", (key,))
        self._len -= 1

    def append(self, value: Any) -> None:
        self._execute("INSERT INTO seq (pos, value) VALUES (?, ?)",
                      (self._base + self._len, self._check_storable(value)))
        self._len += 1

    def extend(self, values: Iterable[Any]) -> None:
        """Insert ``values`` with one ``executemany``, up to the first that
        is not storable, or an error from ``values`` itself, which is then
        raised: the values before it are stored."""
        rows = self._rows(values)
        first = next(rows, None)
        if first is not None:
            self._execute("INSERT INTO seq (pos, value) VALUES (?, ?)",
                          itertools.chain((first,), rows), many=True)

    def _rows(self, values: Iterable[Any]) -> Iterator[tuple[int, Any]]:
        """``(key, value)`` rows for ``extend``, streamed: ``_len`` counts
        a row when the next is asked for, after the previous went in."""
        for value in values:
            yield self._base + self._len, self._check_storable(value)
            self._len += 1

    def slice(self, start: int, stop: int) -> list[Any]:
        return [v for (v,) in self._execute(
            "SELECT value FROM seq WHERE pos >= ? AND pos < ? ORDER BY pos",
            (self._base + start, self._base + stop))]

    def clear(self) -> None:
        self._execute("DELETE FROM seq")
        self._len = self._base = 0

    # -- reads answered in the engine: the value index and SUM --------------------

    def index_lookup(self, value: Any, lo: int, hi: int) -> Optional[int]:
        """Position of the first element equal to ``value`` in
        ``[lo, hi)``, or ``hi`` if there is none, via the value index —
        one O(log n) round trip, no scan, in any order.  ``MIN(pos)``
        makes the answer the first occurrence in iteration order
        regardless of duplicates.  None, with no round trip, if SQL's
        ``=`` is not Python's ``==`` for ``value`` (see :data:`_PROBED`):
        the caller must scan."""
        if lo >= hi:
            return hi
        if value is None:
            test, params = "value IS NULL", ()
        elif type(value) in _PROBED and _binds(value):
            test, params = "value = ?", (value,)
        else:
            return None
        (pos,) = self._execute(
            f"SELECT MIN(pos) FROM seq WHERE {test} AND pos >= ? AND pos < ?",
            (*params, self._base + lo, self._base + hi)).fetchone()
        return hi if pos is None else pos - self._base

    def sum_integers(self, lo: int, hi: int) -> Optional[int]:
        """The sum of ``[lo, hi)`` in one round trip if every row there
        holds an INTEGER and the sum fits in 64 bits, else None.  Rows
        are told apart by storage class: ``SUM`` reads a TEXT such as
        ``'5'`` as the number it looks like, where Python's ``+`` raises."""
        if lo >= hi:
            return 0
        try:
            total, others = self._execute(
                "SELECT SUM(value), COUNT(*) FILTER (WHERE typeof(value) "
                "<> 'integer') FROM seq WHERE pos >= ? AND pos < ?",
                (self._base + lo, self._base + hi)).fetchone()
        except StorageError as exc:
            # An integer SUM past 64 bits; a fault of the store itself
            # comes up again from the loop's own read.
            if not isinstance(exc.__cause__, sqlite3.OperationalError):
                raise
            return None
        return None if others else total

    def backend_sort(self) -> bool:
        """Append the rows in ``ORDER BY value, pos`` (ties keep their order)
        under fresh keys, then delete the old ones; with no descent, write
        nothing, in one round trip.  True if rows moved."""
        if self._base + 2 * self._len > KEY_CEILING:
            self._renumber()
        if not self._execute(f"INSERT INTO seq (value) SELECT value FROM seq "
                             f"WHERE {_DESCENT} ORDER BY value, pos").rowcount:
            return False
        self._execute("DELETE FROM seq WHERE pos < ?",
                      (self._base + self._len,))
        self._base += self._len
        return True

    def is_sorted(self) -> bool:
        """Backend-side sortedness check: one adjacent-pair SQL query."""
        return not self._execute(f"SELECT {_DESCENT}").fetchone()[0]

    def _renumber(self) -> None:
        """Keys back to ``0..n-1``.  sqlite checks the key row by row, so
        rows whose old and new ranges overlap first go below both."""
        base, n = self._base, self._len
        if base and n:
            if -n < base < n:
                low = min(base, 0) - n
                self._execute("UPDATE seq SET pos = pos + ?", (low - base,))
                base = low
            self._execute("UPDATE seq SET pos = pos - ?", (base,))
        self._base = 0

    # -- fact persistence ---------------------------------------------------------

    def sync_facts(self, facts: frozenset[str]) -> None:
        self._facts = facts

    def load_facts(self) -> frozenset[str]:
        self._facts = self._stored_facts = frozenset(
            n for (n,) in self._execute("SELECT name FROM facts"))
        # Revalidate what we can check cheaply before believing a
        # persisted fact; a stale one is dropped, not trusted.
        if "sorted" in self._facts and not self.is_sorted():
            self._facts -= {"sorted", "strictly-sorted"}
        return self._facts

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        """The one commit point: renumber the keys to ``0..n-1``, rewrite
        the facts if they changed, and commit both with the elements."""
        if self._closed:
            return
        self._renumber()
        if self._facts != self._stored_facts:
            self._execute("DELETE FROM facts")
            self._execute("INSERT INTO facts (name) VALUES (?)",
                          [(n,) for n in sorted(self._facts)], many=True)
        try:
            self._conn.commit()
        except sqlite3.Error as exc:
            raise StorageError(
                f"cannot flush sqlite store {self._path!r}: {exc}"
            ) from exc
        self._stored_facts = self._facts

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._conn.close()
            self._closed = True


class SqliteSequenceIterator(VectorIterator):
    """Random-access iterator over a :class:`SqliteSequence`."""


class SqliteSequence(Vector):
    """A :class:`Vector` whose elements (and facts) live in sqlite.

    Models the same concepts as the in-memory containers plus Persistent
    Container; reopening the same path restores both the elements and
    the revalidated fact set::

        s = SqliteSequence([3, 1, 2], path="seq.db")
        sort(s)                 # establishes the 'sorted' fact
        s.close()
        s = SqliteSequence(path="seq.db")
        s.has_fact("sorted")    # True — persisted and revalidated
    """

    iterator: type = SqliteSequenceIterator
    storage_factory: ClassVar[type] = SqliteStorage

    def __init__(self, items: Iterable[Any] = (), *,
                 path: str = ":memory:",
                 storage: Optional[SqliteStorage] = None) -> None:
        if storage is None:
            storage = SqliteStorage(path=path)
        super().__init__(items, storage=storage)

    # -- the backend-optimal entry point the sort overload dispatches to ---------

    def backend_sort(self) -> None:
        if self._store.backend_sort():
            self._commit_mutation("reverse")    # in-place reordering
        self.assert_fact("sorted", check=False)  # sorted by construction


# The structural container concepts hold for any Vector subclass; declare
# them (re-verifying) plus the nominal durability promise.
_models.declare(RandomAccessContainer, SqliteSequence)
_models.declare(Sequence, SqliteSequence)
_models.declare(BackInsertionSequence, SqliteSequence)
_models.declare(PersistentContainer, SqliteSequence)


def main(argv: Optional[list[str]] = None) -> int:
    """Open a sqlite-backed sequence and report its state.

    Exit codes follow the repo contract: 0 opened clean, 2 usage error,
    3 could not open (corrupt or unreadable file)."""
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 1 or args[0] in ("-h", "--help"):
        print("usage: python -m repro.sequences.backends.sqlite_store PATH",
              file=sys.stderr)
        return 2
    try:
        seq = SqliteSequence(path=args[0])
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    facts = ", ".join(sorted(seq.facts)) or "none"
    print(f"{args[0]}: {seq.size()} element(s), facts: {facts}")
    seq.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
