"""A sqlite-backed persistent sequence backend.

The representation behind the Persistent Container concept: elements live
in a sqlite table keyed by dense position, with a value index that gives
the backend an O(log n), single-round-trip lookup path — the concrete
payoff the io/cpu cost split in the taxonomy routes ``find`` to when the
sequence is sorted, and that ``find_in`` takes in any order.  A sum of
integers is one round trip too (:meth:`SqliteStorage.sum_integers`).

Durability covers *facts* as well as elements: the façade's runtime fact
set (``sorted`` et al.) is stored in a side table by ``sync_facts`` and
reloaded on reopen, where cheaply checkable facts are **revalidated**
against the data before being believed — a stale ``sorted`` fact on a
file someone else mutated is dropped, not trusted.

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
#: ``UPDATE ... FROM`` needs SQLite 3.33 and ``AS MATERIALIZED`` 3.35.
SQLITE_FLOOR = (3, 35)


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
    """Elements in a sqlite table ``seq(pos INTEGER PRIMARY KEY, value)``
    with dense keys ``0..n-1``, plus a ``facts(name TEXT PRIMARY KEY)``
    side table.  Insert, erase and sort move values between fixed keys.
    Every operation is one or a few SQL round trips, counted in
    :attr:`roundtrips` so the backend tests and bench can verify that the
    indexed path really does O(1) trips where a scan does n."""

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
            raise StorageError("sqlite store needs SQLite >= %d.%d (UPDATE "
                               "... FROM, MATERIALIZED), found %s" % (
                                   *SQLITE_FLOOR, sqlite3.sqlite_version))
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
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS seq "
                "(pos INTEGER PRIMARY KEY, value)"
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS seq_value ON seq(value)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS facts (name TEXT PRIMARY KEY)"
            )
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

    def get(self, index: int) -> Any:
        row = self._execute("SELECT value FROM seq WHERE pos = ?",
                            (index,)).fetchone()
        if row is None:
            raise IndexError(f"sqlite store position {index} out of range")
        return row[0]

    def set(self, index: int, value: Any) -> None:
        self._execute("UPDATE seq SET value = ? WHERE pos = ?",
                      (self._check_storable(value), index))

    def _move(self, rows: str, params: tuple = (), skip: str = "") -> None:
        """Give position ``p`` the value ``v`` of each ``(p, v)`` row that
        ``rows`` selects, all read before the first write: keys stay put,
        rows change in place.  Under ``skip`` a row keeps its value."""
        if not self._closed and not self._conn.in_transaction:
            # sqlite3 opens its implicit transaction before INSERT, UPDATE,
            # DELETE and REPLACE, not WITH: join it, never commit alone.
            self._conn.execute("BEGIN")
        self._execute(f"WITH t (p, v) AS MATERIALIZED ({rows}) UPDATE seq "
                      f"SET value = t.v FROM t WHERE seq.pos = t.p{skip}",
                      params)

    def insert(self, index: int, value: Any) -> None:
        # Append, then rotate [index, n] right by one.
        self.append(value)
        if index < self._len - 1:
            self._move("SELECT IIF(pos < ?, pos + 1, ?), value FROM seq "
                       "WHERE pos >= ?", (self._len - 1, index, index))

    def erase(self, index: int) -> None:
        # Shift (index, n) down by one, then drop the last row.
        if index < self._len - 1:
            self._move("SELECT pos - 1, value FROM seq WHERE pos > ?",
                       (index,))
        self._execute("DELETE FROM seq WHERE pos = ?", (self._len - 1,))
        self._len -= 1

    def append(self, value: Any) -> None:
        self._execute("INSERT INTO seq (pos, value) VALUES (?, ?)",
                      (self._len, self._check_storable(value)))
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
        """``(pos, value)`` rows for ``extend``, streamed: ``_len`` counts
        a row when the next is asked for, after the previous went in."""
        for value in values:
            yield self._len, self._check_storable(value)
            self._len += 1

    def slice(self, start: int, stop: int) -> list[Any]:
        return [v for (v,) in self._execute(
            "SELECT value FROM seq WHERE pos >= ? AND pos < ? ORDER BY pos",
            (start, stop))]

    def clear(self) -> None:
        self._execute("DELETE FROM seq")
        self._len = 0

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
            test, params = "value IS NULL", (lo, hi)
        elif type(value) in _PROBED and _binds(value):
            test, params = "value = ?", (value, lo, hi)
        else:
            return None
        (pos,) = self._execute(f"SELECT MIN(pos) FROM seq WHERE {test} "
                               f"AND pos >= ? AND pos < ?", params).fetchone()
        return hi if pos is None else pos

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
                (lo, hi)).fetchone()
        except StorageError as exc:
            # An integer SUM past 64 bits; a fault of the store itself
            # comes up again from the loop's own read.
            if not isinstance(exc.__cause__, sqlite3.OperationalError):
                raise
            return None
        return None if others else total

    def backend_sort(self) -> bool:
        """Sort in one statement: position k takes the k-th value in
        ``ORDER BY value, pos`` (ties keep their order).  A row is skipped
        only if it holds the identical value: same storage class, equal,
        and not a real zero (``0.0 = -0.0``; equal nonzero doubles are
        identical, and NaN is stored as NULL).  True if a row changed."""
        before = self._conn.total_changes
        self._move("SELECT ROW_NUMBER() OVER (ORDER BY value, pos) - 1, "
                   "value FROM seq", skip=" AND NOT (typeof(seq.value) = "
                   "typeof(t.v) AND seq.value IS t.v AND (typeof(t.v) <> "
                   "'real' OR t.v <> 0))")
        return self._conn.total_changes != before

    def is_sorted(self) -> bool:
        """Backend-side sortedness check: one adjacent-pair SQL query."""
        row = self._execute(
            "SELECT EXISTS(SELECT 1 FROM seq a JOIN seq b "
            "ON b.pos = a.pos + 1 WHERE b.value < a.value)"
        ).fetchone()
        return not row[0]

    # -- fact persistence ---------------------------------------------------------

    def sync_facts(self, facts: frozenset[str]) -> None:
        self._execute("DELETE FROM facts")
        for name in sorted(facts):
            self._execute("INSERT INTO facts (name) VALUES (?)", (name,))
        self._conn.commit()

    def load_facts(self) -> frozenset[str]:
        names = {n for (n,) in self._execute("SELECT name FROM facts")}
        # Revalidate what we can check cheaply before believing a
        # persisted fact; a stale one is dropped, not trusted.
        if "sorted" in names and not self.is_sorted():
            names = {n for n in names if n not in ("sorted", "strictly-sorted")}
            self.sync_facts(frozenset(names))
        return frozenset(names)

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        if not self._closed:
            try:
                self._conn.commit()
            except sqlite3.Error as exc:
                raise StorageError(
                    f"cannot flush sqlite store {self._path!r}: {exc}"
                ) from exc

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
