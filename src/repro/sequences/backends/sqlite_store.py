"""A sqlite-backed persistent sequence backend.

The representation behind the Persistent Container concept: elements live
in a sqlite table keyed by dense position, with a value index that gives
the backend an O(log n), single-round-trip lookup path — the concrete
payoff the io/cpu cost split in the taxonomy routes ``find`` to when the
sequence is sorted.

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

import sqlite3
import sys
from typing import Any, ClassVar, Iterable, Optional

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
_STORABLE = (type(None), int, float, str, bytes)


class SqliteStorage(Storage):
    """Elements in a sqlite table ``seq(pos INTEGER PRIMARY KEY, value)``
    plus a ``facts(name TEXT PRIMARY KEY)`` side table.

    Every operation is one or a few SQL round trips (counted in
    :attr:`roundtrips`, which the backend tests and bench use to verify
    that the indexed path really does O(1) trips where a scan does n).
    """

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
                "SELECT COUNT(*) FROM seq"
            ).fetchone()[0]
        except sqlite3.Error as exc:
            raise StorageError(
                f"cannot open sqlite store {path!r}: {exc}"
            ) from exc
        for item in items:
            self.append(item)

    # -- plumbing -----------------------------------------------------------------

    def _execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        if self._closed:
            raise StorageError(f"sqlite store {self._path!r} is closed")
        self.roundtrips += 1
        try:
            return self._conn.execute(sql, params)
        except sqlite3.Error as exc:
            raise StorageError(
                f"sqlite store {self._path!r}: {exc}"
            ) from exc

    @staticmethod
    def _check_storable(value: Any) -> Any:
        if not isinstance(value, _STORABLE):
            raise StorageError(
                f"value of type {type(value).__name__} is not storable "
                f"in a sqlite-backed sequence (use int/float/str/bytes)"
            )
        return value

    # -- index protocol -----------------------------------------------------------

    def length(self) -> int:
        return self._len

    def get(self, index: int) -> Any:
        row = self._execute(
            "SELECT value FROM seq WHERE pos = ?", (index,)
        ).fetchone()
        if row is None:
            raise IndexError(f"sqlite store position {index} out of range")
        return row[0]

    def set(self, index: int, value: Any) -> None:
        self._execute("UPDATE seq SET value = ? WHERE pos = ?",
                      (self._check_storable(value), index))

    def insert(self, index: int, value: Any) -> None:
        # Renumber [index, …) up by one with the negate-then-flip idiom so
        # the dense primary key never collides mid-update.
        self._check_storable(value)
        self._execute("UPDATE seq SET pos = -(pos + 1) WHERE pos >= ?",
                      (index,))
        self._execute("UPDATE seq SET pos = -pos WHERE pos < 0")
        self._execute("INSERT INTO seq (pos, value) VALUES (?, ?)",
                      (index, value))
        self._len += 1

    def erase(self, index: int) -> None:
        self._execute("DELETE FROM seq WHERE pos = ?", (index,))
        self._execute("UPDATE seq SET pos = -(pos - 1) WHERE pos > ?",
                      (index,))
        self._execute("UPDATE seq SET pos = -pos WHERE pos < 0")
        self._len -= 1

    def append(self, value: Any) -> None:
        self._execute("INSERT INTO seq (pos, value) VALUES (?, ?)",
                      (self._len, self._check_storable(value)))
        self._len += 1

    def slice(self, start: int, stop: int) -> list[Any]:
        rows = self._execute(
            "SELECT value FROM seq WHERE pos >= ? AND pos < ? ORDER BY pos",
            (start, stop),
        ).fetchall()
        return [r[0] for r in rows]

    def clear(self) -> None:
        self._execute("DELETE FROM seq")
        self._len = 0

    # -- the indexed paths the io-aware taxonomy routes to ------------------------

    def index_lookup(self, value: Any, lo: int = 0,
                     hi: Optional[int] = None) -> Optional[int]:
        """Position of the first element equal to ``value`` in
        ``[lo, hi)`` via the value index — one O(log n) round trip, no
        scan.  ``MIN(pos)`` makes the answer the first occurrence in
        iteration order regardless of duplicates."""
        sql = "SELECT MIN(pos) FROM seq WHERE value = ? AND pos >= ?"
        params: tuple[Any, ...] = (self._check_storable(value), lo)
        if hi is not None:
            sql += " AND pos < ?"
            params += (hi,)
        row = self._execute(sql, params).fetchone()
        return None if row is None or row[0] is None else row[0]

    def backend_sort(self) -> None:
        """Reorder the whole sequence inside the database: one window-
        function renumbering instead of n log n round-tripping element
        swaps.  ``_order`` is keyed on the old position, so the
        correlated lookup below is an O(log n) primary-key search per row
        rather than a scan of ``_order`` per row (O(n²) inside sqlite);
        ties keep their position order."""
        self._execute(
            "CREATE TEMP TABLE _order (pos INTEGER PRIMARY KEY, newpos)"
        )
        self._execute(
            "INSERT INTO _order (pos, newpos) SELECT pos, "
            "ROW_NUMBER() OVER (ORDER BY value, pos) - 1 FROM seq"
        )
        self._execute(
            "UPDATE seq SET pos = -(SELECT newpos FROM _order "
            "WHERE _order.pos = seq.pos) - 1"
        )
        self._execute("UPDATE seq SET pos = -pos - 1")
        self._execute("DROP TABLE _order")

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
        names = {
            r[0] for r in self._execute("SELECT name FROM facts").fetchall()
        }
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

    # -- the backend-optimal entry points concept overloads dispatch to -----------

    def index_lookup(self, value: Any, lo: int = 0,
                     hi: Optional[int] = None) -> Optional[int]:
        return self._store.index_lookup(value, lo=lo, hi=hi)

    def backend_sort(self) -> None:
        self._store.backend_sort()
        self._commit_mutation("reverse")        # in-place reordering
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
