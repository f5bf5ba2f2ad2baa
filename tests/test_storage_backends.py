"""The storage-backend split: protocol, capabilities, durability, and
backend-aware algorithm selection.

Covers the seam itself (the :class:`~repro.sequences.storage.Storage`
protocol and its capability records), the two non-RAM backends
(contiguous array/mmap and sqlite), fact persistence across reopen, the
Deque/DList facts choke point, and the io/cpu-weighted selection path
that routes ``find`` on a sorted persistent sequence to the backend's
index.
"""

import pytest

from repro.concepts import check_concept
from repro.concepts.builtins import (
    BackInsertionSequence,
    ContiguousContainer,
    PersistentContainer,
    RandomAccessContainer,
    Sequence,
)
from repro.sequences import Deque, DList, Vector
from repro.sequences.algorithms import (
    backend_sort,
    copy_into,
    find_in,
    indexed_find,
    sort,
)
from repro.sequences.backends import (
    ContiguousStorage,
    ContiguousVector,
    SqliteSequence,
    SqliteStorage,
)
from repro.sequences.backends.sqlite_store import main as sqlite_main
from repro.sequences.storage import (
    DequeStorage,
    LinkedStorage,
    ListStorage,
    StorageError,
)
from repro.sequences.taxonomy import (
    KIND_CAPABILITIES,
    kind_weights,
    stl_taxonomy,
)

ALL_STORAGES = [ListStorage, DequeStorage, LinkedStorage,
                ContiguousStorage, SqliteStorage]


# ---------------------------------------------------------------------------
# The Storage protocol itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", ALL_STORAGES,
                         ids=[c.capabilities.name for c in ALL_STORAGES])
class TestStorageProtocol:
    def test_index_protocol_roundtrip(self, cls):
        s = cls([1, 2, 3])
        assert s.length() == 3
        assert [s.get(i) for i in range(3)] == [1, 2, 3]
        s.insert(1, 9)
        s.erase(0)
        s.set(0, 7)
        s.append(8)
        assert s.slice(0, s.length()) == [7, 2, 3, 8]
        assert list(s) == [7, 2, 3, 8]
        s.clear()
        assert s.length() == 0

    def test_capability_record_shape(self, cls):
        caps = cls.capabilities
        assert caps.name
        assert isinstance(caps.contiguous, bool)
        assert isinstance(caps.persistent, bool)
        assert caps.io_cost_per_op >= 0.0
        names = caps.capability_names()
        assert ("contiguous" in names) == caps.contiguous
        assert ("persistent" in names) == caps.persistent


class TestCapabilityRecords:
    def test_only_sqlite_is_persistent(self):
        assert SqliteStorage.capabilities.persistent
        assert SqliteStorage.capabilities.io_cost_per_op > 0
        for cls in (ListStorage, DequeStorage, LinkedStorage,
                    ContiguousStorage):
            assert not cls.capabilities.persistent
            assert cls.capabilities.io_cost_per_op == 0.0

    def test_only_contig_is_contiguous(self):
        assert ContiguousStorage.capabilities.contiguous
        for cls in (ListStorage, DequeStorage, LinkedStorage, SqliteStorage):
            assert not cls.capabilities.contiguous

    def test_kind_capabilities_covers_stllint_kinds(self):
        assert set(KIND_CAPABILITIES) == {
            "vector", "deque", "list", "contig", "sqlite",
        }

    def test_kind_weights_only_for_io_bearing_kinds(self):
        assert kind_weights("vector") is None
        assert kind_weights("contig") is None
        assert kind_weights("unknown") is None
        w = kind_weights("sqlite")
        assert w == {"comparisons": 1.0,
                     "io_ops": SqliteStorage.capabilities.io_cost_per_op}


# ---------------------------------------------------------------------------
# All backends model the same concepts, unmodified
# ---------------------------------------------------------------------------


class TestConceptConformance:
    @pytest.mark.parametrize("cls", [Vector, ContiguousVector, SqliteSequence],
                             ids=["vector", "contig", "sqlite"])
    def test_structural_concepts_hold_everywhere(self, cls):
        for concept in (RandomAccessContainer, Sequence,
                        BackInsertionSequence):
            assert check_concept(concept, cls).ok, concept.name

    def test_persistent_is_nominal_to_sqlite(self):
        assert check_concept(PersistentContainer, SqliteSequence).ok
        assert not check_concept(PersistentContainer, Vector).ok
        assert not check_concept(PersistentContainer, ContiguousVector).ok

    def test_contiguous_is_nominal_to_contig(self):
        assert check_concept(ContiguousContainer, ContiguousVector).ok
        assert not check_concept(ContiguousContainer, Vector).ok
        assert not check_concept(ContiguousContainer, SqliteSequence).ok


# ---------------------------------------------------------------------------
# Durability: sqlite survives reopen, with its facts
# ---------------------------------------------------------------------------


class TestSqliteDurability:
    def test_contents_survive_reopen(self, tmp_path):
        path = str(tmp_path / "seq.db")
        s = SqliteSequence([3, 1, 2], path=path)
        s.close()
        t = SqliteSequence(path=path)
        assert t.to_list() == [3, 1, 2]
        assert check_concept(PersistentContainer, type(t)).ok
        t.close()

    def test_sorted_fact_persists_and_is_honored(self, tmp_path):
        path = str(tmp_path / "seq.db")
        s = SqliteSequence([3, 1, 2], path=path)
        sort(s)
        assert s.has_fact("sorted")
        s.close()
        t = SqliteSequence(path=path)
        assert t.has_fact("sorted")
        # ...and the fact buys the indexed path: one round trip, no scan.
        before = t.storage().roundtrips
        it = find_in(t, 2)
        assert t.storage().roundtrips - before == 1
        assert it.deref() == 2
        t.close()

    def test_stale_fact_dropped_on_reopen(self, tmp_path):
        # Corrupt the invariant behind the persisted fact by writing an
        # out-of-order row through a separate connection — reopen must
        # revalidate and drop it rather than honor a lie.
        path = str(tmp_path / "seq.db")
        s = SqliteSequence([1, 2, 3], path=path)
        sort(s)
        s.close()
        import sqlite3

        conn = sqlite3.connect(path)
        conn.execute("UPDATE seq SET value = 99 WHERE pos = 0")
        conn.commit()
        conn.close()
        t = SqliteSequence(path=path)
        assert t.to_list() == [99, 2, 3]
        assert not t.has_fact("sorted")
        t.close()

    def test_corrupt_file_degrades_to_clean_error(self, tmp_path):
        path = tmp_path / "corrupt.db"
        path.write_bytes(b"SQLite format 3\x00" + b"\xff" * 512)
        with pytest.raises(StorageError):
            SqliteSequence(path=str(path))

    def test_cli_exit_codes(self, tmp_path, capsys):
        path = str(tmp_path / "seq.db")
        s = SqliteSequence([1, 2], path=path)
        sort(s)
        s.close()
        assert sqlite_main([path]) == 0
        out = capsys.readouterr().out
        assert "2 element(s)" in out and "sorted" in out
        assert sqlite_main([]) == 2
        assert sqlite_main([path, "extra"]) == 2
        corrupt = tmp_path / "corrupt.db"
        corrupt.write_bytes(b"SQLite format 3\x00" + b"\xff" * 512)
        assert sqlite_main([str(corrupt)]) == 3


class TestContiguousDurability:
    def test_flush_and_reload(self, tmp_path):
        path = str(tmp_path / "block.bin")
        v = ContiguousVector(storage=ContiguousStorage([1, 2, 3], path=path))
        v.push_back(4)
        v.flush()
        w = ContiguousVector(storage=ContiguousStorage(path=path))
        assert w.to_list() == [1, 2, 3, 4]

    def test_unfit_value_is_a_storage_error(self):
        v = ContiguousVector([1, 2, 3])
        with pytest.raises(StorageError):
            v.push_back("not an int")


# ---------------------------------------------------------------------------
# Deque/DList route every mutation through the facts choke point
# ---------------------------------------------------------------------------


class TestFactsChokePoint:
    def test_deque_mutations_destroy_sorted(self):
        d = Deque([1, 2, 3])
        d.assert_fact("sorted")
        d.push_front(9)
        assert not d.has_fact("sorted")

    def test_deque_every_mutation_bumps_epoch(self):
        d = Deque([1, 2, 3])
        for mutate in (lambda: d.push_front(0), lambda: d.push_back(4),
                       lambda: d.pop_front(), lambda: d.pop_back(),
                       lambda: d.clear()):
            before = d.epoch
            mutate()
            assert d.epoch == before + 1

    def test_dlist_push_destroys_sorted(self):
        lst = DList([1, 2, 3])
        lst.assert_fact("sorted")
        lst.push_back(0)
        assert not lst.has_fact("sorted")

    def test_dlist_pop_preserves_sorted_but_ticks_epoch(self):
        lst = DList([1, 2, 3])
        lst.assert_fact("sorted")
        before = lst.epoch
        lst.pop_back()
        assert lst.has_fact("sorted")
        assert lst.epoch == before + 1

    def test_dlist_splice_invalidates_both_sides(self):
        a, b = DList([1, 3]), DList([2])
        a.assert_fact("sorted")
        b.assert_fact("sorted")
        a_epoch, b_epoch = a.epoch, b.epoch
        it = a.begin(); it.increment()
        a.splice(it, b)
        assert a.to_list() == [1, 2, 3]
        assert b.empty()
        assert a.epoch > a_epoch and b.epoch > b_epoch
        assert not a.has_fact("sorted")   # insert kind destroys order fact


# ---------------------------------------------------------------------------
# Backend-aware dispatch and selection
# ---------------------------------------------------------------------------


class TestBackendDispatch:
    def test_sort_dispatches_to_backend_overload(self):
        s = SqliteSequence([3, 1, 2])
        before = s.storage().roundtrips
        sort(s)
        assert s.to_list() == [1, 2, 3]
        assert s.has_fact("sorted")
        # the whole reorder is a handful of statements, not O(n log n)
        # element round trips
        assert s.storage().roundtrips - before < 10

    def test_backend_sort_custom_less_falls_back(self):
        s = SqliteSequence([1, 3, 2])
        backend_sort(s, lambda a, b: b < a)
        assert s.to_list() == [3, 2, 1]

    def test_find_in_probes_the_index_when_unsorted(self):
        s = SqliteSequence([3, 1, 2])
        before = s.storage().roundtrips
        assert find_in(s, 1).index == 1
        assert find_in(s, 99).equals(s.end())
        assert s.storage().roundtrips - before == 2

    def test_indexed_find_range_form(self):
        s = SqliteSequence([3, 1, 2])
        backend_sort(s)
        it = indexed_find(s.begin(), s.end(), 2)
        assert it.deref() == 2
        assert indexed_find(s.begin(), s.end(), 99).equals(s.end())
        # bounds narrow the lookup
        assert indexed_find(s.begin(), s.begin(), 2).equals(s.begin())

    def test_copy_into_from_contiguous_source(self):
        # One element-wise overload serves every source; a contiguous
        # one has no overload of its own.
        src = ContiguousVector([1, 2, 3])
        dst = Vector()
        assert copy_into.resolve((ContiguousVector, Vector)).name == (
            "copy_into<Container> (element-wise)")
        copy_into(src, dst)
        assert dst.to_list() == [1, 2, 3]


class TestWeightedSelection:
    def test_legacy_selection_unchanged(self):
        t = stl_taxonomy()
        best = t.select_for_properties("search", ["sorted"], "comparisons",
                                       result="position")
        assert best.name == "lower_bound"

    def test_capability_gate_excludes_indexed_lookup(self):
        # Even with the sorted fact, a backend with no index never
        # selects the indexed algorithms.
        t = stl_taxonomy()
        best = t.select_for_properties(
            "search", ["sorted"], "comparisons", result="position",
            capabilities=frozenset(), weights={"comparisons": 1.0},
        )
        assert best.name == "lower_bound"

    def test_io_weights_route_to_indexed_lookup(self):
        t = stl_taxonomy()
        best = t.select_for_properties(
            "search", ["sorted"], "comparisons", result="position",
            capabilities=KIND_CAPABILITIES["sqlite"].capability_names(),
            weights=kind_weights("sqlite"),
        )
        assert best.name == "indexed lookup"

    def test_io_weights_route_sorting_to_backend_sort(self):
        t = stl_taxonomy()
        best = t.select_for_properties(
            "sorting", [], "comparisons",
            capabilities=KIND_CAPABILITIES["sqlite"].capability_names(),
            weights=kind_weights("sqlite"),
        )
        assert best.name == "backend sort"

    def test_taxonomy_weights_price_io(self):
        from repro.simplicissimus.cost import CALL, taxonomy_weights

        ram = taxonomy_weights()
        io = taxonomy_weights(io_cost_per_op=8.0)
        # RAM pricing: indexed lookup has no edge over lower_bound.
        assert ram[(CALL, "indexed_find")] == ram[(CALL, "lower_bound")]
        # io pricing: constant round trips beat logarithmic ones beat scans.
        assert io[(CALL, "indexed_find")] < io[(CALL, "lower_bound")]
        assert io[(CALL, "lower_bound")] < io[(CALL, "find")]


class TestOptimizerRouting:
    SOURCE = (
        'def f(s: "sqlite", x):\n'
        "    sort(s)\n"
        "    r = find(s.begin(), s.end(), x)\n"
        "    return r\n"
        "\n"
        "\n"
        'def g(v: "vector", x):\n'
        "    sort(v)\n"
        "    r = find(v.begin(), v.end(), x)\n"
        "    return r\n"
    )

    def test_sqlite_sites_route_to_backend_spellings(self):
        from repro.optimize.pipeline import _optimize_source_impl

        result = _optimize_source_impl(self.SOURCE, path="demo.py")
        assert result.verified and not result.reverted
        rewrites = {(p.line, p.call): p.replacement for p in result.plans}
        assert rewrites[(2, "sort")] == "backend_sort"
        assert rewrites[(3, "find")] == "indexed_find"
        # the RAM-resident function keeps the classic asymptotic rewrite
        assert rewrites[(9, "find")] == "lower_bound"
        assert (8, "sort") not in rewrites
        assert "backend_sort(s)" in result.optimized
        assert "indexed_find(s.begin(), s.end(), x)" in result.optimized
        assert "sort(v)" in result.optimized

    def test_rewritten_spelling_runs(self, tmp_path):
        # The rewritten call sites must execute: sort -> backend_sort
        # establishes the fact indexed_find's precondition needs.
        s = SqliteSequence([5, 1, 4], path=str(tmp_path / "run.db"))
        backend_sort(s)
        it = indexed_find(s.begin(), s.end(), 4)
        assert it.deref() == 4
        s.close()
