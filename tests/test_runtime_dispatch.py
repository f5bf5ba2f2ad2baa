"""Tests for repro.runtime: generation-cached model resolution, precompiled
dispatch tables, the registry mutation surface, and runtime metrics."""

from __future__ import annotations

import threading

import pytest

from repro import runtime
from repro.concepts import (
    Concept,
    ConceptCheckError,
    GenericFunction,
    ModelRegistry,
    NoMatchingOverloadError,
    Param,
    RegistrySnapshot,
    method,
    where,
)

T = Param("T")


def _quackable():
    return Concept(
        "RtQuackable", requirements=[method("t.quack()", "quack", [T])]
    )


class Duck:
    def quack(self):
        return "quack"


class Robot:
    pass


# ---------------------------------------------------------------------------
# generation counter
# ---------------------------------------------------------------------------


class TestGenerations:
    def test_every_mutation_bumps(self):
        reg = ModelRegistry()
        Q = _quackable()
        g0 = reg.generation
        reg.register(Q, Duck)
        assert reg.generation == g0 + 1
        assert reg.unregister(Q, Duck)
        assert reg.generation == g0 + 2
        reg.invalidate()
        assert reg.generation == g0 + 3

    def test_unregister_missing_is_not_a_mutation(self):
        reg = ModelRegistry()
        Q = _quackable()
        g0 = reg.generation
        assert not reg.unregister(Q, Duck)
        assert reg.generation == g0

    def test_verdict_cache_is_generation_keyed(self):
        reg = ModelRegistry()
        Q = _quackable()
        assert reg.check(Q, Duck).ok
        hits_before = reg.stats.hits
        assert reg.check(Q, Duck).ok          # memoized
        assert reg.stats.hits == hits_before + 1
        reg.invalidate()
        misses_before = reg.stats.misses
        assert reg.check(Q, Duck).ok          # re-checked: new generation
        assert reg.stats.misses == misses_before + 1

    def test_snapshot_restore(self):
        reg = ModelRegistry()
        Q = _quackable()
        snap = reg.snapshot()
        assert isinstance(snap, RegistrySnapshot)
        reg.register(Q, Duck)
        assert reg.concept_map_for(Q, (Duck,)) is not None
        reg.restore(snap)
        assert reg.concept_map_for(Q, (Duck,)) is None
        # restore moves the generation FORWARD — verdicts cached after the
        # snapshot must not survive.
        assert reg.generation > snap.generation

    def test_scoped_context_manager(self):
        reg = ModelRegistry()
        Nominal = Concept(
            "RtNominal",
            requirements=[method("t.quack()", "quack", [T])],
            nominal=True,
        )
        assert not reg.models(Nominal, Duck)
        with reg.scoped():
            reg.register(Nominal, Duck)
            assert reg.models(Nominal, Duck)
        assert not reg.models(Nominal, Duck)
        assert reg.concept_map_for(Nominal, (Duck,)) is None

    def test_scoped_restores_on_exception(self):
        reg = ModelRegistry()
        Q = _quackable()
        with pytest.raises(RuntimeError):
            with reg.scoped():
                reg.register(Q, Duck)
                raise RuntimeError("boom")
        assert reg.concept_map_for(Q, (Duck,)) is None


# ---------------------------------------------------------------------------
# dispatch-table invalidation: the acceptance-criterion scenario
# ---------------------------------------------------------------------------


class TestDispatchInvalidation:
    def _make(self):
        reg = ModelRegistry()
        Anything = Concept("RtAnything")
        # Refines Anything so the overload pair is ordered, nominal so that
        # whether it matches is decided purely by registry mutations.
        Nominal = Concept(
            "RtSpecial",
            refines=[Anything],
            requirements=[method("t.quack()", "quack", [T])],
            nominal=True,
        )
        f = GenericFunction("classify", registry=reg)

        @f.overload(requires=[(Anything, 0)])
        def generic(x):
            return "generic"

        @f.overload(requires=[(Nominal, 0)], name="special")
        def special(x):
            return "special"

        return reg, Anything, Nominal, f

    def test_register_call_unregister_call(self):
        """register -> call -> unregister -> call must change the dispatch
        outcome: no stale cached verdict survives a generation bump."""
        reg, _, Nominal, f = self._make()
        assert f(Duck()) == "generic"          # table now caches Duck
        reg.register(Nominal, Duck)
        assert f(Duck()) == "special"          # mutation invalidated it
        reg.unregister(Nominal, Duck)
        assert f(Duck()) == "generic"          # and again
        assert f.stats()["rebuilds"] >= 3

    def test_steady_state_is_table_hit(self):
        reg, _, Nominal, f = self._make()
        f(Duck())
        before = f.stats()
        for _ in range(10):
            f(Duck())
        after = f.stats()
        assert after["hits"] == before["hits"] + 10
        assert after["misses"] == before["misses"]

    def test_per_overload_dispatch_counts(self):
        reg, _, Nominal, f = self._make()
        reg.register(Nominal, Duck)
        for _ in range(3):
            f(Duck())
        f(Robot())
        counts = f.stats()["overload_calls"]
        assert counts["special"] == 3
        assert counts["generic"] == 1

    def test_registering_overload_discards_table(self):
        reg, Anything, Nominal, f = self._make()
        assert f(Duck()) == "generic"
        rebuilds_before = f.stats()["rebuilds"]
        Later = Concept("RtLater", refines=[Anything], nominal=True)

        @f.overload(requires=[(Later, 0)], name="later")
        def later(x):
            return "later"

        reg.register(Later, Duck)
        assert f(Duck()) == "later"
        assert f.stats()["rebuilds"] > rebuilds_before

    def test_where_cache_invalidated_by_mutation(self):
        reg = ModelRegistry()
        Nominal = Concept(
            "RtWhereNominal",
            requirements=[method("t.quack()", "quack", [T])],
            nominal=True,
        )

        @where((Nominal, "d"), registry=reg)
        def speak(d):
            return d.quack()

        with pytest.raises(ConceptCheckError):
            speak(Duck())
        reg.register(Nominal, Duck)
        assert speak(Duck()) == "quack"        # verdict cached now
        reg.unregister(Nominal, Duck)
        with pytest.raises(ConceptCheckError):
            speak(Duck())                      # stale OK-verdict did not survive


# ---------------------------------------------------------------------------
# concurrency smoke test
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_concurrent_readers_with_mutating_writer(self):
        """Readers dispatch while a writer register/unregisters a competing
        model: every observed outcome must be one of the two legal results,
        and the final steady state must reflect the last mutation."""
        reg = ModelRegistry()
        Anything = Concept("RtAnyC")
        Nominal = Concept(
            "RtConcurrent",
            refines=[Anything],
            requirements=[method("t.quack()", "quack", [T])],
            nominal=True,
        )
        f = GenericFunction("concurrent", registry=reg)

        @f.overload(requires=[(Anything, 0)])
        def generic(x):
            return "generic"

        @f.overload(requires=[(Nominal, 0)])
        def special(x):
            return "special"

        errors: list[BaseException] = []
        results: set[str] = set()
        stop = threading.Event()

        def reader():
            d = Duck()
            while not stop.is_set():
                try:
                    results.add(f(d))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(60):
            reg.register(Nominal, Duck)
            reg.unregister(Nominal, Duck)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert not errors, errors
        assert results <= {"generic", "special"}
        # Final state: model gone -> generic, from a fresh table.
        assert f(Duck()) == "generic"

    def test_generation_bump_is_race_safe(self):
        """Parallel mutators: the generation counter never loses a bump."""
        reg = ModelRegistry()
        n_threads, n_bumps = 8, 200

        def bump():
            for _ in range(n_bumps):
                reg.invalidate()

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert reg.generation == n_threads * n_bumps


# ---------------------------------------------------------------------------
# lazy NoMatchingOverloadError
# ---------------------------------------------------------------------------


class TestLazyNoMatchError:
    def test_explanation_is_lazy(self):
        built = []

        def factory():
            built.append(True)
            return ["overload-a: nope", "overload-b: nope"]

        err = NoMatchingOverloadError("f", (int,), attempts_factory=factory)
        assert not built                      # constructing does not render
        msg = str(err)
        assert built == [True]
        assert "overload-a: nope" in msg
        str(err)
        assert built == [True]                # rendered once, memoized

    def test_catch_for_fallback_never_builds(self):
        reg = ModelRegistry()
        Nominal = Concept("RtNope", nominal=True)
        f = GenericFunction("nope", registry=reg)

        @f.overload(requires=[(Nominal, 0)])
        def only(x):
            return "only"

        with pytest.raises(NoMatchingOverloadError) as exc:
            f(3)
        assert exc.value._attempts is None    # nothing rendered yet
        assert "tried:" in str(exc.value)     # rendering works on demand
        assert exc.value.attempts

    def test_eager_attempts_still_supported(self):
        err = NoMatchingOverloadError("f", (str,), attempts=["a: no"])
        assert err.attempts == ("a: no",)
        assert "a: no" in str(err)

    def test_matvec_fallback_path(self):
        import numpy as np

        from repro.linalg import FVector, matvec_with_fallback

        class ForeignMatrix:
            data = np.eye(2)

        out = matvec_with_fallback(ForeignMatrix(), FVector([1.0, 2.0]))
        assert out == FVector([1.0, 2.0])


# ---------------------------------------------------------------------------
# runtime metrics
# ---------------------------------------------------------------------------


class TestRuntimeStats:
    def test_stats_shape(self):
        snap = runtime.stats()
        assert set(snap) == {
            "registries", "generic_functions", "where_sites", "totals",
        }
        for key in (
            "model_cache_hits", "model_cache_misses", "invalidations",
            "dispatch_hits", "dispatch_misses", "table_rebuilds",
            "where_hits", "where_misses", "check_time_s",
        ):
            assert key in snap["totals"]

    def test_generic_function_appears_with_counts(self):
        reg = ModelRegistry(label="stats-test")
        Any_ = Concept("RtStatsAny")
        f = GenericFunction("stats_probe", registry=reg)

        @f.overload(requires=[(Any_, 0)])
        def impl(x):
            return x

        for _ in range(5):
            f(1)
        snap = runtime.stats()
        mine = [g for g in snap["generic_functions"]
                if g["name"] == "stats_probe"]
        assert mine and mine[0]["hits"] >= 4
        regs = [r for r in snap["registries"] if r["label"] == "stats-test"]
        assert regs and regs[0]["generation"] == reg.generation

    def test_where_site_counters(self):
        Q = _quackable()
        reg = ModelRegistry()

        @where((Q, "d"), registry=reg)
        def speak(d):
            return d.quack()

        speak(Duck())
        speak(Duck())
        site = speak.__where_stats__
        assert site.misses == 1 and site.hits == 1
        reg.invalidate()
        speak(Duck())
        assert site.invalidations == 1 and site.misses == 2

    def test_report_renders(self):
        text = runtime.report()
        assert "repro.runtime dispatch stats" in text
        assert "model cache:" in text

    def test_reset_stats(self):
        reg = ModelRegistry(label="reset-test")
        Q = _quackable()
        reg.check(Q, Duck)
        assert reg.stats.misses > 0
        runtime.reset_stats()
        assert reg.stats.misses == 0 and reg.stats.hits == 0

    def test_install_stats_report_idempotent(self, monkeypatch):
        import atexit
        import io

        from repro.trace import counters

        hooks = []
        monkeypatch.setattr(counters, "_report_installed", False)
        monkeypatch.setattr(atexit, "register", hooks.append)
        buf = io.StringIO()
        counters.install_report(buf)
        counters.install_report(buf)   # second call is a no-op
        assert len(hooks) == 1
        hooks[0]()
        assert buf.getvalue().count("== repro.runtime dispatch stats ==") == 1


class TestKeywordDispatch:
    """Satellite regression: keyword-passed constrained arguments must
    produce the same dispatch key — and therefore the same overload — as
    the positional spelling."""

    def _make(self):
        reg = ModelRegistry()
        Q = _quackable()
        f = GenericFunction("kw_probe", registry=reg)

        @f.overload(requires=[(Q, 0)])
        def impl(d, limit=3):
            return ("quacked", limit)

        return reg, f

    def test_keyword_spelling_dispatches_identically(self):
        _, f = self._make()
        assert f(Duck()) == f(d=Duck()) == ("quacked", 3)

    def test_keyword_for_later_positional(self):
        _, f = self._make()
        assert f(Duck(), limit=7) == ("quacked", 7)

    def test_keyword_call_hits_same_table_entry(self):
        _, f = self._make()
        f(Duck())
        before = f.stats()
        f(d=Duck())
        after = f.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_unbindable_keywords_fall_back_to_positional_key(self):
        """Keywords the impl signature can't bind must not crash keying;
        the chosen impl raises its own TypeError."""
        _, f = self._make()
        with pytest.raises(TypeError):
            f(Duck(), nonsense=1)

    def test_real_sort_keyword_call(self):
        from repro.sequences import Vector
        from repro.sequences.algorithms import sort

        data = [4, 1, 3, 2]
        v_pos, v_kw = Vector(data), Vector(data)
        sort(v_pos)
        sort(container=v_kw)
        assert v_pos.to_list() == v_kw.to_list() == sorted(data)
        # Same overload (the quicksort), not a less specific one.
        counts = sort.stats()["overload_calls"]
        quick = counts["sort<RandomAccessContainer & Sequence> (quicksort)"]
        assert quick >= 2


class TestStatsConservation:
    """Satellite regression: concurrent retire/rebuild must never fold a
    table's counters twice — hits+misses can lose in-flight increments
    during a swap, but can never EXCEED the number of calls made."""

    def test_threaded_fold_never_double_counts(self):
        reg = ModelRegistry()
        Any_ = Concept("RtConsAny")
        f = GenericFunction("conserve", registry=reg)

        @f.overload(requires=[(Any_, 0)])
        def impl(x):
            return x

        n_threads, n_calls = 4, 300
        errors: list[BaseException] = []
        barrier = threading.Barrier(n_threads + 1)

        def caller():
            barrier.wait()
            for _ in range(n_calls):
                try:
                    f(1)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        def mutator():
            barrier.wait()
            for _ in range(50):
                reg.invalidate()

        threads = [threading.Thread(target=caller)
                   for _ in range(n_threads)]
        threads.append(threading.Thread(target=mutator))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors

        total = n_threads * n_calls
        stats = f.stats()
        counted = stats["hits"] + stats["misses"]
        # Double-folding manifests as counting ABOVE the true call count;
        # losing a few in-flight increments during a table swap is
        # inherent and bounded below by the mutation count.
        assert counted <= total, (
            f"{counted} dispatches counted for {total} calls — "
            f"a table's counters were folded twice"
        )
        assert counted >= total - 200

    def test_quiesced_stats_are_exact(self):
        reg = ModelRegistry()
        Any_ = Concept("RtExactAny")
        f = GenericFunction("exact", registry=reg)

        @f.overload(requires=[(Any_, 0)])
        def impl(x):
            return x

        for _ in range(10):
            f(1)
        reg.invalidate()
        for _ in range(10):
            f(1)
        stats = f.stats()
        assert stats["hits"] + stats["misses"] == 20


class TestCompileTableSeam:
    """Satellite regression: one constructor seam, one generation
    default — a registry-like without a generation counter gets tables
    whose compile-time generation and slow-path memo guard agree."""

    def test_registry_generation_default(self):
        from repro.runtime.dispatch import registry_generation

        class Bare:
            pass

        assert registry_generation(Bare()) == 0
        reg = ModelRegistry()
        reg.invalidate()
        assert registry_generation(reg) == reg.generation

    def test_compile_table_and_table_default_agree(self):
        from repro.runtime import compile_table
        from repro.runtime.dispatch import DispatchTable

        class Bare:
            """No _generation attribute at all."""

        t1 = compile_table("seam", (), Bare())
        t2 = DispatchTable("seam", (), Bare())
        assert t1.generation == t2.generation == 0

    def test_memo_guard_consistent_without_generation(self):
        """A table over a generation-less registry-like must still memoize
        resolved entries (the old guard/compile defaults disagreed, which
        silently disabled memoization for such tables)."""
        from repro.runtime import compile_table

        reg = ModelRegistry()
        Any_ = Concept("RtSeamAny")
        f = GenericFunction("seam_probe", registry=reg)

        @f.overload(requires=[(Any_, 0)])
        def impl(x):
            return x

        class Shim:
            """Forwards checks but exposes no _generation."""

            def models(self, concept, types):
                return reg.models(concept, types)

            def check(self, concept, types):
                return reg.check(concept, types)

        table = compile_table("seam_probe", tuple(f.overloads), Shim())
        table.resolve((int,))
        assert (int,) in table.entries

    def test_generic_function_goes_through_the_seam(self):
        """GenericFunction's table now comes from compile_table and tracks
        the registry generation."""
        reg = ModelRegistry()
        Any_ = Concept("RtSeamGfAny")
        f = GenericFunction("seam_gf", registry=reg)

        @f.overload(requires=[(Any_, 0)])
        def impl(x):
            return x

        f(1)
        assert f._table.generation == reg.generation
        reg.invalidate()
        f(1)
        assert f._table.generation == reg.generation


class TestSpecificityMatrix:
    def test_shared_across_tables_per_generation(self):
        reg = ModelRegistry()
        m1 = reg.specificity_matrix()
        m2 = reg.specificity_matrix()
        assert m1 is m2
        assert m1.generation == reg.generation
        reg.invalidate()
        m3 = reg.specificity_matrix()
        assert m3 is not m1
        assert m3.generation == reg.generation

    def test_memoizes_refinement_walks(self):
        reg = ModelRegistry()
        A = Concept("RtMatA")
        B = Concept("RtMatB", refines=[A])
        m = reg.specificity_matrix()
        assert m.refines(B, A) and not m.refines(A, B)
        walks = m.walks
        assert m.refines(B, A)
        assert m.walks == walks and m.hits >= 1
        m.seed([A, B])
        assert m.snapshot()["pairs"] >= 2

    def test_dispatch_outcomes_unchanged_by_matrix(self):
        """The matrix is a cache, not a semantics change: the doubly-
        constrained sort still resolves Vector to quicksort."""
        from repro.sequences import Vector
        from repro.sequences.algorithms import sort

        chosen = sort.resolve((Vector,))
        assert "quicksort" in chosen.name


class TestLateOverloadRegistration:
    """PR 3 regression: adding an overload AFTER the dispatch table has
    been compiled must discard the table, and the new (more specific)
    overload must win on the very next call."""

    def test_new_overload_wins_after_table_compiled(self):
        reg = ModelRegistry()
        Anything = Concept("RtLateAnything")
        Nominal = Concept(
            "RtLateSpecial",
            refines=[Anything],
            requirements=[method("t.quack()", "quack", [T])],
            nominal=True,
        )
        reg.register(Nominal, Duck)
        f = GenericFunction("late", registry=reg)

        @f.overload(requires=[(Anything, 0)])
        def generic(x):
            return "generic"

        assert f(Duck()) == "generic"       # table compiled, Duck cached
        gen_before = f._table.generation
        assert f._table.entries              # the cached entry exists

        @f.overload(requires=[(Nominal, 0)], name="special")
        def special(x):
            return "special"

        assert f._table is None              # registration retired the table
        assert f(Duck()) == "special"        # recompiled; new overload wins
        assert f._table.generation == gen_before  # registry never mutated
        stats = f.stats()
        assert stats["rebuilds"] == 2
        assert stats["overload_calls"] == {"generic": 1, "special": 1}
