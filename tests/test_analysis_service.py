"""The analysis service: session façade, content-hash cache and its
invalidation rules, schema round-trips, the worker pool's determinism,
the deprecation shims, the LDJSON daemon protocol, and the shared CLI
contract."""

import io
import json
import warnings

import pytest

from repro.analysis import (
    AnalysisConfig,
    AnalysisSession,
    SCHEMA_VERSION,
    SchemaError,
)
from repro.analysis import cache as analysis_cache
from repro.analysis import deps as analysis_deps
from repro.analysis import schema as analysis_schema
from repro.analysis.args import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_PARTIAL,
    lint_exit_code,
    optimize_exit_code,
)
from repro.analysis.cli import main as analysis_main
from repro.analysis.service import AnalysisService, watch

BUGGY = '''
def purge(students: "vector", fails: "vector"):
    for s in students:
        if s > 2:
            fails.push_back(s)
            students.remove(s)
'''

CLEAN = '''
def total(v: "vector"):
    acc = 0
    it = v.begin()
    while it != v.end():
        acc = acc + it.deref()
        it.increment()
    return acc
'''

OPTIMIZABLE = '''
def lookup(v: "vector", key):
    sort(v.begin(), v.end())
    it = find(v.begin(), v.end(), key)
    return it
'''

CALLS = '''
def make_it(v: "vector"):
    return v.begin()

def use(v: "vector"):
    it = make_it(v)
    v.push_back(1)
    return it.deref()
'''


@pytest.fixture()
def config(tmp_path):
    return AnalysisConfig(cache=True, cache_dir=str(tmp_path / "cache"))


def write_project(root, **modules):
    root.mkdir(parents=True, exist_ok=True)
    for name, source in modules.items():
        (root / f"{name}.py").write_text(source)
    return root


def read_fingerprint_deps(files):
    """Reference for the cache's dependency keys, from a fresh parse of
    every file: the files its read names match, plus everything those
    import, transitively (the file itself excluded)."""
    scans = {f: analysis_deps.scan_imports(f.read_text()) for f in files}
    graph = analysis_deps.dependency_graph(files, lambda f: scans[f][0])
    reads = analysis_deps.dependency_graph(files, lambda f: scans[f][1])
    return {f: analysis_deps.reachable(graph, reads[f]) - {f}
            for f in files}


def expected_dirty(files, edited):
    """1 + every file whose read-name closure reaches ``edited``."""
    edited = edited.resolve()
    deps = read_fingerprint_deps([f.resolve() for f in files])
    return 1 + sum(edited in d for d in deps.values())


class TestSessionCaching:
    def test_cold_then_warm(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=BUGGY, b=CLEAN)
        s1 = AnalysisSession(config)
        r1 = s1.lint_paths([proj])
        assert s1.counters["lint_analyzed"] == 2
        assert s1.counters["lint_from_cache"] == 0

        s2 = AnalysisSession(config)
        r2 = s2.lint_paths([proj])
        assert s2.counters["lint_analyzed"] == 0
        assert s2.counters["lint_from_cache"] == 2
        assert r1.to_dict() == r2.to_dict()

    def test_content_change_invalidates(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=BUGGY, b=CLEAN)
        AnalysisSession(config).lint_paths([proj])

        (proj / "b.py").write_text(CLEAN + "\n# touched\n")
        s = AnalysisSession(config)
        s.lint_paths([proj])
        assert s.counters["lint_analyzed"] == 1
        assert s.counters["lint_from_cache"] == 1

    def test_engine_change_invalidates(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=BUGGY)
        AnalysisSession(config).lint_paths([proj])

        s = AnalysisSession(config.with_(engine="inline"))
        s.lint_paths([proj])
        assert s.counters["lint_analyzed"] == 1
        assert s.counters["lint_from_cache"] == 0

    def test_semantic_config_change_invalidates(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=BUGGY)
        AnalysisSession(config).lint_paths([proj])

        s = AnalysisSession(config.with_(concept_pass=False))
        s.lint_paths([proj])
        assert s.counters["lint_analyzed"] == 1

    def test_infrastructure_config_change_stays_warm(self, tmp_path,
                                                     config):
        """fail_on / timeout_s / jobs don't shape per-file results, so
        flipping them must keep serving from cache."""
        proj = write_project(tmp_path / "p", a=BUGGY)
        AnalysisSession(config).lint_paths([proj])

        s = AnalysisSession(config.with_(
            fail_on="never", timeout_s=60.0, jobs=2))
        s.lint_paths([proj])
        assert s.counters["lint_from_cache"] == 1

    def test_transitive_dep_edit_invalidates_importers(self, tmp_path,
                                                       config):
        """a imports b imports c, and r reads b through a decorator:
        editing c re-analyzes c and r, whose read closure reaches it;
        the plain importers a and b stay cached.  Editing a re-analyzes
        only a.  Every served report equals a cacheless lint."""
        proj = write_project(
            tmp_path / "p",
            a="import b\n" + CLEAN,
            b="import c\n" + CLEAN.replace("total", "total_b"),
            c=CLEAN.replace("total", "total_c"),
            r="import b\n\n@b.deco(1)\ndef hook():\n    pass\n" + CALLS,
            lone=BUGGY,
        )
        AnalysisSession(config).lint_paths([proj])

        for name, text in (
                ("c", CLEAN.replace("total", "total_c") + "\n# touched\n"),
                ("a", "import b\n" + CLEAN + "\n# touched\n")):
            (proj / f"{name}.py").write_text(text)
            files = sorted(proj.glob("*.py"))
            s = AnalysisSession(config)
            report = s.lint_paths([proj])
            dirty = expected_dirty(files, proj / f"{name}.py")
            assert dirty == {"c": 2, "a": 1}[name]
            assert s.counters["lint_analyzed"] == dirty
            assert s.counters["lint_from_cache"] == len(files) - dirty
            assert report.to_dict() == \
                AnalysisSession().lint_paths([proj]).to_dict()

    def test_identical_content_files_do_not_alias(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=BUGGY, b=BUGGY)
        AnalysisSession(config).lint_paths([proj])
        s = AnalysisSession(config)
        report = s.lint_paths([proj])
        assert s.counters["lint_from_cache"] == 2
        assert {f.path.rsplit("/", 1)[-1] for f in report.findings} == \
            {"a.py", "b.py"}

    def test_partial_results_never_cached(self, tmp_path, config,
                                          monkeypatch):
        from repro.lint import driver as lint_driver

        proj = write_project(tmp_path / "p", a=BUGGY)
        real = lint_driver.make_checker

        def boom(*args, **kwargs):
            raise RuntimeError("chaos")

        monkeypatch.setattr(lint_driver, "make_checker", boom)
        s1 = AnalysisSession(config)
        r1 = s1.lint_paths([proj])
        assert any(f.check == "LINT-INTERNAL" for f in r1.findings)

        monkeypatch.setattr(lint_driver, "make_checker", real)
        s2 = AnalysisSession(config)
        r2 = s2.lint_paths([proj])
        assert s2.counters["lint_analyzed"] == 1   # not served from cache
        assert all(f.check != "LINT-INTERNAL" for f in r2.findings)

    def test_invalidate_selected_paths(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=BUGGY, b=CLEAN)
        s = AnalysisSession(config)
        s.lint_paths([proj])
        assert s.invalidate([proj / "a.py"]) == 1
        s2 = AnalysisSession(config)
        s2.lint_paths([proj])
        assert s2.counters["lint_analyzed"] == 1
        assert s2.counters["lint_from_cache"] == 1

    def test_stats_surface(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=CLEAN)
        s = AnalysisSession(config)
        s.lint_paths([proj])
        st = s.stats()
        assert st["schema_version"] == SCHEMA_VERSION
        assert st["cache_enabled"] and st["cache_entries"] >= 1
        assert st["session"]["lint_analyzed"] == 1


class TestOptimizeCaching:
    def test_cold_then_warm(self, tmp_path, config):
        proj = write_project(tmp_path / "p", m=OPTIMIZABLE)
        s1 = AnalysisSession(config)
        r1 = s1.optimize_paths([proj])
        assert s1.counters["optimize_analyzed"] == 1
        s2 = AnalysisSession(config)
        r2 = s2.optimize_paths([proj])
        assert s2.counters["optimize_from_cache"] == 1
        assert r1[0].to_dict() == r2[0].to_dict()
        assert r2[0].plans and r2[0].original == OPTIMIZABLE

    def test_cached_write_applies_rewrite(self, tmp_path, config):
        proj = write_project(tmp_path / "p", m=OPTIMIZABLE)
        target = proj / "m.py"
        AnalysisSession(config).optimize_paths([proj])          # warm it
        s = AnalysisSession(config)
        results = s.optimize_paths([proj], write=True)
        assert s.counters["optimize_from_cache"] == 1
        assert results[0].verified
        assert "lower_bound" in target.read_text()

    def test_lint_and_optimize_entries_do_not_collide(self, tmp_path,
                                                      config):
        proj = write_project(tmp_path / "p", m=OPTIMIZABLE)
        s = AnalysisSession(config)
        s.lint_paths([proj])
        s.optimize_paths([proj])
        s2 = AnalysisSession(config)
        s2.lint_paths([proj])
        s2.optimize_paths([proj])
        assert s2.counters["lint_from_cache"] == 1
        assert s2.counters["optimize_from_cache"] == 1


class TestFactsCaching:
    def test_facts_round_trip_through_cache(self, tmp_path, config):
        target = tmp_path / "m.py"
        target.write_text(OPTIMIZABLE)
        s = AnalysisSession(config)
        t1 = s.collect_facts_file(target)
        s2 = AnalysisSession(config)
        t2 = s2.collect_facts_file(target)
        assert s2.counters["facts_from_cache"] == 1
        assert analysis_schema.fact_table_to_payload(t1) == \
            analysis_schema.fact_table_to_payload(t2)
        assert t2.calls  # the sort/find call sites survived


class TestSchema:
    def test_old_schema_version_discarded_not_misread(self, tmp_path,
                                                      config):
        proj = write_project(tmp_path / "p", a=CLEAN)
        AnalysisSession(config).lint_paths([proj])
        cache = AnalysisSession(config).cache
        entries = list(cache.entries())
        assert entries
        for entry in entries:
            envelope = json.loads(entry.read_text())
            envelope["schema_version"] = SCHEMA_VERSION - 1
            entry.write_text(json.dumps(envelope))

        analysis_cache.reset_stats()
        s = AnalysisSession(config)
        s.lint_paths([proj])
        assert s.counters["lint_analyzed"] == 1
        assert analysis_cache.stats()["discards"] >= 1

    def test_corrupt_payload_discarded(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=BUGGY)
        AnalysisSession(config).lint_paths([proj])
        cache = AnalysisSession(config).cache
        for entry in cache.entries():
            envelope = json.loads(entry.read_text())
            if envelope["kind"] != "lint":
                continue
            # An old writer that spelled a field differently must fail
            # the decode->re-encode round trip, not half-load.
            envelope["payload"]["findings"][0]["extra_field"] = 1
            entry.write_text(json.dumps(envelope))

        s = AnalysisSession(config)
        s.lint_paths([proj])
        assert s.counters["lint_analyzed"] == 1

    def test_envelope_requires_matching_kind(self):
        env = analysis_schema.make_envelope(
            "lint", {"path": "x.py"},
            {"path": "x.py", "functions_checked": 0, "suppressed": 0,
             "findings": []})
        with pytest.raises(SchemaError):
            analysis_schema.decode_envelope(env, "facts")

    def test_summary_table_round_trip(self):
        from repro.lint.driver import LintConfig, _lint_source_impl
        from repro.stllint.summaries import SummaryTable

        table = SummaryTable()
        report = _lint_source_impl(CALLS, config=LintConfig(),
                                   summaries=table)
        assert len(table) > 0
        assert any("singular" in f.message for f in report.findings)
        payload = analysis_schema.summary_table_to_payload(table)
        again = analysis_schema.summary_table_from_payload(payload)
        assert analysis_schema.summary_table_to_payload(again) == payload

    def test_report_json_carries_both_versions(self, tmp_path):
        proj = write_project(tmp_path / "p", a=CLEAN)
        report = AnalysisSession().lint_paths([proj])
        data = report.to_dict()
        assert data["version"] == 1                  # legacy, frozen
        assert data["schema_version"] == SCHEMA_VERSION


class TestDeps:
    def test_imported_names_and_aliases(self, tmp_path):
        src = "import x.y\nfrom a.b import c\n"
        names, reads = analysis_deps.scan_imports(src)
        assert {"x", "x.y", "a", "a.b", "a.b.c"} <= names
        assert reads == set()      # no decorator: linting imports nothing
        f = tmp_path / "pkg" / "mod.py"
        f.parent.mkdir()
        f.write_text("")
        assert "mod" in analysis_deps.module_aliases(f)
        assert "pkg.mod" in analysis_deps.module_aliases(f)

    def test_cycle_does_not_hang(self, tmp_path):
        proj = write_project(tmp_path / "p",
                             a="import b\n", b="import a\n")
        files = [proj / "a.py", proj / "b.py"]
        scans = {f: analysis_deps.scan_imports(f.read_text())
                 for f in files}
        graph = analysis_deps.dependency_graph(
            files, lambda f: scans[f][0])
        a, b = files
        assert graph == {a: {b}, b: {a}}
        assert analysis_deps.reachable(graph, graph[a]) == {a, b}

    @staticmethod
    def fresh_fingerprints(files):
        """Reference: parse every file afresh and digest the (name,
        content hash) pairs of its read closure."""
        import hashlib

        out = {}
        for f, deps in read_fingerprint_deps(files).items():
            items = sorted(
                f"{d.name}:{analysis_cache.content_hash(d.read_bytes())}"
                for d in deps)
            out[f] = hashlib.sha256("\x1f".join(items).encode(
                "utf-8")).hexdigest()[:16] if items else ""
        return out

    def test_store_fingerprints_equal_fresh_parse(self, tmp_path, config):
        import pathlib
        import shutil

        from repro.lint.driver import discover_files

        src = pathlib.Path(analysis_deps.__file__).resolve().parents[1]
        tree = tmp_path / "tree" / "repro"
        shutil.copytree(src, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        files = discover_files([tree])
        graph = analysis_deps.dependency_graph(
            files, lambda f: analysis_deps.scan_imports(f.read_text())[0])
        # An import cycle puts a file in its own closure, which the
        # digest must leave out.
        assert any(f in analysis_deps.reachable(graph, graph[f])
                   for f in files)
        # Cold store: each distinct content is scanned once (equal bytes
        # share an entry).  Warm store: nothing is scanned.
        distinct = len({f.read_bytes() for f in files})
        for scanned in (distinct, 0):
            session = AnalysisSession(config)
            _, _, fingerprints = session._project_state(files)
            assert fingerprints == self.fresh_fingerprints(files)
            assert session.counters["imports_scanned"] == scanned
            assert session.counters["imports_from_cache"] == \
                len(files) - scanned

        # A hub edit (the most-imported module gains an import) changes
        # no fingerprint: no file reads the hub through a decorator.
        hub = max(files, key=lambda f: sum(f in d for d in graph.values()))
        before = self.fresh_fingerprints(files)
        hub.write_text(hub.read_text() + "\nimport repro.lint.driver\n")
        session = AnalysisSession(config)
        _, _, fingerprints = session._project_state(files)
        assert fingerprints == self.fresh_fingerprints(files) == before
        assert session.counters["imports_scanned"] == 1
        # A leaf that starts reading the hub does change, and so does
        # its fingerprint after the next hub edit.
        leaf = next(f for f in files
                    if not any(f in d for d in graph.values()))
        dotted = ".".join(hub.relative_to(tree.parent).with_suffix("").parts)
        dotted = dotted.removesuffix(".__init__")
        leaf.write_text(leaf.read_text() + f"\nimport {dotted}\n\n"
                        f"@{dotted}.anything()\ndef _hook():\n    pass\n")
        _, _, reading = AnalysisSession(config)._project_state(files)
        assert reading[leaf] and reading == self.fresh_fingerprints(files)
        hub.write_text(hub.read_text() + "\n# touched\n")
        _, _, edited = AnalysisSession(config)._project_state(files)
        assert edited == self.fresh_fingerprints(files)
        assert [f for f in files if edited[f] != reading[f]] == [leaf]

    def test_warm_pass_scans_nothing(self, tmp_path, config, monkeypatch):
        proj = write_project(tmp_path / "p", a="import b\n" + CALLS,
                             b="import c\n" + CLEAN, c=BUGGY)
        first = AnalysisSession(config).lint_paths([proj])

        def no_parse(source):
            raise AssertionError("warm pass parsed imports")

        monkeypatch.setattr(analysis_deps, "scan_imports", no_parse)
        s = AnalysisSession(config)
        again = s.lint_paths([proj])
        assert again.to_dict() == first.to_dict()
        assert s.counters["imports_scanned"] == 0
        assert s.counters["imports_from_cache"] == 3
        assert s.stats()["session"]["imports_from_cache"] == 3

    def test_bad_import_entries_rescanned(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a="import b\n" + CALLS,
                             b="import c\n" + CLEAN, c=BUGGY,
                             d="import a\n")
        first = AnalysisSession(config).lint_paths([proj])
        store = tmp_path / "cache" / "imports"
        entries = sorted(store.glob("*.json"))
        assert len(entries) == 4
        originals = [e.read_bytes() for e in entries]
        wrong_version = json.loads(entries[0].read_text())
        wrong_version["schema_version"] += 1
        entries[0].write_text(json.dumps(wrong_version))
        version = analysis_cache.IMPORTS_SCHEMA_VERSION
        entries[1].write_text(
            f'{{"schema_version": {version}, "names": [], "reads": [1]}}')
        entries[2].write_text(f'{{"schema_version": {version}, "nam')
        s = AnalysisSession(config)
        assert s.lint_paths([proj]).to_dict() == first.to_dict()
        assert s.counters["imports_scanned"] == 3
        assert s.counters["imports_from_cache"] == 1
        assert s.counters["lint_from_cache"] == 4  # fingerprints unchanged
        assert [e.read_bytes() for e in entries] == originals

    def test_invalidate_all_empties_import_store(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a="import b\n", b=CLEAN)
        s = AnalysisSession(config)
        s.lint_paths([proj])
        store = tmp_path / "cache" / "imports"
        assert len(list(store.glob("*.json"))) == 2
        assert s.invalidate([str(proj / "a.py")]) == 1
        assert len(list(store.glob("*.json"))) == 2   # path-free entries
        results = len(s.cache)
        assert results >= 1
        assert s.invalidate() == results   # result entries only
        assert not list(store.glob("*.json"))


class TestParallel:
    def test_jobs_output_bit_identical(self, tmp_path):
        proj = write_project(
            tmp_path / "p",
            **{f"m{i}": (BUGGY if i % 2 else CLEAN) for i in range(5)})
        serial = AnalysisSession(AnalysisConfig(jobs=1)).lint_paths([proj])
        pooled = AnalysisSession(AnalysisConfig(jobs=2)).lint_paths([proj])
        assert serial.to_json() == pooled.to_json()
        assert serial.findings  # the planted purger bugs

    def test_jobs_with_cache_only_analyzes_misses(self, tmp_path, config):
        proj = write_project(
            tmp_path / "p",
            **{f"m{i}": (BUGGY if i % 2 else CLEAN) for i in range(4)})
        AnalysisSession(config).lint_paths([proj])
        (proj / "m1.py").write_text(BUGGY + "\n# touched\n")
        s = AnalysisSession(config.with_(jobs=2))
        report = s.lint_paths([proj])
        assert s.counters["lint_from_cache"] == 3
        assert s.counters["lint_analyzed"] == 1
        assert len(report.files) == 4


class TestDeprecationShims:
    def test_lint_shims_warn_and_delegate(self, tmp_path):
        from repro.lint import lint_file, lint_paths, lint_source

        target = tmp_path / "m.py"
        target.write_text(BUGGY)
        with pytest.warns(DeprecationWarning):
            by_source = lint_source(BUGGY, path=str(target))
        with pytest.warns(DeprecationWarning):
            by_file = lint_file(target)
        with pytest.warns(DeprecationWarning):
            by_paths = lint_paths([target])
        assert by_source.findings and by_file.findings
        assert [f.check for f in by_file.findings] == \
            [f.check for f in by_paths.findings]

    def test_optimize_shims_warn_and_delegate(self, tmp_path):
        from repro.optimize import optimize_file, optimize_source

        target = tmp_path / "m.py"
        target.write_text(OPTIMIZABLE)
        with pytest.warns(DeprecationWarning):
            by_source = optimize_source(OPTIMIZABLE, path=str(target))
        with pytest.warns(DeprecationWarning):
            by_file = optimize_file(target)
        assert by_source.plans and by_file.plans

    def test_session_api_does_not_warn(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(BUGGY)
        session = AnalysisSession()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.lint_source(BUGGY)
            session.lint_file(target)
            session.lint_paths([target])
            session.optimize_source(OPTIMIZABLE)


class TestServiceProtocol:
    def run(self, session, requests):
        in_stream = io.StringIO("\n".join(
            r if isinstance(r, str) else json.dumps(r) for r in requests
        ) + "\n")
        out_stream = io.StringIO()
        AnalysisService(session).serve(in_stream, out_stream)
        return [json.loads(line)
                for line in out_stream.getvalue().splitlines()]

    def test_lint_and_stats_ops(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=BUGGY)
        responses = self.run(AnalysisSession(config), [
            {"op": "ping"},
            {"op": "lint", "paths": [str(proj)]},
            {"op": "lint", "paths": [str(proj)]},
            {"op": "stats"},
            {"op": "shutdown"},
        ])
        ping, lint1, lint2, stats, bye = responses
        assert ping["pong"]
        assert lint1["exit_code"] == EXIT_FINDINGS
        assert lint2["report"] == lint1["report"]
        assert stats["stats"]["session"]["lint_from_cache"] == 1
        assert bye["stopping"]

    def test_lint_response_counts_import_scans(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a="import b\n", b=CLEAN)
        cold, warm = self.run(AnalysisSession(config), [
            {"op": "lint", "paths": [str(proj)]},
            {"op": "lint", "paths": [str(proj)]},
        ])
        assert (cold["imports_scanned"], cold["imports_from_cache"]) == \
            (2, 0)
        assert (warm["imports_scanned"], warm["imports_from_cache"]) == \
            (0, 2)
        assert (warm["analyzed"], warm["from_cache"]) == (0, 2)

    def test_optimize_op_check_semantics(self, tmp_path, config):
        proj = write_project(tmp_path / "p", m=OPTIMIZABLE)
        responses = self.run(AnalysisSession(config), [
            {"op": "optimize", "paths": [str(proj)], "check": True},
        ])
        assert responses[0]["exit_code"] == EXIT_FINDINGS  # outstanding
        assert responses[0]["files"][0]["rewrites"]

    def test_malformed_input_keeps_daemon_alive(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=CLEAN)
        responses = self.run(AnalysisSession(config), [
            "not json at all",
            {"op": "no_such_op"},
            {"op": "lint", "paths": []},
            {"op": "lint", "paths": [str(proj)]},
        ])
        assert [r["ok"] for r in responses] == [False, False, False, True]
        assert all(r["exit_code"] == 2 for r in responses[:3])
        assert responses[3]["exit_code"] == EXIT_OK

    def test_invalidate_op(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=CLEAN)
        session = AnalysisSession(config)
        responses = self.run(session, [
            {"op": "lint", "paths": [str(proj)]},
            {"op": "invalidate", "paths": [str(proj / "a.py")]},
            {"op": "invalidate"},
        ])
        assert responses[1]["invalidated"] == 1
        assert responses[2]["invalidated"] == len(session.cache)

    def test_watch_mode_incremental(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=CLEAN, b=BUGGY)
        out = io.StringIO()
        edits = []

        def fake_sleep(_):
            if not edits:
                (proj / "a.py").write_text(CLEAN + "\n# touched\n")
                edits.append(True)

        rc = watch(AnalysisSession(config), [str(proj)],
                   interval_s=0, max_cycles=3, out_stream=out,
                   sleep=fake_sleep)
        cycles = [json.loads(line)
                  for line in out.getvalue().splitlines()]
        assert [c["analyzed"] for c in cycles] == [2, 1, 0]
        assert [c["from_cache"] for c in cycles] == [0, 1, 2]
        assert rc == EXIT_FINDINGS  # b.py's planted bug


class TestExitCodeContract:
    def test_lint_exit_codes(self, tmp_path):
        session = AnalysisSession()
        proj = write_project(tmp_path / "p", a=BUGGY)
        report = session.lint_paths([proj])
        assert lint_exit_code(report, "warning") == EXIT_FINDINGS
        assert lint_exit_code(report, "never") == EXIT_OK

    def test_lint_partial_wins(self, tmp_path, monkeypatch):
        from repro.lint import driver as lint_driver

        monkeypatch.setattr(
            lint_driver, "make_checker",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("x")))
        proj = write_project(tmp_path / "p", a=BUGGY)
        report = AnalysisSession().lint_paths([proj])
        assert lint_exit_code(report, "never") == EXIT_PARTIAL

    def test_optimize_exit_codes(self, tmp_path):
        session = AnalysisSession()
        proj = write_project(tmp_path / "p", m=OPTIMIZABLE)
        results = session.optimize_paths([proj])
        assert optimize_exit_code(results, check=True) == EXIT_FINDINGS
        assert optimize_exit_code(results) == EXIT_OK


class TestAnalysisCLI:
    def test_lint_cold_warm_and_stats(self, tmp_path, capsys):
        proj = write_project(tmp_path / "p", a=CLEAN)
        cache_dir = str(tmp_path / "cache")
        assert analysis_main(
            ["lint", str(proj), "--cache-dir", cache_dir]) == EXIT_OK
        capsys.readouterr()

        analysis_cache.reset_stats()
        assert analysis_main(
            ["lint", str(proj), "--cache-dir", cache_dir]) == EXIT_OK
        capsys.readouterr()
        assert analysis_cache.stats()["hits"] == 1

        assert analysis_main(["stats", "--cache-dir", cache_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cache_entries"] == 1

        assert analysis_main(
            ["invalidate", str(proj / "a.py"),
             "--cache-dir", cache_dir]) == 0
        assert json.loads(
            capsys.readouterr().out)["invalidated"] == 1

    def test_stats_lists_import_counters(self, tmp_path, capsys):
        assert analysis_main(
            ["stats", "--cache-dir", str(tmp_path / "cache")]) == 0
        session = json.loads(capsys.readouterr().out)["session"]
        assert session["imports_scanned"] == 0
        assert session["imports_from_cache"] == 0

    def test_lint_json_output(self, tmp_path, capsys):
        proj = write_project(tmp_path / "p", a=BUGGY)
        rc = analysis_main(["lint", str(proj), "--no-cache", "--json"])
        assert rc == EXIT_FINDINGS
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == SCHEMA_VERSION

    def test_no_command_is_usage_error(self, capsys):
        assert analysis_main([]) == 2

    def test_watch_subcommand(self, tmp_path, capsys):
        proj = write_project(tmp_path / "p", a=CLEAN)
        rc = analysis_main([
            "watch", str(proj), "--cache-dir", str(tmp_path / "c"),
            "--interval-s", "0", "--max-cycles", "2"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[1])["from_cache"] == 1


class TestConfig:
    def test_fingerprint_kind_scoping(self):
        base = AnalysisConfig()
        assert base.fingerprint("lint") != base.fingerprint("optimize")
        # resource/size only matter for optimize results
        resized = base.with_(size=2000.0)
        assert base.fingerprint("lint") == resized.fingerprint("lint")
        assert base.fingerprint("optimize") != resized.fingerprint(
            "optimize")
        with pytest.raises(ValueError):
            base.fingerprint("nope")

    def test_round_trip_with_lint_config(self):
        cfg = AnalysisConfig(engine="inline", fail_on="error",
                             exclude=("x",))
        lc = cfg.to_lint_config()
        back = AnalysisConfig.from_lint_config(lc)
        assert back.engine == "inline"
        assert back.fail_on == "error"
        assert back.exclude == ("x",)
