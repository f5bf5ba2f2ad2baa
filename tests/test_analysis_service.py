"""The analysis service: session façade, content-hash cache and its
invalidation rules, schema round-trips, the worker pool's determinism,
the deprecation shims, the LDJSON daemon protocol, and the shared CLI
contract."""

import io
import json
import os
import pathlib
import shutil
import sys
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
from repro.analysis.cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_PARTIAL,
    build_parser,
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


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def write_project(root, **modules):
    root.mkdir(parents=True, exist_ok=True)
    for name, source in modules.items():
        (root / f"{name}.py").write_text(source)
    return root


def drop_manifests(config):
    """Delete the pass manifests, so the next pass reads the keyed
    entries and the import store they would otherwise stand in for."""
    shutil.rmtree(pathlib.Path(config.cache_dir) / "manifests")


class CacheIO:
    """The files opened under one directory while the block runs, as
    relative paths split into reads and writes.  An audit hook sees
    ``io.open`` and ``os.open`` alike, so a ``mkstemp`` of an atomic
    write counts as one write and the ``os.replace`` after it as none."""

    active = None
    hooked = False

    def __init__(self, root):
        self.root = os.path.abspath(root) + os.sep
        self.reads, self.writes = [], []

    def __enter__(self):
        if not CacheIO.hooked:
            sys.addaudithook(CacheIO._hook)
            CacheIO.hooked = True
        CacheIO.active = self
        return self

    def __exit__(self, *exc):
        CacheIO.active = None

    @staticmethod
    def _hook(event, args):
        self = CacheIO.active
        if self is None or event != "open" or isinstance(args[0], int):
            return
        path = os.path.abspath(os.fsdecode(args[0]))
        if path.startswith(self.root):
            writes = args[2] & (os.O_WRONLY | os.O_RDWR)
            (self.writes if writes else self.reads).append(
                os.path.relpath(path, self.root))


def copy_of_repro(tmp_path):
    src = pathlib.Path(analysis_deps.__file__).resolve().parents[1]
    tree = tmp_path / "tree" / "repro"
    shutil.copytree(src, tree, ignore=shutil.ignore_patterns("__pycache__"))
    return tree


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
        real = lint_driver.FixpointChecker

        def boom(*args, **kwargs):
            raise RuntimeError("chaos")

        monkeypatch.setattr(lint_driver, "FixpointChecker", boom)
        s1 = AnalysisSession(config)
        r1 = s1.lint_paths([proj])
        assert any(f.check == "LINT-INTERNAL" for f in r1.findings)

        monkeypatch.setattr(lint_driver, "FixpointChecker", real)
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

    def test_invalidate_does_not_depend_on_the_working_directory(
            self, tmp_path, config, monkeypatch):
        # Entries record the resolved path, not the path as discovered,
        # so a relative lint is invalidated from anywhere, and the
        # manifest row goes with its entry.
        proj = write_project(tmp_path / "work" / "proj", a=BUGGY, b=CLEAN)
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        AnalysisSession(config).lint_paths(["proj"])
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert AnalysisSession(config).invalidate(
            [str(proj / "a.py")]) == 1
        monkeypatch.chdir(tmp_path / "work")
        s = AnalysisSession(config)
        s.lint_paths(["proj"])
        assert (s.counters["lint_analyzed"],
                s.counters["lint_from_cache"]) == (1, 1)

    def test_stats_surface(self, tmp_path, config):
        proj = write_project(tmp_path / "p", a=CLEAN)
        s = AnalysisSession(config)
        s.lint_paths([proj])
        st = s.stats()
        assert st["schema_version"] == SCHEMA_VERSION
        assert st["cache_enabled"] and st["cache_entries"] >= 1
        assert st["session"]["lint_analyzed"] == 1

    def test_cache_entries_count_result_entries_only(self, tmp_path,
                                                     config):
        proj = write_project(tmp_path / "p", a=BUGGY, b=CLEAN,
                             m=OPTIMIZABLE)
        s = AnalysisSession(config)
        s.lint_paths([proj])
        s.optimize_paths([proj])
        root = pathlib.Path(config.cache_dir)
        assert len(list((root / "manifests").glob("*.json"))) == 2
        assert len(list((root / "imports").glob("*.json"))) == 3
        assert s.stats()["cache_entries"] == 6 == len(
            list(root.glob("*-*.json")))


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
        drop_manifests(config)

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
        drop_manifests(config)

        s = AnalysisSession(config)
        s.lint_paths([proj])
        assert s.counters["lint_analyzed"] == 1

    def test_envelope_requires_matching_kind(self):
        env = analysis_schema.make_envelope(
            "lint", {"path": "x.py"},
            {"path": "x.py", "functions_checked": 0, "suppressed": 0,
             "findings": []})
        with pytest.raises(SchemaError):
            analysis_schema.decode_envelope(env, "optimize")

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

    @staticmethod
    def state_of(session, files, rows=None):
        """The session's fingerprints over ``files`` (as discovered, with
        their resolved paths) and its new manifest rows, from the import
        store alone or with a previous pass's ``rows``."""
        state = session._project_state(files, rows or {})
        return ({t.path: t.row["deps"] for t in state.values()},
                {t.resolved: t.row for t in state.values()})

    def test_store_fingerprints_equal_fresh_parse(self, tmp_path, config,
                                                  monkeypatch):
        from repro.lint.driver import discover

        tree = copy_of_repro(tmp_path)
        pairs = discover([tree])
        files = [f for f, _ in pairs]
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
            fingerprints, _ = self.state_of(session, pairs)
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
        fingerprints, _ = self.state_of(session, pairs)
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
        reading, rows = self.state_of(AnalysisSession(config), pairs)
        assert reading[leaf] and reading == self.fresh_fingerprints(files)
        hub.write_text(hub.read_text() + "\n# touched\n")
        edited, _ = self.state_of(AnalysisSession(config), pairs)
        assert edited == self.fresh_fingerprints(files)
        assert [f for f in files if edited[f] != reading[f]] == [leaf]
        # With the previous pass's rows, a comment edit moves no scan,
        # so the closures are reused and no import graph is built.
        monkeypatch.setattr(analysis_deps, "module_aliases", None)
        reused, _ = self.state_of(AnalysisSession(config), pairs, rows)
        assert reused == edited

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
        drop_manifests(config)
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
        assert not (tmp_path / "cache" / "manifests").exists()


def corrupt_manifest(how, doc, raw):
    """The bytes of a manifest damaged in one way."""
    if how == "truncated":
        return raw[:len(raw) // 2]
    if how == "not-json":
        return "not json at all"
    if how == "version":
        doc["version"] += 1
    elif how == "shape":
        doc["rows"] = list(doc["rows"].values())
    elif how == "row-shape":
        next(iter(doc["rows"].values()))["names"] = "names"
    elif how == "foreign-payload":
        # Every row keeps its sha and fingerprint, but serves the next
        # file's payload.
        rows = list(doc["rows"].values())
        payloads = [row["payload"] for row in rows]
        for row, payload in zip(rows, payloads[1:] + payloads[:1]):
            row["payload"] = payload
    return json.dumps(doc)


class TestManifest:
    @pytest.mark.parametrize("how", ["truncated", "not-json", "version",
                                     "shape", "row-shape",
                                     "foreign-payload"])
    def test_bad_manifest_is_rebuilt_never_misread(self, tmp_path, config,
                                                   how):
        proj = write_project(tmp_path / "p", a=BUGGY, b=CLEAN, c=CALLS)
        AnalysisSession(config).lint_paths([proj])
        (manifest,) = (tmp_path / "cache" / "manifests").glob("*.json")
        raw = manifest.read_text()
        manifest.write_text(corrupt_manifest(how, json.loads(raw), raw))
        s = AnalysisSession(config)
        report = s.lint_paths([proj])
        assert report.to_dict() == AnalysisSession().lint_paths(
            [proj]).to_dict()
        # Served from the keyed entries, and the manifest rewritten.
        assert (s.counters["lint_analyzed"],
                s.counters["lint_from_cache"]) == (0, 3)
        assert manifest.read_text() == raw
        with CacheIO(tmp_path / "cache") as io_:
            AnalysisSession(config).lint_paths([proj])
        assert (io_.reads, io_.writes) == ([str(
            manifest.relative_to(tmp_path / "cache"))], [])

    def test_overlapping_root_sets_share_one_cache(self, tmp_path, config):
        tree = write_project(tmp_path / "tree", a=BUGGY, b=CLEAN)
        sub = write_project(tree / "sub", c=CALLS, d=BUGGY)
        edited = sub / "d.py"

        def lint_both():
            for roots in ([tree], [sub]):
                s = AnalysisSession(config)
                assert s.lint_paths(roots).to_dict() == \
                    AnalysisSession().lint_paths(roots).to_dict()

        lint_both()
        for text in (CLEAN, BUGGY + "\n# edited\n", BUGGY):
            edited.write_text(text)
            lint_both()
        assert len(list((tmp_path / "cache" / "manifests").glob(
            "*.json"))) == 2
        s = AnalysisSession(config)
        s.lint_paths([tree])
        assert s.counters["lint_from_cache"] == 4

    def test_io_budget_over_a_copy_of_repro(self, tmp_path, config):
        """A warm pass reads one cache file and writes none, a comment
        edit to a leaf writes its entry and the manifest, and a revert
        to earlier bytes analyzes nothing."""
        tree = copy_of_repro(tmp_path)
        cache = pathlib.Path(config.cache_dir)
        cold = AnalysisSession(config).lint_paths([tree])
        with CacheIO(cache) as io_:
            s = AnalysisSession(config)
            warm = s.lint_paths([tree])
        assert warm.to_dict() == cold.to_dict()
        assert s.counters["lint_from_cache"] == len(warm.files) > 100
        assert len(io_.reads) == 1 and io_.writes == []
        assert io_.reads[0].startswith("manifests" + os.sep)

        leaf = tree / "analysis" / "__main__.py"
        original = leaf.read_text()
        leaf.write_text(original + "\n# edited\n")
        with CacheIO(cache) as io_:
            s = AnalysisSession(config)
            edited = s.lint_paths([tree])
        assert s.counters["lint_analyzed"] == 1
        assert sorted(os.path.dirname(w) for w in io_.writes) == [
            "", "manifests"]
        assert edited.to_dict() == AnalysisSession().lint_paths(
            [tree]).to_dict()

        leaf.write_text(original)
        s = AnalysisSession(config)
        assert s.lint_paths([tree]).to_dict() == warm.to_dict()
        assert s.counters["lint_analyzed"] == 0


class TestDiscovery:
    """Each root is resolved once; the lists are the ones the
    per-file resolving discovery gave."""

    @pytest.fixture()
    def tree(self, tmp_path, monkeypatch):
        for rel in ("tree/a.py", "tree/sub/b.py", "tree/sub/c.py",
                    "tree/pkg/d.py", "outside/x.py"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text("x = 1\n")
        os.symlink("a.py", tmp_path / "tree" / "link.py")
        os.symlink("../outside/x.py", tmp_path / "tree" / "ext.py")
        os.symlink("pkg", tmp_path / "tree" / "linkdir")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("roots,expected", [
        # A symlinked file: its twin drops out, an outside target stays.
        (["tree"], ["tree/a.py", "tree/ext.py", "tree/pkg/d.py",
                    "tree/sub/b.py", "tree/sub/c.py"]),
        # A symlinked directory is not descended into, but is a root.
        (["tree/linkdir", "tree"], [
            "tree/linkdir/d.py", "tree/a.py", "tree/ext.py",
            "tree/sub/b.py", "tree/sub/c.py"]),
        (["tree", "tree/sub"], ["tree/a.py", "tree/ext.py",
                                "tree/pkg/d.py", "tree/sub/b.py",
                                "tree/sub/c.py"]),
        (["tree/sub", "tree"], ["tree/sub/b.py", "tree/sub/c.py",
                                "tree/a.py", "tree/ext.py",
                                "tree/pkg/d.py"]),
        (["tree/a.py", "tree/../tree/a.py", "./tree/a.py",
          "tree/link.py"], ["tree/a.py"]),
    ])
    def test_lists_match_per_file_resolution(self, tree, roots, expected):
        from repro.lint.driver import discover, discover_files

        assert [str(f) for f in discover_files(roots)] == expected
        assert [(str(f), r) for f, r in discover(roots)] == [
            (f, str(pathlib.Path(f).resolve())) for f in expected]

    def test_one_file_in_two_spellings(self, tree):
        from repro.lint.driver import discover_files

        spellings = ["tree/sub/b.py", str(tree / "tree" / "sub" / "b.py")]
        assert [str(f) for f in discover_files(spellings)] == [
            "tree/sub/b.py"]


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

    def test_serial_and_pooled_runs_store_the_same_entries(self, tmp_path):
        # ``use`` calls ``make_it``, so the pass over CALLS builds a
        # non-empty summary table; the cache still holds only the lint
        # and optimize results the tools read back, whichever path
        # analyzed the misses.
        proj = write_project(tmp_path / "p", a=CALLS, b=OPTIMIZABLE,
                             c=BUGGY)
        names = {}
        for jobs in (1, 2):
            config = AnalysisConfig(cache=True, jobs=jobs,
                                    cache_dir=str(tmp_path / f"c{jobs}"))
            cold = AnalysisSession(config)
            cold.lint_paths([proj])
            cold.optimize_paths([proj])
            names[jobs] = sorted(p.name for p in cold.cache.root.iterdir())
            analysis_cache.reset_stats()
            warm = AnalysisSession(config)
            warm.lint_paths([proj])
            warm.optimize_paths([proj])
            assert analysis_cache.stats()["misses"] == 0
            assert warm.counters["lint_from_cache"] == 3
            assert warm.counters["optimize_from_cache"] == 3
        assert names[1] == names[2]
        assert sorted(n.split("-")[0] for n in names[1]) == [
            "imports", "lint", "lint", "lint", "manifests",
            "optimize", "optimize", "optimize"]


class TestDeprecationShims:
    """The deprecated free-function shims are gone; the session API that
    replaced them must not warn."""

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
            lint_driver, "FixpointChecker",
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

    @pytest.mark.parametrize("argv", [
        ["stats", "--json"],
        ["stats", "--jobs", "2"],
        ["invalidate", "--no-cache"],
        ["invalidate", "--trace", "out.json"],
        ["serve", "--json"],
        ["watch", "--json", "src"],
    ])
    def test_commands_reject_options_they_do_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            analysis_main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,extra", [
        ("lint", {"fail_on", "concept_pass", "interprocedural", "exclude",
                  "list_checks"}),
        ("optimize", {"check", "write", "diff", "resource", "size"}),
    ])
    def test_lint_and_optimize_keep_every_option(self, command, extra):
        args = build_parser().parse_args([command, "--json", "p"])
        assert set(vars(args)) == {
            "command", "paths", "timeout_s", "trace", "jobs", "json",
            "cache", "cache_dir"} | extra
        assert args.json and args.cache

    def test_stats_and_invalidate_use_the_cache(self):
        for command in ("stats", "invalidate"):
            args = build_parser().parse_args([command, "--cache-dir", "d"])
            assert (args.cache, args.cache_dir) == (True, "d")

    @pytest.mark.parametrize("command", ["lint", "optimize"])
    def test_subcommand_prints_the_session_result_under_its_flags(
            self, command, tmp_path, capsys, monkeypatch):
        configs = []
        real_init = AnalysisSession.__init__

        def recording_init(self, config=None):
            real_init(self, config)
            configs.append(self.config)

        monkeypatch.setattr(AnalysisSession, "__init__", recording_init)
        if command == "lint":
            target = str(write_project(tmp_path / "p", a=BUGGY, b=CLEAN))
            analysis_main(["lint", "--no-cache", "--json", target])
            assert capsys.readouterr().out == AnalysisSession().lint_paths(
                [target]).to_json() + "\n"
            flags = ["--exclude", "*b.py", "--no-concept-pass",
                     "--no-interprocedural"]
            want = {"exclude": ("*b.py",), "concept_pass": False,
                    "interprocedural": False}
        else:
            target = str(EXAMPLES / "optimize_demo.py")
            analysis_main(["optimize", "--no-cache", "--json", target])
            assert json.loads(capsys.readouterr().out)["summary"] == {
                "files": 1, "rewrites": 1, "reverted": 0, "written": 0}
            flags = ["--resource", "io_ops", "--size", "64"]
            want = {"resource": "io_ops", "size": 64.0}
        analysis_main([command, "--no-cache", *flags, target])
        capsys.readouterr()
        assert {k: getattr(configs[-1], k) for k in want} == want

    def test_watch_fail_on(self, tmp_path, capsys):
        proj = write_project(tmp_path / "p", a=BUGGY)
        argv = ["watch", str(proj), "--cache-dir", str(tmp_path / "c"),
                "--interval-s", "0", "--max-cycles", "1"]
        assert analysis_main(argv + ["--fail-on", "never"]) == EXIT_OK
        assert analysis_main(argv) == EXIT_FINDINGS

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

