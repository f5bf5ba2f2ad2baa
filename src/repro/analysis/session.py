"""The :class:`AnalysisSession` façade — analysis as a service.

One object unifies what used to be four loose entry points
(``lint_source``/``lint_file``/``lint_paths`` from the lint driver and
``optimize_source``/``optimize_file`` from the optimizer pipeline)
behind one :class:`~repro.analysis.config.AnalysisConfig`, and adds the
two things a *service* needs that a batch CLI does not:

- **incrementality** — per-file results are served from the
  content-hash-keyed on-disk cache (:mod:`repro.analysis.cache`) when
  the file, the same-project modules its analysis reads (see
  :mod:`repro.analysis.deps`), and the semantic config are all
  unchanged;
- **parallelism** — cache misses are sharded across a
  ``multiprocessing`` pool (``config.jobs``), and because every file's
  analysis is independent and results are merged back in discovery
  order, a ``--jobs N`` run is **bit-identical** to the serial run.

Results with crash-isolation or deadline findings (LINT-INTERNAL,
LINT-TIMEOUT, OPT-INTERNAL, OPT-TIMEOUT) are *never* cached: they
describe what happened to one run, not what the source means.
"""

from __future__ import annotations

import os
import pathlib
from typing import Optional, Sequence, Union

from repro.facts.records import FactRecorder, FactTable
from repro.lint.driver import (
    FileReport,
    LintConfig,
    ProjectReport,
    SourceAnalysis,
    _lint_file_impl,
    _lint_source_impl,
    discover_files,
)
from repro.lint.suppressions import LINT_INTERNAL, LINT_TIMEOUT
from repro.resilience import Deadline
from repro.trace import core as _trace

from . import deps as _deps
from .cache import AnalysisCache, content_hash, make_key
from .config import AnalysisConfig
from .schema import (
    SCHEMA_VERSION,
    SchemaError,
    decode_envelope,
    fact_table_to_payload,
    file_report_to_payload,
    make_envelope,
    optimize_result_to_payload,
    summary_table_from_payload,
    summary_table_to_payload,
)

PathLike = Union[str, pathlib.Path]

#: Findings that mark a result as run-specific (crash isolation /
#: deadline): such results are reported but never cached.
_UNCACHEABLE_CHECKS = frozenset({
    LINT_INTERNAL, LINT_TIMEOUT, "io-error",
    "OPT-INTERNAL", "OPT-TIMEOUT",
})


def _cacheable(findings) -> bool:
    return all(f.check not in _UNCACHEABLE_CHECKS for f in findings)


# ---------------------------------------------------------------------------
# Worker-pool entry points (module-level: picklable under spawn too)
# ---------------------------------------------------------------------------


def _lint_worker(item: tuple) -> FileReport:
    path_str, config = item
    return _lint_file_impl(pathlib.Path(path_str),
                           config.to_lint_config())


def _optimize_worker(item: tuple):
    from repro.optimize.pipeline import _optimize_file_impl

    path_str, write, config = item
    return _optimize_file_impl(
        pathlib.Path(path_str), write=write, resource=config.resource,
        size=config.size, timeout_s=config.timeout_s,
        monomorphize=config.monomorphize,
    )


def _pool_map(worker, items: list, jobs: int) -> list:
    """Order-preserving map over a worker pool.  ``jobs <= 1`` (or a
    single item) degrades to the serial loop — same results either way,
    which is what makes ``--jobs`` a pure scheduling knob."""
    if jobs == 0:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [worker(item) for item in items]
    import multiprocessing

    with multiprocessing.get_context().Pool(processes=jobs) as pool:
        return pool.map(worker, items)


class AnalysisSession:
    """Unified, incrementally cached lint + optimize façade."""

    def __init__(self, config: Optional[AnalysisConfig] = None) -> None:
        self.config = config or AnalysisConfig()
        self.cache: Optional[AnalysisCache] = (
            AnalysisCache(self.config.cache_dir)
            if self.config.cache else None
        )
        #: Per-session counters (the process-wide cache counters live in
        #: :func:`repro.analysis.cache.stats`).
        self.counters = {
            "lint_analyzed": 0,
            "lint_from_cache": 0,
            "optimize_analyzed": 0,
            "optimize_from_cache": 0,
            "facts_analyzed": 0,
            "facts_from_cache": 0,
            "imports_scanned": 0,
            "imports_from_cache": 0,
        }
        #: The last lint miss's pass, ``((str(path), sha), analysis)``,
        #: for an optimize miss of the same bytes to plan from (see
        #: :meth:`_lint_miss`).  One entry; taken by the next optimize
        #: miss whether or not it matches.
        self._handoff: Optional[tuple[tuple[str, str], SourceAnalysis]] = None

    # -- shared plumbing -----------------------------------------------------

    def _read(self, p: pathlib.Path) -> Optional[tuple[str, str]]:
        """(source, sha256) or None when unreadable/undecodable — the
        impl layer then reproduces its usual io-error/decode finding."""
        try:
            data = p.read_bytes()
            return data.decode("utf-8"), content_hash(data)
        except (OSError, UnicodeDecodeError):
            return None

    def _project_state(
        self, files: list[pathlib.Path],
    ) -> tuple[dict, dict, dict]:
        """sources, content hashes, and dependency fingerprints for one
        discovered file set (the coherence universe of this call)."""
        sources: dict[pathlib.Path, str] = {}
        hashes: dict[pathlib.Path, str] = {}
        for f in files:
            read = self._read(f)
            if read is not None:
                sources[f], hashes[f] = read
        fingerprints = _deps.dependency_fingerprints(
            list(sources), hashes,
            lambda f: self._imports_of(sources[f], hashes[f]))
        return sources, hashes, fingerprints

    def _imports_of(self, source: str, sha: str):
        """A file's imported and read names, from the content-addressed
        import store when its bytes were scanned before, else parsed and
        stored."""
        scan = self.cache.get_imports(sha)
        if scan is not None:
            self.counters["imports_from_cache"] += 1
            return scan
        scan = _deps.scan_imports(source)
        self.counters["imports_scanned"] += 1
        self.cache.put_imports(sha, scan)
        return scan

    def _get_cached(self, kind: str, path: pathlib.Path, sha: str,
                    deps_fp: str, source: Optional[str] = None):
        if self.cache is None:
            return None
        key = make_key(kind, str(path.resolve()), sha,
                       self.config.fingerprint(
                           "optimize" if kind == "optimize" else "lint"),
                       deps_fp, SCHEMA_VERSION)
        envelope = self.cache.get(key)
        if envelope is None:
            return None
        try:
            return decode_envelope(envelope, kind, source=source)
        except SchemaError:
            self.cache.discard(key)
            return None

    def _store(self, kind: str, path: pathlib.Path, sha: str,
               deps_fp: str, payload: dict) -> None:
        if self.cache is None:
            return
        fingerprint = self.config.fingerprint(
            "optimize" if kind == "optimize" else "lint")
        key = make_key(kind, str(path.resolve()), sha, fingerprint,
                       deps_fp, SCHEMA_VERSION)
        self.cache.put(key, make_envelope(kind, {
            "path": str(path),
            "content_sha256": sha,
            "fingerprint": fingerprint,
            "deps": deps_fp,
        }, payload))

    # -- lint ----------------------------------------------------------------

    def lint_source(self, source: str, path: str = "<string>") -> FileReport:
        """Lint in-memory source.  Uncached: text without a file has no
        identity in the dependency universe."""
        return _lint_source_impl(source, path=path,
                                 config=self.config.to_lint_config())

    def _lint_miss(self, f: pathlib.Path, sha: Optional[str],
                   deps_fp: str, handoff: bool = False) -> FileReport:
        """Analyze one file, pre-seeding (and afterwards persisting) its
        interprocedural summary table when the cache is on.

        With ``handoff``, a pass the optimizer could have run itself
        also records facts and is kept for the next optimize miss: the
        summary table started empty (a pre-seeded one skips callee
        bodies, so their recordings would be missing and the meets would
        claim too much), the analysis knobs equal the default
        :class:`LintConfig`'s (what the optimizer verifies with), and no
        crash or deadline cut the pass short.  Recording runs every
        top-level def, not only lint's, so only :meth:`lint_file` asks
        for it: of a ``lint_paths`` run's misses only the last could be
        handed off."""
        summaries = None
        fresh = True
        persist_summaries = self.cache is not None and sha is not None
        if persist_summaries:
            summaries = self._get_cached("summaries", f, sha, deps_fp)
            fresh = summaries is None
            if summaries is None:
                from repro.stllint.summaries import SummaryTable

                summaries = SummaryTable()
        config = self.config.to_lint_config()
        default = LintConfig()
        recorder = None
        if handoff and sha is not None and fresh and (
                config.concept_pass, config.interprocedural,
                config.timeout_s) == (
                default.concept_pass, default.interprocedural,
                default.timeout_s):
            recorder = FactRecorder()
        report = _lint_file_impl(f, config, summaries=summaries,
                                 facts=recorder)
        self.counters["lint_analyzed"] += 1
        if recorder is not None:
            analysis = SourceAnalysis(report, recorder.table())
            if not analysis.failures:
                self._handoff = ((str(f), sha), analysis)
        if sha is not None and _cacheable(report.findings):
            self._store("lint", f, sha, deps_fp,
                        file_report_to_payload(report))
            if persist_summaries and len(summaries):
                self._store("summaries", f, sha, deps_fp,
                            summary_table_to_payload(summaries))
        return report

    def lint_file(self, path: PathLike) -> FileReport:
        """Lint one file, served from cache when warm.  The dependency
        universe of a single-file call is just the file itself."""
        f = pathlib.Path(path)
        read = self._read(f)
        sha = read[1] if read is not None else None
        if sha is not None:
            cached = self._get_cached("lint", f, sha, "")
            if cached is not None:
                self.counters["lint_from_cache"] += 1
                return cached
        return self._lint_miss(f, sha, "", handoff=True)

    def lint_paths(self, paths: Sequence[PathLike]) -> ProjectReport:
        """Lint every Python file under ``paths``: warm files from the
        cache, cold files across the worker pool, merged in discovery
        order (bit-identical to a serial run)."""
        files = discover_files(paths, self.config.exclude)
        reports: list[Optional[FileReport]] = [None] * len(files)
        misses: list[int] = []
        hashes: dict[pathlib.Path, str] = {}
        fingerprints: dict[pathlib.Path, str] = {}
        if self.cache is not None:
            _, hashes, fingerprints = self._project_state(files)
        for i, f in enumerate(files):
            sha = hashes.get(f)
            if sha is not None:
                cached = self._get_cached(
                    "lint", f, sha, fingerprints.get(f, ""))
                if cached is not None:
                    self.counters["lint_from_cache"] += 1
                    reports[i] = cached
                    continue
            misses.append(i)

        if len(misses) > 1 and self.config.jobs != 1:
            results = _pool_map(
                _lint_worker,
                [(str(files[i]), self.config) for i in misses],
                self.config.jobs,
            )
            for i, report in zip(misses, results):
                f = files[i]
                reports[i] = report
                self.counters["lint_analyzed"] += 1
                sha = hashes.get(f)
                if sha is not None and _cacheable(report.findings):
                    self._store("lint", f, sha, fingerprints.get(f, ""),
                                file_report_to_payload(report))
        else:
            for i in misses:
                f = files[i]
                reports[i] = self._lint_miss(
                    f, hashes.get(f), fingerprints.get(f, ""))
        return ProjectReport(files=[r for r in reports if r is not None])

    # -- optimize ------------------------------------------------------------

    def optimize_source(self, source: str, path: str = "<string>"):
        from repro.optimize.pipeline import _optimize_source_impl

        deadline = (
            Deadline.after(self.config.timeout_s)
            if self.config.timeout_s is not None else None
        )
        return _optimize_source_impl(
            source, path=path, resource=self.config.resource,
            size=self.config.size, deadline=deadline,
            monomorphize=self.config.monomorphize,
        )

    def _optimize_miss(self, f: pathlib.Path, sha: Optional[str],
                       deps_fp: str, write: bool):
        from repro.optimize.pipeline import _optimize_file_impl

        handoff, self._handoff = self._handoff, None
        analysis = None
        if handoff is not None and sha is not None \
                and handoff[0] == (str(f), sha):
            analysis = handoff[1]
        result = _optimize_file_impl(
            f, write=write, resource=self.config.resource,
            size=self.config.size, timeout_s=self.config.timeout_s,
            monomorphize=self.config.monomorphize, analysis=analysis,
        )
        self.counters["optimize_analyzed"] += 1
        # ``--write`` changes the file after analysis, so the cached
        # entry (keyed by the *pre-write* hash) would never be looked up
        # again for a changed file; store only results that keyed
        # content still on disk: unchanged files, or non-write runs.
        changed_on_disk = write and result.changed and result.verified
        if sha is not None and not changed_on_disk \
                and _cacheable(result.findings):
            self._store("optimize", f, sha, deps_fp,
                        optimize_result_to_payload(result))
        return result

    def optimize_file(self, path: PathLike, write: bool = False):
        from repro.optimize.pipeline import (
            _internal_result,
            _write_optimized,
        )

        f = pathlib.Path(path)
        read = self._read(f)
        sha = read[1] if read is not None else None
        if sha is not None:
            cached = self._get_cached("optimize", f, sha, "",
                                      source=read[0])
            if cached is not None:
                self.counters["optimize_from_cache"] += 1
                if write and cached.changed and cached.verified:
                    try:
                        _write_optimized(f, read[0], cached)
                    except Exception as exc:  # noqa: BLE001 - isolate
                        return _internal_result(str(f), read[0], exc)
                return cached
        return self._optimize_miss(f, sha, "", write)

    def optimize_paths(self, paths: Sequence[PathLike],
                       write: bool = False) -> list:
        files = discover_files(paths, self.config.exclude)
        results: list = [None] * len(files)
        misses: list[int] = []
        sources: dict[pathlib.Path, str] = {}
        hashes: dict[pathlib.Path, str] = {}
        fingerprints: dict[pathlib.Path, str] = {}
        if self.cache is not None:
            sources, hashes, fingerprints = self._project_state(files)
        from repro.optimize.pipeline import (
            _internal_result,
            _write_optimized,
        )

        for i, f in enumerate(files):
            sha = hashes.get(f)
            if sha is not None:
                cached = self._get_cached(
                    "optimize", f, sha, fingerprints.get(f, ""),
                    source=sources[f])
                if cached is not None:
                    self.counters["optimize_from_cache"] += 1
                    if write and cached.changed and cached.verified:
                        try:
                            _write_optimized(f, sources[f], cached)
                        except Exception as exc:  # noqa: BLE001
                            cached = _internal_result(
                                str(f), sources[f], exc)
                    results[i] = cached
                    continue
            misses.append(i)

        if len(misses) > 1 and self.config.jobs != 1:
            mapped = _pool_map(
                _optimize_worker,
                [(str(files[i]), write, self.config) for i in misses],
                self.config.jobs,
            )
            for i, result in zip(misses, mapped):
                f = files[i]
                results[i] = result
                self.counters["optimize_analyzed"] += 1
                sha = hashes.get(f)
                changed = write and result.changed and result.verified
                if sha is not None and not changed \
                        and _cacheable(result.findings):
                    self._store(
                        "optimize", f, sha, fingerprints.get(f, ""),
                        optimize_result_to_payload(result))
        else:
            for i in misses:
                f = files[i]
                results[i] = self._optimize_miss(
                    f, hashes.get(f), fingerprints.get(f, ""), write)
        return [r for r in results if r is not None]

    # -- facts ---------------------------------------------------------------

    def collect_facts_file(self, path: PathLike) -> FactTable:
        """Collect STLlint facts for one file, cached like lint results."""
        from repro.stllint.facts_collection import collect_facts

        f = pathlib.Path(path)
        read = self._read(f)
        if read is None:
            raise OSError(f"cannot read {f}")
        source, sha = read
        cached = self._get_cached("facts", f, sha, "")
        if cached is not None:
            self.counters["facts_from_cache"] += 1
            return cached
        table = collect_facts(
            source,
            interprocedural=self.config.interprocedural,
        )
        self.counters["facts_analyzed"] += 1
        if self.cache is not None:
            self._store("facts", f, sha, "", fact_table_to_payload(table))
        return table

    # -- service operations --------------------------------------------------

    def invalidate(self, paths: Optional[Sequence[PathLike]] = None) -> int:
        """Drop cache entries (all, or those recorded for ``paths``)."""
        if self.cache is None:
            return 0
        return self.cache.invalidate(
            [str(p) for p in paths] if paths is not None else None)

    def stats(self) -> dict:
        from . import cache as _cache

        tr = _trace.ACTIVE
        if tr is not None:
            tr.event("analysis.stats", cat="analysis", **self.counters)
        return {
            "schema_version": SCHEMA_VERSION,
            "jobs": self.config.jobs,
            "cache_enabled": self.cache is not None,
            "cache_dir": str(self.cache.root) if self.cache else None,
            "cache_entries": len(self.cache) if self.cache else 0,
            "cache": _cache.stats(),
            "session": dict(self.counters),
        }
