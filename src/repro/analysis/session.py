"""The :class:`AnalysisSession` façade — analysis as a service.

One object unifies what used to be four loose entry points
(``lint_source``/``lint_file``/``lint_paths`` from the lint driver and
``optimize_source``/``optimize_file`` from the optimizer pipeline)
behind one :class:`~repro.analysis.config.AnalysisConfig`, and adds the
two things a *service* needs that a batch CLI does not:

- **incrementality** — per-file lint reports and optimize results are
  served from the content-hash-keyed on-disk cache
  (:mod:`repro.analysis.cache`) when the file, the same-project modules
  its analysis reads (see :mod:`repro.analysis.deps`), and the semantic
  config are all unchanged, and a warm ``*_paths`` pass reads one
  manifest rather than two cache files per source file;
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
from typing import NamedTuple, Optional, Sequence, Union

from repro.lint.driver import (
    FileReport,
    PassRecorder,
    ProjectReport,
    SourceAnalysis,
    _lint_file_impl,
    _lint_source_impl,
    discover,
)
from repro.lint.suppressions import LINT_INTERNAL, LINT_TIMEOUT
from repro.resilience import Deadline
from repro.trace import core as _trace

from . import cache as _cache
from . import deps as _deps
from .cache import AnalysisCache, content_hash, make_key
from .config import AnalysisConfig
from .schema import (
    SCHEMA_VERSION,
    SchemaError,
    decode_envelope,
    decode_payload,
    file_report_to_payload,
    make_envelope,
    optimize_result_to_payload,
)

PathLike = Union[str, pathlib.Path]

#: Findings that mark a result as run-specific (crash isolation /
#: deadline): such results are reported but never cached.
_UNCACHEABLE_CHECKS = frozenset({
    LINT_INTERNAL, LINT_TIMEOUT, "io-error",
    "OPT-INTERNAL", "OPT-TIMEOUT",
})


_TO_PAYLOAD = {"lint": file_report_to_payload,
               "optimize": optimize_result_to_payload}


def _cacheable(findings) -> bool:
    return all(f.check not in _UNCACHEABLE_CHECKS for f in findings)


class _Tracked(NamedTuple):
    """One readable file of a cached pass and its new manifest row."""

    path: pathlib.Path
    resolved: str
    data: bytes
    row: dict

    @property
    def source(self) -> str:
        # Decoded on demand: a lint served from the manifest never needs
        # the text, and bytes that a row holds decoded when it was made.
        return self.data.decode("utf-8")


# ---------------------------------------------------------------------------
# Worker-pool entry points (module-level: picklable under spawn too)
# ---------------------------------------------------------------------------


def _worker(item: tuple):
    kind, path_str, write, config = item
    if kind == "lint":
        return _lint_file_impl(pathlib.Path(path_str), config)
    from repro.optimize.pipeline import _optimize_file_impl

    return _optimize_file_impl(pathlib.Path(path_str), config, write=write)


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
        self, files: list[tuple[pathlib.Path, str]], rows: dict[str, dict],
    ) -> dict[int, _Tracked]:
        """Every readable discovered file's new manifest row, by
        discovery index: its sha, import scan, and dependency closure and
        fingerprint.  The scan of unchanged bytes comes from the old
        ``rows``, any other from the import store or a fresh parse, and
        the closures are rebuilt only when some scan or the file set
        moved."""
        state: dict[int, _Tracked] = {}
        same_graph, moved = True, False
        for i, (f, resolved) in enumerate(files):
            try:
                data = f.read_bytes()
            except OSError:
                continue
            sha = content_hash(data)
            old = rows.get(resolved)
            if old is not None and old["sha"] == sha:
                state[i] = _Tracked(f, resolved, data, dict(old))
                self.counters["imports_from_cache"] += 1
            else:
                try:
                    source = data.decode("utf-8")
                except UnicodeDecodeError:
                    continue
                names, reads = map(sorted, self._imports_of(
                    source, sha, store=old is None))
                if old is not None:
                    # Keep the scan of the bytes this row held, for a
                    # revert to them.
                    self.cache.put_imports(
                        old["sha"], (old["names"], old["reads"]))
                same_graph = same_graph and old is not None \
                    and (names, reads) == (old["names"], old["reads"])
                moved = True
                state[i] = _Tracked(f, resolved, data, {
                    "sha": sha, "names": names, "reads": reads})
        if not moved and len(state) == len(rows):
            return state    # every row stands, fingerprints included
        by_path = {t.path: t for t in state.values()}
        closures = None
        if same_graph and len(state) == len(rows):
            closures = {f: list(map(pathlib.Path, rows[t.resolved]["closure"]))
                        for f, t in by_path.items()}
        fingerprints, closures = _deps.dependency_fingerprints(
            by_path, {f: t.row["sha"] for f, t in by_path.items()},
            lambda f: (by_path[f].row["names"], by_path[f].row["reads"]),
            closures)
        for f, t in by_path.items():
            t.row["deps"] = fingerprints[f]
            t.row["closure"] = list(map(str, closures[f]))
        return state

    def _imports_of(self, source: str, sha: str, store: bool):
        """A file's imported and read names, from the content-addressed
        import store when its bytes were scanned before, else parsed and,
        with ``store``, stored."""
        scan = self.cache.get_imports(sha)
        if scan is not None:
            self.counters["imports_from_cache"] += 1
            return scan
        scan = _deps.scan_imports(source)
        self.counters["imports_scanned"] += 1
        if store:
            self.cache.put_imports(sha, scan)
        return scan

    def _get_cached(self, kind: str, resolved: str, sha: str,
                    deps_fp: str, source: str):
        """``(value, payload)`` of the entry keyed by these inputs, or
        None."""
        key = make_key(kind, resolved, sha, self.config.fingerprint(kind),
                       deps_fp, SCHEMA_VERSION)
        envelope = self.cache.get(key)
        if envelope is None:
            return None
        try:
            return decode_envelope(envelope, kind, source=source), \
                envelope["payload"]
        except SchemaError:
            self.cache.discard(key)
            return None

    def _keep(self, kind: str, resolved: str, sha: Optional[str],
              deps_fp: str, result, write: bool = False) -> Optional[dict]:
        """Store a fresh result under its key, and return its payload,
        when the cache is on and the result is cacheable."""
        # ``--write`` changes the file after analysis, so an entry keyed
        # by the *pre-write* hash would never be looked up again.
        if self.cache is None or sha is None \
                or not _cacheable(result.findings) \
                or (write and result.changed and result.verified):
            return None
        payload = _TO_PAYLOAD[kind](result)
        fingerprint = self.config.fingerprint(kind)
        self.cache.put(
            make_key(kind, resolved, sha, fingerprint, deps_fp,
                     SCHEMA_VERSION),
            make_envelope(kind, {
                "path": resolved,
                "content_sha256": sha,
                "fingerprint": fingerprint,
                "deps": deps_fp,
            }, payload))
        return payload

    def _file(self, kind: str, path: PathLike, write: bool = False):
        """One file, served from its keyed entry when warm.  The
        dependency universe of a single-file call is just the file
        itself, and no manifest is read or written."""
        f = pathlib.Path(path)
        source, sha = self._read(f) or (None, None)
        resolved = str(f.resolve()) if self.cache is not None else ""
        if self.cache is not None and sha is not None:
            hit = self._get_cached(kind, resolved, sha, "", source)
            if hit is not None:
                self.counters[f"{kind}_from_cache"] += 1
                return self._write_served(f, source, hit[0]) \
                    if write else hit[0]
        result = self._lint_miss(f, sha) if kind == "lint" \
            else self._optimize_miss(f, write, sha)
        self._keep(kind, resolved, sha, "", result, write)
        return result

    def _paths_pass(self, kind: str, paths: Sequence[PathLike],
                    write: bool = False) -> list:
        """The one loop behind :meth:`lint_paths` and
        :meth:`optimize_paths`.  A file is served from its manifest row
        when its sha and dependency fingerprint match, else from its
        keyed entry; the rest are analyzed across the worker pool and
        merged in discovery order (bit-identical to a serial run).  The
        manifest is rewritten only when a row changed."""
        files = discover(paths, self.config.exclude)
        results: list = [None] * len(files)
        state: dict[int, _Tracked] = {}
        rows: dict[str, dict] = {}
        if self.cache is not None:
            identity = {
                "kind": kind, "schema_version": SCHEMA_VERSION,
                "fingerprint": self.config.fingerprint(kind),
                "exclude": list(self.config.exclude),
                "roots": [[str(pathlib.Path(p)),
                           str(pathlib.Path(p).resolve())] for p in paths],
            }
            rows = self.cache.get_manifest(identity)
            state = self._project_state(files, rows)
        misses: list[int] = []
        for i, (f, _) in enumerate(files):
            t = state.get(i)
            served = None if t is None else self._serve(
                kind, t, rows.get(t.resolved))
            if served is None:
                misses.append(i)
                continue
            self.counters[f"{kind}_from_cache"] += 1
            results[i] = self._write_served(f, t.source, served) \
                if write else served

        mapped = _pool_map(_worker, [
            (kind, str(files[i][0]), write, self.config) for i in misses
        ], self.config.jobs)
        self.counters[f"{kind}_analyzed"] += len(misses)
        for i, result in zip(misses, mapped):
            results[i] = result
            t = state.get(i)
            if t is not None:
                t.row["payload"] = self._keep(
                    kind, t.resolved, t.row["sha"], t.row["deps"], result,
                    write)
        if self.cache is not None:
            new_rows = {t.resolved: t.row for t in state.values()}
            if new_rows != rows:
                self.cache.put_manifest(identity, new_rows)
        return [r for r in results if r is not None]

    def _serve(self, kind: str, t: _Tracked, old: Optional[dict]):
        """The cached value for one tracked file, from its old manifest
        row or its keyed entry, or None; sets the new row's payload."""
        row = t.row
        if old is not None and old["payload"] is not None \
                and (old["sha"], old["deps"]) == (row["sha"], row["deps"]) \
                and old["payload"].get("path") == str(t.path):
            try:
                value = decode_payload(
                    kind, old["payload"],
                    t.source if kind == "optimize" else None)
            except SchemaError:
                pass
            else:
                row["payload"] = old["payload"]
                _cache.STATS.hits += 1
                return value
        hit = self._get_cached(kind, t.resolved, row["sha"], row["deps"],
                               t.source)
        row["payload"] = None if hit is None else hit[1]
        return None if hit is None else hit[0]

    @staticmethod
    def _write_served(f: pathlib.Path, source: str, cached):
        """A served optimize result under ``write`` applies its
        rewrite, as a fresh analysis would."""
        if cached.changed and cached.verified:
            from repro.optimize.pipeline import (
                _internal_result,
                _write_optimized,
            )

            try:
                _write_optimized(f, source, cached)
            except Exception as exc:  # noqa: BLE001 - isolate
                return _internal_result(str(f), source, exc)
        return cached

    # -- lint ----------------------------------------------------------------

    def lint_source(self, source: str, path: str = "<string>") -> FileReport:
        """Lint in-memory source.  Uncached: text without a file has no
        identity in the dependency universe."""
        return _lint_source_impl(source, path=path, config=self.config)

    def _lint_miss(self, f: pathlib.Path, sha: Optional[str]) -> FileReport:
        """Analyze one file for :meth:`lint_file`.

        With ``sha``, a pass the optimizer could have run itself
        also records facts and is kept for the next optimize miss: the
        analysis knobs equal the default :class:`AnalysisConfig`'s (what
        the optimizer verifies with), and no crash or deadline cut the
        pass short.  Recording runs every top-level def, not only lint's, so
        ``lint_paths`` misses, of which only the last could be handed
        off, go straight to the worker pool instead."""
        config, default = self.config, AnalysisConfig()
        recorder = None
        if sha is not None and (
                config.concept_pass, config.interprocedural,
                config.timeout_s) == (
                default.concept_pass, default.interprocedural,
                default.timeout_s):
            recorder = PassRecorder()
        report = _lint_file_impl(f, config, facts=recorder)
        self.counters["lint_analyzed"] += 1
        if recorder is not None:
            analysis = recorder.analysis(report)
            if not analysis.failures:
                self._handoff = ((str(f), sha), analysis)
        return report

    def lint_file(self, path: PathLike) -> FileReport:
        """Lint one file, served from cache when warm."""
        return self._file("lint", path)

    def lint_paths(self, paths: Sequence[PathLike]) -> ProjectReport:
        """Lint every Python file under ``paths``: warm files from the
        cache, cold files across the worker pool, merged in discovery
        order (bit-identical to a serial run)."""
        return ProjectReport(files=self._paths_pass("lint", paths))

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
        )

    def _optimize_miss(self, f: pathlib.Path, write: bool,
                       sha: Optional[str]):
        """Analyze one file for :meth:`optimize_file`, planning from the
        last lint miss's pass when it analyzed these bytes (``sha``)."""
        from repro.optimize.pipeline import _optimize_file_impl

        handoff, self._handoff = self._handoff, None
        analysis = None
        if handoff is not None and sha is not None \
                and handoff[0] == (str(f), sha):
            analysis = handoff[1]
        result = _optimize_file_impl(f, self.config, write=write,
                                     analysis=analysis)
        self.counters["optimize_analyzed"] += 1
        return result

    def optimize_file(self, path: PathLike, write: bool = False):
        return self._file("optimize", path, write)

    def optimize_paths(self, paths: Sequence[PathLike],
                       write: bool = False) -> list:
        return self._paths_pass("optimize", paths, write)

    # -- service operations --------------------------------------------------

    def invalidate(self, paths: Optional[Sequence[PathLike]] = None) -> int:
        """Drop cache entries (all, or those recorded for ``paths``)."""
        if self.cache is None:
            return 0
        return self.cache.invalidate(
            [str(p) for p in paths] if paths is not None else None)

    def stats(self) -> dict:
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
