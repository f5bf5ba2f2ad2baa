"""Content-hash-keyed on-disk result cache.

The cache is the heart of "analysis as a service": a lint or optimize
result for one file is a pure function of

- the file's **content hash**,
- the **config fingerprint** (the semantic knobs, see
  :meth:`repro.analysis.config.AnalysisConfig.fingerprint`),
- the **dependency fingerprint** (the content hashes of the
  same-project files the analysis reads through the concept pass's
  imports, and of their transitive imports, see
  :mod:`repro.analysis.deps`), and
- the **schema version** of the serialized payload,

so all four are folded into the cache *key*.  Invalidation is therefore
by construction, never by bookkeeping: editing a file, changing a
semantically relevant knob, upgrading the payload
schema, or editing a module the analysis reads each produce a
different key, and the stale entry is simply never looked up again.
There is no mutable index to corrupt and no coherence protocol to get
wrong — the only delete paths are the explicit ``invalidate`` operation
and the discard of an entry that fails schema validation on read.

The dependency fingerprint itself needs every file's imported and read
names, and those are cached the same way, under
``imports/<content-sha256>.json``.  Both lists are a pure function of
the file's bytes, so the key holds nothing else — no path, no config,
no dependencies — and the store is not an index either: an entry can be
missing (the file is scanned again) but never stale, because different
bytes have a different name.  Two files with equal bytes share one
entry, which is correct for the same reason.  A warm pass therefore
parses only the files whose bytes changed.

Entries are single JSON files written atomically (temp file +
``os.replace``) with sorted keys, so concurrent writers (worker
processes, parallel CI jobs) can only ever race to write *identical
bytes*, and a reader never observes a torn entry.

Process-wide counters (`hits`/`misses`/`stores`/`invalidations`/
`discards`) follow the same pattern as the fixpoint engine's
:func:`repro.stllint.dataflow.stats`: module-global, sampled into trace
exports as the ``analysis.cache`` counter track, and assertable from
tests and CI gates.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import shutil
import tempfile
from typing import Any, Iterable, Iterator, Optional

from ..trace import core as _trace

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_ANALYSIS_CACHE"


def default_cache_dir() -> pathlib.Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-analysis"


class CacheStats:
    """Process-wide cache counters (one instance: :data:`STATS`)."""

    __slots__ = ("hits", "misses", "stores", "invalidations", "discards")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0           # entry found and validated
        self.misses = 0         # no entry for the key
        self.stores = 0         # entries written
        self.invalidations = 0  # entries removed by an invalidate op
        self.discards = 0       # entries rejected by schema validation

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


STATS = CacheStats()


def stats() -> dict[str, int]:
    """Snapshot of the process-wide cache counters."""
    return STATS.as_dict()


def reset_stats() -> None:
    STATS.reset()


#: Version of the ``imports/`` entry format; any other value is discarded.
IMPORTS_SCHEMA_VERSION = 2


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_key(kind: str, path: str, content_sha: str, fingerprint: str,
             deps_fingerprint: str, schema_version: int) -> str:
    """Digest of every coherence-relevant input (see module docstring).

    ``path`` (resolved) is part of the key because results are not
    purely content-addressed: findings embed the file's path, so two
    identical-content files must not alias to one entry.
    """
    blob = "\x1f".join(
        (kind, str(schema_version), path, content_sha, fingerprint,
         deps_fingerprint)
    ).encode("utf-8")
    return f"{kind}-{hashlib.sha256(blob).hexdigest()}"


class AnalysisCache:
    """One cache directory of atomically written JSON entries."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = pathlib.Path(root) if root else default_cache_dir()

    # -- entry I/O -----------------------------------------------------------

    def _entry_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """Return the stored envelope for ``key``, or ``None`` (counted
        as a miss).  An unreadable/undecodable entry is discarded."""
        path = self._entry_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
            envelope = json.loads(raw)
        except (OSError, ValueError):
            if path.exists():
                self.discard(key)
            STATS.misses += 1
            self._trace_event("miss", key)
            return None
        STATS.hits += 1
        self._trace_event("hit", key)
        return envelope

    def put(self, key: str, envelope: dict) -> None:
        """Atomically write ``envelope`` (sorted keys: byte-deterministic,
        so racing writers of the same key write identical files)."""
        _write_atomic(self._entry_path(key), envelope)
        STATS.stores += 1
        self._trace_event("store", key)

    def discard(self, key: str) -> None:
        """Remove an entry that failed validation (old schema, torn
        write from a pre-atomic era, hand-edited junk)."""
        try:
            self._entry_path(key).unlink()
        except OSError:
            pass
        STATS.discards += 1
        self._trace_event("discard", key)

    # -- import store --------------------------------------------------------

    def _imports_path(self, content_sha: str) -> pathlib.Path:
        return self.root / "imports" / f"{content_sha}.json"

    def get_imports(
        self, content_sha: str,
    ) -> Optional[tuple[list[str], list[str]]]:
        """The stored ``(imported, read)`` names (see
        :func:`repro.analysis.deps.scan_imports`) of the file whose bytes
        hash to ``content_sha``, or ``None``.  An entry of another
        version or shape is discarded, never half-read."""
        path = self._imports_path(content_sha)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            entry = None
        if isinstance(entry, dict) \
                and entry.get("schema_version") == IMPORTS_SCHEMA_VERSION:
            scan = entry.get("names"), entry.get("reads")
            if all(isinstance(names, list)
                   and all(isinstance(n, str) for n in names)
                   for names in scan):
                return scan
        with contextlib.suppress(OSError):
            path.unlink()
        return None

    def put_imports(self, content_sha: str,
                    scan: tuple[Iterable[str], Iterable[str]]) -> None:
        _write_atomic(self._imports_path(content_sha), {
            "schema_version": IMPORTS_SCHEMA_VERSION,
            "names": sorted(scan[0]),
            "reads": sorted(scan[1]),
        })

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> Iterator[pathlib.Path]:
        if not self.root.is_dir():
            return iter(())
        return iter(sorted(self.root.glob("*-*.json")))

    def invalidate(self, paths: Optional[list[str]] = None) -> int:
        """Remove entries.  With ``paths`` given, only entries whose
        recorded source path matches one of them (by resolved path);
        otherwise everything, the import store included.  Returns the
        number of result entries removed."""
        wanted = None
        if paths is not None:
            wanted = {str(pathlib.Path(p).resolve()) for p in paths}
        else:
            shutil.rmtree(self.root / "imports", ignore_errors=True)
        removed = 0
        for entry in self.entries():
            if wanted is not None:
                try:
                    envelope = json.loads(entry.read_text(encoding="utf-8"))
                    recorded = envelope.get("key", {}).get("path", "")
                except (OSError, ValueError):
                    recorded = ""
                if str(pathlib.Path(recorded).resolve()) not in wanted:
                    continue
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        STATS.invalidations += removed
        if removed:
            self._trace_event("invalidate", f"{removed} entries")
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    # -- tracing -------------------------------------------------------------

    @staticmethod
    def _trace_event(outcome: str, key: str) -> None:
        tr = _trace.ACTIVE
        if tr is not None:
            tr.event("analysis.cache", cat="analysis", outcome=outcome,
                     key=key)


def _write_atomic(path: pathlib.Path, document: Any) -> None:
    """Write ``document`` as canonical JSON (sorted keys, so racing
    writers of one name write identical bytes) via a temp file in the
    same directory and ``os.replace``: a reader sees all or nothing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(document, sort_keys=True, indent=None,
                         separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
