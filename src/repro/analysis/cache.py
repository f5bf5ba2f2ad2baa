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
The only delete paths are the explicit ``invalidate`` operation and the
discard of an entry that fails validation on read.

The dependency fingerprint itself needs every file's imported and read
names, and those are cached the same way, under
``imports/<content-sha256>.json``.  Both lists are a pure function of
the file's bytes, so the key holds nothing else — no path, no config,
no dependencies — and an entry can be missing (the file is scanned
again) but never stale, because different bytes have a different name.
Two files with equal bytes share one entry, which is correct for the
same reason.

The one mutable file is a pass's **manifest**, under
``manifests/<kind>-<digest>.json``, one per (kind, schema version,
config fingerprint, exclude patterns, root set): per discovered file the
content sha, the import scan, the dependency closure and fingerprint,
and the result payload.  It is an accelerator, not an authority: a
row serves only when the file's freshly hashed bytes and freshly
derived dependency fingerprint equal the row's, so a row can be unused
but never stale, and a manifest of another version, identity or shape is
discarded whole.  A warm pass reads one manifest instead of one import
entry and one result entry per file.

Entries are single JSON files written atomically (temp file +
``os.replace``) with sorted keys, so concurrent writers (worker
processes, parallel CI jobs) can only ever race to write *identical
bytes*, and a reader never observes a torn entry.

Process-wide counters (`hits`/`misses`/`stores`/`invalidations`/
`discards`) follow the same pattern as the fixpoint engine's
:func:`repro.stllint.dataflow.stats`: module-global, registered as the
``analysis.cache`` group of :mod:`repro.trace.counters` (a trace counter
track and an exit-report line), and assertable from tests and CI gates.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import pathlib
import shutil
import tempfile
from typing import Any, Iterable, Iterator, Optional

from ..trace import core as _trace
from ..trace import counters as _counters

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


def _report(s: dict[str, int]) -> str:
    return "== repro.analysis cache stats ==\n" + ", ".join(
        f"{name}: {n}" for name, n in s.items())


def _tracks(s: dict[str, int]) -> list:
    # Quiet until the cache is touched, like the fixpoint engine's tracks.
    return [("analysis.cache", "analysis", s)] if any(s.values()) else []


_counters.register("analysis.cache", stats, _report, _tracks)


#: Version of the ``imports/`` entry format; any other value is discarded.
IMPORTS_SCHEMA_VERSION = 3
#: Version of the ``manifests/`` file format; any other value is discarded.
MANIFEST_VERSION = 1
#: The fields of a manifest row.
_ROW_FIELDS = {"sha", "names", "reads", "deps", "closure", "payload"}


def _strings(*lists: Any) -> bool:
    """Each argument is a list of strings.  The type checks map in C,
    since a warm pass checks every manifest row."""
    return all(type(x) is list for x in lists) \
        and set(map(type, itertools.chain(*lists))) <= {str}


def _row_ok(row: Any) -> bool:
    return (type(row) is dict and row.keys() == _ROW_FIELDS
            and isinstance(row["sha"], str) and isinstance(row["deps"], str)
            and type(row["payload"]) in (dict, type(None))
            and _strings(row["names"], row["reads"], row["closure"]))


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

    def _load(self, path: pathlib.Path, valid=lambda doc: True) -> Any:
        """The JSON document at ``path`` if ``valid`` accepts it, else
        ``None``.  One that is unreadable, undecodable or rejected is
        deleted and counted as a discard, never half-read."""
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if valid(doc):
                return doc
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            pass
        self._discard(path)
        return None

    def get(self, key: str) -> Optional[dict]:
        """Return the stored envelope for ``key``, or ``None`` (counted
        as a miss).  An unreadable/undecodable entry is discarded."""
        envelope = self._load(self._entry_path(key))
        if envelope is None:
            STATS.misses += 1
            self._trace_event("miss", key)
        else:
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
        self._discard(self._entry_path(key))

    def _discard(self, path: pathlib.Path) -> None:
        with contextlib.suppress(OSError):
            path.unlink()
        STATS.discards += 1
        self._trace_event("discard", path.stem)

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
        entry = self._load(self._imports_path(content_sha), lambda e: (
            isinstance(e, dict)
            and e.get("schema_version") == IMPORTS_SCHEMA_VERSION
            and _strings(e.get("names"), e.get("reads"))))
        return None if entry is None else (entry["names"], entry["reads"])

    def put_imports(self, content_sha: str,
                    scan: tuple[Iterable[str], Iterable[str]]) -> None:
        """Store a scan, unless these bytes' entry exists already."""
        path = self._imports_path(content_sha)
        if not path.exists():
            _write_atomic(path, {
                "schema_version": IMPORTS_SCHEMA_VERSION,
                "names": sorted(scan[0]),
                "reads": sorted(scan[1]),
            })

    # -- manifests -----------------------------------------------------------

    def _manifest_path(self, identity: dict) -> pathlib.Path:
        digest = hashlib.sha256(json.dumps(
            identity, sort_keys=True).encode("utf-8")).hexdigest()[:32]
        return self.root / "manifests" / f"{identity['kind']}-{digest}.json"

    def get_manifest(self, identity: dict) -> dict[str, dict]:
        """The rows, by resolved path, of the manifest for ``identity``,
        or ``{}``.  A manifest of another version, identity or shape is
        discarded, never half-read."""
        doc = self._load(self._manifest_path(identity), lambda d: (
            isinstance(d, dict) and d.get("version") == MANIFEST_VERSION
            and d.get("identity") == identity
            and isinstance(d.get("rows"), dict)
            and all(map(_row_ok, d["rows"].values()))))
        return {} if doc is None else doc["rows"]

    def put_manifest(self, identity: dict, rows: dict[str, dict]) -> None:
        _write_atomic(self._manifest_path(identity), {
            "version": MANIFEST_VERSION, "identity": identity, "rows": rows})

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> Iterator[pathlib.Path]:
        # ``glob`` yields nothing under a directory that does not exist.
        return iter(sorted(self.root.glob("*-*.json")))

    def invalidate(self, paths: Optional[list[str]] = None) -> int:
        """Remove entries.  With ``paths`` given, only entries and
        manifest rows recorded for one of them (by resolved path);
        otherwise everything, the import store and the manifests
        included.  Returns the number of result entries removed."""
        wanted = None
        if paths is None:
            shutil.rmtree(self.root / "imports", ignore_errors=True)
            shutil.rmtree(self.root / "manifests", ignore_errors=True)
        else:
            wanted = {str(pathlib.Path(p).resolve()) for p in paths}
            for path in sorted((self.root / "manifests").glob("*.json")):
                doc = self._load(path, lambda d: isinstance(d, dict)
                                 and isinstance(d.get("rows"), dict))
                if doc is not None and wanted & doc["rows"].keys():
                    doc["rows"] = {p: row for p, row in doc["rows"].items()
                                   if p not in wanted}
                    _write_atomic(path, doc)
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
