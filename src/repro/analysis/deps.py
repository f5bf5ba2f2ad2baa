"""Same-project import dependencies, for cross-file cache invalidation.

A cached lint or optimize result must change when anything it read
changes.  Within its own file that is the content hash; across files a
result reads exactly one thing.  The concept pass
(:mod:`repro.lint.concept_pass`) imports, with :mod:`importlib`, the
modules named by the linted file's absolute imports, to resolve
``@where`` decorators, their concepts and the classes built at call
sites.  It does so only when
:func:`~repro.lint.concept_pass.reads_imports` holds: a top-level
``def`` has a call decorator rooted at an import alias.  Otherwise it
returns before resolving any name.  STLlint's interprocedural summaries
are module-local (:func:`repro.stllint.interpreter.module_function_table`),
and the optimizer reads other modules only through the lint it runs to
verify its rewrites, which add no imports or decorators.

So a file's **read names** are all of its imported names when the
predicate holds, and none otherwise (:func:`scan_imports`).  Importing a
module runs it, and with it everything it imports, so a file's
**dependency fingerprint** folds in the content hashes of its read
names' files and of their transitive imports.  A file that reads
nothing gets the empty fingerprint.  Editing a module re-analyzes it and
only those files whose read names reach it; a comment edit to a hub
that many files import, none of them through a resolvable decorator,
re-analyzes the hub alone.  The predicate is the concept pass's own
gate, so widening what the pass resolves widens the keys with it.

A ``@where`` user that imports ``where`` relatively (``from .where
import where``, as the library's own algorithms do) reads nothing: the
concept pass never resolves relative imports, so such call sites go
unchecked, with or without the cache.  That false negative predates the
narrower keys.

Resolution is deliberately an **over-approximation**: an import is
matched against every dotted-suffix spelling of every file in the
analyzed set (``src/repro/lint/driver.py`` answers to
``repro.lint.driver``, ``lint.driver`` and ``driver``), relative
imports are matched by their trailing module names, and importing
``a.b`` also names ``a``.  A false edge only costs an unnecessary
re-analysis; a missed edge would serve stale results, so ties break
toward more invalidation.  Modules the import system finds outside the
analyzed set are not tracked.

A file's names depend on its bytes alone, so a caller with a store of
them (the analysis session keeps one in its cache directory, see
:mod:`repro.analysis.cache`) passes a ``scan_of`` that parses only the
files it has not seen before.
"""

from __future__ import annotations

import ast
import hashlib
import pathlib
from typing import Callable, Iterable

from repro.lint.concept_pass import reads_imports

#: Registering every dotted suffix of a deep path would be quadratic in
#: path depth for no benefit; real imports rarely spell more than this
#: many segments.
_MAX_SUFFIX_SEGMENTS = 5


def module_aliases(path: pathlib.Path) -> set[str]:
    """Every dotted name under which ``path`` could plausibly be
    imported (all dotted suffixes of its package path)."""
    parts = list(path.parts)
    stem = path.stem
    if stem == "__init__":
        parts = parts[:-1]          # package dir itself
        if not parts:
            return set()
    else:
        parts[-1] = stem
    parts = [p for p in parts if p not in ("/", "")]
    aliases: set[str] = set()
    for n in range(1, min(len(parts), _MAX_SUFFIX_SEGMENTS) + 1):
        aliases.add(".".join(parts[-n:]))
    return aliases


def scan_imports(source: str) -> tuple[set[str], set[str]]:
    """A file's ``(imported, read)`` dotted names, from one parse.

    *Imported* names are what executing the file imports: every name an
    ``import``/``from-import`` statement spells, with its dotted prefixes
    (importing ``a.b`` runs ``a`` first) and the ``from X import Y``
    spelling of submodule imports.  *Read* names are what linting the
    file imports: all of them when
    :func:`~repro.lint.concept_pass.reads_imports` holds, none otherwise.
    Unparseable sources import nothing (the parse error itself is the
    analysis result, and it only depends on the file's own content)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return set(), set()
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names: set[str] = set()
    for node in imports:
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        else:
            base = node.module or ""
            dotted = [f"{base}.{a.name}" if base else a.name
                      for a in node.names if a.name != "*"] + [base]
        for name in filter(None, dotted):
            parts = name.split(".")
            names.update(".".join(parts[:n])
                         for n in range(1, len(parts) + 1))
    return names, set(names) if reads_imports(tree, imports) else set()


#: Maps a file to one of its name sets (see :func:`scan_imports`).
NamesOf = Callable[[pathlib.Path], Iterable[str]]


def dependency_graph(
    files: Iterable[pathlib.Path], names_of: NamesOf,
) -> dict[pathlib.Path, set[pathlib.Path]]:
    """Same-project import edges among ``files``: each file maps to the
    other files that its ``names_of`` names match."""
    alias_to_files: dict[str, set[pathlib.Path]] = {}
    files = list(files)
    for f in files:
        for alias in module_aliases(f):
            alias_to_files.setdefault(alias, set()).add(f)
    graph: dict[pathlib.Path, set[pathlib.Path]] = {}
    for f in files:
        deps: set[pathlib.Path] = set()
        for name in names_of(f):
            deps.update(alias_to_files.get(name, ()))
        deps.discard(f)
        graph[f] = deps
    return graph


def reachable(graph, roots: Iterable) -> set:
    """``roots`` and every node reachable from them; iterative DFS,
    robust to import cycles."""
    seen: set = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(graph[node])
    return seen


def dependency_fingerprints(
    files: Iterable[pathlib.Path],
    hashes: dict[pathlib.Path, str],
    scan_of: Callable[[pathlib.Path], tuple[Iterable[str], Iterable[str]]],
) -> dict[pathlib.Path, str]:
    """Per-file digest over the (path-stem, content-hash) pairs of the
    files linting it reads: its read names' files and everything they
    import, transitively; ``""`` when it reads none.  Stems rather than
    full paths keep the fingerprint stable when the same tree is
    analyzed from a different working directory.  ``scan_of`` gives a
    file's :func:`scan_imports`, from a store or a fresh parse alike."""
    scans = {f: scan_of(f) for f in files}
    graph = dependency_graph(scans, lambda f: scans[f][0])
    reads = dependency_graph(scans, lambda f: scans[f][1])
    # The search runs over indices: ints hash in C, paths in Python.
    nodes = list(graph)
    index = {f: i for i, f in enumerate(nodes)}
    edges = [[index[d] for d in graph[f]] for f in nodes]
    items = [f"{f.name}:{hashes.get(f, '')}" for f in nodes]
    out: dict[pathlib.Path, str] = {}
    for i, f in enumerate(nodes):
        deps = reachable(edges, [index[d] for d in reads[f]])
        deps.discard(i)
        out[f] = hashlib.sha256("\x1f".join(
            sorted(items[d] for d in deps)).encode("utf-8")
        ).hexdigest()[:16] if deps else ""
    return out
