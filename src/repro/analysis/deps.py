"""Same-project import dependencies, for cross-file cache invalidation.

STLlint's interprocedural reasoning is summary-based
(:mod:`repro.stllint.summaries`): a caller's findings can depend on the
bodies of the functions it calls.  Today those summaries are scoped to
one module, but a *sound* cache has to be built for the day they cross
files — so a file's cache key folds in a **dependency fingerprint**: the
content hashes of every file it (transitively) imports from within the
analyzed project.  Editing a callee's module then changes the dependency
fingerprint of every direct and transitive importer, forcing exactly
those files to re-analyze while the rest of the project stays warm.

Resolution is deliberately an **over-approximation**: an import is
matched against every dotted-suffix spelling of every file in the
analyzed set (``src/repro/lint/driver.py`` answers to
``repro.lint.driver``, ``lint.driver`` and ``driver``), and relative
imports are matched by their trailing module names.  A false edge only
costs an unnecessary re-analysis; a missed edge would serve stale
results — so ties break toward more invalidation.

A file's import names depend on its bytes alone, so a caller with a
store of them (the analysis session keeps one in its cache directory,
see :mod:`repro.analysis.cache`) passes ``names_of`` and only the files
it has not seen before get parsed.
"""

from __future__ import annotations

import ast
import hashlib
import pathlib
from typing import Callable, Iterable, Optional

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


def imported_names(source: str) -> set[str]:
    """Dotted names mentioned by ``import``/``from-import`` statements,
    including the ``from X import Y`` spelling of submodule imports.
    Unparseable sources import nothing (the parse error itself is the
    analysis result, and it only depends on the file's own content)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return set()
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if base:
                names.add(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.add(f"{base}.{alias.name}" if base else alias.name)
    return names


#: Maps a file to the names it imports (see :func:`imported_names`).
NamesOf = Callable[[pathlib.Path], Iterable[str]]


def dependency_graph(
    files: Iterable[pathlib.Path], sources: dict[pathlib.Path, str],
    names_of: Optional[NamesOf] = None,
) -> dict[pathlib.Path, set[pathlib.Path]]:
    """Direct same-project import edges among ``files`` (file -> files it
    imports).  ``sources`` maps each file to its already-read text;
    ``names_of``, when given, answers in place of parsing it."""
    if names_of is None:
        def names_of(f: pathlib.Path) -> Iterable[str]:
            return imported_names(sources.get(f, ""))
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


def transitive_closure(
    graph: dict[pathlib.Path, set[pathlib.Path]],
) -> dict[pathlib.Path, set[pathlib.Path]]:
    """Reachability (excluding the node itself unless it sits on a
    cycle); iterative DFS, robust to import cycles."""
    closure: dict[pathlib.Path, set[pathlib.Path]] = {}
    for start in graph:
        seen: set[pathlib.Path] = set()
        stack = list(graph[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph.get(node, ()))
        closure[start] = seen
    return closure


def dependency_fingerprints(
    files: Iterable[pathlib.Path],
    sources: dict[pathlib.Path, str],
    hashes: dict[pathlib.Path, str],
    names_of: Optional[NamesOf] = None,
) -> dict[pathlib.Path, str]:
    """Per-file digest over the (path-stem, content-hash) pairs of the
    file's transitive same-project imports.  Stems rather than full
    paths keep the fingerprint stable when the same tree is analyzed
    from a different working directory.  ``names_of`` is passed on to
    :func:`dependency_graph`; it changes what is parsed, never the
    digest."""
    graph = dependency_graph(files, sources, names_of)
    # The closure runs over indices: ints hash in C, paths in Python.
    nodes = list(graph)
    index = {f: i for i, f in enumerate(nodes)}
    closure = transitive_closure(
        {index[f]: {index[d] for d in deps} for f, deps in graph.items()})
    items = [f"{f.name}:{hashes.get(f, '')}" for f in nodes]
    out: dict[pathlib.Path, str] = {}
    for i, deps in closure.items():
        if not deps:
            out[nodes[i]] = ""
            continue
        blob = "\x1f".join(
            sorted(items[d] for d in deps if d != i)).encode("utf-8")
        out[nodes[i]] = hashlib.sha256(blob).hexdigest()[:16]
    return out
