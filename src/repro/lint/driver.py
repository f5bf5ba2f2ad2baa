"""The whole-program lint driver.

STLlint, as the paper describes it, "analyzes whole programs" — this
module is the project-level harness around the per-function symbolic
interpreter of :mod:`repro.stllint`:

- discovers every ``*.py`` file under the given paths,
- finds every function with container-annotated parameters (or locals)
  and checks it, with same-module calls analyzed interprocedurally,
- runs the concept-conformance pass over ``@where`` call sites,
- applies ``# stllint: ignore[...]`` suppressions,
- aggregates everything into a :class:`ProjectReport` that renders as
  text or machine-readable JSON and gates an exit status by severity.
"""

from __future__ import annotations

import ast
import bisect
import json
import os
import pathlib
import re
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from repro.facts.properties import INVALIDATION
from repro.facts.records import FactRecorder, FactTable
from repro.resilience import Deadline, DeadlineExceeded
from repro.stllint.dataflow import FixpointChecker
from repro.stllint.diagnostics import Severity, source_lines
from repro.stllint.interpreter import module_function_table
from repro.stllint.summaries import SummaryTable
from repro.trace import core as _trace

from .suppressions import (
    ALL_CHECKS,
    LINT_INTERNAL,
    LINT_TIMEOUT,
    UNKNOWN_SUPPRESSION_CODE,
    UNUSED_SUPPRESSION,
    all_check_codes,
    check_code,
    collect_suppressions,
    is_suppressed,
)

if TYPE_CHECKING:
    # A runtime import would be circular: the repro.analysis package
    # imports this module.
    from repro.analysis.config import AnalysisConfig

#: Severity rank, most severe first (for --fail-on thresholds).
SEVERITY_ORDER: dict[str, int] = {
    "error": 0,
    "warning": 1,
    "suggestion": 2,
    "note": 3,
}

PathLike = Union[str, pathlib.Path]


@dataclass
class LintFinding:
    """One reported diagnostic, file-level."""

    path: str
    function: str
    line: int
    severity: str                     # "error" | "warning" | "suggestion" | "note"
    check: str
    message: str
    source_line: str = ""

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "function": self.function,
            "line": self.line,
            "severity": self.severity,
            "check": self.check,
            "message": self.message,
            "source_line": self.source_line,
        }

    def render(self) -> str:
        out = (
            f"{self.path}:{self.line}: {self.severity}: {self.message} "
            f"[{self.check}]"
        )
        if self.function and self.function != "<module>":
            out += f" (in {self.function})"
        if self.source_line.strip():
            out += f"\n    {self.source_line.strip()}"
        return out


@dataclass
class FileReport:
    """Findings for one file."""

    path: str
    findings: list[LintFinding] = field(default_factory=list)
    suppressed: int = 0
    functions_checked: int = 0

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "functions_checked": self.functions_checked,
            "suppressed": self.suppressed,
            "diagnostics": [f.to_dict() for f in self.findings],
        }


@dataclass
class ProjectReport:
    """Aggregated findings across every linted file."""

    files: list[FileReport] = field(default_factory=list)

    @property
    def findings(self) -> list[LintFinding]:
        return [f for fr in self.files for f in fr.findings]

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def partial(self) -> bool:
        """True when crash isolation or a deadline cut analysis short —
        the findings are valid but not complete (exit code 3)."""
        return any(
            f.check in (LINT_INTERNAL, LINT_TIMEOUT) for f in self.findings
        )

    def summary(self) -> dict:
        return {
            "files": len(self.files),
            "functions_checked": sum(
                fr.functions_checked for fr in self.files
            ),
            "errors": self.count("error"),
            "warnings": self.count("warning"),
            "suggestions": self.count("suggestion"),
            "notes": self.count("note"),
            "suppressed": sum(fr.suppressed for fr in self.files),
            "internal_errors": sum(
                1 for f in self.findings
                if f.check in (LINT_INTERNAL, LINT_TIMEOUT)
            ),
        }

    def to_dict(self) -> dict:
        from repro.analysis.schema import SCHEMA_VERSION

        return {
            "version": 1,               # legacy key, frozen forever
            "schema_version": SCHEMA_VERSION,
            "files": [fr.to_dict() for fr in self.files],
            "summary": self.summary(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        s = self.summary()
        lines.append(
            f"{s['errors']} error(s), {s['warnings']} warning(s), "
            f"{s['suggestions']} suggestion(s), {s['notes']} note(s) "
            f"in {s['files']} file(s) "
            f"({s['functions_checked']} function(s) checked, "
            f"{s['suppressed']} suppressed)"
        )
        return "\n".join(lines)

    def fails(self, threshold: str) -> bool:
        """True if any finding is at least as severe as ``threshold``."""
        if threshold == "never":
            return False
        limit = SEVERITY_ORDER[threshold]
        return any(
            SEVERITY_ORDER[f.severity] <= limit for f in self.findings
        )


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _container_annotated(arg: ast.arg) -> bool:
    ann = arg.annotation
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.lower() in INVALIDATION
    if isinstance(ann, ast.Name):
        return ann.id.lower() in INVALIDATION
    return False


def _container_local(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.AnnAssign)
        and isinstance(node.annotation, ast.Constant)
        and isinstance(node.annotation.value, str)
        and node.annotation.value.lower() in INVALIDATION
    )


#: The node types that can hold statements below them.
_BLOCK_NODES = (ast.stmt, ast.excepthandler, ast.match_case)


def _scan_module(
    tree: ast.Module,
) -> tuple[list[ast.FunctionDef], list[ast.stmt]]:
    """The functions to check and the import statements, from one walk.

    A function is checked when it declares tracked container state: a
    container-annotated parameter, or a container-annotated local
    anywhere below it (nested defs included).  Both lists come in
    :func:`ast.walk` order, so which functions are checked, and in
    which order, is what a per-function walk would give.

    Defs, imports and annotated locals are statements, and statements
    only occur below statements, ``except`` handlers and ``case``
    clauses, so the walk never enters an expression.  Breadth-first over
    that skeleton keeps every statement at its :func:`ast.walk` depth
    and sibling order."""
    functions: list[ast.FunctionDef] = []
    imports: list[ast.stmt] = []
    enclosing: dict[ast.FunctionDef, Optional[ast.FunctionDef]] = {}
    declares: set[ast.FunctionDef] = set()
    todo: deque = deque([(tree, None)])
    while todo:
        node, fn = todo.popleft()
        if isinstance(node, ast.FunctionDef):
            functions.append(node)
            enclosing[node] = fn
            fn = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(node)
        elif _container_local(node):
            # Mark every enclosing def; a marked def's ancestors are
            # already marked.
            while fn is not None and fn not in declares:
                declares.add(fn)
                fn = enclosing[fn]
            continue              # an AnnAssign holds no statement
        todo.extend((child, fn) for child in ast.iter_child_nodes(node)
                    if isinstance(child, _BLOCK_NODES))
    lintable = [
        f for f in functions
        if f in declares
        or any(_container_annotated(a) for a in f.args.args)
    ]
    return lintable, imports


class PassRecorder(FactRecorder):
    """The facts of one pass, plus what a pass over an edited copy
    replays (``prior`` of :func:`_lint_source_impl`): the tree, the
    source and, per checker run, ``(key, raw diagnostics or None after
    a crash, facts start, facts end, calls start, calls end)``."""

    def __init__(self) -> None:
        super().__init__()
        self.tree: Optional[ast.Module] = None
        self.source = ""
        self.runs: list[tuple] = []
        self.reused = 0

    def analysis(self, report: FileReport) -> "SourceAnalysis":
        return SourceAnalysis(report, self.table(), self)


def _replayable(prior: Optional["SourceAnalysis"], tree: ast.Module,
                source: str, keys: list[tuple]) -> list[bool]:
    """Which runs of a pass over ``source`` may replay ``prior``'s record.

    A top-level statement is joined to each top-level def whose name
    occurs in its text before or after the edit (a superset of its
    references); a run replays when its top-level statement's component
    holds no edited line.  Exact, since summaries are keyed by callee
    name and a call needs a name: no summary state crosses components.
    If the skeleton moved (line count, top-level statements, run list),
    nothing replays."""
    record = prior.record if prior is not None else None
    old = source_lines(record.source) if record is not None else []
    new = source_lines(source)
    # Statement k owns the lines after statement k-1 up to its own end.
    ends = [stmt.end_lineno for stmt in tree.body]
    if (record is None or record.tree is None or prior.failures
            or len(old) != len(new)
            or [run[0] for run in record.runs] != keys
            or [stmt.end_lineno for stmt in record.tree.body] != ends):
        return [False] * len(keys)
    parent = list(range(len(ends)))

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    defs: dict[str, int] = {}
    for k, stmt in enumerate(tree.body):
        if isinstance(stmt, ast.FunctionDef):
            parent[root(k)] = root(defs.setdefault(stmt.name, k))
    edited = {bisect.bisect_left(ends, i)
              for i, (a, b) in enumerate(zip(old, new), 1) if a != b}
    edited.discard(len(ends))         # past the last statement
    for text, units in ((new, range(len(ends))), (old, edited)):
        for k in units:
            words = re.findall(r"[A-Za-z_]\w*", "\n".join(
                text[ends[k - 1] if k else 0:ends[k]]))
            for name in defs.keys() & words:
                parent[root(k)] = root(defs[name])
    dirty = {root(k) for k in edited}
    return [root(bisect.bisect_left(ends, key[1])) not in dirty
            for key in keys]


def _lint_source_impl(
    source: str,
    path: str = "<string>",
    config: Optional[AnalysisConfig] = None,
    facts: Optional[PassRecorder] = None,
    prior: Optional["SourceAnalysis"] = None,
) -> FileReport:
    """Lint one module given as source text (implementation).

    ``facts`` makes the same pass the optimizer's fact producer: every
    checker run records into it.  The optimizer needs facts for every
    top-level def, so after the lint list the pass also runs each
    top-level def that list skipped, in source order; those runs report
    no diagnostics and do not count as checked, but a crash or deadline
    in them is still reported (LINT-INTERNAL / LINT-TIMEOUT), since it
    leaves the facts incomplete.  The recorder only observes, so the
    findings are those of a pass without it.

    ``prior``, with ``facts``, is a complete pass over this module before
    an edit that moved no line.  Runs :func:`_replayable` clears replay
    its diagnostics (through dedup and suppressions) and recordings in
    run order; the rest run again, so the result is a full pass's."""
    if config is None:
        from repro.analysis.config import AnalysisConfig

        config = AnalysisConfig()
    report = FileReport(path=path)
    lines = source_lines(source)
    suppressions = collect_suppressions(lines)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        report.findings.append(LintFinding(
            path=path, function="<module>", line=exc.lineno or 0,
            severity="error", check="parse-error",
            message=f"file could not be parsed: {exc.msg}",
        ))
        return report

    tr = _trace.ACTIVE
    used_suppressions: set[int] = set()

    def add(severity: Severity, message: str, line: int,
            function: str) -> None:
        code = check_code(message)
        if is_suppressed(suppressions, line, code):
            report.suppressed += 1
            used_suppressions.add(line)
            return
        src = lines[line - 1] if 1 <= line <= len(lines) else ""
        report.findings.append(LintFinding(
            path=path, function=function, line=line,
            severity=severity.value.lower(), check=code,
            message=message, source_line=src,
        ))
        if tr is not None:
            tr.event("lint.finding", cat="lint", path=path,
                     function=function, check=code, line=line,
                     severity=severity.value.lower())

    deadline = (
        Deadline.after(config.timeout_s)
        if config.timeout_s is not None else None
    )

    def internal(check: str, message: str, line: int,
                 function: str) -> None:
        # Crash-isolation findings bypass suppressions: a per-line ignore
        # comment must not silence the fact that analysis itself broke.
        report.findings.append(LintFinding(
            path=path, function=function, line=line, severity="error",
            check=check, message=message,
        ))
        if tr is not None:
            tr.event("lint.internal", cat="lint", path=path,
                     function=function, check=check)

    functions = module_function_table(tree) if config.interprocedural else {}
    # One table per file: every function's interprocedural effects are
    # summarized once per argument shape and reused across all callers
    # in the module.
    summaries = SummaryTable()
    lintable, imports = _scan_module(tree)
    run_list = lintable
    if facts is not None:
        linted = set(lintable)
        run_list = lintable + [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node not in linted
        ]
    replay = [False] * len(run_list)
    if facts is not None:
        facts.tree, facts.source = tree, source
        keys = [(node.name, node.lineno, node.end_lineno, i < len(lintable),
                 config.interprocedural) for i, node in enumerate(run_list)]
        replay = _replayable(prior, tree, source, keys)
    seen: set[tuple[int, str]] = set()
    for i, node in enumerate(run_list):
        if deadline is not None and deadline.expired():
            internal(LINT_TIMEOUT, (
                f"file analysis budget of {config.timeout_s:g}s exhausted; "
                f"'{node.name}' and later functions were not checked"
            ), node.lineno, node.name)
            break
        if facts is not None:
            f0, c0 = len(facts.facts), len(facts.calls)
        diagnostics = None
        if replay[i]:
            _, diagnostics, fa, fb, ca, cb = prior.record.runs[i]
            facts.facts += prior.record.facts[fa:fb]
            facts.calls += prior.record.calls[ca:cb]
            facts.reused += 1
        else:
            try:
                checker = FixpointChecker(
                    node, lines, module_functions=functions,
                    facts=facts, summaries=summaries,
                )
                if tr is None:
                    diagnostics = checker.run().diagnostics
                else:
                    with tr.span("lint.function", cat="lint", path=path,
                                 function=node.name,
                                 line=node.lineno) as sp:
                        diagnostics = checker.run().diagnostics
                        sp.set("diagnostics", len(diagnostics))
            except Exception as exc:  # noqa: BLE001 - crash isolation
                internal(LINT_INTERNAL, (
                    f"internal error while checking '{node.name}': "
                    f"{type(exc).__name__}: {exc}"
                ), node.lineno, node.name)
        if facts is not None:
            facts.runs.append((keys[i], diagnostics, f0, len(facts.facts),
                               c0, len(facts.calls)))
        if i >= len(lintable):
            continue          # a facts-only run: no diagnostics
        report.functions_checked += 1
        for d in diagnostics or ():
            key = (d.line, d.message)
            if key in seen:
                continue
            seen.add(key)
            add(d.severity, d.message, d.line, node.name)

    if config.concept_pass and not (
            deadline is not None and deadline.expired()):
        from .concept_pass import run_concept_pass

        try:
            if tr is None:
                pass_findings = run_concept_pass(tree, imports=imports)
            else:
                with tr.span("lint.concept-pass", cat="lint", path=path):
                    pass_findings = list(
                        run_concept_pass(tree, imports=imports))
        except Exception as exc:  # noqa: BLE001 - crash isolation
            pass_findings = []
            internal(LINT_INTERNAL, (
                f"internal error in the concept pass: "
                f"{type(exc).__name__}: {exc}"
            ), 0, "<module>")
        for finding in pass_findings:
            add(finding.severity, finding.message, finding.line,
                finding.function)

    # Suppression hygiene: an ignore comment naming a code the driver can
    # never emit, or matching no finding at all, is a latent bug (the
    # diagnostic it was written for will resurface unsilenced the moment
    # the line changes).  These findings bypass the suppression machinery
    # by construction — a suppression must not silence its own autopsy.
    known = set(all_check_codes()) | {ALL_CHECKS}
    for lineno, codes in sorted(suppressions.items()):
        src = lines[lineno - 1] if 1 <= lineno <= len(lines) else ""
        # "..." is the documentation placeholder (docstrings quote the
        # comment syntax as ``ignore[...]``), not a misspelled code.
        unknown = codes - known - {"..."}
        if unknown:
            report.findings.append(LintFinding(
                path=path, function="<module>", line=lineno,
                severity="warning", check=UNKNOWN_SUPPRESSION_CODE,
                message=(
                    "suppression names unknown check code(s): "
                    + ", ".join(sorted(unknown))
                    + " (see --list-checks)"
                ),
                source_line=src,
            ))
        if lineno not in used_suppressions and codes & known:
            report.findings.append(LintFinding(
                path=path, function="<module>", line=lineno,
                severity="warning", check=UNUSED_SUPPRESSION,
                message=(
                    "suppression comment matches no finding on this line"
                ),
                source_line=src,
            ))

    report.findings.sort(key=lambda f: (f.line, SEVERITY_ORDER[f.severity]))
    return report


@dataclass
class SourceAnalysis:
    """One STLlint pass over one source: its lint report and the facts
    the same checker runs recorded, with the :class:`PassRecorder` that
    recorded them."""

    report: FileReport
    table: FactTable
    record: PassRecorder

    @property
    def failures(self) -> list[LintFinding]:
        """The LINT-INTERNAL / LINT-TIMEOUT findings of a crash or a
        deadline that cut the pass short.  While there are any, the
        findings are valid but the table may lack recordings, so its
        meets could claim too much and nothing may be planned from it."""
        return [f for f in self.report.findings
                if f.check in (LINT_INTERNAL, LINT_TIMEOUT)]


def analyze_source(
    source: str,
    path: str = "<string>",
    config: Optional[AnalysisConfig] = None,
    prior: Optional[SourceAnalysis] = None,
) -> SourceAnalysis:
    """Lint ``source`` and collect its facts in one pass (see
    :func:`_lint_source_impl`'s ``facts`` and ``prior``)."""
    recorder = PassRecorder()
    report = _lint_source_impl(source, path=path, config=config,
                               facts=recorder, prior=prior)
    return recorder.analysis(report)


def _failed_file_report(path: str, check: str, message: str) -> FileReport:
    report = FileReport(path=path)
    report.findings.append(LintFinding(
        path=path, function="<module>", line=0, severity="error",
        check=check, message=message,
    ))
    return report


def _lint_file_impl(
    path: PathLike, config: Optional[AnalysisConfig] = None,
    facts: Optional[PassRecorder] = None,
) -> FileReport:
    p = pathlib.Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except OSError as exc:
        return _failed_file_report(
            str(p), "io-error", f"cannot read file: {exc}")
    except UnicodeDecodeError as exc:
        # Undecodable bytes are this file's problem, not the run's: the
        # internal-error path reports it and the other files still lint.
        return _failed_file_report(str(p), LINT_INTERNAL, (
            f"cannot decode file as UTF-8 "
            f"(byte {exc.start}: {exc.reason}); file skipped"
        ))
    try:
        tr = _trace.ACTIVE
        if tr is None:
            return _lint_source_impl(source, path=str(p), config=config,
                                     facts=facts)
        with tr.span("lint.file", cat="lint", path=str(p)) as sp:
            report = _lint_source_impl(source, path=str(p), config=config,
                                       facts=facts)
            sp.set("functions_checked", report.functions_checked)
            sp.set("findings", len(report.findings))
        return report
    except Exception as exc:  # noqa: BLE001 - per-file crash isolation
        return _failed_file_report(str(p), LINT_INTERNAL, (
            f"internal error while linting this file: "
            f"{type(exc).__name__}: {exc}; file skipped, run continues"
        ))


def discover_files(
    paths: Sequence[PathLike], exclude: Iterable[str] = ()
) -> list[pathlib.Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    return [f for f, _ in discover(paths, exclude)]


def _hidden(part: str) -> bool:
    return part.startswith(".") or part == "__pycache__"


def _py_files(top: str, rel: tuple[str, ...],
              found: list[tuple[tuple[str, ...], bool]]) -> None:
    """``Path(top).rglob("*.py")`` without hidden or ``__pycache__``
    parts, as (parts below ``top``, is a symlink).  Like ``rglob`` it
    descends into real directories only."""
    try:
        with os.scandir(os.path.join(top, *rel)) as it:
            entries = list(it)
    except PermissionError:
        return
    for entry in entries:
        if _hidden(entry.name):
            continue
        parts = rel + (entry.name,)
        if entry.name.endswith(".py"):
            found.append((parts, entry.is_symlink()))
        if entry.is_dir(follow_symlinks=False):
            _py_files(top, parts, found)


def discover(
    paths: Sequence[PathLike], exclude: Iterable[str] = ()
) -> list[tuple[pathlib.Path, str]]:
    """:func:`discover_files` with each file's resolved path, which also
    de-duplicates it.  Each root is resolved once: the walk does not
    descend into symlinked directories, so below a resolved root only a
    symlinked file itself needs resolving."""
    out: list[tuple[pathlib.Path, str]] = []
    exclude = tuple(exclude)

    def excluded(p: pathlib.Path) -> bool:
        return any(p.match(pattern) for pattern in exclude)

    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            if any(map(_hidden, p.parts)):
                continue
            found: list[tuple[tuple[str, ...], bool]] = []
            _py_files(str(p), (), found)
            base = str(p.resolve())
            for parts, link in sorted(found):
                f = p.joinpath(*parts)
                if not excluded(f):
                    out.append((f, str(f.resolve()) if link
                                else os.path.join(base, *parts)))
        elif p.suffix == ".py" or p.is_file() or not p.exists():
            # Nonexistent paths are kept: lint_file turns them into an
            # io-error finding rather than a silently empty (passing) run.
            if not excluded(p):
                out.append((p, str(p.resolve())))
    # De-duplicate while preserving order.
    unique: list[tuple[pathlib.Path, str]] = []
    seen: set[str] = set()
    for p, key in out:
        if key not in seen:
            seen.add(key)
            unique.append((p, key))
    return unique
