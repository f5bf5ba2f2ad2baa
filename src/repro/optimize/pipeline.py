"""The source-to-source optimization pipeline.

Four stages, each traced as its own span when tracing is active:

1. **facts** — one STLlint pass over the module
   (:func:`repro.lint.driver.analyze_source`) yields both its lint
   findings and the must-hold properties at every specified-algorithm
   call site, recorded by the same checker runs.
2. **select** — for each call site, ask the sequence taxonomy for the
   asymptotically cheapest substitutable algorithm whose property
   requirements the facts satisfy
   (:meth:`repro.concepts.taxonomy.Taxonomy.select_for_properties`).
3. **rewrite** — apply the selections source-to-source: locate the call
   by AST position and replace the callee name by column surgery, so
   formatting, comments, and line numbers are preserved.
4. **verify** — one pass over the rewritten module: its findings are
   re-linted against the original's (no new warnings/errors may appear)
   and its facts are re-planned (the pipeline must be idempotent:
   optimizing its own output proposes nothing).  Any failure reverts to
   the original source.

So a module costs the original's pass plus the rewrite's runs of the
call-graph components the renames touched (the rest replay, see
:func:`repro.lint.driver._replayable`).  A caller that already ran the
original's pass under the default
:class:`~repro.analysis.config.AnalysisConfig` (the analysis session,
right after a lint) may hand it in as ``analysis``.

This is the end-to-end loop Section 3.2 sketches: "linear search on a
sorted sequence → binary search", driven by STLlint-derived flow facts
and taxonomy complexity data rather than hard-coded patterns.
"""

from __future__ import annotations

import ast
import difflib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Optional, Union

from ..analysis.config import DEFAULT_RESOURCE, DEFAULT_SIZE, AnalysisConfig
from ..concepts.taxonomy import Taxonomy
from ..facts.records import FactTable
from ..lint.driver import (
    FileReport,
    LintFinding,
    SourceAnalysis,
    analyze_source,
)
from ..resilience import Deadline
from ..sequences.taxonomy import (
    CALL_TO_CONCEPT,
    CONCEPT_TO_CALL,
    KIND_CAPABILITIES,
    kind_weights,
    stl_taxonomy,
)
from ..stllint.diagnostics import LINE_BREAK, source_lines
from ..trace import core as _trace

PathLike = Union[str, pathlib.Path]

#: Driver-resilience finding codes (mirroring the linter's LINT-INTERNAL /
#: LINT-TIMEOUT): an internal exception isolated to one file, and a
#: per-file deadline expiring between stages.
OPT_INTERNAL = "OPT-INTERNAL"
OPT_TIMEOUT = "OPT-TIMEOUT"


@dataclass(frozen=True)
class PlannedRewrite:
    """One selected call replacement, before application."""

    line: int
    function: str
    subject: str
    call: str                     # source callee name being replaced
    replacement: str              # new callee name
    concept_from: str             # taxonomy concept of the original call
    concept_to: str
    bound_from: str               # rendered complexity guarantees
    bound_to: str
    properties: tuple[str, ...]   # must-hold facts that justified it
    savings: float                # bound_from.at(n) - bound_to.at(n)
    code: str                     # OPT-* finding code

    def describe(self) -> str:
        props = ", ".join(self.properties) or "-"
        return (
            f"{self.call} -> {self.replacement}: [{props}] holds for "
            f"'{self.subject}' on every path, so {self.concept_to} "
            f"({self.bound_to}) replaces {self.concept_from} "
            f"({self.bound_from}); est. savings "
            f"~{self.savings:.0f} {DEFAULT_RESOURCE} at n={DEFAULT_SIZE:g}"
        )

    def to_dict(self) -> dict:
        return {
            "line": self.line,
            "function": self.function,
            "subject": self.subject,
            "call": self.call,
            "replacement": self.replacement,
            "concept_from": self.concept_from,
            "concept_to": self.concept_to,
            "bound_from": self.bound_from,
            "bound_to": self.bound_to,
            "properties": list(self.properties),
            "savings": self.savings,
            "code": self.code,
        }


@dataclass
class OptimizeResult:
    """Outcome of one pipeline run over one module."""

    path: str
    original: str
    optimized: str
    plans: list[PlannedRewrite] = field(default_factory=list)
    findings: list[LintFinding] = field(default_factory=list)
    verified: bool = True
    reverted: bool = False
    revert_reason: str = ""

    @property
    def changed(self) -> bool:
        return self.optimized != self.original

    def diff(self) -> str:
        return "".join(difflib.unified_diff(
            self.original.splitlines(keepends=True),
            self.optimized.splitlines(keepends=True),
            fromfile=f"{self.path} (original)",
            tofile=f"{self.path} (optimized)",
        ))

    def render(self) -> str:
        lines = []
        for f in self.findings:
            lines.append(f.render())
        if self.reverted:
            lines.append(
                f"{self.path}: rewrites REVERTED — {self.revert_reason}"
            )
        elif self.plans:
            lines.append(
                f"{self.path}: {len(self.plans)} rewrite(s), "
                f"verified by re-lint"
            )
        else:
            lines.append(f"{self.path}: nothing to optimize")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "changed": self.changed,
            "verified": self.verified,
            "reverted": self.reverted,
            "revert_reason": self.revert_reason,
            "rewrites": [p.to_dict() for p in self.plans],
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def plan_rewrites(
    table: FactTable,
    taxonomy: Optional[Taxonomy] = None,
    resource: str = DEFAULT_RESOURCE,
    size: float = DEFAULT_SIZE,
) -> list[PlannedRewrite]:
    """Stage 2: data-driven selection.  A site is rewritten only when the
    taxonomy offers a *strictly* better algorithm, with the same result
    kind, whose property requirements are met by the site's must-hold
    facts.  "Better" is asymptotic for RAM-resident container kinds;
    for kinds whose storage charges per round trip (``kind_weights``
    returns io/cpu weights), both selection and the strictness check
    price the io dimension, and the site's kind unlocks
    capability-gated algorithms (``find`` → ``indexed_find``)."""
    taxonomy = taxonomy or stl_taxonomy()
    plans: list[PlannedRewrite] = []
    for site in table.call_sites():
        concept_name = CALL_TO_CONCEPT.get(site.algorithm)
        if concept_name is None:
            continue
        current = taxonomy.algorithms.get(concept_name)
        if current is None:
            continue
        weights = kind_weights(site.container_kind, cpu_resource=resource)
        capabilities: frozenset[str] = frozenset()
        if weights is not None:
            capabilities = KIND_CAPABILITIES[
                site.container_kind].capability_names()
        best = taxonomy.select_for_properties(
            current.problem, site.properties, resource,
            result=current.result or None,
            capabilities=capabilities, weights=weights, size=size,
        )
        if best is None or best.name == current.name:
            continue
        cur_bound = current.all_guarantees().get(resource)
        new_bound = best.all_guarantees().get(resource)
        if cur_bound is None or new_bound is None:
            continue
        if weights is None:
            if not (new_bound < cur_bound):
                continue
            saved = cur_bound.at(n=size) - new_bound.at(n=size)
        else:
            cur_cost = current.weighted_cost(weights, size)
            new_cost = best.weighted_cost(weights, size)
            if not (new_cost < cur_cost):
                continue
            saved = cur_cost - new_cost
        replacement = CONCEPT_TO_CALL.get(best.name)
        if replacement is None or replacement == site.algorithm:
            continue
        plans.append(PlannedRewrite(
            line=site.line,
            function=site.function,
            subject=site.subject,
            call=site.algorithm,
            replacement=replacement,
            concept_from=current.name,
            concept_to=best.name,
            bound_from=str(cur_bound),
            bound_to=str(new_bound),
            properties=tuple(sorted(
                str(p) for p in best.requires_properties
            )),
            savings=saved,
            code=f"OPT-{site.algorithm}-to-{replacement}".replace("_", "-"),
        ))
    return plans


def apply_rewrites(source: str, plans: list[PlannedRewrite]) -> str:
    """Stage 3: column-precise callee renaming.  Only ``name(...)`` call
    nodes whose (line, name) matches a plan are touched; everything else
    — formatting, comments, strings mentioning the name — is preserved."""
    return _rename_calls(source, ast.parse(source), plans) if plans else source


def _rename_calls(source: str, tree: ast.Module,
                  plans: list[PlannedRewrite]) -> str:
    """:func:`apply_rewrites` over ``tree``, the parse of ``source``."""
    wanted = {(p.line, p.call): p.replacement for p in plans}
    # The parser's line n is parts[2n - 2]; its ending follows it.
    parts = LINE_BREAK.split(source)
    # Collect (line, col_start, col_end, replacement), applied
    # right-to-left per line so earlier columns stay valid.  The
    # parser's columns are UTF-8 byte offsets, so each line is cut as
    # bytes.
    edits: list[tuple[int, int, int, str]] = []
    lines = {line for line, _ in wanted}
    # Walk only the top-level statements whose span, which starts at the
    # first decorator, holds a planned line: no other can hold the call.
    stmts = []
    for stmt in tree.body:
        start = min([stmt.lineno] + [
            d.lineno for d in getattr(stmt, "decorator_list", ())])
        if any(start <= line <= stmt.end_lineno for line in lines):
            stmts.append(stmt)
    for node in (n for stmt in stmts for n in ast.walk(stmt)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        replacement = wanted.get((node.func.lineno, node.func.id))
        if replacement is None:
            continue
        edits.append((
            node.func.lineno, node.func.col_offset,
            node.func.end_col_offset, replacement,
        ))
    for lineno, start, end, replacement in sorted(edits, reverse=True):
        text = parts[2 * lineno - 2].encode("utf-8")
        parts[2 * lineno - 2] = (
            text[:start] + replacement.encode("utf-8") + text[end:]
        ).decode("utf-8")
    return "".join(parts)


def _problem_findings(report: FileReport) -> set[tuple[int, str]]:
    """(line, check) pairs at warning severity or worse."""
    return {
        (f.line, f.check) for f in report.findings
        if f.severity in ("error", "warning")
    }


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def _timeout_result(result: OptimizeResult, path: str,
                    budget: float) -> OptimizeResult:
    result.verified = False
    result.optimized = result.original
    result.findings.append(LintFinding(
        path=path, function="<module>", line=0, severity="error",
        check=OPT_TIMEOUT,
        message=(
            f"optimization budget of {budget:g}s exhausted; "
            f"file left untouched, run continues"
        ),
    ))
    return result


def _optimize_source_impl(
    source: str,
    path: str = "<string>",
    taxonomy: Optional[Taxonomy] = None,
    resource: str = DEFAULT_RESOURCE,
    size: float = DEFAULT_SIZE,
    deadline: Optional[Deadline] = None,
    analysis: Optional[SourceAnalysis] = None,
) -> OptimizeResult:
    """Run the full facts → select → rewrite → verify pipeline.

    ``analysis``, when given, is the pass over ``source`` under the
    default :class:`~repro.analysis.config.AnalysisConfig` with a fresh
    summary table; the facts stage then reuses it.  An incomplete pass
    (LINT-INTERNAL / LINT-TIMEOUT) raises, as a crash would.

    ``deadline`` (usually from ``--timeout-s``) is checked between
    stages; on expiry the file is reported with an OPT-TIMEOUT finding
    and left untouched — cooperative, so a stage in progress finishes.
    """
    tr = _trace.ACTIVE
    taxonomy = taxonomy or stl_taxonomy()
    result = OptimizeResult(path=path, original=source, optimized=source)
    if deadline is not None and deadline.expired():
        return _timeout_result(result, path, deadline.budget)

    if analysis is None:
        if tr is None:
            analysis = analyze_source(source, path=path)
        else:
            with tr.span("optimize.facts", cat="optimize", path=path) as sp:
                analysis = analyze_source(source, path=path)
                sp.set("call_sites", len(analysis.table.call_sites()))
    for finding in analysis.report.findings:
        if finding.check == "parse-error":
            result.verified = False
            result.findings.append(finding)
            return result
    if analysis.failures:
        # Partial facts could claim a property a skipped path refutes:
        # treat the file as an internal failure, never plan from them.
        raise RuntimeError(
            f"STLlint pass incomplete: {analysis.failures[0].message}")

    if deadline is not None and deadline.expired():
        return _timeout_result(result, path, deadline.budget)
    if tr is None:
        plans = plan_rewrites(analysis.table, taxonomy, resource, size)
    else:
        with tr.span("optimize.select", cat="optimize", path=path) as sp:
            plans = plan_rewrites(analysis.table, taxonomy, resource, size)
            sp.set("plans", len(plans))
            for p in plans:
                tr.event(
                    "optimize.plan", cat="optimize", line=p.line,
                    call=p.call, replacement=p.replacement,
                    properties=list(p.properties), savings=p.savings,
                )
    if not plans:
        return result

    if deadline is not None and deadline.expired():
        return _timeout_result(result, path, deadline.budget)
    if tr is None:
        optimized = _rename_calls(source, analysis.record.tree, plans)
    else:
        with tr.span("optimize.rewrite", cat="optimize", path=path) as sp:
            optimized = _rename_calls(source, analysis.record.tree, plans)
            sp.set("rewrites", len(plans))
    runs = {}

    def verify() -> tuple[bool, str]:
        # No new warnings/errors relative to the input (the original's
        # pass was complete, so a LINT-INTERNAL/LINT-TIMEOUT in the
        # rewrite's pass is new and reverts before its partial facts
        # are re-planned)...  Only the components the renames touched
        # run again; the rest replay the original's record.
        rewritten = analyze_source(optimized, path=path, prior=analysis)
        runs["reused"] = rewritten.record.reused
        runs["reran"] = len(rewritten.record.runs) - runs["reused"]
        introduced = (_problem_findings(rewritten.report)
                      - _problem_findings(analysis.report))
        if introduced:
            rendered = ", ".join(
                f"L{line}:{check}" for line, check in sorted(introduced)
            )
            return False, f"re-lint found new problems ({rendered})"
        # ...and nothing further to do: the pipeline is idempotent.
        again = plan_rewrites(rewritten.table, taxonomy, resource, size)
        if again:
            return False, (
                f"not idempotent: optimized output still proposes "
                f"{len(again)} rewrite(s)"
            )
        return True, ""

    if deadline is not None and deadline.expired():
        return _timeout_result(result, path, deadline.budget)
    # The verify stage must never leave the rewrite in force: whatever
    # happens in here — a lint regression, a non-idempotent plan, a
    # SyntaxError, or verification *itself* crashing — ``ok`` stays False
    # unless verify() returned cleanly, and the finally-block pins
    # ``result.optimized`` back to the original until ok is proven.
    ok, reason = False, "verification did not complete"
    try:
        if tr is None:
            ok, reason = verify()
        else:
            with tr.span("optimize.verify", cat="optimize", path=path) as sp:
                ok, reason = verify()
                sp.set("ok", ok)
                for name, count in runs.items():
                    sp.set(name, count)
    except SyntaxError as exc:
        ok, reason = False, f"rewritten source does not parse: {exc.msg}"
    except Exception as exc:  # noqa: BLE001 - verification crash == revert
        ok, reason = False, (
            f"verification raised {type(exc).__name__}: {exc}"
        )
    finally:
        if not ok:
            result.optimized = result.original

    src_lines = source_lines(source)
    for p in plans:
        line_text = (
            src_lines[p.line - 1] if 1 <= p.line <= len(src_lines) else ""
        )
        result.findings.append(LintFinding(
            path=path, function=p.function, line=p.line,
            severity="suggestion", check=p.code,
            message=p.describe(), source_line=line_text,
        ))

    if not ok:
        result.verified = False
        result.reverted = True
        result.revert_reason = reason
        return result

    result.plans = plans
    result.optimized = optimized
    return result


def _internal_result(path: str, source: str, exc: Exception) -> OptimizeResult:
    result = OptimizeResult(
        path=path, original=source, optimized=source,
        verified=False, reverted=True,
        revert_reason=f"internal error: {type(exc).__name__}: {exc}",
    )
    result.findings.append(LintFinding(
        path=path, function="<module>", line=0, severity="error",
        check=OPT_INTERNAL,
        message=(
            f"internal error while optimizing this file: "
            f"{type(exc).__name__}: {exc}; file skipped, run continues"
        ),
    ))
    return result


def _write_optimized(p: pathlib.Path, source: str,
                     result: OptimizeResult) -> None:
    """Apply a verified rewrite to disk with torn-write protection."""
    try:
        p.write_text(result.optimized, encoding="utf-8")
    except BaseException:
        # A torn write must not strand a half-rewritten file.
        p.write_text(source, encoding="utf-8")
        raise


def _optimize_file_impl(
    path: PathLike,
    config: AnalysisConfig,
    write: bool = False,
    analysis: Optional[SourceAnalysis] = None,
) -> OptimizeResult:
    """Optimize one file on disk under ``config``'s ``resource``,
    ``size`` and ``timeout_s``; with ``write=True`` the
    rewritten source replaces the file (only when verification passed).
    ``analysis`` is passed through to :func:`_optimize_source_impl`.

    Per-file crash isolation: any internal exception — decode failure,
    pipeline bug, even a failing write — becomes an OPT-INTERNAL finding
    on this file's result and the caller's loop continues.
    """
    p = pathlib.Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _internal_result(str(p), "", exc)
    deadline = (Deadline.after(config.timeout_s)
                if config.timeout_s is not None else None)
    try:
        result = _optimize_source_impl(
            source, path=str(p), resource=config.resource,
            size=config.size, deadline=deadline, analysis=analysis,
        )
        if write and result.changed and result.verified:
            _write_optimized(p, source, result)
        return result
    except Exception as exc:  # noqa: BLE001 - per-file crash isolation
        return _internal_result(str(p), source, exc)
