"""Diagnostics for STLlint.

"STLlint ... is thereby able to uncover this error to produce a meaningful,
high-level error message" — diagnostics carry severity, the concept-level
message, and the source line, and render in the paper's format::

    Warning: attempt to dereference a singular iterator
        if (fgrade(*iter)) {
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class Severity(Enum):
    ERROR = "Error"
    WARNING = "Warning"
    SUGGESTION = "Suggestion"
    NOTE = "Note"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    message: str
    line: int
    source_line: str = ""
    function: str = ""

    def render(self) -> str:
        out = f"{self.severity.value}: {self.message}"
        if self.source_line:
            out += f"\n    {self.source_line.strip()}"
        return out

    def __str__(self) -> str:
        return self.render()


#: The line breaks the parser counts, captured: ``LINE_BREAK.split``
#: alternates line text and line ending.
LINE_BREAK = re.compile(r"(\r\n|\r|\n)")


def source_lines(source: str) -> list[str]:
    """``source`` split at the parser's line breaks, so that the parser's
    line ``n`` is item ``n - 1``.  :meth:`str.splitlines` also breaks at
    form feeds, ``\\v``, ``\\x1c``-``\\x1e``, ``\\x85`` and
    ``\\u2028``/``\\u2029``, which the parser does not count."""
    return LINE_BREAK.split(source)[::2]


class DiagnosticSink:
    """Collects diagnostics, deduplicating by (line, message) — joining and
    loop re-execution would otherwise repeat them."""

    def __init__(self, source_lines: Optional[list[str]] = None,
                 function: str = "") -> None:
        self._seen: set[tuple[int, str]] = set()
        self.diagnostics: list[Diagnostic] = []
        self.source_lines = source_lines or []
        self.function = function

    def emit(self, severity: Severity, message: str, line: int) -> None:
        key = (line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        src = ""
        if 1 <= line <= len(self.source_lines):
            src = self.source_lines[line - 1]
        self.diagnostics.append(
            Diagnostic(severity, message, line, src, self.function)
        )

    def error(self, message: str, line: int) -> None:
        self.emit(Severity.ERROR, message, line)

    def warning(self, message: str, line: int) -> None:
        self.emit(Severity.WARNING, message, line)

    def suggestion(self, message: str, line: int) -> None:
        self.emit(Severity.SUGGESTION, message, line)

    def note(self, message: str, line: int) -> None:
        self.emit(Severity.NOTE, message, line)

    # -- queries -----------------------------------------------------------

    def of(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.of(Severity.WARNING)

    @property
    def errors(self) -> list[Diagnostic]:
        return self.of(Severity.ERROR)

    @property
    def suggestions(self) -> list[Diagnostic]:
        return self.of(Severity.SUGGESTION)

    @property
    def clean(self) -> bool:
        return not any(
            d.severity in (Severity.ERROR, Severity.WARNING)
            for d in self.diagnostics
        )

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        return "\n".join(d.render() for d in self.diagnostics)
