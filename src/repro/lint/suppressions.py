"""Check codes and suppression comments.

Every diagnostic the driver reports carries a short *check code* (derived
from the message catalog in :mod:`repro.stllint.specs`), which is what
suppression comments name::

    x = e.deref()   # stllint: ignore[past-end-deref]  -- sentinel read
    y = frob(v)     # stllint: ignore                  -- silence everything

A bare ``ignore`` suppresses every check on that line; a bracketed list
suppresses only the named checks (comma-separated).  Suppressed
diagnostics are dropped from the report but counted, so a lint run still
shows how much is being waved through.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.stllint.specs import (
    MSG_CROSS_CONTAINER,
    MSG_MAYBE_END_DEREF,
    MSG_NOT_A_HEAP,
    MSG_PAST_END_ADVANCE,
    MSG_PAST_END_DEREF,
    MSG_SINGULAR_ADVANCE,
    MSG_SINGULAR_DEREF,
    MSG_SORTED_LINEAR_FIND,
    MSG_UNINLINED_CALL,
    MSG_UNMODELED_STMT,
    MSG_UNSORTED_LOWER_BOUND,
    MSG_UNSTABLE_LOOP,
)

#: The engine's runaway-safety cap fired before the abstract state
#: stabilized — analysis past that point is incomplete.  A correct run
#: never emits this (the cap firing would itself be a bug).
LINT_UNSTABLE_LOOP = "LINT-UNSTABLE-LOOP"

#: Exact message -> check code.
MESSAGE_CHECKS: dict[str, str] = {
    MSG_SINGULAR_DEREF: "singular-deref",
    MSG_SINGULAR_ADVANCE: "singular-advance",
    MSG_PAST_END_DEREF: "past-end-deref",
    MSG_PAST_END_ADVANCE: "past-end-advance",
    MSG_MAYBE_END_DEREF: "maybe-end-deref",
    MSG_CROSS_CONTAINER: "cross-container",
    MSG_UNSORTED_LOWER_BOUND: "unsorted-range",
    MSG_NOT_A_HEAP: "not-a-heap",
    MSG_SORTED_LINEAR_FIND: "sorted-linear-find",
    MSG_UNSTABLE_LOOP: LINT_UNSTABLE_LOOP,
}

#: Substring -> check code, tried in order, for the ad-hoc interpreter
#: messages that are not in the exact catalog.
_SUBSTRING_CHECKS: list[tuple[str, str]] = [
    (MSG_UNMODELED_STMT, "unmodeled-stmt"),
    (MSG_UNINLINED_CALL, "uninlined-call"),
    ("erase at the past-the-end", "past-end-erase"),
    ("erase through a singular", "singular-erase"),
    ("insert through a singular", "singular-insert"),
    ("copy a singular", "singular-copy"),
    ("does not support", "unsupported-op"),
    ("where clause", "concept-conformance"),
    ("could not be parsed", "parse-error"),
]

#: Fallback for diagnostics from library-registered algorithm specs.
FALLBACK_CHECK = "library-spec"

#: Hygiene checks about the suppressions themselves (emitted by the
#: driver, never suppressible — a suppression must not silence the
#: warning that it is dead).
UNUSED_SUPPRESSION = "unused-suppression"
UNKNOWN_SUPPRESSION_CODE = "unknown-suppression-code"

#: Driver-resilience findings (also never suppressible): an internal
#: exception converted to a per-file finding by crash isolation, and a
#: per-file deadline expiring mid-analysis.
LINT_INTERNAL = "LINT-INTERNAL"
LINT_TIMEOUT = "LINT-TIMEOUT"


def check_code(message: str) -> str:
    """The check code for a diagnostic message."""
    exact = MESSAGE_CHECKS.get(message)
    if exact is not None:
        return exact
    for needle, code in _SUBSTRING_CHECKS:
        if needle in message:
            return code
    return FALLBACK_CHECK


def all_check_codes() -> list[str]:
    """Every code the driver can emit (for ``--list-checks``)."""
    codes = list(dict.fromkeys(MESSAGE_CHECKS.values()))
    codes += [code for _, code in _SUBSTRING_CHECKS]
    codes.append(FALLBACK_CHECK)
    codes += [UNUSED_SUPPRESSION, UNKNOWN_SUPPRESSION_CODE]
    codes += [LINT_INTERNAL, LINT_TIMEOUT]
    return codes


_IGNORE_RE = re.compile(
    r"#\s*stllint:\s*ignore(?:\[(?P<checks>[^\]]*)\])?"
)

#: Sentinel meaning "every check on this line".
ALL_CHECKS = "*"


def collect_suppressions(source_lines: list[str]) -> dict[int, set[str]]:
    """Map 1-based line numbers to the set of suppressed check codes
    (``{ALL_CHECKS}`` for a bare ``ignore``)."""
    out: dict[int, set[str]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        if "stllint" not in text:
            continue
        m = _IGNORE_RE.search(text)
        if m is None:
            continue
        raw = m.group("checks")
        if raw is None:
            out[lineno] = {ALL_CHECKS}
        else:
            codes = {c.strip() for c in raw.split(",") if c.strip()}
            out[lineno] = codes or {ALL_CHECKS}
    return out


def is_suppressed(
    suppressions: dict[int, set[str]], line: int, code: str
) -> bool:
    codes: Optional[set[str]] = suppressions.get(line)
    if codes is None:
        return False
    return ALL_CHECKS in codes or code in codes
