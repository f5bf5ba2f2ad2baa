"""Stable, versioned JSON schema for cached analysis results.

Everything the service persists — per-file lint reports and optimizer
results, the two payload kinds the tools read back — goes through this
module, under one :data:`SCHEMA_VERSION`:

- **versioned**: every envelope records the schema version it was
  written under.  A reader that finds any other version *discards* the
  entry (one cold re-analysis) instead of guessing at field meanings —
  misreading a cache is strictly worse than missing it.
- **deterministic**: payload lists keep their producer's stable order
  and envelopes are dumped with sorted keys, so the same analysis
  result always produces the same bytes (which is also what makes
  concurrent cache writers harmless — see :mod:`repro.analysis.cache`).
- **round-trip validated**: :func:`decode_envelope` doesn't just check
  shape, it decodes the payload and re-encodes it, accepting the entry
  only if the bytes survive unchanged.  A field an old writer spelled
  differently therefore fails closed.

Schema history: version 1 was the ad-hoc ``{"version": 1}`` report JSON
the CLIs printed before the cache existed (still emitted, unchanged,
for compatibility); version 2 added the cache envelopes and the
``schema_version`` field.  The ``facts`` and ``summaries`` kinds were
written but never read back and are gone; entries of those kinds are
never looked up again and ``invalidate`` still removes them.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.lint.driver import FileReport, LintFinding

#: Version of every serialized payload in this module.  Bump on ANY
#: field change — old entries are then discarded, never misread — and
#: on any analyzer change that alters what a payload holds (3: a callee
#: that assigns to an iterator parameter no longer strong-updates the
#: caller's iterator, so cached lint results from 2 are wrong).
SCHEMA_VERSION = 3


class SchemaError(ValueError):
    """A stored payload cannot be (safely) decoded."""


# ---------------------------------------------------------------------------
# Lint findings / file reports
# ---------------------------------------------------------------------------

_FINDING_FIELDS = ("path", "function", "line", "severity", "check",
                   "message", "source_line")


def finding_from_dict(d: dict) -> LintFinding:
    try:
        return LintFinding(**{k: d[k] for k in _FINDING_FIELDS})
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed finding: {exc}") from exc


def file_report_to_payload(report: FileReport) -> dict:
    return {
        "path": report.path,
        "functions_checked": report.functions_checked,
        "suppressed": report.suppressed,
        # Order is the driver's stable (line, severity) sort — keep it.
        "findings": [f.to_dict() for f in report.findings],
    }


def file_report_from_payload(payload: dict) -> FileReport:
    try:
        return FileReport(
            path=payload["path"],
            findings=[finding_from_dict(d) for d in payload["findings"]],
            suppressed=payload["suppressed"],
            functions_checked=payload["functions_checked"],
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed file report: {exc}") from exc


# ---------------------------------------------------------------------------
# Optimizer results
# ---------------------------------------------------------------------------


def optimize_result_to_payload(result: Any) -> dict:
    # ``original`` is *not* stored: the cache key already pins the exact
    # source bytes, and the loader re-supplies them (keeps entries small
    # and guarantees an entry can never resurrect outdated source text).
    return {
        "path": result.path,
        "optimized": result.optimized,
        "verified": result.verified,
        "reverted": result.reverted,
        "revert_reason": result.revert_reason,
        "plans": [p.to_dict() for p in result.plans],
        "findings": [f.to_dict() for f in result.findings],
    }


def optimize_result_from_payload(payload: dict, source: str) -> Any:
    from repro.optimize.pipeline import OptimizeResult, PlannedRewrite

    try:
        plans = [
            PlannedRewrite(
                line=d["line"], function=d["function"],
                subject=d["subject"], call=d["call"],
                replacement=d["replacement"],
                concept_from=d["concept_from"], concept_to=d["concept_to"],
                bound_from=d["bound_from"], bound_to=d["bound_to"],
                properties=tuple(d["properties"]), savings=d["savings"],
                code=d["code"],
            )
            for d in payload["plans"]
        ]
        return OptimizeResult(
            path=payload["path"],
            original=source,
            optimized=payload["optimized"],
            plans=plans,
            findings=[finding_from_dict(d) for d in payload["findings"]],
            verified=payload["verified"],
            reverted=payload["reverted"],
            revert_reason=payload["revert_reason"],
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed optimize result: {exc}") from exc


# ---------------------------------------------------------------------------
# Envelopes + round-trip validation
# ---------------------------------------------------------------------------

#: The payload kinds :func:`decode_envelope` decodes (``optimize`` needs
#: the source text threaded through).
_KINDS = ("lint", "optimize")


def make_envelope(kind: str, key: dict, payload: dict) -> dict:
    if kind not in _KINDS:
        raise SchemaError(f"unknown payload kind {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "key": dict(key),
        "payload": payload,
    }


def decode_envelope(envelope: Any, kind: str,
                    source: Optional[str] = None) -> Any:
    """Validate ``envelope`` and return the decoded value.

    Raises :class:`SchemaError` when the version, kind, or shape is
    wrong, or when the payload does not survive a decode→re-encode
    round trip — the caller discards the entry and re-analyzes."""
    if not isinstance(envelope, dict):
        raise SchemaError("envelope is not an object")
    if envelope.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"schema version {envelope.get('schema_version')!r} != "
            f"{SCHEMA_VERSION}"
        )
    if envelope.get("kind") != kind:
        raise SchemaError(
            f"payload kind {envelope.get('kind')!r} != {kind!r}")
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("payload is not an object")
    return decode_payload(kind, payload, source)


def decode_payload(kind: str, payload: dict,
                   source: Optional[str] = None) -> Any:
    """Decode one payload of ``kind``, accepting it only if it survives
    a decode→re-encode round trip (see :func:`decode_envelope`)."""
    if kind == "lint":
        value = file_report_from_payload(payload)
        again = file_report_to_payload(value)
    elif kind == "optimize":
        value = optimize_result_from_payload(payload, source or "")
        again = optimize_result_to_payload(value)
    else:
        raise SchemaError(f"unknown payload kind {kind!r}")
    if again != payload:
        raise SchemaError("payload does not round-trip; discarding")
    return value
