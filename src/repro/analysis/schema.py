"""Stable, versioned JSON schema for cached analysis results.

Everything the service persists — per-file lint findings, collected
fact tables, optimizer results, and interprocedural summaries — goes
through this module, under one :data:`SCHEMA_VERSION`:

- **versioned**: every envelope records the schema version it was
  written under.  A reader that finds any other version *discards* the
  entry (one cold re-analysis) instead of guessing at field meanings —
  misreading a cache is strictly worse than missing it.
- **deterministic**: collections serialize in sorted order and envelopes
  are dumped with sorted keys, so the same analysis result always
  produces the same bytes (which is also what makes concurrent cache
  writers harmless — see :mod:`repro.analysis.cache`).
- **round-trip validated**: :func:`validate_envelope` doesn't just check
  shape, it decodes the payload and re-encodes it, accepting the entry
  only if the bytes survive unchanged.  A field an old writer spelled
  differently therefore fails closed.

Schema history: version 1 was the ad-hoc ``{"version": 1}`` report JSON
the CLIs printed before the cache existed (still emitted, unchanged,
for compatibility); version 2 added the cache envelopes and the
``schema_version`` field.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.facts.records import AlgorithmCallFact, Fact, FactTable
from repro.lint.driver import FileReport, LintFinding
from repro.stllint.abstract_values import AbstractBool, Position, Validity
from repro.stllint.diagnostics import Severity
from repro.stllint.summaries import Summary, ClassEffect, SummaryTable

#: Version of every serialized payload in this module.  Bump on ANY
#: field change — old entries are then discarded, never misread — and
#: on any analyzer change that alters what a payload holds (3: a callee
#: that assigns to an iterator parameter no longer strong-updates the
#: caller's iterator, so cached lint results and summaries from 2 are
#: wrong).
SCHEMA_VERSION = 3


class SchemaError(ValueError):
    """A stored payload cannot be (safely) decoded."""


# ---------------------------------------------------------------------------
# Tagged atom codec — the enum/tuple/frozenset vocabulary of the
# abstract domain, encoded as JSON ``[tag, value]`` pairs.
# ---------------------------------------------------------------------------

_ENUMS = {"pos": Position, "val": Validity, "bool3": AbstractBool}


def encode_atom(v: Any) -> list:
    for tag, enum in _ENUMS.items():
        if isinstance(v, enum):
            return [tag, v.name]
    if isinstance(v, frozenset):
        return ["fset", sorted(v)]
    if isinstance(v, tuple):
        return ["tup", [encode_atom(x) for x in v]]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return ["lit", v]
    raise SchemaError(f"unencodable value of type {type(v).__name__}")


def decode_atom(v: Any) -> Any:
    if not (isinstance(v, list) and len(v) == 2):
        raise SchemaError(f"malformed atom: {v!r}")
    tag, body = v
    if tag in _ENUMS:
        try:
            return _ENUMS[tag][body]
        except KeyError as exc:
            raise SchemaError(f"unknown {tag} member {body!r}") from exc
    if tag == "fset":
        return frozenset(body)
    if tag == "tup":
        return tuple(decode_atom(x) for x in body)
    if tag == "lit":
        return body
    raise SchemaError(f"unknown atom tag {tag!r}")


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
# Fact tables
# ---------------------------------------------------------------------------


def fact_table_to_payload(table: FactTable) -> dict:
    return {
        "facts": [
            [f.subject, f.prop, f.line, f.kind, f.source, f.function]
            for f in table.facts
        ],
        "calls": [
            [c.algorithm, c.line, c.function, c.subject, c.container_kind,
             sorted(c.properties_before), sorted(c.properties_after)]
            for c in table.calls
        ],
    }


def fact_table_from_payload(payload: dict) -> FactTable:
    try:
        facts = [Fact(*row) for row in payload["facts"]]
        calls = [
            AlgorithmCallFact(
                algorithm, line, function, subject, kind,
                frozenset(before), frozenset(after),
            )
            for algorithm, line, function, subject, kind, before, after
            in payload["calls"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed fact table: {exc}") from exc
    return FactTable(facts, calls)


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
# Interprocedural summaries (repro.stllint.summaries)
# ---------------------------------------------------------------------------


def _summary_to_payload(summary: Summary) -> dict:
    return {
        "name": summary.name,
        "converged": summary.converged,
        "ret": encode_atom(tuple(summary.ret)),
        "diagnostics": [
            [sev.value, msg, line]
            for sev, msg, line in summary.diagnostics
        ],
        "class_effects": {
            str(k): [eff.mutated, sorted(eff.properties_after),
                     eff.maybe_empty_after, eff.others]
            for k, eff in sorted(summary.class_effects.items())
        },
        "iter_arg_effects": {
            str(i): None if eff is None else encode_atom(tuple(eff))
            for i, eff in sorted(summary.iter_arg_effects.items())
        },
    }


def _summary_from_payload(payload: dict) -> Summary:
    try:
        summary = Summary(name=payload["name"],
                          converged=payload["converged"])
        summary.ret = decode_atom(payload["ret"])
        summary.diagnostics = [
            (Severity(sev), msg, line)
            for sev, msg, line in payload["diagnostics"]
        ]
        summary.class_effects = {
            int(k): ClassEffect(
                mutated=mutated,
                properties_after=frozenset(props),
                maybe_empty_after=maybe_empty,
                others=others,
            )
            for k, (mutated, props, maybe_empty, others)
            in payload["class_effects"].items()
        }
        summary.iter_arg_effects = {
            int(i): None if eff is None else decode_atom(eff)
            for i, eff in payload["iter_arg_effects"].items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed summary: {exc}") from exc
    return summary


def summary_table_to_payload(table: SummaryTable) -> dict:
    entries = []
    for (name, shapes), summary in table.export_items():
        entries.append({
            "callee": name,
            "shapes": encode_atom(shapes),
            "summary": _summary_to_payload(summary),
        })
    entries.sort(key=lambda e: (e["callee"], repr(e["shapes"])))
    return {"entries": entries}


def summary_table_from_payload(payload: dict) -> SummaryTable:
    table = SummaryTable()
    try:
        for entry in payload["entries"]:
            key = (entry["callee"], decode_atom(entry["shapes"]))
            table.insert(key, _summary_from_payload(entry["summary"]))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed summary table: {exc}") from exc
    return table


# ---------------------------------------------------------------------------
# Envelopes + round-trip validation
# ---------------------------------------------------------------------------

#: kind -> (from_payload, to_payload); ``optimize`` needs the source
#: text threaded through, handled explicitly in :func:`decode_envelope`.
_KINDS = ("lint", "optimize", "facts", "summaries")


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

    if kind == "lint":
        value = file_report_from_payload(payload)
        again = file_report_to_payload(value)
    elif kind == "optimize":
        value = optimize_result_from_payload(payload, source or "")
        again = optimize_result_to_payload(value)
    elif kind == "facts":
        value = fact_table_from_payload(payload)
        again = fact_table_to_payload(value)
    elif kind == "summaries":
        value = summary_table_from_payload(payload)
        again = summary_table_to_payload(value)
    else:
        raise SchemaError(f"unknown payload kind {kind!r}")
    if again != payload:
        raise SchemaError("payload does not round-trip; discarding")
    return value
