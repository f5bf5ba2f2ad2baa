"""Trace exporters: newline-delimited JSON and Chrome trace-event format.

Two consumers, two formats:

- :func:`export_ndjson` writes one record per line exactly as the tracer
  stored it — the greppable/streamable form for scripts and tests;
- :func:`export_chrome` writes the Trace Event Format that
  ``chrome://tracing`` (and Perfetto's legacy loader) accepts: an object
  with a ``traceEvents`` array of ``X`` (complete), ``i`` (instant), and
  ``C`` (counter) events with microsecond timestamps.

:func:`validate_chrome_trace` is the schema check the test suite and CI
run over emitted files, so "loads in chrome://tracing" is a verified
property rather than a hope.
"""

from __future__ import annotations

import io
import json
import pathlib
from typing import Any, Union

from . import counters
from .core import Tracer

PathOrFile = Union[str, pathlib.Path, io.TextIOBase, Any]


def _chrome_events(tracer: Tracer) -> list[dict]:
    events: list[dict] = []
    for r in tracer.records:
        base = {
            "name": r["name"],
            "cat": r.get("cat", "repro"),
            "ts": r["ts_us"],
            "pid": tracer.pid,
            "tid": r["tid"],
        }
        if r["type"] == "span":
            base["ph"] = "X"
            base["dur"] = r["dur_us"]
            base["args"] = r.get("attrs", {})
        elif r["type"] == "event":
            base["ph"] = "i"
            base["s"] = "t"
            base["args"] = r.get("attrs", {})
        else:  # counter
            base["ph"] = "C"
            base["args"] = r.get("values", {})
        events.append(base)
    return events


def _write(target: PathOrFile, text: str) -> None:
    if hasattr(target, "write"):
        target.write(text)
    else:
        pathlib.Path(target).write_text(text, encoding="utf-8")


def export_ndjson(tracer: Tracer, target: PathOrFile,
                  fold_counters: bool = True) -> None:
    """One JSON object per line, in recording order."""
    if fold_counters:
        counters.fold(tracer)
    _write(target, "".join(
        json.dumps(r, default=str) + "\n" for r in tracer.records
    ))


def export_chrome(tracer: Tracer, target: PathOrFile,
                  fold_counters: bool = True) -> None:
    """Chrome trace-event JSON (load via ``chrome://tracing`` → Load)."""
    if fold_counters:
        counters.fold(tracer)
    doc = {
        "traceEvents": _chrome_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"tracer": tracer.name},
    }
    _write(target, json.dumps(doc, default=str) + "\n")


_PHASES_REQUIRING_DUR = {"X"}
_KNOWN_PHASES = {"X", "i", "I", "C", "B", "E", "M"}


def validate_chrome_trace(doc: Any) -> list[dict]:
    """Check ``doc`` (a parsed JSON value) against the Trace Event Format;
    returns the event list or raises ``ValueError`` naming the defect."""
    if isinstance(doc, list):
        events = doc
    elif isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("object form must carry a 'traceEvents' list")
    else:
        raise ValueError(
            f"trace must be a JSON array or object, got {type(doc).__name__}"
        )
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in ev:
                raise ValueError(f"event {i} ({ev.get('name')}) lacks {field!r}")
        if ev["ph"] not in _KNOWN_PHASES:
            raise ValueError(f"event {i} has unknown phase {ev['ph']!r}")
        if not isinstance(ev["ts"], (int, float)):
            raise ValueError(f"event {i} ts is not numeric")
        if ev["ph"] in _PHASES_REQUIRING_DUR and not isinstance(
                ev.get("dur"), (int, float)):
            raise ValueError(f"complete event {i} lacks numeric 'dur'")
        if "args" in ev and not isinstance(ev["args"], dict):
            raise ValueError(f"event {i} args is not an object")
    return events
