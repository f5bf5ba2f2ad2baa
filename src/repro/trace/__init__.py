"""repro.trace — structured tracing across the library machinery.

STLlint and Simplicissimus exist to *explain* what generic machinery did;
the layers' counters say how often, this package says **in what order and
why**:

- :mod:`repro.trace.core` — a span tracer (thread-local stacks, monotonic
  timing, instant events, counter samples) whose disabled state costs one
  module-global ``is None`` check per instrumented choke point and nothing
  at all on the dispatch-table hit path;
- :mod:`repro.trace.counters` — the one registry of pull-based counter
  groups (dispatch, fixpoint engine, analysis cache) that trace exports
  and the exit report read;
- :mod:`repro.trace.exporters` — newline-delimited JSON and Chrome
  ``chrome://tracing`` trace-event output, plus the schema validator CI
  uses to keep the emitted files loadable.

Instrumented layers (each guarded by the same disabled-check discipline):

- concept dispatch (``repro.runtime.dispatch``): table compiles
  (``dispatch.compile`` spans) and slow-path resolutions
  (``dispatch.miss`` spans); hits reach the trace as counter tracks
  folded in from :mod:`repro.trace.counters` at export time;
- the Simplicissimus rewriter: one span per fixpoint pass, one event per
  rule application, an explicit event when ``max_passes`` is exhausted;
- the STLlint driver: per-file and per-function analysis spans,
  havoc/uninlined-call events from the checker, and a
  ``--trace OUT.json`` CLI flag;
- the distributed simulator: delivery/round/drop events and truncation.

Activation: set ``REPRO_TRACE=1`` in the environment (optionally with
``REPRO_TRACE_OUT=trace.json`` to write a Chrome trace at interpreter
exit) or call :func:`enable` programmatically.  ``REPRO_STATS=1`` prints
every counter group's report to stderr at interpreter exit.
"""

from __future__ import annotations

import atexit
import os

from . import counters
from .core import Span, Tracer, active, disable, enable
from .exporters import (
    export_chrome,
    export_ndjson,
    validate_chrome_trace,
)

__all__ = [
    "Span",
    "Tracer",
    "active",
    "counters",
    "disable",
    "enable",
    "export_chrome",
    "export_ndjson",
    "validate_chrome_trace",
]


def _env_enabled(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in (
        "", "0", "false", "off",
    )


if _env_enabled("REPRO_STATS"):
    counters.install_report()

if _env_enabled("REPRO_TRACE"):
    enable()
    _out = os.environ.get("REPRO_TRACE_OUT", "").strip()
    if _out:
        def _export_at_exit(path: str = _out) -> None:
            tracer = active()
            if tracer is not None:
                try:
                    export_chrome(tracer, path)
                except Exception:  # noqa: BLE001 - never fail shutdown
                    pass

        atexit.register(_export_at_exit)
